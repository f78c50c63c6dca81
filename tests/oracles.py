"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's own algorithms:
kernel values are recomputed from scalar formulas, spectral quantities
come from dense SVD instead of power iteration, pivot orderings rebuild
the full Schur complement at every step instead of rank-1 updates, and
least-squares solves go through numpy's SVD-based lstsq instead of the
eigendecomposition route. The benchmark generators keep their first
form: whole oscillator trajectories in memory, and nbody forces from a
(B, B, 3) difference tensor; so do normalization and the error metric,
on row copies and whole held-out blocks, the tuning objective, on whole
N x N Gramians, and the particle swarm, which scores every point
exactly as it goes. Agreement between these and the package is
therefore evidence, not tautology.
"""
from __future__ import annotations

import math

import numpy as np


# === scalar kernel formulas (rewritten from the definitions) ===


def kernel_value(family: str, u, v, h=()):
    """Scalar kernel value. ``"compact_rbf"`` is a test-only indefinite
    kernel, max(0, 1 - (r/h1)^h2 exp(-r^2 / (2 h1^2))), kept to feed the
    not-PSD paths a Gramian no package family produces."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if family == "linear":
        return float(sum(ui * vi for ui, vi in zip(u, v)))
    r = math.sqrt(float(np.sum((u - v) ** 2)))
    if family == "exponential":
        return math.exp(-r / h[0])
    if family == "squared_exponential":
        return math.exp(-(r * r) / (2.0 * h[0]))
    if family == "rational_quadratic":
        h1, h2 = h
        return (1.0 + r * r / (2.0 * h1 * h1 * h2)) ** (-h2)
    if family == "matern32":
        s = math.sqrt(3.0) * r / h[0]
        return (1.0 + s) * math.exp(-s)
    if family == "matern52":
        s = math.sqrt(5.0) * r / h[0]
        return (1.0 + s + 5.0 * r * r / (3.0 * h[0] * h[0])) * math.exp(-s)
    if family == "compact_rbf":
        h1, h2 = h
        if r == 0.0:
            return 1.0
        return max(0.0, 1.0 - (r / h1) ** h2 * math.exp(-(r * r) / (2.0 * h1 * h1)))
    raise ValueError(f"unknown family {family!r}")


def kernel_block_dense(family: str, a, b, h=()) -> np.ndarray:
    """Entrywise double-loop block K[i, j] = k(a[:, i], b[:, j])."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    K = np.empty((a.shape[1], b.shape[1]))
    for i in range(a.shape[1]):
        for j in range(b.shape[1]):
            K[i, j] = kernel_value(family, a[:, i], b[:, j], h)
    return K


def gramian_dense(family: str, columns, h=()) -> np.ndarray:
    """Entrywise double-loop Gramian over ensemble columns."""
    return kernel_block_dense(family, columns, columns, h)


def distance_loop(u, v) -> float:
    """||u - v||, adding (u_k - v_k)^2 in row order with a plain loop.

    Not ``sum()``: from Python 3.12 it compensates float sums, so its
    rounding would not be the row-order rounding under test.
    """
    total = 0.0
    for x, y in zip(np.asarray(u, dtype=float).ravel(), np.asarray(v, dtype=float).ravel()):
        diff = float(x) - float(y)
        total += diff * diff
    return math.sqrt(total)


def distance_block_dense(a, b) -> np.ndarray:
    """Entrywise double-loop distances D[i, j] = ||a[:, i] - b[:, j]||."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    D = np.empty((a.shape[1], b.shape[1]))
    for i in range(a.shape[1]):
        for j in range(b.shape[1]):
            D[i, j] = distance_loop(a[:, i], b[:, j])
    return D


def radial_profile_dense(spec, r) -> np.ndarray:
    """``kernels.radial_profile`` as first written: one whole-array formula
    per family, the rational quadratic's pow over every entry."""
    from bifidelity.kernels import KernelFamily

    r = np.asarray(r, dtype=float)
    fam = spec.family
    h = spec.h
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        if fam == KernelFamily.EXPONENTIAL:
            out = np.exp(-r / h[0])
        elif fam == KernelFamily.SQUARED_EXPONENTIAL:
            out = np.exp(-(r**2) / (2.0 * h[0]))
        elif fam == KernelFamily.RATIONAL_QUADRATIC:
            h1, h2 = h
            out = (1.0 + r**2 / (2.0 * h1**2 * h2)) ** (-h2)
        elif fam == KernelFamily.MATERN32:
            s = np.sqrt(3.0) * r / h[0]
            out = (1.0 + s) * np.exp(-s)
        elif fam == KernelFamily.MATERN52:
            s = np.sqrt(5.0) * r / h[0]
            out = (1.0 + s + 5.0 * r**2 / (3.0 * h[0] ** 2)) * np.exp(-s)
        else:
            raise ValueError(f"{fam.name} is not a radial family")
    return np.where(r == 0.0, 1.0, out)


# === spectral quantities by dense SVD ===


def srank_svd(A) -> float:
    s = np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)
    return float(np.sum(s**2) / s[0] ** 2)


def objective_full(cfg, h, columns) -> float:
    """The tuning objective at ``h`` from whole N x N Gramians.

    The candidate and the linear reference are ``_kernel_block`` of the
    columns against themselves, whole matrices, and ``objective_dense``
    scores them; a kernel that cannot be formed is inf. What this pins is
    the packed path around it: the triangles, their unpacking and the
    bracket.
    """
    from bifidelity.kernels import KernelFamily, KernelSpec, _kernel_block

    columns = np.asarray(columns, dtype=float)
    ref = _kernel_block(KernelSpec(family=KernelFamily.LINEAR), columns, columns)
    try:
        spec = KernelSpec(family=cfg.family, h=tuple(np.atleast_1d(h)))
        cand = _kernel_block(spec, columns, columns)
    except (ValueError, ArithmeticError):
        return math.inf
    return objective_dense(cfg, cand, ref)


def objective_dense(cfg, cand, ref) -> float:
    """The tuning objective of the N x N Gramian ``cand`` against ``ref``.

    The fit and ||cand||_F^2 are summed as the package sums them: the
    strict upper triangle (``np.triu_indices``, row by row) twice and the
    diagonal once, each an ``np.einsum`` over a contiguous vector. ||cand||_2
    is the largest |eigenvalue| from ``eigvalsh``. A non-finite candidate,
    and any other numerical failure, is inf.
    """
    cand = np.asarray(cand, dtype=float)
    ref = np.asarray(ref, dtype=float)
    upper = np.triu_indices(cand.shape[0], k=1)
    squares = lambda v: float(np.einsum("i,i->", v, v))
    diag = np.diagonal(cand).copy()
    fit = math.sqrt(2.0 * squares(ref[upper] - cand[upper]) + squares(np.diagonal(ref) - diag))
    fro2 = 2.0 * squares(cand[upper]) + squares(diag)
    if not fro2 < math.inf:
        return math.inf
    if cfg.lam == 0.0:
        return fit
    try:
        w = np.linalg.eigvalsh(cand)
        return fit + cfg.lam / math.sqrt(fro2 / max(abs(float(w[0])), abs(float(w[-1]))) ** 2)
    except (np.linalg.LinAlgError, ArithmeticError):
        return math.inf


def spectral_norm_svd(A) -> float:
    """s[0], the largest singular value of ``A``."""
    return float(np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)[0])


def objective_svd(ref, cand, lam: float) -> float:
    """Frobenius distance plus the stability penalty, all via SVD."""
    ref = np.asarray(ref, dtype=float)
    cand = np.asarray(cand, dtype=float)
    fro = math.sqrt(float(np.sum((ref - cand) ** 2)))
    if lam == 0.0:
        return fro
    return fro + lam / math.sqrt(srank_svd(cand))


# === greedy pivoting with full Schur recomputation ===


def schur_diagonal(A, chosen):
    """(rest, diag): the indices not in ``chosen`` P, ascending, and each
    one's Schur diagonal A[j,j] - A[j,P] A[P,P]^{-1} A[P,j], unclamped."""
    A = np.asarray(A, dtype=float)
    rest = [j for j in range(A.shape[0]) if j not in chosen]
    diag = np.empty(len(rest))
    for pos, j in enumerate(rest):
        if chosen:
            block = A[np.ix_(chosen, chosen)]
            cross = A[chosen, j]
            diag[pos] = A[j, j] - float(cross @ np.linalg.solve(block, cross))
        else:
            diag[pos] = A[j, j]
    return rest, diag


def greedy_pivots(A, max_steps: int, drop_tolerance: float = 1e-12):
    """Greedy max-Schur-diagonal ordering, recomputed from scratch each step.

    Returns (ordering, effective_rank). The Schur diagonal of candidate j
    given chosen set P is A[j,j] - A[j,P] A[P,P]^{-1} A[P,j]; negatives
    above -1e-8 times the initial max diagonal clamp to zero, deeper ones
    raise. After the greedy phase the remaining indices are appended in
    ascending order.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    dmax0 = float(np.max(np.diag(A)))
    chosen: list[int] = []
    for _ in range(max_steps):
        rest, diag = schur_diagonal(A, chosen)
        if np.any(diag < -1e-8 * dmax0):
            raise ValueError("matrix not positive semidefinite")
        diag = np.maximum(diag, 0.0)
        top = float(np.max(diag))
        if top <= drop_tolerance * dmax0:
            break
        # ties break toward the lowest sample index
        chosen.append(min(rest[pos] for pos in np.nonzero(diag == top)[0]))
    rank = len(chosen)
    ordering = chosen + sorted(set(range(n)) - set(chosen))
    return tuple(ordering), rank


# === benchmark generators, as first written ===


def integrate_oscillator_dense(omega, gamma, dt, horizon, method):
    """Whole (steps + 1, n_samples) trajectories x and v, stage by stage."""
    omega = np.asarray(omega, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    steps = int(round(horizon / dt))
    xs = np.empty((steps + 1, omega.size))
    vs = np.empty((steps + 1, omega.size))
    xs[0] = 1.0
    vs[0] = 0.0
    w2 = omega**2

    def accel(x, v):
        return -w2 * x - gamma * v

    if method == "euler":
        for k in range(steps):
            a = accel(xs[k], vs[k])
            xs[k + 1] = xs[k] + dt * vs[k]
            vs[k + 1] = vs[k] + dt * a
    elif method == "rk4":
        for k in range(steps):
            x0, v0 = xs[k], vs[k]
            k1x, k1v = v0, accel(x0, v0)
            k2x, k2v = v0 + 0.5 * dt * k1v, accel(x0 + 0.5 * dt * k1x, v0 + 0.5 * dt * k1v)
            k3x, k3v = v0 + 0.5 * dt * k2v, accel(x0 + 0.5 * dt * k2x, v0 + 0.5 * dt * k2v)
            k4x, k4v = v0 + dt * k3v, accel(x0 + dt * k3x, v0 + dt * k3v)
            xs[k + 1] = x0 + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
            vs[k + 1] = v0 + dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
    else:
        raise ValueError(f"unknown integrator {method!r}")
    return xs, vs


def oscillator_qois_dense(omega, xs, vs):
    """Time-averaged energy and final oscillation amplitude per sample."""
    w2 = np.asarray(omega, dtype=float) ** 2
    energy = 0.5 * (vs**2 + w2 * xs**2)
    avg_energy = energy.mean(axis=0)
    amplitude = np.sqrt(xs[-1] ** 2 + (vs[-1] / np.asarray(omega)) ** 2)
    return avg_energy, amplitude


def oscillator_outputs_dense(omega, gamma, lf_settings, hf_settings):
    """Raw LF (energy, amplitude) and HF (trajectory rows, energy, amplitude)
    outputs from whole trajectories, before normalization.

    An Euler trajectory that leaves the finite numbers raises
    ArithmeticError naming the samples whose final x is not finite.
    """
    xs, vs = integrate_oscillator_dense(omega, gamma, lf_settings["dt"], lf_settings["horizon"], "euler")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
        bad = np.nonzero(~np.isfinite(xs[-1]))[0]
        raise ArithmeticError(f"low-fidelity integration unstable for samples {bad.tolist()}")
    lf = np.vstack(oscillator_qois_dense(omega, xs, vs))
    xs, vs = integrate_oscillator_dense(omega, gamma, hf_settings["dt"], hf_settings["horizon"], "rk4")
    points = hf_settings["trajectory_points"]
    stride = (xs.shape[0] - 1) // points
    rows = xs[stride * np.arange(1, points + 1)]
    return lf, np.vstack([rows, *oscillator_qois_dense(omega, xs, vs)])


def nbody_accel_einsum(pos, masses, eps, g_const):
    """Softened gravitational acceleration from a (B, B, 3) difference tensor."""
    diff = pos[:, None, :] - pos[None, :, :]
    dist2 = np.sum(diff**2, axis=2) + eps**2
    inv3 = dist2 ** (-1.5)
    np.fill_diagonal(inv3, 0.0)
    return -g_const * np.einsum("j,ijk,ij->ik", masses, diff, inv3)


def integrate_oscillator(omega: float, gamma: float, dt: float, horizon: float, method: str = "rk4"):
    """(t, x, v) of one sample of x'' = -omega^2 x - gamma x' from (1, 0),
    by the package's integrator: not an oracle, the one-sample driver the
    trajectory tests compare with ``integrate_oscillator_dense``. Euler
    states equal the oracle's bit for bit; RK4 runs by powers of its step
    matrix, whose states the tests hold within 1e-11 of the oracle's
    largest absolute value.

    Drives ``bench._integrate_blocks`` with one block of every step, so
    the whole trajectory comes back (and RK4 forms ``steps`` powers).
    """
    from bifidelity.bench import _integrate_blocks

    steps = int(round(horizon / dt))
    [y] = _integrate_blocks(np.array([omega], dtype=float), np.array([gamma], dtype=float), dt, steps, method, steps)
    return dt * np.arange(steps + 1), y[:, 0, 0], y[:, 1, 0]


# === normalization and scoring, as first written ===


def normalize_dense(outputs, groups) -> np.ndarray:
    """A normalized copy of ``outputs``: each row group divided by the root
    of the mean squared group norm, from a squared row copy of the group."""
    outputs = np.array(outputs, dtype=float)
    for g in groups:
        energy = float(np.mean(np.sum(outputs[g, :] ** 2, axis=0)))
        outputs[g, :] /= math.sqrt(energy)
    return outputs


def median_relative_error_dense(surrogate, hf_truth, lf):
    """(aggregate, {label: median}) from the whole held-out truth, prediction
    and difference blocks, with a norm of a row copy per label group.

    The prediction comes from the package's ``evaluate``: what this pins
    is the scoring around it, whose norms sum each column pairwise or row
    by row as the layout of the block they are taken on decides.
    """
    from bifidelity.surrogate import evaluate

    test = np.setdiff1d(np.arange(lf.n_samples), surrogate.pivots)
    truth = hf_truth.outputs[:, test]
    diff = truth - evaluate(surrogate, lf.outputs[:, test])

    def median_ratio(rows) -> float:
        num = np.linalg.norm(diff[rows], axis=0)
        den = np.linalg.norm(truth[rows], axis=0)
        keep = den > 0.0
        return median_lower((num[keep] / den[keep]).tolist()) if keep.any() else math.nan

    groups = hf_truth.label_groups().items()
    return median_ratio(slice(None)), {name: median_ratio(rows) for name, rows in groups}


# === search oracles ===


def random_search_minimum(f, bounds, n_points: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    bounds = np.asarray(bounds, dtype=float)
    best = math.inf
    for _ in range(n_points):
        x = bounds[:, 0] + rng.uniform(size=bounds.shape[0]) * (bounds[:, 1] - bounds[:, 0])
        best = min(best, f(x))
    return best


def grid_minimum_1d(f, lo: float, hi: float, n_points: int) -> float:
    xs = np.linspace(lo, hi, n_points)
    return min(f(np.array([x])) for x in xs)


def log_grid_minimum_1d(f, lo: float, hi: float, n_points: int) -> float:
    xs = np.exp(np.linspace(math.log(lo), math.log(hi), n_points))
    return min(f(np.array([x])) for x in xs)


def pso_minimize_eager(f, cfg, bounds):
    """The particle swarm as it scored every point before brackets existed.

    Each value is a float the moment it is asked for, and the swarm keeps
    them in arrays and picks the best with np.argmin. Draws come from a
    fresh Philox generator per (seed, iteration, particle) stream. Same
    update rule and return contract as ``hyperopt.pso_minimize``.
    """
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    dim = bounds.shape[0]
    span = hi - lo
    vmax = cfg.v_max_fraction * span

    def stream(iteration, particle):
        key = np.array([cfg.seed, (iteration << 32) | particle], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    pos = np.empty((cfg.swarm_size, dim))
    vel = np.empty((cfg.swarm_size, dim))
    for i in range(cfg.swarm_size):
        g = stream(0, i)
        pos[i] = lo + g.uniform(size=dim) * span
        vel[i] = (2.0 * g.uniform(size=dim) - 1.0) * vmax

    values = np.array([f(p) for p in pos], dtype=float)
    best_pos = pos.copy()
    best_val = values.copy()
    g_idx = int(np.argmin(best_val))
    g_pos = best_pos[g_idx].copy()
    g_val = float(best_val[g_idx])
    trace = [g_val]

    stall = 0
    for it in range(1, cfg.max_iters + 1):
        for i in range(cfg.swarm_size):
            rho, gamma = stream(it, i).uniform(size=2)
            vel[i] += cfg.k1 * rho * (best_pos[i] - pos[i])
            vel[i] += cfg.k2 * gamma * (g_pos - pos[i])
        np.clip(vel, -vmax, vmax, out=vel)
        pos += vel
        np.clip(pos, lo, hi, out=pos)
        values = np.array([f(p) for p in pos], dtype=float)
        improved_mask = values < best_val
        best_val[improved_mask] = values[improved_mask]
        best_pos[improved_mask] = pos[improved_mask]
        new_idx = int(np.argmin(best_val))
        if best_val[new_idx] < g_val:
            g_val = float(best_val[new_idx])
            g_pos = best_pos[new_idx].copy()
            stall = 0
        else:
            stall += 1
        trace.append(g_val)
        if stall >= cfg.stall_iters:
            break
    return g_pos.copy(), g_val, trace


# === adaptive-selection epsilon by explicit dense least squares ===


def adaptive_epsilon_dense(gram, columns, n: int, rcond: float = 1e-12) -> float:
    """Self-emulation residual median for one family's Gramian.

    Pivots come from greedy_pivots above; each held-out column is fit by
    numpy's SVD-based lstsq on the pivot-sliced system. A sliced Gramian
    whose singular-value rank under rcond falls below n scores +inf, as
    does a non-PSD Gramian.
    """
    gram = np.asarray(gram, dtype=float)
    columns = np.asarray(columns, dtype=float)
    N = gram.shape[0]
    try:
        ordering, _ = greedy_pivots(gram, max_steps=n)
    except ValueError:
        return math.inf
    pivots = list(ordering[:n])
    others = [j for j in range(N) if j not in pivots]
    sliced = gram[np.ix_(pivots, pivots)]
    svals = np.linalg.svd(sliced, compute_uv=False)
    if svals[0] <= 0.0 or int(np.sum(svals > rcond * svals[0])) < n:
        return math.inf
    residuals = []
    for j in others:
        rhs = gram[pivots, j]
        coeffs, *_ = np.linalg.lstsq(sliced, rhs, rcond=rcond)
        pred = columns[:, pivots] @ coeffs
        residuals.append(float(np.linalg.norm(columns[:, j] - pred)))
    return median_lower(residuals)


def median_lower(values) -> float:
    ordered = sorted(values)
    return float(ordered[(len(ordered) - 1) // 2])


def random_psd(n: int, seed: int, distinct_diag: bool = False) -> np.ndarray:
    """Random PSD matrix; optionally with well-separated diagonal values."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n + 2))
    A = B @ B.T
    if distinct_diag:
        A = A + np.diag(np.linspace(0.0, 1.0, n) * np.trace(A) / n)
    return A
