"""Kernel hyperparameter tuning.

The objective scores a candidate kernel Gramian by its Frobenius distance
to the linear-kernel reference Gramian plus a stable-rank penalty
lambda / sqrt(srank). A particle swarm explores a (log-scaled) box, and a
projected quasi-Newton pass polishes the swarm's best particle.

The swarm only compares scores, so each point is first scored as a
bracket. Each family packs the strict upper triangle of its LF distances
and of the reference once, and a point evaluates the kernel on that half
of the entries; every radial family is 1 on the diagonal. For the
nonnegative, exactly symmetric Gramian K this gives, the row sums
r = K 1 and the largest off-diagonal entry bound
max(mean(r), 1 + max_{i<j} K_ij) <= ||K||_2 <= min(max(r), ||K||_F)
(Rayleigh quotients at the ones vector and at e_i + e_j; Horn & Johnson,
Matrix Analysis, 8.1), which bounds the penalty without an eigensolve.
mean(r) is the triangle's sum; the full row sums take the unpacked
Gramian, so a point is bracketed first with 1 + (N - 1) max_{i<j} K_ij
in place of max(r), and refined with the row sums only when a comparison
needs it. Two pads keep the bracket rigorous: 1e-9 relative on the
stability term, and a summation bound of (N^2 + 8) * 2^-53 relative on
the fit term, which the triangle sums in another order than the exact
objective. The exact objective runs only when two refined brackets
overlap, and for every value the optimizers return or the polish sees;
it unpacks the full Gramian from one profile call on the triangle, bit
for bit the one the full distance matrix gives. The tuned h are then the
ones exact scores give, with one case a bracket cannot see: an eigensolve
that fails to converge on a finite symmetric Gramian, which the exact
objective maps to inf, while the bracket holds finite bounds.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import _BLOCK_DOUBLES, SnapshotEnsemble
from .kernels import (
    HYPER_DIMS,
    KernelFamily,
    KernelSpec,
    _distances,
    gramian_entries,
    pairwise_distances,
    radial_profile,
)
from .numerics import NumericsError, stable_rank

__all__ = [
    "ObjectiveConfig",
    "PsoConfig",
    "OptimizedKernel",
    "objective",
    "pso_minimize",
    "refine_local",
    "optimize_hyperparams",
    "default_bounds",
    "median_pairwise_distance",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ObjectiveConfig:
    """Inputs for the hyperparameter objective of one kernel family."""

    lam: float
    family: KernelFamily
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        family = KernelFamily(self.family)
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) != HYPER_DIMS[family]:
            raise ValueError(
                f"{family.name} needs {HYPER_DIMS[family]} bound pairs, got {len(bounds)}"
            )
        for lo, hi in bounds:
            if not (0 < lo < hi):
                raise ValueError(f"bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "bounds", bounds)


@dataclass(frozen=True)
class PsoConfig:
    """Swarm settings; the velocity limit is a fraction of the box span."""

    swarm_size: int = 30
    k1: float = 1.49
    k2: float = 1.49
    v_max_fraction: float = 0.2
    max_iters: int = 100
    stall_iters: int = 15
    seed: int = 0

    def __post_init__(self):
        for name in ("swarm_size", "max_iters", "stall_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be at least 2")
        # written so that NaN fails each test
        if not (0 < self.k1 < math.inf and 0 < self.k2 < math.inf):
            raise ValueError(f"k1 and k2 must be positive and finite, got {self.k1}, {self.k2}")
        if not 0 < self.v_max_fraction <= 1:
            raise ValueError("v_max_fraction must be in (0, 1]")
        if self.max_iters < 1 or self.stall_iters < 1:
            raise ValueError("max_iters and stall_iters must be at least 1")


@dataclass(frozen=True)
class OptimizedKernel:
    """A tuned kernel spec with optimization bookkeeping.

    ``evaluations_used`` counts the optimizers' objective requests, repeats
    included; ``distinct_evaluations`` counts the objective computations,
    one per distinct point.
    """

    spec: KernelSpec
    objective_value: float
    evaluations_used: int
    wall_time: float
    distinct_evaluations: int = 0


def _spec_for(cfg: ObjectiveConfig, h) -> KernelSpec:
    arr = np.atleast_1d(np.asarray(h, dtype=float))
    return KernelSpec(family=cfg.family, h=tuple(float(v) for v in arr))


class _Bracket:
    """An objective value known to lie in [lo, hi] until ``float()`` asks for it.

    ``exact(arg)`` computes the value; it runs at most once, and the
    bracket then narrows to that value. ``refine(arg)``, where given,
    returns tighter bounds for less than the exact value costs;
    ``narrow()`` applies it once, and resolves exactly after that.
    """

    __slots__ = ("lo", "hi", "exact", "arg", "refine")

    def __init__(self, lo: float, hi: float, exact, arg, refine=None):
        self.lo, self.hi, self.exact, self.arg, self.refine = lo, hi, exact, arg, refine

    def narrow(self) -> None:
        if self.refine is None:
            float(self)
            return
        lo, hi = self.refine(self.arg)
        self.lo, self.hi, self.refine = max(self.lo, lo), min(self.hi, hi), None

    def __float__(self) -> float:
        if self.exact is not None:
            self.lo = self.hi = float(self.exact(self.arg))
            self.exact = self.arg = self.refine = None
        return self.lo


def _less(a, b) -> bool:
    """``a < b`` for scores that may be brackets; a float is its own bracket.

    While the two brackets overlap, a pending one is narrowed: refined
    while either can be, then resolved, ``a`` first each time (the
    challenger, in the swarm). So the answer is the one the exact values
    give, and a value is resolved only where the refined brackets overlap.
    """
    while True:
        a_lo, a_hi = (a.lo, a.hi) if isinstance(a, _Bracket) else (a, a)
        b_lo, b_hi = (b.lo, b.hi) if isinstance(b, _Bracket) else (b, b)
        if a_hi < b_lo or a_lo >= b_hi:
            return a_hi < b_lo
        pending = [v for v in (a, b) if isinstance(v, _Bracket) and v.exact is not None]
        min(pending, key=lambda v: v.refine is None).narrow()


class _Memoized:
    """A scalar objective ``f`` scored once per distinct point.

    Points are keyed by their exact float64 bytes, so a repeated request
    returns the very value a fresh computation would. ``score`` returns a
    pending _Bracket where ``bounds`` gives (lo, hi) on ``f``, and ``f``'s
    value otherwise; ``refine``, where given, gives the bracket's tighter
    bounds. Calling the memo returns the exact value. A pending point
    holds only its key and bounds. ``requests`` counts every request of
    either kind, repeats included; ``values`` holds one entry per distinct
    point.
    """

    def __init__(self, f, bounds, refine=None):
        self.f = f
        self.bounds = bounds
        self.values: dict[bytes, float | _Bracket] = {}
        self.requests = 0
        self._f_at = lambda key: f(np.frombuffer(key))
        self._refine_at = None if refine is None else lambda key: refine(np.frombuffer(key))

    def score(self, x):
        self.requests += 1
        key = np.asarray(x, dtype=float).tobytes()
        if key not in self.values:
            b = self.bounds(x)
            self.values[key] = self.f(x) if b is None else _Bracket(*b, self._f_at, key, self._refine_at)
        return self.values[key]

    def __call__(self, x) -> float:
        return float(self.score(x))


def _linear_reference(X: np.ndarray) -> np.ndarray:
    """The linear-kernel Gramian of the columns ``X`` that tuning aims at."""
    ref = gramian_entries(KernelSpec(family=KernelFamily.LINEAR), X)
    if not np.all(np.isfinite(ref)):
        raise ArithmeticError("linear reference Gramian has non-finite entries")
    return ref


def _gramian_objective(cfg: ObjectiveConfig, cand: np.ndarray, ref: np.ndarray) -> float:
    """The objective of a formed candidate Gramian; any numerical failure is inf."""
    try:
        if not np.all(np.isfinite(cand)):
            return math.inf
        value = float(np.linalg.norm(ref - cand))
        if cfg.lam != 0.0:
            value += cfg.lam / math.sqrt(stable_rank(cand))
    except (NumericsError, ValueError, ArithmeticError):
        return math.inf
    return value if np.isfinite(value) else math.inf


def _objective(cfg: ObjectiveConfig, h, X: np.ndarray, ref: np.ndarray, dists) -> float:
    """The objective at ``h`` against a formed reference; see ``objective``."""
    try:
        cand = gramian_entries(_spec_for(cfg, h), X, dists)
    except (ValueError, ArithmeticError):
        return math.inf
    return _gramian_objective(cfg, cand, ref)


class _Triangle:
    """One family's tuning inputs, packed once: the strict upper triangle.

    ``dists`` holds a 0 (the diagonal's distance) and then the strict upper
    triangle of the distance matrix, row by row, so one ``radial_profile``
    call on it gives the diagonal value first and each off-diagonal entry
    once. ``ref_upper`` and ``ref_diag`` pack the linear reference alike;
    ``ref`` is the whole reference, which the exact objective subtracts
    from. No N x N mask or index array is held between calls.
    """

    __slots__ = ("n", "dists", "ref", "ref_upper", "ref_diag")

    def __init__(self, ref: np.ndarray, dists: np.ndarray):
        self.n = n = dists.shape[0]
        upper = ~np.tri(n, dtype=bool)
        self.dists = np.empty(n * (n - 1) // 2 + 1)
        self.dists[0] = 0.0
        self.dists[1:] = dists[upper]
        self.ref = ref
        self.ref_upper = ref[upper]
        self.ref_diag = np.diagonal(ref).copy()

    def gramian(self, values: np.ndarray) -> np.ndarray:
        """The symmetric matrix with diagonal ``values[0]`` and strict upper triangle ``values[1:]``."""
        upper = ~np.tri(self.n, dtype=bool)
        K = np.empty((self.n, self.n))
        K[upper] = values[1:]
        K.T[upper] = values[1:]
        K.flat[:: self.n + 1] = values[0]
        return K


def _pack(ref: np.ndarray, dists: np.ndarray) -> _Triangle | None:
    """The packed triangle of ``dists``, or None unless they are exactly
    symmetric with a zero diagonal, where a radial Gramian is symmetric
    with every diagonal entry the profile's value at 0."""
    if not (np.array_equal(dists, dists.T) and np.all(np.diagonal(dists) == 0.0)):
        return None
    return _Triangle(ref, dists)


def _profile(cfg: ObjectiveConfig, h, tri: _Triangle) -> np.ndarray | None:
    """The kernel at ``h`` on the packed distances; None where h names no kernel."""
    try:
        return radial_profile(_spec_for(cfg, h), tri.dists)
    except ValueError:
        return None


def _packed_objective(cfg: ObjectiveConfig, h, tri: _Triangle) -> float:
    """``_objective`` at ``h``, bit for bit, with the Gramian unpacked from one profile call.

    A radial profile acts entry by entry, so the packed values are the
    very ones the full distance matrix gives.
    """
    values = _profile(cfg, h, tri)
    if values is None:
        return math.inf
    cand = tri.gramian(values)
    del values  # only the Gramian is held while it is scored
    return _gramian_objective(cfg, cand, tri.ref)


# The bounds on ||K||_2 hold in exact arithmetic. The computed ||K||_2,
# row sums and ||K||_F each round at the N^2 * 2^-53 level at most
# (4.4e-10 at N = 2000), below this relative pad on the stability term.
_BRACKET_PAD = 1e-9


def _bracket(cfg: ObjectiveConfig, h, tri: _Triangle, rows: bool = False):
    """Bounds (lo, hi) on ``_objective`` at ``h``, or None where none are known.

    One profile call on the packed triangle gives the diagonal value k0
    and each off-diagonal entry once. For a finite, nonnegative K (every
    radial family; the triangle is exactly symmetric) with row sums
    r = K 1, the Rayleigh quotients at the ones vector and at e_i + e_j
    give ||K||_2 >= max(mean(r), k0 + max_{i<j} K_ij), and
    ||K||_2 <= min(max(r), ||K||_F) (Collatz-Wielandt). The stability term
    lam * ||K||_2 / ||K||_F lies between the two, padded by _BRACKET_PAD.
    mean(r) comes from the sum of the triangle; the full row sums, which
    take the unpacked Gramian, are formed only with ``rows``, and without
    them max(r) <= k0 + (N - 1) max_{i<j} K_ij stands in.

    The fit term ||ref - K||_F and ||K||_F^2 are summed from the triangle
    (twice each off-diagonal term, plus the diagonal's), not in
    ``_objective``'s order. Every term is nonnegative, so to first order
    ``_objective``'s fit is within (N^2 / 2 + 2) * 2^-53 of the exact
    value, relative, and this one within (N^2 / 4 + 3) * 2^-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1 and 4.2). The fit
    is padded by (N^2 + 8) * 2^-53, which covers their distance, and its
    own rounding, for every N. Every other case (lam = 0, a negative or
    non-finite entry, a zero Gramian) gives None, and the caller scores it
    exactly.
    """
    if cfg.lam == 0.0:
        return None
    values = _profile(cfg, h, tri)
    if values is None:
        return None
    n, k0, off = tri.n, float(values[0]), values[1:]
    top = float(off.max(initial=-math.inf))
    # written so that NaN fails each test
    if not (k0 >= 0.0 and off.min(initial=k0) >= 0.0 and max(k0, top) < math.inf):
        return None
    if rows:
        r = tri.gramian(values) @ np.ones(n)
        mean, most = float(r.sum()) / n, float(r.max())
    else:
        mean, most = k0 + 2.0 * float(off.sum()) / n, k0 + (n - 1) * max(top, 0.0)
    diff = tri.ref_upper - off
    diag = tri.ref_diag - k0
    fit = math.sqrt(2.0 * float(diff @ diff) + float(diag @ diag))
    fro2 = 2.0 * float(off @ off) + n * k0 * k0
    if not (fit < math.inf and 0.0 < fro2 < math.inf):
        return None
    fit_pad = (n * n + 8) * 2.0**-53
    scale = cfg.lam / math.sqrt(fro2)
    lo = fit * (1.0 - fit_pad) + scale * max(mean, k0 + top) * (1.0 - _BRACKET_PAD)
    hi = fit * (1.0 + fit_pad) + scale * min(most, math.sqrt(fro2)) * (1.0 + _BRACKET_PAD)
    return lo, hi


def _scores(cfg: ObjectiveConfig, X: np.ndarray, ref: np.ndarray, dists: np.ndarray) -> _Memoized:
    """One family's objective over log h, memoized and bracketed from the packed triangle.

    Each point is bracketed without row sums; a bracket is refined with
    them only when a comparison needs it. Distances that are not exactly
    symmetric with a zero diagonal give no triangle, and every point is
    then scored exactly by ``_objective``. Otherwise only the triangle is
    kept, not ``dists``.
    """
    tri = _pack(ref, dists)
    if tri is None:
        return _Memoized(lambda theta: _objective(cfg, np.exp(theta), X, ref, dists), lambda theta: None)
    return _Memoized(
        lambda theta: _packed_objective(cfg, np.exp(theta), tri),
        lambda theta: _bracket(cfg, np.exp(theta), tri),
        lambda theta: _bracket(cfg, np.exp(theta), tri, rows=True),
    )


def objective(cfg: ObjectiveConfig, h, lf_ensemble: SnapshotEnsemble) -> float:
    """Frobenius distance to the ensemble's linear Gramian plus the srank penalty.

    Any numerical failure of the candidate (overflow, degenerate Gramian)
    maps to +inf so optimizers can treat the objective as total on the
    box. A non-finite linear reference raises ArithmeticError.
    """
    X = lf_ensemble.outputs
    return _objective(cfg, h, X, _linear_reference(X), None)


def _stream(
    generator: np.random.Generator, seed: int, iteration: int, particle: int
) -> np.random.Generator:
    """Re-key a Philox ``generator`` to the start of stream (seed, iteration, particle).

    Counter-based: the draws depend on the key alone, whatever the order of
    the calls. Setting the state of the caller's generator costs a fifth of
    building a new one per stream.
    """
    stream = ((iteration & 0xFFFFFFFF) << 32) | (particle & 0xFFFFFFFF)
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & 0xFFFFFFFFFFFFFFFF, stream)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def _score(f, p):
    """``f(p)``: a _Bracket as it is, any other score as a float; NaN raises ValueError."""
    value = f(p)
    if isinstance(value, _Bracket):
        return value
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"objective is NaN at {p.tolist()}")
    return value


def pso_minimize(f, cfg: PsoConfig, bounds) -> tuple[np.ndarray, float, list[float]]:
    """Particle swarm minimization over a box.

    Velocity update: v <- v + k1*rho*(best_own - h) + k2*gamma*(best_all - h)
    with rho, gamma drawn fresh per particle per iteration; velocities are
    clamped componentwise and positions clipped to the box. Returns the
    best-ever position, its value, and the best-value trace per iteration.

    ``f`` returns a float or a _Bracket. Scores are only compared, through
    ``_less``, so a bracket is resolved only when a comparison needs it (and
    for the returned value and trace, which are exact). A NaN score raises
    ValueError naming the point.
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2 or np.any(bounds[:, 0] >= bounds[:, 1]):
        raise ValueError("bounds must be an array of (lo, hi) pairs with lo < hi")
    lo, hi = bounds[:, 0], bounds[:, 1]
    dim = bounds.shape[0]
    span = hi - lo
    vmax = cfg.v_max_fraction * span

    rng = np.random.Generator(np.random.Philox(key=0))  # re-keyed per stream
    pos = np.empty((cfg.swarm_size, dim))
    vel = np.empty((cfg.swarm_size, dim))
    for i in range(cfg.swarm_size):
        g = _stream(rng, cfg.seed, 0, i)
        pos[i] = lo + g.uniform(size=dim) * span
        vel[i] = (2.0 * g.uniform(size=dim) - 1.0) * vmax

    best_val = [_score(f, p) for p in pos]
    best_pos = pos.copy()
    # the first particle holding the least value, as np.argmin picks it
    g_idx = 0
    for i in range(1, cfg.swarm_size):
        if _less(best_val[i], best_val[g_idx]):
            g_idx = i
    g_pos = best_pos[g_idx].copy()
    g_val = best_val[g_idx]
    trace = [g_val]

    stall = 0
    draws = np.empty((cfg.swarm_size, 2))  # (rho, gamma) per particle
    for it in range(1, cfg.max_iters + 1):
        for i in range(cfg.swarm_size):
            draws[i] = _stream(rng, cfg.seed, it, i).uniform(size=2)
        vel += cfg.k1 * draws[:, :1] * (best_pos - pos)
        vel += cfg.k2 * draws[:, 1:] * (g_pos - pos)
        np.clip(vel, -vmax, vmax, out=vel)
        pos += vel
        np.clip(pos, lo, hi, out=pos)
        values = [_score(f, p) for p in pos]
        # g_val is the least personal best, so only an improved particle can
        # beat it; taking them in order keeps the first of any tie
        improved = False
        for i, value in enumerate(values):
            if _less(value, best_val[i]):
                best_val[i] = value
                best_pos[i] = pos[i]
                if _less(value, g_val):
                    g_val, g_pos, improved = value, pos[i].copy(), True
        stall = 0 if improved else stall + 1
        trace.append(g_val)
        if stall >= cfg.stall_iters:
            break
    return g_pos.copy(), float(g_val), [float(v) for v in trace]


def _fd_gradient(f, x: np.ndarray, fx: float) -> np.ndarray:
    """Central finite differences with one-sided fallback near failures."""
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = 1e-6 * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        fp, fm = f(xp), f(xm)
        if np.isfinite(fp) and np.isfinite(fm):
            grad[i] = (fp - fm) / (2.0 * step)
        elif np.isfinite(fp):
            grad[i] = (fp - fx) / step
        elif np.isfinite(fm):
            grad[i] = (fx - fm) / step
        else:
            grad[i] = 0.0
    return grad


def refine_local(
    f,
    h0,
    bounds,
    grad_tol: float = 1e-8,
    step_tol: float = 1e-12,
    max_iters: int = 500,
) -> tuple[np.ndarray, float]:
    """Projected quasi-Newton descent from ``h0`` inside a box.

    Gradients use central finite differences with step 1e-6 * max(1, |h|).
    Stops when the gradient infinity norm reaches ``grad_tol``, the step
    shrinks to ``step_tol``, or after ``max_iters`` iterations. The result
    never exceeds f(h0).
    """
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    x = np.clip(np.asarray(h0, dtype=float).copy(), lo, hi)
    fx = f(x)
    best_x, best_f = x.copy(), fx
    if not np.isfinite(fx):
        return best_x, best_f
    dim = x.size
    Hinv = np.eye(dim)
    grad = _fd_gradient(f, x, fx)

    for _ in range(max_iters):
        if np.max(np.abs(grad)) <= grad_tol:
            break
        direction = -Hinv @ grad
        if float(direction @ grad) >= 0.0:
            direction = -grad
            Hinv = np.eye(dim)

        t = 1.0
        accepted = False
        x_new = x
        f_new = fx
        while t >= 1e-16:
            cand = np.clip(x + t * direction, lo, hi)
            dx = cand - x
            if np.linalg.norm(dx) <= step_tol:
                break
            f_cand = f(cand)
            # non-finite values just shrink the step
            if np.isfinite(f_cand) and f_cand <= fx + 1e-4 * min(0.0, float(grad @ dx)):
                x_new, f_new, accepted = cand, f_cand, True
                break
            t *= 0.5
        if not accepted:
            break

        grad_new = _fd_gradient(f, x_new, f_new)
        s = x_new - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            I = np.eye(dim)
            Hinv = (I - rho * np.outer(s, y)) @ Hinv @ (I - rho * np.outer(y, s))
            Hinv += rho * np.outer(s, s)
        else:
            Hinv = np.eye(dim)
        x, fx, grad = x_new, f_new, grad_new
        if fx < best_f:
            best_x, best_f = x.copy(), fx
    return best_x, best_f


def median_pairwise_distance(columns: np.ndarray) -> float:
    """Median distance between distinct columns; 1.0 when degenerate.

    Raises ArithmeticError when a distance overflows.
    """
    n = columns.shape[1]
    if n < 2:
        return 1.0
    # the strict upper triangle, row-major, one block of rows at a time:
    # each distance sums its squares in row order whatever block it is in,
    # so only the n (n - 1) / 2 values and one block are ever held
    upper = np.empty(n * (n - 1) // 2)
    width = max(1, _BLOCK_DOUBLES // n)
    at = 0
    for lo in range(0, n - 1, width):
        block = _distances(columns[:, lo : lo + width], columns[:, lo + 1 :])
        if not np.all(np.isfinite(block)):
            raise ArithmeticError("pairwise column distances are non-finite")
        for r, row in enumerate(block):
            tail = row[r:]  # the columns right of the diagonal
            upper[at : at + tail.size] = tail
            at += tail.size
    med = float(np.median(upper, overwrite_input=True))
    return med if med > 0 else 1.0


def default_bounds(family: KernelFamily, dbar: float) -> tuple[tuple[float, float], ...]:
    """Search box [1e-3, 1e3] times ``dbar``, the median pairwise column distance."""
    return tuple((1e-3 * dbar, 1e3 * dbar) for _ in range(HYPER_DIMS[family]))


def optimize_hyperparams(
    family: KernelFamily,
    lf_ensemble: SnapshotEnsemble,
    obj_cfg: ObjectiveConfig,
    pso_cfg: PsoConfig,
) -> OptimizedKernel:
    """Tune one family's hyperparameters: log-scale PSO plus local polish.

    The swarm and the polish share one memo, so each distinct point is
    bracketed once and computed exactly at most once; ``evaluations_used``
    still counts every request.

    The linear family has nothing to tune and returns immediately with the
    objective reduced to its stable-rank term and zero evaluations.
    """
    family = KernelFamily(family)
    if family != obj_cfg.family:
        raise ValueError(
            f"family {family.name} does not match objective config ({obj_cfg.family.name})"
        )
    started = time.perf_counter()
    X = lf_ensemble.outputs
    ref = _linear_reference(X)
    if family == KernelFamily.LINEAR:
        value = _objective(obj_cfg, (), X, ref, None)
        return OptimizedKernel(
            spec=KernelSpec(family=KernelFamily.LINEAR),
            objective_value=value,
            evaluations_used=0,
            wall_time=time.perf_counter() - started,
        )

    # clipped swarm particles revisit box edges, so many requests repeat
    f_log = _scores(obj_cfg, X, ref, pairwise_distances(X))

    log_bounds = np.log(np.asarray(obj_cfg.bounds, dtype=float))
    theta_pso, _, _ = pso_minimize(f_log.score, pso_cfg, log_bounds)
    theta_star, f_star = refine_local(f_log, theta_pso, log_bounds)
    h_star = np.exp(theta_star)
    spec = _spec_for(obj_cfg, h_star)
    log.debug(
        "%s tuned: h*=%s, heuristic lam/sqrt(N)=%.3e",
        family.name,
        spec.h,
        obj_cfg.lam / math.sqrt(lf_ensemble.n_samples),
    )
    return OptimizedKernel(
        spec=spec,
        objective_value=float(f_star),
        evaluations_used=f_log.requests,
        wall_time=time.perf_counter() - started,
        distinct_evaluations=len(f_log.values),
    )
