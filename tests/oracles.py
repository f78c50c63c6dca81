"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's own algorithms:
kernel values are recomputed from scalar formulas, spectral quantities
come from dense SVD instead of power iteration, pivot orderings rebuild
the full Schur complement at every step instead of rank-1 updates, and
least-squares solves go through numpy's SVD-based lstsq instead of the
eigendecomposition route. Agreement between these and the package is
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


# === spectral quantities by dense SVD ===


def srank_svd(A) -> float:
    s = np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)
    return float(np.sum(s**2) / s[0] ** 2)


def objective_svd(ref, cand, lam: float) -> float:
    """Frobenius distance plus the stability penalty, all via SVD."""
    ref = np.asarray(ref, dtype=float)
    cand = np.asarray(cand, dtype=float)
    fro = math.sqrt(float(np.sum((ref - cand) ** 2)))
    if lam == 0.0:
        return fro
    return fro + lam / math.sqrt(srank_svd(cand))


# === greedy pivoting with full Schur recomputation ===


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
        rest = [j for j in range(n) if j not in chosen]
        diag = np.empty(len(rest))
        for pos, j in enumerate(rest):
            if chosen:
                block = A[np.ix_(chosen, chosen)]
                cross = A[chosen, j]
                diag[pos] = A[j, j] - float(cross @ np.linalg.solve(block, cross))
            else:
                diag[pos] = A[j, j]
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
