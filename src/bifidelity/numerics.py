"""Pivoted Cholesky ordering, stable rank, and regularized linear solves.

Sample indices are 0-based throughout. The pivot ordering ranks samples
by greedy Schur-complement diagonal magnitude; indices past the stopping
rank are appended in ascending order so the ordering always covers every
sample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Gramian

__all__ = [
    "NumericsError",
    "MatrixNotPSDError",
    "ZeroGramianError",
    "PivotDecomposition",
    "lower_median",
    "pivoted_cholesky",
    "pivoted_cholesky_columns",
    "stable_rank",
    "solve_regularized",
]


class NumericsError(RuntimeError):
    """Base class for numerical failures surfaced to callers."""


class MatrixNotPSDError(NumericsError):
    pass


class ZeroGramianError(NumericsError):
    pass


@dataclass(frozen=True)
class PivotDecomposition:
    """Result of a greedy pivoted Cholesky pass.

    ``z`` is a permutation of {0, ..., N-1}: greedy pivots first, then the
    untouched indices in ascending order. ``factor`` is N x max_steps:
    row k corresponds to sample z[k], and rows past ``effective_rank``
    are zero.
    """

    z: tuple[int, ...]
    factor: np.ndarray
    effective_rank: int
    tolerance_used: float


def _as_matrix(G) -> np.ndarray:
    if isinstance(G, Gramian):
        return np.asarray(G.entries, dtype=float)
    return np.asarray(G, dtype=float)


def lower_median(values) -> float:
    """Median that returns the lower of the two middle values when even."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("median of an empty sequence")
    return ordered[(len(ordered) - 1) // 2]


def pivoted_cholesky(G, max_steps: int, drop_tolerance: float = 1e-12) -> PivotDecomposition:
    """Greedy diagonally pivoted Cholesky of a dense matrix.

    Runs ``pivoted_cholesky_columns`` on the diagonal and the columns of
    ``G``; see there for the pivot rule, early stop and PSD floor.
    """
    A = _as_matrix(G)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    return pivoted_cholesky_columns(np.diag(A), lambda p: A[:, p], max_steps, drop_tolerance)


def pivoted_cholesky_columns(
    diagonal, column, max_steps: int, drop_tolerance: float = 1e-12
) -> PivotDecomposition:
    """Greedy diagonally pivoted Cholesky from the diagonal and on-demand columns.

    ``column(p)`` returns column p of the matrix (length N) and is called
    once per pivot, so the matrix is never formed: memory is O(N * max_steps).
    Each step selects the largest remaining Schur-complement diagonal
    (ties broken by lowest sample index) and stops after ``max_steps``
    steps or once the largest remaining diagonal falls to
    ``drop_tolerance`` times the largest initial diagonal. A remaining
    diagonal below -1e-8 times the initial maximum raises
    MatrixNotPSDError; shallower negatives are clamped to zero.
    """
    d = np.array(diagonal, dtype=float)
    if d.ndim != 1:
        raise ValueError("diagonal must be one-dimensional")
    n = d.shape[0]
    if not 1 <= max_steps <= n:
        raise ValueError(f"max_steps must be in [1, {n}], got {max_steps}")
    if drop_tolerance < 0:
        raise ValueError("drop_tolerance must be non-negative")

    # row s holds sample s's factor entries, one column per step
    L = np.zeros((n, max_steps))
    free = np.ones(n, dtype=bool)
    chosen: list[int] = []
    dmax0 = float(np.max(d))
    neg_floor = -1e-8 * max(dmax0, 0.0)

    for k in range(max_steps):
        rows = np.flatnonzero(free)
        seg = d[rows]
        if np.any(seg < neg_floor):
            worst = float(np.min(seg))
            raise MatrixNotPSDError(
                f"matrix not PSD: Schur diagonal reached {worst} "
                f"(floor {neg_floor})"
            )
        np.maximum(seg, 0.0, out=seg)
        d[rows] = seg
        # rows ascend, so argmax resolves ties to the lowest sample index
        at = int(np.argmax(seg))
        if not np.isfinite(seg[at]):
            raise ValueError("matrix has non-finite entries")
        if seg[at] <= drop_tolerance * dmax0:
            break
        p = int(rows[at])
        free[p] = False
        chosen.append(p)
        L[p, k] = np.sqrt(d[p])
        rows = np.delete(rows, at)
        col = np.asarray(column(p), dtype=float)[rows] - L[rows, :k] @ L[p, :k]
        col /= L[p, k]
        L[rows, k] = col
        d[rows] -= col**2

    rank = len(chosen)
    z = np.concatenate([chosen, np.flatnonzero(free)]).astype(int)
    factor = L[z]
    factor[rank:] = 0.0
    return PivotDecomposition(
        z=tuple(int(i) for i in z),
        factor=factor,
        effective_rank=rank,
        tolerance_used=float(drop_tolerance),
    )


def stable_rank(A) -> float:
    """||A||_F^2 / ||A||_2^2 of a symmetric matrix; always between 1 and rank(A).

    ||A||_2 is the largest |eigenvalue|, from one symmetric eigensolve, so
    indefinite matrices are handled. The solver reads only one triangle,
    so a matrix that is not exactly symmetric raises ValueError.
    """
    A = _as_matrix(A)
    fro2 = float(np.sum(A * A))
    if not (np.isfinite(fro2) and np.array_equal(A, A.T)):
        raise ValueError("stable rank needs a finite, exactly symmetric matrix")
    if fro2 == 0.0:
        raise ZeroGramianError("stable rank undefined for the zero matrix")
    w = np.linalg.eigvalsh(A)
    sigma = max(abs(float(w[0])), abs(float(w[-1])))
    if sigma == 0.0:
        raise ZeroGramianError("stable rank undefined: spectral norm vanished")
    return fro2 / sigma**2


def solve_regularized(H, rhs, rcond: float = 1e-12) -> np.ndarray:
    """Solve H c = rhs through a truncated symmetric eigendecomposition.

    Eigenvalues at or below ``rcond`` times the largest eigenvalue are
    treated as zero. ``rhs`` may be a vector or a matrix of stacked
    right-hand-side columns.
    """
    H = _as_matrix(H)
    rhs = np.asarray(rhs, dtype=float)
    if rcond < 0:
        raise ValueError("rcond must be non-negative")
    if H.shape[0] != rhs.shape[0]:
        raise ValueError("rhs length does not match the Gramian dimension")
    w, V = np.linalg.eigh(H)
    wmax = float(np.max(w))
    keep = w > rcond * wmax if wmax > 0 else np.zeros_like(w, dtype=bool)
    if not np.any(keep):
        raise ZeroGramianError("Gramian numerically zero: all eigenvalues truncated")
    Vk = V[:, keep]
    scale = w[keep] if rhs.ndim == 1 else w[keep][:, None]
    return Vk @ ((Vk.T @ rhs) / scale)
