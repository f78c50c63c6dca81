"""Pivoted Cholesky pivots, the spectral norm, and regularized linear solves.

Sample indices are 0-based throughout. Pivots rank samples by greedy
Schur-complement diagonal magnitude and stop at the effective rank, so
there may be fewer pivots than steps asked for.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "NumericsError",
    "MatrixNotPSDError",
    "ZeroGramianError",
    "lower_median",
    "pivoted_cholesky_columns",
    "spectral_norm",
    "kept_eigenvalues",
    "regularized_factor",
    "apply_regularized",
]


class NumericsError(RuntimeError):
    """Base class for numerical failures surfaced to callers."""


class MatrixNotPSDError(NumericsError):
    pass


class ZeroGramianError(NumericsError):
    pass


# pivoting stops once the largest Schur diagonal falls to this fraction
# of the largest initial diagonal
DROP_TOLERANCE = 1e-12


def lower_median(values) -> float:
    """Median that returns the lower of the two middle values when even.

    NaN has no place in an ordering, so it raises ValueError.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    if ordered.size == 0:
        raise ValueError("median of an empty sequence")
    if np.isnan(ordered[-1]):
        raise ValueError("median of a sequence holding NaN")
    return float(ordered[(ordered.size - 1) // 2])


def pivoted_cholesky_columns(diagonal, column, max_steps: int) -> tuple[int, ...]:
    """Greedy diagonally pivoted Cholesky pivots from the diagonal and on-demand columns.

    ``column(p)`` returns column p of the matrix (length N) and is called
    once per pivot, so the matrix is never formed: memory is O(N * max_steps).
    Each step selects the largest remaining Schur-complement diagonal
    (ties broken by lowest sample index) and stops after ``max_steps``
    steps or once the largest remaining diagonal falls to
    ``DROP_TOLERANCE`` times the largest initial diagonal, so the number
    of pivots returned is the effective rank. A remaining diagonal below
    -1e-8 times the initial maximum raises MatrixNotPSDError; shallower
    negatives are clamped to zero.
    """
    d = np.array(diagonal, dtype=float)
    if d.ndim != 1:
        raise ValueError("diagonal must be one-dimensional")
    n = d.shape[0]
    if not 1 <= max_steps <= n:
        raise ValueError(f"max_steps must be in [1, {n}], got {max_steps}")

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
        if seg[at] <= DROP_TOLERANCE * dmax0:
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

    return tuple(chosen)


def spectral_norm(A) -> float:
    """||A||_2 of a symmetric, maybe indefinite, matrix: its largest |eigenvalue|.

    The eigensolver reads one triangle, so a matrix that is not finite and
    exactly symmetric raises ValueError. A zero norm, which a stable rank
    cannot divide by, raises ZeroGramianError.
    """
    A = np.asarray(A, dtype=float)
    if not (np.isfinite(A).all() and np.array_equal(A, A.T)):
        raise ValueError("spectral norm needs a finite, exactly symmetric matrix")
    w = np.linalg.eigvalsh(A)
    sigma = max(abs(float(w[0])), abs(float(w[-1])))
    if sigma == 0.0:
        raise ZeroGramianError("spectral norm vanished")
    return sigma


def kept_eigenvalues(w, rcond: float) -> np.ndarray:
    """Mask of the eigenvalues ``w`` above ``rcond`` times the largest.

    None is kept when the largest eigenvalue is not positive.
    """
    w = np.asarray(w, dtype=float)
    wmax = float(np.max(w))
    return w > rcond * wmax if wmax > 0 else np.zeros_like(w, dtype=bool)


def regularized_factor(H, rcond: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """(Vk, wk): the eigenvectors and eigenvalues of symmetric H that
    ``kept_eigenvalues`` keeps at ``rcond``, from one eigendecomposition.

    ``apply_regularized`` solves with them, as often as needed. An
    ``rcond`` that is not finite and non-negative is a ValueError.
    """
    H = np.asarray(H, dtype=float)
    if not 0 <= rcond < np.inf:  # NaN fails both comparisons
        raise ValueError(f"rcond must be finite and non-negative, got {rcond!r}")
    w, V = np.linalg.eigh(H)
    keep = kept_eigenvalues(w, rcond)
    if not np.any(keep):
        raise ZeroGramianError("Gramian numerically zero: all eigenvalues truncated")
    return V[:, keep], w[keep]


def apply_regularized(factor: tuple[np.ndarray, np.ndarray], rhs) -> np.ndarray:
    """Vk (Vk^T rhs / wk) for ``factor`` = (Vk, wk) from ``regularized_factor``.

    ``rhs`` may be a vector or a matrix of stacked right-hand-side columns.
    """
    Vk, wk = factor
    rhs = np.asarray(rhs, dtype=float)
    if Vk.shape[0] != rhs.shape[0]:
        raise ValueError("rhs length does not match the Gramian dimension")
    scale = wk if rhs.ndim == 1 else wk[:, None]
    return Vk @ ((Vk.T @ rhs) / scale)
