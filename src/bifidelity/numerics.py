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
    "SlicedGramian",
    "pivoted_cholesky",
    "stable_rank",
    "slice_gramian",
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
    untouched indices in ascending order. Row k of ``factor`` corresponds
    to sample z[k]; rows past ``effective_rank`` are zero.
    """

    z: tuple[int, ...]
    factor: np.ndarray
    effective_rank: int
    tolerance_used: float


@dataclass(frozen=True)
class SlicedGramian:
    """A Gramian restricted to a subset of sample indices."""

    entries: np.ndarray
    indices: tuple[int, ...]

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        idx = tuple(int(i) for i in self.indices)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("sliced Gramian must be square")
        if entries.shape[0] != len(idx):
            raise ValueError("index count must match the sliced dimension")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "indices", idx)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _as_matrix(G) -> np.ndarray:
    if isinstance(G, Gramian):
        return np.asarray(G.entries, dtype=float)
    return np.asarray(G, dtype=float)


def pivoted_cholesky(G, max_steps: int, drop_tolerance: float = 1e-12) -> PivotDecomposition:
    """Greedy diagonally pivoted Cholesky with early stopping.

    Each step selects the largest remaining Schur-complement diagonal
    (ties broken by lowest sample index) and stops after ``max_steps``
    steps or once the largest remaining diagonal falls to
    ``drop_tolerance`` times the largest initial diagonal. A remaining
    diagonal below -1e-8 times the initial maximum raises
    MatrixNotPSDError; shallower negatives are clamped to zero.
    """
    A = _as_matrix(G)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    n = A.shape[0]
    if not 1 <= max_steps <= n:
        raise ValueError(f"max_steps must be in [1, {n}], got {max_steps}")
    if drop_tolerance < 0:
        raise ValueError("drop_tolerance must be non-negative")

    d = np.diag(A).astype(float).copy()
    perm = np.arange(n)
    L = np.zeros((n, n))
    dmax0 = float(np.max(d)) if n else 0.0
    neg_floor = -1e-8 * max(dmax0, 0.0)
    rank = 0

    for k in range(max_steps):
        seg = d[perm[k:]]
        if np.any(seg < neg_floor):
            worst = float(np.min(seg))
            raise MatrixNotPSDError(
                f"matrix not PSD: Schur diagonal reached {worst} "
                f"(floor {neg_floor})"
            )
        np.maximum(seg, 0.0, out=seg)
        d[perm[k:]] = seg
        top = float(np.max(seg))
        if top <= drop_tolerance * dmax0:
            break
        # ties resolve to the lowest sample index
        tied = perm[k:][seg == top]
        chosen = int(np.min(tied))
        j = k + int(np.where(perm[k:] == chosen)[0][0])
        if j != k:
            perm[[k, j]] = perm[[j, k]]
            L[[k, j], :] = L[[j, k], :]
        pivot = d[perm[k]]
        L[k, k] = np.sqrt(pivot)
        if k + 1 < n:
            rows = perm[k + 1 :]
            col = A[rows, perm[k]] - L[k + 1 :, :k] @ L[k, :k]
            col /= L[k, k]
            L[k + 1 :, k] = col
            d[rows] -= col**2
        rank += 1

    z = np.concatenate([perm[:rank], np.sort(perm[rank:])])
    L[rank:, :] = 0.0
    return PivotDecomposition(
        z=tuple(int(i) for i in z),
        factor=L,
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


def slice_gramian(G: Gramian, indices) -> SlicedGramian:
    """Restrict a Gramian to the given sample indices (exact copies)."""
    idx = np.asarray(list(indices), dtype=int)
    entries = _as_matrix(G)[np.ix_(idx, idx)]
    return SlicedGramian(entries=entries, indices=tuple(int(i) for i in idx))


def solve_regularized(sliced, rhs, rcond: float = 1e-12) -> np.ndarray:
    """Solve G c = rhs through a truncated symmetric eigendecomposition.

    Eigenvalues at or below ``rcond`` times the largest eigenvalue are
    treated as zero. ``rhs`` may be a vector or a matrix of stacked
    right-hand-side columns.
    """
    H = sliced.entries if isinstance(sliced, SlicedGramian) else _as_matrix(sliced)
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
    coeffs = Vk.T @ rhs
    if coeffs.ndim == 1:
        coeffs = coeffs / w[keep]
    else:
        coeffs = coeffs / w[keep][:, None]
    return Vk @ coeffs
