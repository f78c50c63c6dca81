"""Kernel library over model output vectors.

Six kernel families act on pairs of model output vectors. All except
the linear kernel are radial: they depend only on r = ||u - v||. Kernel
blocks over columns of output vectors feed pivot selection,
hyperparameter tuning, and surrogate construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "KernelFamily",
    "KernelSpec",
    "HYPER_DIMS",
    "kernel_eval",
    "radial_profile",
    "gramian_entries",
    "cross_kernel_vector",
]


class KernelFamily(IntEnum):
    """Library families, numbered so that ties resolve to the lowest index."""

    LINEAR = 1
    EXPONENTIAL = 2
    SQUARED_EXPONENTIAL = 3
    RATIONAL_QUADRATIC = 4
    MATERN32 = 5
    MATERN52 = 6


#: Number of hyperparameters per family.
HYPER_DIMS: dict[KernelFamily, int] = {
    KernelFamily.LINEAR: 0,
    KernelFamily.EXPONENTIAL: 1,
    KernelFamily.SQUARED_EXPONENTIAL: 1,
    KernelFamily.RATIONAL_QUADRATIC: 2,
    KernelFamily.MATERN32: 1,
    KernelFamily.MATERN52: 1,
}


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its hyperparameter vector."""

    family: KernelFamily
    h: tuple[float, ...] = ()

    def __post_init__(self):
        family = KernelFamily(self.family)
        h = tuple(float(v) for v in self.h)
        expected = HYPER_DIMS[family]
        if len(h) != expected:
            raise ValueError(
                f"{family.name} takes {expected} hyperparameters, got {len(h)}"
            )
        for v in h:
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"hyperparameters must be positive and finite, got {v}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "h", h)


def radial_profile(spec: KernelSpec, r) -> np.ndarray:
    """Kernel value as a function of distance, vectorized over ``r``.

    Undefined for the linear family, which is not radial. Every radial
    family is 1 at r = 0, and exactly-zero distances return that 1 directly,
    which also guards against 0/0 where the rational quadratic's
    h1^2 * h2 underflows.
    """
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


def kernel_eval(kernel: KernelSpec, u, v) -> float:
    """Evaluate a kernel on a pair of output vectors."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise ValueError(f"vector dimensions differ: {u.shape[0]} vs {v.shape[0]}")
    return float(cross_kernel_vector(kernel, v, u)[0])


def pairwise_distances(columns: np.ndarray) -> np.ndarray:
    """Euclidean distances between columns; exactly symmetric, zero diagonal."""
    return cdist(columns.T, columns.T)


def _kernel_block(kernel: KernelSpec, a, b, dists=None) -> np.ndarray:
    """K[i, j] = k(a[:, i], b[:, j]), reusing ``dists`` = cdist(a.T, b.T) when supplied.

    A linear block of columns against themselves (``b is a``) is the
    symmetrised a.T @ a, so Gramians come out exactly symmetric. Any other
    linear block sums each entry in one fixed order (einsum, not BLAS),
    so a query's values do not depend on the block it is evaluated in.
    """
    if kernel.family == KernelFamily.LINEAR:
        if b is not a:
            return np.einsum("ki,kj->ij", a, b)
        g = a.T @ a
        return (g + g.T) / 2.0
    if dists is None:
        dists = cdist(a.T, b.T)
    return radial_profile(kernel, dists)


def _kernel_diagonal(kernel: KernelSpec, a) -> np.ndarray:
    """k(a[:, i], a[:, i]) for every column, without any off-diagonal value."""
    if kernel.family == KernelFamily.LINEAR:
        return np.einsum("ki,ki->i", a, a)
    return radial_profile(kernel, np.zeros(a.shape[1]))


def gramian_entries(
    kernel: KernelSpec,
    columns: np.ndarray,
    dists: np.ndarray | None = None,
) -> np.ndarray:
    """Raw Gramian matrix for columns, reusing ``dists`` when supplied."""
    return _kernel_block(kernel, columns, columns, dists)


def cross_kernel_vector(kernel: KernelSpec, ensemble_columns, query) -> np.ndarray:
    """Kernel values of query output vectors against a set of columns.

    ``ensemble_columns`` is a (dim x n) array, one vector per column, or a
    single 1-d column. A 1-d ``query`` returns the n kernel values; a
    (dim x m) block of query columns returns the n x m block.
    """
    cols = np.asarray(ensemble_columns, dtype=float)
    if cols.ndim == 1:
        cols = cols[:, None]
    query = np.asarray(query, dtype=float)
    queries = query if query.ndim == 2 else query.reshape(-1, 1)
    if queries.shape[0] != cols.shape[0]:
        raise ValueError(
            f"query dimension {queries.shape[0]} does not match columns ({cols.shape[0]})"
        )
    if not (np.all(np.isfinite(cols)) and np.all(np.isfinite(queries))):
        raise ValueError("kernel inputs must be finite")
    block = _kernel_block(kernel, cols, queries)
    if not np.all(np.isfinite(block)):
        raise ArithmeticError(f"kernel evaluation overflowed for {kernel}")
    return block if query.ndim == 2 else block[:, 0]
