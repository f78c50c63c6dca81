"""Kernel library over model output vectors.

Six kernel families act on pairs of model output vectors. All except
the linear kernel are radial: they depend only on r = ||u - v||. Kernel
blocks over columns of output vectors feed pivot selection,
hyperparameter tuning, and surrogate construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "KernelFamily",
    "KernelSpec",
    "HYPER_DIMS",
    "radial_profile",
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


def radial_profile(spec: KernelSpec, r, out=None, zeros=None) -> np.ndarray:
    """Kernel value as a function of distance, vectorized over ``r``.

    Undefined for the linear family, which is not radial. Every radial
    family is 1 at r = 0, and exactly-zero distances return that 1 directly,
    which also guards against 0/0 where the rational quadratic's
    h1^2 * h2 underflows. The rational quadratic writes 0 without calling
    pow where its base exceeds exp(746.5 / h2) (with a 1e-9 margin): the
    true value there is below 2^-1076.9, which pow rounds to 0 anyway, and
    an underflowing pow is the slow one. The skip applies while
    746.5 / h2 < 709, so that the threshold stays finite.

    The values are written into ``out``, a float array of r's shape that
    does not overlap ``r``, or a new one, and returned; each family takes
    its formula's operations in one order, so both give the same bits.
    ``zeros``, where given, holds the flat indices of r's exact zeros, so
    that they are not searched for again.
    """
    r = np.asarray(r, dtype=float)
    if out is None:
        out = np.empty(r.shape)
    fam = spec.family
    h = spec.h
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        if fam == KernelFamily.EXPONENTIAL:  # exp(-r / h)
            np.negative(r, out=out)
            np.divide(out, h[0], out=out)
            np.exp(out, out=out)
        elif fam == KernelFamily.SQUARED_EXPONENTIAL:  # exp(-(r^2) / (2 h))
            np.square(r, out=out)
            np.negative(out, out=out)
            np.divide(out, 2.0 * h[0], out=out)
            np.exp(out, out=out)
        elif fam == KernelFamily.RATIONAL_QUADRATIC:  # (1 + r^2 / (2 h1^2 h2))^-h2
            h1, h2 = h
            np.square(r, out=out)
            np.divide(out, 2.0 * h1**2 * h2, out=out)
            np.add(1.0, out, out=out)
            if 746.5 / h2 < 709.0:
                skip = out > math.exp(746.5 / h2) * (1.0 + 1e-9)  # a NaN base is kept
                np.power(out, -h2, out=out, where=~skip)
                np.copyto(out, 0.0, where=skip)
            else:
                out **= -h2  # the operator's own path, as for h2 = 1
        elif fam == KernelFamily.MATERN32:  # s = sqrt(3) r / h: (1 + s) exp(-s)
            np.multiply(np.sqrt(3.0), r, out=out)
            np.divide(out, h[0], out=out)
            decay = np.negative(out)
            np.exp(decay, out=decay)
            np.add(1.0, out, out=out)
            np.multiply(out, decay, out=out)
        elif fam == KernelFamily.MATERN52:  # s = sqrt(5) r / h: (1 + s + 5 r^2 / (3 h^2)) exp(-s)
            np.multiply(np.sqrt(5.0), r, out=out)
            np.divide(out, h[0], out=out)
            decay = np.negative(out)
            np.exp(decay, out=decay)
            np.add(1.0, out, out=out)
            square = np.square(r)
            np.multiply(square, 5.0, out=square)
            np.divide(square, 3.0 * h[0] ** 2, out=square)
            np.add(out, square, out=out)
            np.multiply(out, decay, out=out)
        else:
            raise ValueError(f"{fam.name} is not a radial family")
    if zeros is None:
        np.copyto(out, 1.0, where=r == 0.0)
    else:
        np.put(out, zeros, 1.0)
    return out


@np.errstate(over="ignore", invalid="ignore")
def _distances(a, b) -> np.ndarray:
    """D[i, j] = ||a[:, i] - b[:, j]||; squares are added in row order, and overflow is inf."""
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    out = np.empty((a.shape[1], b.shape[1]))
    step = max(1, 2**14 // max(1, a.size))  # b's columns per temporary of <= 2**14 doubles
    for j in range(0, b.shape[1], step):
        sq = a[:, :, None] - b[:, None, j : j + step]
        sq *= sq
        # numpy sums a lone entry pairwise; accumulate keeps the row order
        out[:, j : j + step] = sq.sum(axis=0) if sq.size > len(sq) else np.add.accumulate(sq)[-1]
    return np.sqrt(out, out=out)


def _kernel_block(kernel: KernelSpec, a, b) -> np.ndarray:
    """K[i, j] = k(a[:, i], b[:, j]).

    A linear block sums each entry in one fixed order (einsum, not BLAS),
    so over row-major operands an entry does not depend on the block it
    is evaluated in, and a block of columns against themselves is exactly
    symmetric.
    """
    if kernel.family == KernelFamily.LINEAR:
        return np.einsum("ki,kj->ij", a, b)
    return radial_profile(kernel, _distances(a, b))


def _kernel_diagonal(kernel: KernelSpec, a) -> np.ndarray:
    """k(a[:, i], a[:, i]) for every column, without any off-diagonal value."""
    if kernel.family == KernelFamily.LINEAR:
        return np.einsum("ki,ki->i", a, a)
    return radial_profile(kernel, np.zeros(a.shape[1]))


def cross_kernel_vector(kernel: KernelSpec, ensemble_columns, query) -> np.ndarray:
    """Kernel values of query output vectors against a set of columns.

    ``ensemble_columns`` is a (dim x n) array, one vector per column, or a
    single 1-d column. A 1-d ``query`` returns the n kernel values; a
    (dim x m) block of query columns returns the n x m block.

    Both operands are read row-major, whatever layout they come in: the
    order in which an entry's products or squares are added follows the
    layout, so a column-major block, as fancy indexing of a row-major
    array gives, and its row-major copy, as a decoded archive holds, give
    the same bits.
    """
    cols = np.ascontiguousarray(ensemble_columns, dtype=float)
    if cols.ndim == 1:
        cols = cols[:, None]
    query = np.ascontiguousarray(query, dtype=float)
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
