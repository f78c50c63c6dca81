"""Low-rank bi-fidelity surrogate construction, evaluation, and reporting.

A surrogate approximates an expensive high-fidelity output as a linear
combination of high-fidelity snapshots taken at n pivot samples chosen
from cheap low-fidelity data alone. Coefficients come from a regularized
solve of the pivot-sliced Gramian against the cross-kernel vector of the
query's low-fidelity output, so the surrogate reproduces the trained
snapshots wherever that system is well conditioned.
"""
from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

from .data import SnapshotEnsemble
from .kernels import (
    KernelFamily,
    KernelSpec,
    _kernel_block,
    _kernel_diagonal,
    cross_kernel_vector,
)
from .numerics import lower_median, pivoted_cholesky_columns, solve_regularized

__all__ = [
    "Surrogate",
    "CostLedger",
    "ErrorReport",
    "HfProviderError",
    "build_surrogate",
    "evaluate",
    "median_relative_error",
    "effective_cost",
    "surrogate_to_dict",
    "surrogate_from_dict",
]

ARCHIVE_VERSION = 1


class HfProviderError(RuntimeError):
    """High-fidelity callback failure, with the number of draws completed."""

    def __init__(self, sample_index: int, completed: int):
        super().__init__(
            f"high-fidelity provider failed at sample {sample_index} "
            f"after {completed} completed draws"
        )
        self.sample_index = sample_index
        self.completed = completed


@dataclass(frozen=True)
class Surrogate:
    """Trained emulator state; everything evaluation needs is embedded.

    ``sliced`` is the n x n Gramian block over the pivots, in pivot order.
    """

    kernel: KernelSpec
    pivots: tuple[int, ...]
    hf_snapshots: np.ndarray
    sliced: np.ndarray
    pivot_lf_columns: np.ndarray
    rcond: float

    def __post_init__(self):
        hf = np.array(self.hf_snapshots, dtype=float)
        lf = np.array(self.pivot_lf_columns, dtype=float)
        sliced = np.array(self.sliced, dtype=float)
        pivots = tuple(int(i) for i in self.pivots)
        n = len(pivots)
        if hf.ndim != 2 or hf.shape[1] != n:
            raise ValueError("hf_snapshots must hold one column per pivot")
        if lf.ndim != 2 or lf.shape[1] != n:
            raise ValueError("pivot_lf_columns must hold one column per pivot")
        if sliced.shape != (n, n):
            raise ValueError("sliced Gramian must be n x n for n pivots")
        for arr in (hf, lf, sliced):
            arr.setflags(write=False)
        object.__setattr__(self, "hf_snapshots", hf)
        object.__setattr__(self, "pivot_lf_columns", lf)
        object.__setattr__(self, "sliced", sliced)
        object.__setattr__(self, "pivots", pivots)


@dataclass(frozen=True)
class CostLedger:
    """Budget accounting in units of one high-fidelity sample."""

    hf_samples_used: int
    kernel_opt_cost: float
    one_hf_cost: float
    effective_hf: int

    def __post_init__(self):
        if self.one_hf_cost <= 0:
            raise ValueError("one_hf_cost must be positive")
        if self.kernel_opt_cost < 0:
            raise ValueError("kernel_opt_cost must be non-negative")
        expected = self.hf_samples_used + math.ceil(self.kernel_opt_cost / self.one_hf_cost)
        if self.effective_hf != expected:
            raise ValueError(
                f"effective_hf {self.effective_hf} does not satisfy the ledger "
                f"identity (expected {expected})"
            )


@dataclass(frozen=True)
class ErrorReport:
    """Median relative errors over held-out samples."""

    aggregate_median_rel_error: float
    per_qoi_median_rel_error: dict[str, float]


def effective_cost(
    hf_samples_used: int, kernel_opt_cost: float, one_hf_cost: float
) -> CostLedger:
    """Fold optimizer cost into whole high-fidelity-sample units."""
    effective = int(hf_samples_used) + math.ceil(kernel_opt_cost / one_hf_cost)
    return CostLedger(
        hf_samples_used=int(hf_samples_used),
        kernel_opt_cost=float(kernel_opt_cost),
        one_hf_cost=float(one_hf_cost),
        effective_hf=effective,
    )


def build_surrogate(
    lf: SnapshotEnsemble,
    kernel: KernelSpec,
    n: int,
    hf_provider,
    rcond: float = 1e-12,
) -> Surrogate:
    """Select n pivots from low-fidelity data and draw their HF columns.

    ``hf_provider`` maps a sample index to its high-fidelity output
    column and is called exactly n times, once per pivot in pivot order.

    Pivoting reads the kernel diagonal and one kernel column per pivot,
    so no N x N Gramian is formed. A non-finite value among those raises
    ArithmeticError. When pivoting stops early, at an effective rank
    below n, the lowest unused sample indices fill the budget in
    ascending order.

    Parameters
    ----------
    lf : SnapshotEnsemble
        Low-fidelity ensemble used for pivoting and evaluation.
    kernel : KernelSpec
        Kernel defining the Gramian geometry.
    n : int
        High-fidelity sample budget; 1 <= n <= number of samples.
    hf_provider : callable
        Index -> HF column callback.
    rcond : float
        Relative eigenvalue cutoff for the training solve.
    """
    N = lf.n_samples
    if not 1 <= n <= N:
        raise ValueError(f"budget n must be in [1, {N}], got {n}")
    X = lf.outputs
    diagonal = _kernel_diagonal(kernel, X)
    if not np.all(np.isfinite(diagonal)):
        raise ArithmeticError(f"kernel diagonal is non-finite for {kernel}")
    kernel_columns: dict[int, np.ndarray] = {}

    def column(p: int) -> np.ndarray:
        if p not in kernel_columns:
            col = _kernel_block(kernel, X, X[:, [p]])[:, 0]
            if not np.all(np.isfinite(col)):
                raise ArithmeticError(f"kernel column {p} is non-finite for {kernel}")
            kernel_columns[p] = col
        return kernel_columns[p]

    pivots = list(pivoted_cholesky_columns(diagonal, column, n))
    unused = np.setdiff1d(np.arange(N), pivots)
    pivots += [int(i) for i in unused[: n - len(pivots)]]
    # pivots appended after an early stop fetch their columns here
    sliced = np.column_stack([column(p)[pivots] for p in pivots])

    columns = []
    for idx in pivots:
        try:
            col = np.asarray(hf_provider(int(idx)), dtype=float).ravel()
        except Exception as exc:
            raise HfProviderError(sample_index=int(idx), completed=len(columns)) from exc
        if columns and col.shape[0] != columns[0].shape[0]:
            raise ValueError(
                f"high-fidelity column {idx} has length {col.shape[0]}, "
                f"expected {columns[0].shape[0]}"
            )
        if not np.all(np.isfinite(col)):
            raise ValueError(f"high-fidelity column {idx} contains non-finite values")
        columns.append(col)

    return Surrogate(
        kernel=kernel,
        pivots=pivots,
        hf_snapshots=np.column_stack(columns),
        sliced=sliced,
        pivot_lf_columns=lf.outputs[:, pivots],
        rcond=float(rcond),
    )


def evaluate(surrogate: Surrogate, query) -> np.ndarray:
    """Emulate the high-fidelity output for one query or a block of queries.

    ``query`` is a low-fidelity output column or a 2-d block of such
    columns; a block is emulated with one solve and returns one output
    column per query.
    """
    query = np.asarray(query, dtype=float)
    if query.ndim not in (1, 2):
        raise ValueError(
            "query must be low-fidelity output columns, not a sample index; "
            "pass the training ensemble's column instead"
        )
    rhs = cross_kernel_vector(surrogate.kernel, surrogate.pivot_lf_columns, query)
    coeffs = solve_regularized(surrogate.sliced, rhs, surrogate.rcond)
    return surrogate.hf_snapshots @ coeffs


def median_relative_error(
    surrogate: Surrogate, hf_truth: SnapshotEnsemble, lf: SnapshotEnsemble
) -> ErrorReport:
    """Lower-median relative emulation error over non-pivot samples.

    Samples whose true column (or label group) has zero norm are
    excluded from the relative medians. Per-QoI medians follow the label
    groups of ``hf_truth``.
    """
    if hf_truth.n_samples != lf.n_samples:
        raise ValueError("high- and low-fidelity ensembles disagree on sample count")
    test = np.setdiff1d(np.arange(lf.n_samples), surrogate.pivots)
    truth = hf_truth.outputs[:, test]
    diff = truth - evaluate(surrogate, lf.outputs[:, test])

    def median_ratio(rows) -> float:
        num = np.linalg.norm(diff[rows], axis=0)
        den = np.linalg.norm(truth[rows], axis=0)
        keep = den > 0.0
        return lower_median(num[keep] / den[keep]) if keep.any() else math.nan

    groups = hf_truth.label_groups().items()
    return ErrorReport(
        aggregate_median_rel_error=median_ratio(slice(None)),
        per_qoi_median_rel_error={name: median_ratio(rows) for name, rows in groups},
    )


# === archive serialization ===


def _encode_matrix(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "dtype": "<f8",
        "data": base64.b64encode(arr.tobytes(order="C")).decode("ascii"),
    }


def _field(doc: dict, key: str, kind: type):
    """``doc[key]``, refused with a ValueError naming the field unless it is a ``kind``."""
    value = doc.get(key)
    if not isinstance(value, kind):
        raise ValueError(
            f"archive field {key!r} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _decode_matrix(blob: dict) -> np.ndarray:
    if blob.get("dtype") != "<f8":
        raise ValueError(f"archive field 'dtype' must be '<f8', got {blob.get('dtype')!r}")
    arr = np.frombuffer(base64.b64decode(blob["data"]), dtype="<f8").astype(float)
    return arr.reshape((int(blob["rows"]), int(blob["cols"])))


def _kernel_to_dict(kernel: KernelSpec) -> dict:
    return {"kind": "single", "family": kernel.family.name.lower(), "h": list(kernel.h)}


def _kernel_from_dict(doc: dict) -> KernelSpec:
    if doc.get("kind") != "single":
        raise ValueError(f"unsupported kernel kind {doc.get('kind')!r}; expected 'single'")
    # older archives carry switches for deleted formulas; only "off" is today's
    switched_on = sorted(k for k, v in doc.items() if k not in ("kind", "family", "h") and v)
    if switched_on:
        raise ValueError(f"unsupported kernel form {', '.join(map(repr, switched_on))}")
    name = _field(doc, "family", str)
    if name.upper() not in KernelFamily.__members__:
        raise ValueError(f"unsupported kernel family {name!r}")
    h = tuple(float(v) for v in _field(doc, "h", list))
    return KernelSpec(family=KernelFamily[name.upper()], h=h)


def surrogate_to_dict(surrogate: Surrogate) -> dict:
    return {
        "version": ARCHIVE_VERSION,
        "kernel": _kernel_to_dict(surrogate.kernel),
        "pivots": list(surrogate.pivots),
        "rcond": surrogate.rcond,
        "matrices": {
            "sliced_gramian": _encode_matrix(surrogate.sliced),
            "hf_snapshots": _encode_matrix(surrogate.hf_snapshots),
            "pivot_lf_columns": _encode_matrix(surrogate.pivot_lf_columns),
        },
    }


def surrogate_from_dict(doc: dict) -> Surrogate:
    """Inverse of ``surrogate_to_dict``; a malformed document is a ValueError naming the field."""
    if not isinstance(doc, dict):
        raise ValueError(f"archive root must be a JSON object, got {type(doc).__name__}")
    if doc.get("version") != ARCHIVE_VERSION:
        raise ValueError(f"unsupported archive version {doc.get('version')!r}")
    matrices = _field(doc, "matrices", dict)
    pivots = _field(doc, "pivots", list)
    if not all(type(p) is int for p in pivots):
        raise ValueError(f"archive field 'pivots' must hold integers, got {pivots!r}")
    return Surrogate(
        kernel=_kernel_from_dict(_field(doc, "kernel", dict)),
        pivots=tuple(pivots),
        hf_snapshots=_decode_matrix(_field(matrices, "hf_snapshots", dict)),
        sliced=_decode_matrix(_field(matrices, "sliced_gramian", dict)),
        pivot_lf_columns=_decode_matrix(_field(matrices, "pivot_lf_columns", dict)),
        rcond=float(doc["rcond"]),
    )
