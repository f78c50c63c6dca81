"""Low-rank bi-fidelity surrogate construction, evaluation, and reporting.

A surrogate approximates an expensive high-fidelity output as a linear
combination of high-fidelity snapshots taken at n pivot samples chosen
from cheap low-fidelity data alone. Coefficients come from a regularized
solve of the pivot-sliced Gramian against the cross-kernel vector of the
query's low-fidelity output, so the surrogate reproduces the trained
snapshots wherever that system is well conditioned. The sliced Gramian
is formed from the pivots' low-fidelity columns, never stored.
"""
from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

from .data import (
    SnapshotEnsemble,
    checked_kind,
    checked_number,
    checked_object,
    column_blocks,
    held_out,
    row_selector,
    squared_column_norms,
)
from .kernels import (
    KernelFamily,
    KernelSpec,
    _kernel_block,
    _kernel_diagonal,
    cross_kernel_vector,
)
from .numerics import (
    MatrixNotPSDError,
    apply_regularized,
    lower_median,
    pivoted_cholesky_columns,
    regularized_factor,
)

__all__ = [
    "Surrogate",
    "CostLedger",
    "ErrorReport",
    "HfProviderError",
    "PivotPlan",
    "pivot_plan",
    "build_surrogate",
    "evaluate",
    "median_relative_error",
    "surrogate_to_dict",
    "surrogate_from_dict",
]

ARCHIVE_VERSION = 2


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

    ``sliced`` is the n x n Gramian block over the pivots, in pivot order:
    ``cross_kernel_vector`` of ``pivot_lf_columns`` against themselves, as
    ``evaluate`` forms every query's, so it is exactly symmetric.
    ``factor`` is its ``regularized_factor`` at ``rcond``. Both are formed
    once here and are neither arguments nor archived. A non-finite matrix
    or ``rcond``, or pivots that are not distinct non-negative integers
    (the samples the error metric leaves out), is a ValueError naming it.
    """

    kernel: KernelSpec
    pivots: tuple[int, ...]
    hf_snapshots: np.ndarray
    pivot_lf_columns: np.ndarray
    rcond: float
    sliced: np.ndarray = field(init=False, repr=False, compare=False)
    factor: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hf = np.array(self.hf_snapshots, dtype=float)
        lf = np.array(self.pivot_lf_columns, dtype=float)
        pivots = tuple(checked_number(i, "each pivot", integer=True) for i in self.pivots)
        if min(pivots, default=0) < 0 or len(set(pivots)) != len(pivots):
            raise ValueError(f"pivots must be distinct and non-negative, got {list(pivots)}")
        n = len(pivots)
        for name, arr in (("hf_snapshots", hf), ("pivot_lf_columns", lf)):
            if arr.ndim != 2 or arr.shape[1] != n:
                raise ValueError(f"{name} must hold one column per pivot")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        sliced = cross_kernel_vector(self.kernel, lf, lf)
        sliced.setflags(write=False)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "sliced", sliced)
        object.__setattr__(self, "factor", regularized_factor(sliced, self.rcond))


@dataclass(frozen=True)
class CostLedger:
    """Budget accounting in units of one high-fidelity sample."""

    hf_samples_used: int
    kernel_opt_cost: float
    one_hf_cost: float

    def __post_init__(self):
        if self.one_hf_cost <= 0:
            raise ValueError("one_hf_cost must be positive")
        if self.kernel_opt_cost < 0:
            raise ValueError("kernel_opt_cost must be non-negative")

    @property
    def effective_hf(self) -> int:
        """The ledger identity: HF samples used plus the optimizer cost in
        whole HF samples, rounded up."""
        return self.hf_samples_used + math.ceil(self.kernel_opt_cost / self.one_hf_cost)


@dataclass(frozen=True)
class ErrorReport:
    """Median relative errors over held-out samples."""

    aggregate_median_rel_error: float
    per_qoi_median_rel_error: dict[str, float]


@dataclass(frozen=True, eq=False)
class PivotPlan:
    """One kernel's pivots on one LF ensemble, for every budget up to ``steps``.

    Greedy pivoting runs once, to ``steps``: a greedy pivoted Cholesky's
    first n pivots are the ones it picks when asked for n (Harbrecht,
    Peters & Schneider, 2012), and it stops early at the same effective
    rank whatever it is asked for. So ``pivots[:n]`` are the budget-n
    pivots, with the lowest unused sample indices filling the budget after
    an early stop, in ascending order.

    When pivoting raised MatrixNotPSDError, ``failure`` is its message and
    ``pivots`` holds the pivots chosen before it; a budget above
    ``len(pivots)`` raises that error again, and every smaller budget is
    unaffected.
    """

    kernel: KernelSpec
    steps: int
    pivots: tuple[int, ...]
    failure: str | None = None

    def pivots_for(self, n: int) -> tuple[int, ...]:
        """The budget-n pivots; MatrixNotPSDError where pivoting failed before step n."""
        if not 1 <= n <= self.steps:
            raise ValueError(f"budget n must be in [1, {self.steps}] for this plan, got {n}")
        if n > len(self.pivots):
            raise MatrixNotPSDError(self.failure)
        return self.pivots[:n]


def pivot_plan(lf: SnapshotEnsemble, kernel: KernelSpec, steps: int) -> PivotPlan:
    """Pivot ``kernel`` on ``lf`` once, to ``steps`` pivots, for every budget up to it.

    Pivoting reads the kernel diagonal and one kernel column per greedy
    pivot, so no N x N Gramian is formed and the plan keeps no kernel
    value; the budget filled after an early stop needs no column. A
    non-finite value among them raises ArithmeticError.
    """
    N = lf.n_samples
    if not 1 <= steps <= N:
        raise ValueError(f"budget n must be in [1, {N}], got {steps}")
    X = lf.outputs
    diagonal = _kernel_diagonal(kernel, X)
    if not np.all(np.isfinite(diagonal)):
        raise ArithmeticError(f"kernel diagonal is non-finite for {kernel}")
    pivots: list[int] = []

    # pivoting asks for each pivot's column once, in pivot order
    def column(p: int) -> np.ndarray:
        col = _kernel_block(kernel, X, X[:, [p]])[:, 0]
        if not np.all(np.isfinite(col)):
            raise ArithmeticError(f"kernel column {p} is non-finite for {kernel}")
        pivots.append(p)
        return col

    failure = None
    try:
        pivoted_cholesky_columns(diagonal, column, steps)
    except MatrixNotPSDError as exc:
        failure = str(exc)
    else:
        pivots.extend(int(p) for p in held_out(N, pivots)[: steps - len(pivots)])
    return PivotPlan(kernel=kernel, steps=steps, pivots=tuple(pivots), failure=failure)


def build_surrogate(
    lf: SnapshotEnsemble,
    plan: PivotPlan,
    n: int,
    hf_provider,
    rcond: float = 1e-12,
) -> Surrogate:
    """Draw the HF columns of ``plan``'s budget-n pivots.

    ``plan`` is a ``pivot_plan`` on ``lf`` to at least n steps; the
    surrogate takes its kernel from it, and its pivots from
    ``plan.pivots_for(n)``, so a budget outside [1, ``plan.steps``] is a
    ValueError and one past a failed pivoting a MatrixNotPSDError, both
    before any draw. ``hf_provider`` maps a sample index to its
    high-fidelity output column and is called exactly n times, once per
    pivot in pivot order. The surrogate forms its sliced Gramian from the
    pivots' LF columns, with ``rcond`` the relative eigenvalue cutoff of
    its solve.
    """
    pivots = plan.pivots_for(n)

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
        kernel=plan.kernel,
        pivots=pivots,
        hf_snapshots=np.column_stack(columns),
        pivot_lf_columns=lf.outputs[:, list(pivots)],
        rcond=float(rcond),
    )


def evaluate(surrogate: Surrogate, query) -> np.ndarray:
    """Emulate the high-fidelity output for one query or a block of queries.

    ``query`` is a low-fidelity output column or a 2-d block of such
    columns; a block is emulated with one solve and returns one output
    column per query. The solve reads ``surrogate.factor``, so no call
    factors the sliced Gramian again.
    """
    query = np.asarray(query, dtype=float)
    if query.ndim not in (1, 2):
        raise ValueError(
            "query must be low-fidelity output columns, not a sample index; "
            "pass the training ensemble's column instead"
        )
    rhs = cross_kernel_vector(surrogate.kernel, surrogate.pivot_lf_columns, query)
    return surrogate.hf_snapshots @ apply_regularized(surrogate.factor, rhs)


def median_relative_error(
    surrogate: Surrogate, hf_truth: SnapshotEnsemble, lf: SnapshotEnsemble
) -> ErrorReport:
    """Lower-median relative emulation error over non-pivot samples.

    Samples whose true column (or label group) has zero norm are
    excluded from the relative medians. Per-QoI medians follow the label
    groups of ``hf_truth``.

    The denominators are read from ``hf_truth.squared_norms``, formed once
    per ensemble; a lone held-out column's are formed from that column.
    The held-out samples are emulated by ``evaluate`` and scored in the
    column blocks of ``column_blocks``: a block's residual, squared in
    place, and O(N) column sums, whatever N is. Every norm keeps the
    summation order of ``np.linalg.norm`` on the whole held-out blocks
    (aggregate) and on row copies of them (label groups), so the errors do
    not depend on how the blocks are read. A pivot that is not below the
    sample count is a ValueError naming it.
    """
    if hf_truth.n_samples != lf.n_samples:
        raise ValueError("high- and low-fidelity ensembles disagree on sample count")
    if max(surrogate.pivots, default=-1) >= lf.n_samples:  # Surrogate checks that none is negative
        raise ValueError(f"pivot {max(surrogate.pivots)} is out of range for {lf.n_samples} samples")
    test = held_out(lf.n_samples, surrogate.pivots)
    groups = list(hf_truth.label_groups().items())
    # squared norms per held-out column: the aggregate in row 0, then one
    # row per label group
    if test.size == 1:  # one column sums its groups pairwise, the cache row by row
        truth_sq = squared_column_norms(hf_truth.outputs[:, test], [rows for _, rows in groups])
    else:
        truth_sq = hf_truth.squared_norms[:, test]
    err_sq = np.empty_like(truth_sq)
    selectors = [row_selector(rows) for _, rows in groups]
    for cols in column_blocks(hf_truth.output_dim, test.size):
        block = test[cols]
        # row-major, as evaluate returns it, so its column sums add row by
        # row; so is the truth that take copies, so the subtraction streams
        err = evaluate(surrogate, lf.outputs[:, block])
        np.subtract(hf_truth.outputs.take(block, axis=1), err, out=err)
        np.square(err, out=err)
        err_sq[0, cols] = err.sum(axis=0)
        for k, rows in enumerate(selectors, 1):
            err_sq[k, cols] = err[rows].sum(axis=0)
        del err  # before the next block is emulated

    def median_ratio(k) -> float:
        num, den = np.sqrt(err_sq[k]), np.sqrt(truth_sq[k])
        keep = den > 0.0
        return lower_median(num[keep] / den[keep]) if keep.any() else math.nan

    return ErrorReport(
        aggregate_median_rel_error=median_ratio(0),
        per_qoi_median_rel_error={name: median_ratio(k) for k, (name, _) in enumerate(groups, 1)},
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


def _field(doc: dict, key: str, kind):
    """Field ``key`` of ``doc``, refused with a ValueError naming it unless
    it is a ``kind``: a number or an integer (float, int) as
    ``checked_number`` reads it, else a JSON kind (str, list) as
    ``checked_kind`` does. A missing field is None, refused alike."""
    what = f"archive field {key!r}"
    if kind in (float, int):
        return checked_number(doc.get(key), what, integer=kind is int)
    return checked_kind(doc.get(key), kind, what)


def _decode_matrix(matrices: dict, name: str) -> np.ndarray:
    blob = checked_object(matrices.get(name), ("rows", "cols", "dtype", "data"), f"archive field {name!r}")
    if blob.get("dtype") != "<f8":
        raise ValueError(f"archive field 'dtype' must be '<f8', got {blob.get('dtype')!r}")
    arr = np.frombuffer(base64.b64decode(_field(blob, "data", str)), dtype="<f8").astype(float)
    shape = (_field(blob, "rows", int), _field(blob, "cols", int))
    if min(shape) < 0:  # reshape would read -1 as "infer"
        raise ValueError(f"archive fields 'rows' and 'cols' must be non-negative, got {shape}")
    return arr.reshape(shape)


def _kernel_to_dict(kernel: KernelSpec) -> dict:
    return {"kind": "single", "family": kernel.family.name.lower(), "h": list(kernel.h)}


def _kernel_from_dict(doc) -> KernelSpec:
    # the kind before the keys, so a kernel mixture is named as one
    if checked_kind(doc, dict, "archive field 'kernel'").get("kind") != "single":
        raise ValueError(f"unsupported kernel kind {doc.get('kind')!r}; expected 'single'")
    checked_object(doc, ("kind", "family", "h"), "archive field 'kernel'")
    name = _field(doc, "family", str)
    if name.upper() not in KernelFamily.__members__:
        raise ValueError(f"unsupported kernel family {name!r}")
    h = tuple(checked_number(v, "archive field 'h'") for v in _field(doc, "h", list))
    return KernelSpec(family=KernelFamily[name.upper()], h=h)


def surrogate_to_dict(surrogate: Surrogate) -> dict:
    return {
        "version": ARCHIVE_VERSION,
        "kernel": _kernel_to_dict(surrogate.kernel),
        "pivots": list(surrogate.pivots),
        "rcond": surrogate.rcond,
        "matrices": {
            "hf_snapshots": _encode_matrix(surrogate.hf_snapshots),
            "pivot_lf_columns": _encode_matrix(surrogate.pivot_lf_columns),
        },
    }


def surrogate_from_dict(doc: dict) -> Surrogate:
    """Inverse of ``surrogate_to_dict``; a malformed document is a ValueError
    naming the field. Each level holds only the keys the writer writes, and
    the version is read first, so an archive of another version is named."""
    if checked_kind(doc, dict, "archive root").get("version") != ARCHIVE_VERSION:
        raise ValueError(f"unsupported archive version {doc.get('version')!r}, expected "
                         f"{ARCHIVE_VERSION}; rerun 'bifidelity run' to regenerate it")
    checked_object(doc, ("version", "kernel", "pivots", "rcond", "matrices"), "archive root")
    matrices = checked_object(doc.get("matrices"), ("hf_snapshots", "pivot_lf_columns"),
                              "archive field 'matrices'")
    return Surrogate(
        kernel=_kernel_from_dict(doc.get("kernel")),
        pivots=tuple(_field(doc, "pivots", list)),
        hf_snapshots=_decode_matrix(matrices, "hf_snapshots"),
        pivot_lf_columns=_decode_matrix(matrices, "pivot_lf_columns"),
        rcond=_field(doc, "rcond", float),
    )
