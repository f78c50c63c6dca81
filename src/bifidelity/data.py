"""Snapshot ensembles (model outputs, parameter tables, per-sample costs),
their squared column norms and their output normalization, one group per
QoI label; and the one rule for numbers and JSON kinds that all input follows."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def checked_number(value, what: str, integer: bool = False):
    """``value`` as an int if ``integer``, else as a float; else a ValueError naming ``what``.

    A bool is neither a number nor an integer. A number is a
    ``numbers.Real`` and an integer a ``numbers.Integral``, and either is
    finite as a float: NaN, the infinities and a value beyond the floats,
    such as the integer 10**400, are refused as not finite.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        raise ValueError(f"{what} must be {'an integer' if integer else 'a number'}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer or a fraction beyond the floats
        finite = False
    if not finite:
        raise ValueError(f"{what} must be finite, got {value!r}")
    return int(value) if integer else float(value)


# The JSON kinds a value is checked against, by the type ``json.load``
# gives it, and the name a refusal gives it.
_JSON_KINDS = {str: "a string", list: "a list", dict: "a JSON object"}


def checked_kind(value, kind: type, what: str):
    """``value`` if it is of JSON ``kind`` (str, list or dict); else a ValueError naming ``what``."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def checked_object(doc, keys, what: str) -> dict:
    """``doc`` if it is a JSON object whose keys are all among ``keys``; else a ValueError naming ``what``."""
    unknown = sorted(set(checked_kind(doc, dict, what)) - set(keys))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {what}")
    return doc


# Doubles in one column block of an output array: code that reads every
# column of a (rows x N) array in blocks of ``column_blocks`` holds
# O(_BLOCK_DOUBLES) doubles per temporary whatever N is.
_BLOCK_DOUBLES = 2**16


def column_blocks(rows: int, columns: int) -> list[slice]:
    """Slices covering ``range(columns)`` in blocks of max(2, _BLOCK_DOUBLES // rows).

    A one-column remainder joins the block before it, so a block has one
    column only when there is one column in all: numpy sums a (rows, 1)
    block pairwise, as a contiguous vector, where it adds the rows of a
    wider block in order, and BLAS takes another path for it. Every
    column is then read as a whole-array read would read it.
    """
    width = max(2, _BLOCK_DOUBLES // max(rows, 1))
    starts = list(range(0, columns, width))
    if len(starts) > 1 and columns - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], columns])]


def _frozen_array(values, dtype=float) -> np.ndarray:
    """``values`` itself when it is a read-only array of ``dtype`` that owns
    its data, as an array handed over by the code that built it; else a
    frozen copy, so a caller's writable array is never frozen under it."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SnapshotEnsemble:
    """A batch of model evaluations, one column of `outputs` per sample.

    Parameters
    ----------
    outputs : ndarray, shape (output_dim, n_samples)
        One output vector per column.
    params : ndarray, shape (n_samples, n_params)
        Parameter values, one row per sample, aligned with the columns.
    per_sample_cost : ndarray, shape (n_samples,)
        Cost units charged for producing each column.
    labels : tuple of str, optional
        One label per output row; repeated labels form QoI groups.
    """

    outputs: np.ndarray
    params: np.ndarray
    per_sample_cost: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        outputs = _frozen_array(self.outputs)
        params = _frozen_array(self.params)
        cost = _frozen_array(self.per_sample_cost)
        if outputs.ndim != 2:
            raise ValueError("outputs must be a 2-d array (output_dim x n_samples)")
        if params.ndim != 2:
            raise ValueError("params must be a 2-d array (n_samples x n_params)")
        if cost.ndim != 1:
            raise ValueError("per_sample_cost must be 1-d")
        if outputs.shape[1] != params.shape[0]:
            raise ValueError(
                f"outputs has {outputs.shape[1]} columns but params has "
                f"{params.shape[0]} rows"
            )
        if cost.shape[0] != outputs.shape[1]:
            raise ValueError("per_sample_cost length must match the sample count")
        for name, arr in (("outputs", outputs), ("params", params), ("per_sample_cost", cost)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != outputs.shape[0]:
                raise ValueError("labels must supply one name per output row")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "per_sample_cost", cost)

    @property
    def n_samples(self) -> int:
        return self.outputs.shape[1]

    @property
    def output_dim(self) -> int:
        return self.outputs.shape[0]

    def column(self, j: int) -> np.ndarray:
        return self.outputs[:, j]

    def label_groups(self) -> dict[str, list[int]]:
        """Row indices grouped by label, in first-appearance order."""
        return {} if self.labels is None else label_groups(self.labels)

    @cached_property
    def squared_norms(self) -> np.ndarray:
        """``squared_column_norms`` of ``outputs`` over its label groups, read-only.

        Formed on the first read and kept, like the outputs it is read
        from, so code that shares the ensemble between threads reads it
        once before they start.
        """
        sums = squared_column_norms(self.outputs, list(self.label_groups().values()))
        sums.setflags(write=False)
        return sums


def label_groups(labels) -> dict[str, list[int]]:
    """Row indices grouped by label, in first-appearance order: the QoI
    groups that normalization scales and the error metric scores."""
    groups: dict[str, list[int]] = {}
    for row, name in enumerate(labels):
        groups.setdefault(name, []).append(row)
    return groups


def row_selector(rows: list[int]) -> slice | list[int]:
    """An index for ``rows``: a slice when they run consecutively upward,
    so that indexing reads a view, else the list itself, which copies."""
    lo = rows[0]
    return slice(lo, lo + len(rows)) if rows == list(range(lo, lo + len(rows))) else rows


def squared_column_norms(outputs: np.ndarray, groups) -> np.ndarray:
    """Squared norms of every column of ``outputs``: the whole column in
    row 0, then one row per group of ``groups``, each a list of row indices.

    Each sum is added in the order ``np.linalg.norm(..., axis=0)`` adds it
    on a column gather of ``outputs``: the whole column pairwise, as a
    column-major array sums it, and a group row by row, as a row-major
    copy of its rows sums it, or pairwise when ``outputs`` has one column.
    The columns are read in the blocks of ``column_blocks``, which give a
    block one column only when there is one column in all, so a temporary
    holds one block's squares, whatever the column count.
    """
    sums = np.empty((1 + len(groups), outputs.shape[1]))
    selectors = [row_selector(rows) for rows in groups]
    for cols in column_blocks(*outputs.shape):
        sums[0, cols] = np.square(outputs[:, cols], order="F").sum(axis=0)
        for k, rows in enumerate(selectors, 1):
            sums[k, cols] = np.square(outputs[rows, cols], order="C").sum(axis=0)
    return sums


def held_out(n: int, taken) -> np.ndarray:
    """The indices of ``range(n)`` not in ``taken``, ascending."""
    keep = np.ones(n, dtype=bool)
    keep[np.asarray(taken, dtype=np.intp)] = False
    return np.flatnonzero(keep)


def normalize_in_place(outputs: np.ndarray, labels) -> None:
    """Scale each QoI group of ``outputs`` to unit root-mean-square column
    energy, overwriting it.

    ``labels`` names each row, and the rows of one label form a group (see
    ``label_groups``); each group is divided by sqrt(mean over columns of
    the squared group-restricted column norm). A group whose energy is 0 or
    overflows raises ArithmeticError naming its label. Each group is read
    through ``row_selector`` in the column blocks of ``column_blocks``, so a
    temporary holds one block, not the group; either way its squares are
    summed row-major, rows in order, so the scale does not depend on the
    layout of ``outputs`` or on the blocks.
    """
    if len(labels) != outputs.shape[0]:
        raise ValueError(f"labels must supply one name per output row, got {len(labels)}")
    sums = np.empty(outputs.shape[1])
    blocks = column_blocks(*outputs.shape)
    for label, group in label_groups(labels).items():
        rows = row_selector(group)
        with np.errstate(over="ignore"):  # an overflowing energy is named below
            for cols in blocks:
                sums[cols] = np.square(outputs[rows, cols], order="C").sum(axis=0)
            energy = float(np.mean(sums))
        if not 0.0 < energy < math.inf:
            raise ArithmeticError(f"QoI {label!r} has energy {energy} and cannot be normalized")
        outputs[rows] /= math.sqrt(energy)
