"""Snapshot ensembles (model outputs, parameter tables, per-sample costs)
and their per-group output normalization."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _frozen_array(values, dtype=float) -> np.ndarray:
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
        if self.labels is None:
            return {}
        groups: dict[str, list[int]] = {}
        for row, name in enumerate(self.labels):
            groups.setdefault(name, []).append(row)
        return groups


def normalize_ensemble(ensemble: SnapshotEnsemble, groups) -> SnapshotEnsemble:
    """Scale each output-row group to unit root-mean-square column energy.

    ``groups`` partitions the output rows; each group is divided by
    sqrt(mean over columns of the squared group-restricted column norm).
    """
    rows_seen: set[int] = set()
    group_list = [list(int(r) for r in g) for g in groups]
    for g in group_list:
        if not g:
            raise ValueError("normalization groups must be non-empty")
        for r in g:
            if r in rows_seen:
                raise ValueError(f"row {r} appears in more than one group")
            rows_seen.add(r)
    if rows_seen != set(range(ensemble.output_dim)):
        raise ValueError("groups must partition all output rows")

    outputs = np.array(ensemble.outputs, dtype=float)
    for g in group_list:
        energy = float(np.mean(np.sum(outputs[g, :] ** 2, axis=0)))
        if energy == 0.0:
            raise ValueError(f"group {g} has zero energy and cannot be normalized")
        outputs[g, :] /= math.sqrt(energy)
    return SnapshotEnsemble(
        outputs=outputs,
        params=ensemble.params,
        per_sample_cost=ensemble.per_sample_cost,
        labels=ensemble.labels,
    )
