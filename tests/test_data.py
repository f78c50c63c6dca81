"""Snapshot ensemble container invariants."""
import numpy as np
import pytest

from bifidelity.data import SnapshotEnsemble


def make(outputs, labels=None):
    outputs = np.asarray(outputs, dtype=float)
    N = outputs.shape[1]
    return SnapshotEnsemble(
        outputs=outputs,
        params=np.arange(N, dtype=float)[:, None],
        per_sample_cost=np.ones(N),
        labels=labels,
    )


def test_shape_accessors_and_columns():
    ens = make([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert ens.n_samples == 3
    assert ens.output_dim == 2
    np.testing.assert_array_equal(ens.column(1), [2.0, 5.0])


def test_arrays_are_frozen():
    ens = make(np.ones((2, 3)))
    with pytest.raises(ValueError):
        ens.outputs[0, 0] = 5.0
    with pytest.raises(ValueError):
        ens.params[0, 0] = 5.0


def test_label_groups_first_appearance_order():
    ens = make(np.ones((4, 2)), labels=("traj", "traj", "energy", "traj"))
    assert ens.label_groups() == {"traj": [0, 1, 3], "energy": [2]}
    assert make(np.ones((1, 2))).label_groups() == {}


def test_validation_errors():
    with pytest.raises(ValueError, match="2-d"):
        SnapshotEnsemble(np.ones(3), np.ones((3, 1)), np.ones(3))
    with pytest.raises(ValueError, match="2-d"):
        SnapshotEnsemble(np.ones((1, 3)), np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="columns"):
        SnapshotEnsemble(np.ones((1, 3)), np.ones((4, 1)), np.ones(3))
    with pytest.raises(ValueError, match="length"):
        SnapshotEnsemble(np.ones((1, 3)), np.ones((3, 1)), np.ones(4))
    with pytest.raises(ValueError, match="non-finite"):
        SnapshotEnsemble(np.array([[1.0, np.nan]]), np.ones((2, 1)), np.ones(2))
    with pytest.raises(ValueError, match="one name per output row"):
        make(np.ones((2, 3)), labels=("only_one",))
