"""Snapshot ensemble container invariants, the one number rule, and the one
rule for JSON strings, lists and objects."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from bifidelity.bench import BenchmarkSpec, default_spec
from bifidelity.cli import ConfigError, parse_config
from bifidelity.data import SnapshotEnsemble, checked_kind, checked_number, checked_object, held_out
from bifidelity.hyperopt import ObjectiveConfig, PsoConfig
from bifidelity.kernels import KernelFamily, KernelSpec
from bifidelity.surrogate import Surrogate, surrogate_from_dict, surrogate_to_dict


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


def test_read_only_arrays_are_kept_and_writable_ones_copied():
    handed = np.ones((2, 3))
    handed.setflags(write=False)
    ens = make(handed)
    assert ens.outputs is handed
    own = np.ones((2, 3))
    ens = make(own)
    assert ens.outputs is not own and not ens.outputs.flags.writeable
    own[0, 0] = 5.0  # the caller's array stays writable and apart
    assert ens.outputs[0, 0] == 1.0
    # a read-only view does not own its data, so it is copied
    view = np.ones((2, 4))[:, :3]
    view.setflags(write=False)
    assert make(view).outputs is not view


def test_label_groups_first_appearance_order():
    ens = make(np.ones((4, 2)), labels=("traj", "traj", "energy", "traj"))
    assert ens.label_groups() == {"traj": [0, 1, 3], "energy": [2]}
    assert make(np.ones((1, 2))).label_groups() == {}


@pytest.mark.parametrize("taken", [[], [3], [7, 0, 5], [2, 2, 9], list(range(10))[::-1]],
                         ids=["empty", "one", "unsorted", "repeated", "full"])
def test_held_out_is_setdiff_of_the_taken_indices(taken):
    # np.setdiff1d is the reference: the ascending indices of range(n) not taken
    got = held_out(10, taken)
    np.testing.assert_array_equal(got, np.setdiff1d(np.arange(10), taken))
    assert got.dtype == np.intp
    np.testing.assert_array_equal(held_out(10, tuple(taken)), got)


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


# === the number rule ===


def test_checked_number_returns_the_kind_it_checks():
    for value in (3, np.int64(3), np.uint8(3), 2**1000):
        got = checked_number(value, "n", integer=True)
        assert type(got) is int and got == value
    for value, expected in ((3, 3.0), (np.float32(0.5), 0.5), (Fraction(1, 4), 0.25), (-(10**300), -1e300)):
        got = checked_number(value, "x")
        assert type(got) is float and got == expected
    # an integer is integral: a float, bool or string is refused, not truncated
    for value in (3.0, 2.5, True, np.bool_(True), "3", None):
        with pytest.raises(ValueError, match=f"n must be an integer, got {re.escape(repr(value))}"):
            checked_number(value, "n", integer=True)
    # a fraction too large for a float is not finite either, nor a numpy
    # infinity, nor an integer beyond the floats
    for value in (Fraction(10**400, 3), np.float32(np.inf), np.float64(np.nan)):
        with pytest.raises(ValueError, match=f"x must be finite, got {re.escape(repr(value))}"):
            checked_number(value, "x")
    for value in (10**400, -(2**1100)):
        with pytest.raises(ValueError, match=f"n must be finite, got {re.escape(repr(value))}"):
            checked_number(value, "n", integer=True)


REFUSALS = [(True, "a number"), ("1", "a number"), (None, "a number"),
            (math.nan, "finite"), (math.inf, "finite"), (10**400, "finite")]


def _archive() -> dict:
    linear = KernelSpec(family=KernelFamily.LINEAR)
    return surrogate_to_dict(Surrogate(kernel=linear, pivots=(0,), hf_snapshots=np.ones((2, 1)),
                                       pivot_lf_columns=np.ones((1, 1)), rcond=1e-12))


# entry point -> (the field its refusal names, a call that feeds it the value)
ENTRY_POINTS = {
    "pso-weight": ("k1", lambda v: PsoConfig(k1=v)),
    "objective-bound": ("bounds[0] hi",
                        lambda v: ObjectiveConfig(lam=0.1, family=KernelFamily.EXPONENTIAL, bounds=((0.1, v),))),
    "benchmark-setting": ("lf dt", lambda v: BenchmarkSpec(name="oscillator", grid=default_spec("oscillator").grid,
                                                           lf_settings={"dt": v})),
    "archive-rcond": ("archive field 'rcond'", lambda v: surrogate_from_dict({**_archive(), "rcond": v})),
    "config-lambda": ("lambda", lambda v: parse_config({"data": {"benchmark": {"name": "oscillator"}}, "lambda": v})),
}


@pytest.mark.parametrize("value, kind", REFUSALS, ids=["bool", "string", "null", "nan", "inf", "huge-integer"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_entry_point_refuses_a_number_in_one_wording(entry, value, kind):
    what, feed = ENTRY_POINTS[entry]
    # the config's refusal is a ConfigError, the library's a ValueError
    with pytest.raises(ConfigError if entry == "config-lambda" else ValueError) as refused:
        feed(value)
    assert str(refused.value) == f"{what} must be {kind}, got {value!r}"


def test_checked_kind_and_object_refuse_in_one_wording():
    doc = {"a": 1}
    assert checked_kind("s", str, "x") == "s" and checked_kind([], list, "x") == []
    assert checked_object(doc, ("a", "b"), "x") is doc and checked_object({}, (), "x") == {}
    # a kind is the type json.load gives: a tuple is no list, a bool no string
    for value, kind, name in (([], str, "a string"), (True, str, "a string"), ((1,), list, "a list"),
                              ({}, list, "a list"), ([], dict, "a JSON object"), (None, dict, "a JSON object")):
        with pytest.raises(ValueError) as refused:
            checked_kind(value, kind, "x")
        assert str(refused.value) == f"x must be {name}, got {type(value).__name__}"
    with pytest.raises(ValueError) as refused:
        checked_object("{}", ("a",), "x")
    assert str(refused.value) == "x must be a JSON object, got str"
    # every unknown key is named, sorted, whatever its value
    with pytest.raises(ValueError) as refused:
        checked_object({"z": None, "a": 1, "b": {}}, ("a",), "x")
    assert str(refused.value) == "unknown key(s) ['b', 'z'] in x"


def _merged(base: dict, doc):
    """``base`` updated by ``doc`` where it is an object, else ``doc`` itself."""
    return {**base, **doc} if isinstance(doc, dict) else doc


def _archive_with(doc, *path) -> dict:
    """An archive whose object at ``path`` is merged with ``doc``."""
    archive = _archive()
    if not path:
        return _merged(archive, doc)
    *parents, key = path
    node = archive
    for name in parents:
        node = node[name]
    node[key] = _merged(node[key], doc)
    return archive


BENCHMARK = {"name": "oscillator"}
FILES = {"lf_outputs": "lf.csv", "lf_params": "params.csv", "hf_outputs": "hf.csv"}

# entry point -> (the object its refusal names, a call that feeds it a document)
OBJECT_ENTRY_POINTS = {
    "config-root": ("config", lambda d: parse_config(_merged({"data": {"benchmark": BENCHMARK}}, d))),
    "config-pso": ("pso", lambda d: parse_config({"data": {"benchmark": BENCHMARK}, "pso": d})),
    "config-data": ("data", lambda d: parse_config({"data": _merged({"benchmark": BENCHMARK}, d)})),
    "config-files": ("data.files", lambda d: parse_config({"data": {"files": _merged(FILES, d)}})),
    "config-benchmark": ("data.benchmark", lambda d: parse_config({"data": {"benchmark": _merged(BENCHMARK, d)}})),
    "benchmark-settings": ("oscillator hf settings",
                           lambda d: BenchmarkSpec(name="oscillator", grid=default_spec("oscillator").grid,
                                                   hf_settings=d)),
    "archive-root": ("archive root", lambda d: surrogate_from_dict(_archive_with(d))),
    "archive-kernel": ("archive field 'kernel'", lambda d: surrogate_from_dict(_archive_with(d, "kernel"))),
    "archive-matrices": ("archive field 'matrices'", lambda d: surrogate_from_dict(_archive_with(d, "matrices"))),
    "archive-matrix": ("archive field 'hf_snapshots'",
                       lambda d: surrogate_from_dict(_archive_with(d, "matrices", "hf_snapshots"))),
}


@pytest.mark.parametrize("entry", list(OBJECT_ENTRY_POINTS))
def test_every_reader_refuses_an_object_in_one_wording(entry):
    what, feed = OBJECT_ENTRY_POINTS[entry]
    # the config's refusal is a ConfigError, the library's a ValueError
    error = ConfigError if entry.startswith("config") else ValueError
    for doc, message in (({"endian": "big", "b": 0}, f"unknown key(s) ['b', 'endian'] in {what}"),
                         ([], f"{what} must be a JSON object, got list")):
        with pytest.raises(error) as refused:
            feed(doc)
        assert str(refused.value) == message
