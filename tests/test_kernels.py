"""Kernel library: formula checks against independent recomputation,
algebraic invariants, and validation behavior."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bifidelity.data import SnapshotEnsemble
from bifidelity.kernels import (
    HYPER_DIMS,
    KernelFamily,
    KernelSpec,
    cross_kernel_vector,
    gramian_entries,
    kernel_eval,
    radial_profile,
)

import oracles

RADIAL_FAMILIES = [f for f in KernelFamily if f != KernelFamily.LINEAR]


def make_spec(family, h1=0.7, h2=1.5):
    dim = HYPER_DIMS[family]
    h = ()[:0] if dim == 0 else ((h1,) if dim == 1 else (h1, h2))
    return KernelSpec(family=family, h=h)


def ensemble_from(columns):
    columns = np.asarray(columns, dtype=float)
    N = columns.shape[1]
    return SnapshotEnsemble(
        outputs=columns,
        params=np.arange(N, dtype=float)[:, None],
        per_sample_cost=np.ones(N),
    )


# === fixed-value checks ===


def test_linear_dot_product():
    assert kernel_eval(KernelSpec(family=KernelFamily.LINEAR), [1, 2], [3, 4]) == 11.0


def test_squared_exponential_zero_distance_is_one():
    spec = KernelSpec(family=KernelFamily.SQUARED_EXPONENTIAL, h=(5.0,))
    assert kernel_eval(spec, [0.3, -1.0], [0.3, -1.0]) == 1.0


def test_exponential_at_unit_ratio():
    # ||u - v|| = 2 with h = 2 forces exp(-1)
    spec = KernelSpec(family=KernelFamily.EXPONENTIAL, h=(2.0,))
    assert kernel_eval(spec, [0.0], [2.0]) == pytest.approx(math.exp(-1), rel=1e-15)


def test_matern32_zero_distance_is_one():
    spec = KernelSpec(family=KernelFamily.MATERN32, h=(1.0,))
    assert kernel_eval(spec, [1.0, 2.0], [1.0, 2.0]) == 1.0


def test_gramian_single_column_linear():
    G = gramian_entries(KernelSpec(family=KernelFamily.LINEAR), ensemble_from([[2.0]]).outputs)
    assert G.shape == (1, 1)
    assert G[0, 0] == 4.0


@pytest.mark.parametrize(
    "family",
    [
        KernelFamily.EXPONENTIAL,
        KernelFamily.SQUARED_EXPONENTIAL,
        KernelFamily.MATERN32,
        KernelFamily.MATERN52,
    ],
)
def test_gramian_identical_columns_all_ones(family):
    ens = ensemble_from(np.column_stack([[1.0, -2.0], [1.0, -2.0]]))
    G = gramian_entries(make_spec(family), ens.outputs)
    assert np.array_equal(G, np.ones((2, 2)))


def test_gramian_squared_exponential_two_points():
    # columns at distance 1, h1 = 0.5: off-diagonal exp(-1/(2*0.5)) = e^{-1}
    ens = ensemble_from([[0.0, 1.0]])
    G = gramian_entries(KernelSpec(family=KernelFamily.SQUARED_EXPONENTIAL, h=(0.5,)), ens.outputs)
    expected = np.array([[1.0, math.exp(-1)], [math.exp(-1), 1.0]])
    np.testing.assert_allclose(G, expected, rtol=1e-15)


def test_cross_kernel_query_equals_column():
    cols = np.array([[0.0, 1.0, 3.0], [0.0, 2.0, -1.0]])
    spec = KernelSpec(family=KernelFamily.SQUARED_EXPONENTIAL, h=(1.0,))
    vec = cross_kernel_vector(spec, cols, cols[:, 1])
    assert vec[1] == 1.0
    assert vec.shape == (3,)


def test_cross_kernel_linear_recovers_components():
    cols = np.array([[1.0, 0.0], [0.0, 1.0]])
    vec = cross_kernel_vector(KernelSpec(family=KernelFamily.LINEAR), cols, [3.0, 4.0])
    np.testing.assert_array_equal(vec, [3.0, 4.0])


def test_cross_kernel_exponential_single_column():
    vec = cross_kernel_vector(
        KernelSpec(family=KernelFamily.EXPONENTIAL, h=(1.0,)), [[0.0]], [1.0]
    )
    assert vec[0] == pytest.approx(math.exp(-1), rel=1e-15)


def test_cross_kernel_columns_are_vectors():
    # u1 = [1, 0] and u2 = [2, 5] are the columns, not the rows
    cols = np.column_stack([[1.0, 0.0], [2.0, 5.0]])
    vec = cross_kernel_vector(KernelSpec(family=KernelFamily.LINEAR), cols, [1.0, 1.0])
    np.testing.assert_array_equal(vec, [1.0, 7.0])


@pytest.mark.parametrize(
    "kernel",
    [make_spec(f) for f in KernelFamily],
    ids=[f.name.lower() for f in KernelFamily],
)
def test_cross_kernel_block_equals_columnwise(kernel):
    rng = np.random.default_rng(5)
    cols = rng.normal(size=(3, 6))
    queries = rng.normal(size=(3, 4))
    queries[:, 1] = cols[:, 2]  # a zero distance
    block = cross_kernel_vector(kernel, cols, queries)
    assert block.shape == (6, 4)
    for j in range(queries.shape[1]):
        np.testing.assert_array_equal(block[:, j], cross_kernel_vector(kernel, cols, queries[:, j]))


# === agreement with the scalar-formula oracle ===


@pytest.mark.parametrize("family", list(KernelFamily))
def test_kernel_matches_scalar_formulas(family):
    rng = np.random.default_rng(int(family))
    spec = make_spec(family, h1=0.9, h2=1.7)
    for _ in range(25):
        u, v = rng.normal(size=(2, 4))
        expected = oracles.kernel_value(family.name.lower(), u, v, spec.h)
        assert kernel_eval(spec, u, v) == pytest.approx(expected, rel=1e-13, abs=1e-15)


# === algebraic properties ===


@given(st.integers(0, 10**6))
def test_kernel_symmetry_exact(seed):
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(2, 3))
    for family in KernelFamily:
        spec = make_spec(family)
        assert kernel_eval(spec, u, v) == kernel_eval(spec, v, u)


@given(st.integers(0, 10**6))
def test_radial_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    u, v, c = rng.normal(size=(3, 4))
    for family in RADIAL_FAMILIES:
        spec = make_spec(family)
        base = kernel_eval(spec, u, v)
        shifted = kernel_eval(spec, u + c, v + c)
        assert abs(base - shifted) <= 1e-12


def test_linear_and_squared_exponential_gramians_psd():
    # 100 seeds, ensembles up to 20 samples
    for seed in range(100):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 21))
        ens = ensemble_from(rng.normal(size=(3, N)))
        for spec in (
            KernelSpec(family=KernelFamily.LINEAR),
            KernelSpec(family=KernelFamily.SQUARED_EXPONENTIAL, h=(1.0,)),
        ):
            w = np.linalg.eigvalsh(gramian_entries(spec, ens.outputs))
            assert w[0] >= -1e-10 * max(w[-1], 0.0)


def test_radial_profile_vectorized_matches_pointwise():
    spec = KernelSpec(family=KernelFamily.MATERN32, h=(0.8,))
    r = np.array([0.0, 0.3, 1.5, 9.0])
    prof = radial_profile(spec, r)
    for k, rv in enumerate(r):
        u, v = np.array([0.0]), np.array([rv])
        assert prof[k] == pytest.approx(kernel_eval(spec, u, v), rel=1e-15)


# === validation ===


def test_hyperparameter_count_enforced():
    with pytest.raises(ValueError, match="takes 1 hyperparameter"):
        KernelSpec(family=KernelFamily.EXPONENTIAL, h=())
    with pytest.raises(ValueError, match="takes 2 hyperparameter"):
        KernelSpec(family=KernelFamily.RATIONAL_QUADRATIC, h=(1.0,))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_hyperparameters_must_be_positive_finite(bad):
    with pytest.raises(ValueError):
        KernelSpec(family=KernelFamily.EXPONENTIAL, h=(bad,))


def test_kernel_eval_dimension_mismatch():
    spec = KernelSpec(family=KernelFamily.LINEAR)
    with pytest.raises(ValueError, match="dimensions differ"):
        kernel_eval(spec, [1.0, 2.0], [1.0])


def test_kernel_eval_rejects_non_finite():
    spec = KernelSpec(family=KernelFamily.EXPONENTIAL, h=(1.0,))
    with pytest.raises(ValueError, match="finite"):
        kernel_eval(spec, [np.nan], [0.0])


def test_rational_quadratic_literal_overflow_raises():
    # named for the deleted literal rational-quadratic form; any kernel
    # value that leaves the floats must raise instead
    with pytest.raises(ArithmeticError, match="overflow"):
        kernel_eval(KernelSpec(family=KernelFamily.LINEAR), [1e200], [1e200])
    # 5 r^2 / (3 h^2) is inf at h = 1e-170, and inf * exp(-s) is NaN
    spec = KernelSpec(family=KernelFamily.MATERN52, h=(1e-170,))
    with pytest.raises(ArithmeticError, match="overflow"):
        cross_kernel_vector(spec, [[0.0, 1.0]], [[1e-4, 2.0]])


def test_cross_kernel_dimension_mismatch():
    spec = KernelSpec(family=KernelFamily.LINEAR)
    with pytest.raises(ValueError, match="does not match"):
        cross_kernel_vector(spec, np.eye(2), [1.0, 2.0, 3.0])
