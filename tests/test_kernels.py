"""Kernel library: formula checks against independent recomputation,
algebraic invariants, and validation behavior."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bifidelity.data import SnapshotEnsemble
from bifidelity.kernels import (
    HYPER_DIMS,
    KernelFamily,
    KernelSpec,
    _distances,
    _kernel_block,
    cross_kernel_vector,
    radial_profile,
)

import oracles

RADIAL_FAMILIES = [f for f in KernelFamily if f != KernelFamily.LINEAR]


def make_spec(family, h1=0.7, h2=1.5):
    dim = HYPER_DIMS[family]
    h = ()[:0] if dim == 0 else ((h1,) if dim == 1 else (h1, h2))
    return KernelSpec(family=family, h=h)


def kernel_at(spec, u, v) -> float:
    """k(u, v), evaluated as the query u against the one column v."""
    return float(cross_kernel_vector(spec, v, u)[0])


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
    assert kernel_at(KernelSpec(family=KernelFamily.LINEAR), [1, 2], [3, 4]) == 11.0


def test_squared_exponential_zero_distance_is_one():
    spec = KernelSpec(family=KernelFamily.SQUARED_EXPONENTIAL, h=(5.0,))
    assert kernel_at(spec, [0.3, -1.0], [0.3, -1.0]) == 1.0


def test_exponential_at_unit_ratio():
    # ||u - v|| = 2 with h = 2 forces exp(-1)
    spec = KernelSpec(family=KernelFamily.EXPONENTIAL, h=(2.0,))
    assert kernel_at(spec, [0.0], [2.0]) == pytest.approx(math.exp(-1), rel=1e-15)


def test_matern32_zero_distance_is_one():
    spec = KernelSpec(family=KernelFamily.MATERN32, h=(1.0,))
    assert kernel_at(spec, [1.0, 2.0], [1.0, 2.0]) == 1.0


def test_gramian_single_column_linear():
    X = ensemble_from([[2.0]]).outputs
    G = _kernel_block(KernelSpec(family=KernelFamily.LINEAR), X, X)
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
    G = _kernel_block(make_spec(family), ens.outputs, ens.outputs)
    assert np.array_equal(G, np.ones((2, 2)))


def test_gramian_squared_exponential_two_points():
    # columns at distance 1, h1 = 0.5: off-diagonal exp(-1/(2*0.5)) = e^{-1}
    ens = ensemble_from([[0.0, 1.0]])
    spec = KernelSpec(family=KernelFamily.SQUARED_EXPONENTIAL, h=(0.5,))
    G = _kernel_block(spec, ens.outputs, ens.outputs)
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


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16, 64])
def test_cross_kernel_values_do_not_depend_on_operand_layout(dim):
    # column-major operands, as fancy indexing gives, and their row-major
    # copies: from dimension 3 (linear) and 8 (radial) up, a kernel that
    # read each layout as it came would add in another order
    rng = np.random.default_rng(60 + dim)
    X = rng.normal(size=(dim, 48))
    h = math.sqrt(2.0 * dim)
    for kernel in (make_spec(KernelFamily.LINEAR), make_spec(KernelFamily.EXPONENTIAL, h),
                   make_spec(KernelFamily.MATERN52, h)):
        for cols, queries in ((X[:, [7]], X[:, 8:]), (X[:, [3, 9, 1, 30, 22]], X[:, 10:45]),
                              (X[:, list(range(12))], X[:, [40, 2, 17]])):
            # fancy indexing gives column-major blocks, unless one row or column wide
            assert not (dim > 1 and cols.shape[1] > 1 and cols.flags.c_contiguous)
            got = cross_kernel_vector(kernel, cols, queries)
            np.testing.assert_array_equal(
                got, cross_kernel_vector(kernel, np.ascontiguousarray(cols), np.ascontiguousarray(queries)))
            np.testing.assert_array_equal(
                got, cross_kernel_vector(kernel, np.asfortranarray(cols), np.asfortranarray(queries)))
        # a lone entry is summed in the order of any block it sits in
        np.testing.assert_array_equal(cross_kernel_vector(kernel, X[:, [7]], X[:, [8]]),
                                      cross_kernel_vector(kernel, X[:, [7]], X[:, 8:])[:, :1])


# === agreement with the scalar-formula oracle ===


@pytest.mark.parametrize("family", list(KernelFamily))
def test_kernel_matches_scalar_formulas(family):
    rng = np.random.default_rng(int(family))
    spec = make_spec(family, h1=0.9, h2=1.7)
    for _ in range(25):
        u, v = rng.normal(size=(2, 4))
        expected = oracles.kernel_value(family.name.lower(), u, v, spec.h)
        assert kernel_at(spec, u, v) == pytest.approx(expected, rel=1e-13, abs=1e-15)


# === algebraic properties ===


@given(st.integers(0, 10**6))
def test_kernel_symmetry_exact(seed):
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(2, 3))
    for family in KernelFamily:
        spec = make_spec(family)
        assert kernel_at(spec, u, v) == kernel_at(spec, v, u)


@given(st.integers(0, 10**6))
def test_radial_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    u, v, c = rng.normal(size=(3, 4))
    for family in RADIAL_FAMILIES:
        spec = make_spec(family)
        base = kernel_at(spec, u, v)
        shifted = kernel_at(spec, u + c, v + c)
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
            w = np.linalg.eigvalsh(_kernel_block(spec, ens.outputs, ens.outputs))
            assert w[0] >= -1e-10 * max(w[-1], 0.0)


def test_radial_profile_vectorized_matches_pointwise():
    spec = KernelSpec(family=KernelFamily.MATERN32, h=(0.8,))
    r = np.array([0.0, 0.3, 1.5, 9.0])
    prof = radial_profile(spec, r)
    for k, rv in enumerate(r):
        u, v = np.array([0.0]), np.array([rv])
        assert prof[k] == pytest.approx(kernel_at(spec, u, v), rel=1e-15)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def assert_profiles_match(spec, r, expected):
    """``radial_profile`` on ``r`` equals ``expected`` bit for bit, both into
    a new array and written into a NaN-filled buffer, with the zero
    distances searched for and given by their index."""
    np.testing.assert_array_equal(bits(radial_profile(spec, r)), bits(expected))
    for zeros in (None, np.flatnonzero(r == 0.0)):
        out = np.full(r.shape, np.nan)
        assert radial_profile(spec, r, out=out, zeros=zeros) is out
        np.testing.assert_array_equal(bits(out), bits(expected))


def test_radial_profile_matches_the_dense_formulas_bit_for_bit():
    # h over the whole tuning box [1e-3, 1e3] * dbar, on distances spread
    # over six decades, with zeros on the diagonal and between duplicates
    rng = np.random.default_rng(0)
    cols = rng.normal(size=(2, 60)) * 10.0 ** rng.uniform(-3, 3, 60)
    cols[:, 50:] = cols[:, :10]
    r = _distances(cols, cols)[np.triu_indices(60)]
    assert np.count_nonzero(r == 0.0) == 60 + 10  # the diagonal, and 10 pairs of duplicates
    dbar = float(np.median(r[r > 0]))
    skipped = 0
    for family in RADIAL_FAMILIES:
        for _ in range(200):
            h = tuple(dbar * 10.0 ** rng.uniform(-3, 3, HYPER_DIMS[family]))
            spec = KernelSpec(family=family, h=h)
            assert_profiles_match(spec, r, oracles.radial_profile_dense(spec, r))
            if family == KernelFamily.RATIONAL_QUADRATIC:
                with np.errstate(over="ignore"):
                    skipped += h[1] * np.log1p(r**2 / (2.0 * h[0] ** 2 * h[1])).max() > 746.5
    assert 0 < skipped < 200  # the draws reach the rational quadratic's skip, and its other side


@pytest.mark.parametrize("h2", [1.0, 746.5 / 709 * (1 - 1e-12), 746.5 / 709 * (1 + 1e-12), 2.0, 37.0, 1e3])
def test_rational_quadratic_matches_the_dense_formula_at_its_underflow_threshold(h2):
    # pow is skipped where h2 * ln(base) > 746.5, while 746.5 / h2 < 709;
    # below ~745.13 the power is a nonzero subnormal and must be kept
    h1 = 0.3
    scale = 2.0 * h1**2 * h2
    spec = KernelSpec(family=KernelFamily.RATIONAL_QUADRATIC, h=(h1, h2))
    with np.errstate(over="ignore"):  # exp overflows where 740 / h2 > 709.78
        sweep = np.sqrt((np.exp(np.linspace(740.0, 750.0, 4001) / h2) - 1.0) * scale)
    profile = radial_profile(spec, sweep)
    assert_profiles_match(spec, sweep, oracles.radial_profile_dense(spec, sweep))
    if 746.5 / h2 < 709.0:
        assert profile[0] > 0.0 and profile[-1] == 0.0
        # ulp steps of r around the threshold put the computed base on both sides
        threshold = math.exp(746.5 / h2) * (1.0 + 1e-9)
        near = math.sqrt((threshold - 1.0) * scale) * (1.0 + np.arange(-64, 65) * 2.0**-52)
        base = 1.0 + near**2 / scale
        assert (base > threshold).any() and (base <= threshold).any()
        assert_profiles_match(spec, near, oracles.radial_profile_dense(spec, near))


# === distances ===


@pytest.mark.parametrize("d", [1, 2, 3, 9, 202])
def test_distances_match_row_order_loop_bit_for_bit(d):
    rng = np.random.default_rng(d)
    spec = KernelSpec(family=KernelFamily.MATERN52, h=(0.7,))
    for scale in (1e-3, 1.0, 1e3):
        a = scale * rng.normal(size=(d, 7))
        b = scale * rng.normal(size=(d, 90))
        D = _distances(a, a)
        np.testing.assert_array_equal(D, oracles.distance_block_dense(a, a))
        assert np.array_equal(D, D.T)
        assert not D.diagonal().any()
        # at d = 202 b's columns go in several blocks; one LF column against
        # one query is a lone entry, which numpy would sum pairwise
        for left, right in ((a, b), (a[:, :1], b), (a[:, :1], b[:, :1])):
            expected = oracles.distance_block_dense(left, right)
            np.testing.assert_array_equal(_distances(left, right), expected)
            np.testing.assert_array_equal(
                _kernel_block(spec, left, right), radial_profile(spec, expected)
            )


def test_distances_refuse_a_row_count_mismatch():
    # plain broadcasting would stretch the one-row input
    with pytest.raises(ValueError, match="row counts differ"):
        _distances(np.ones((1, 3)), np.ones((2, 4)))
    with pytest.raises(ValueError, match="row counts differ"):
        _kernel_block(make_spec(KernelFamily.EXPONENTIAL), np.ones((2, 3)), np.ones((1, 4)))


def test_overflowing_distances_are_inf_without_a_warning():
    a = np.array([[1e200, -1e200, 0.0], [1e200, 1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        D = _distances(a, a)
        block = _distances(a, a[:, ::-1])
    assert D[0, 1] == math.inf and D[0, 2] == math.inf and D[1, 2] == math.inf
    assert not D.diagonal().any()
    np.testing.assert_array_equal(block, D[:, ::-1])


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
    with pytest.raises(ValueError, match="does not match"):
        kernel_at(spec, [1.0, 2.0], [1.0])


def test_kernel_eval_rejects_non_finite():
    spec = KernelSpec(family=KernelFamily.EXPONENTIAL, h=(1.0,))
    with pytest.raises(ValueError, match="finite"):
        kernel_at(spec, [np.nan], [0.0])


def test_rational_quadratic_literal_overflow_raises():
    # named for the deleted literal rational-quadratic form; any kernel
    # value that leaves the floats must raise instead
    with pytest.raises(ArithmeticError, match="overflow"):
        kernel_at(KernelSpec(family=KernelFamily.LINEAR), [1e200], [1e200])
    # 5 r^2 / (3 h^2) is inf at h = 1e-170, and inf * exp(-s) is NaN
    spec = KernelSpec(family=KernelFamily.MATERN52, h=(1e-170,))
    with pytest.raises(ArithmeticError, match="overflow"):
        cross_kernel_vector(spec, [[0.0, 1.0]], [[1e-4, 2.0]])


def test_cross_kernel_dimension_mismatch():
    spec = KernelSpec(family=KernelFamily.LINEAR)
    with pytest.raises(ValueError, match="does not match"):
        cross_kernel_vector(spec, np.eye(2), [1.0, 2.0, 3.0])
