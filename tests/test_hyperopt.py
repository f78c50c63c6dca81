"""Objective values against a dense-SVD oracle, swarm behavior against
random search, the local refinement contract, and tuning's and
selection's decisions on the canonical configs against exhaustive oracles."""
import functools
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bifidelity import cli, hyperopt, kernels
from bifidelity.bench import BenchmarkSpec, default_spec, gen_oscillator, generate
from bifidelity.hyperopt import (
    ObjectiveConfig,
    PsoConfig,
    TuningTable,
    default_bounds,
    optimize_hyperparams,
    pso_minimize,
    refine_local,
)
from bifidelity.kernels import HYPER_DIMS, KernelFamily, KernelSpec, _distances, _kernel_block, radial_profile
from bifidelity.surrogate import median_relative_error

import oracles
from oracles import ensemble_from
import test_golden


LINEAR = KernelSpec(family=KernelFamily.LINEAR)


def linear_reference(ens):
    return _kernel_block(LINEAR, ens.outputs, ens.outputs)


def config_for(ens, family, lam=0.1, **flags):
    return ObjectiveConfig(
        lam=lam,
        family=family,
        bounds=default_bounds(family, TuningTable(ens.outputs).dbar),
        **flags,
    )


def objective(cfg, h, ens):
    """The exact objective at ``h``, as tuning scores it from the packed triangle."""
    return hyperopt._packed_objective(cfg, h, TuningTable(ens.outputs))


def oscillator_lf(omega_count, gamma_count):
    spec = BenchmarkSpec(
        name="oscillator",
        grid=(("omega", 1.0, 5.0, omega_count), ("gamma", 0.05, 0.5, gamma_count)),
        hf_settings={"dt": 0.01, "horizon": 10.0, "trajectory_points": 20},
    )
    return gen_oscillator(spec)[0]


RADIAL_FAMILIES = [f for f in KernelFamily if f != KernelFamily.LINEAR]


# === objective ===


def test_objective_single_sample_arithmetic():
    # G1 = [[4]], any radial candidate = [[1]]: |4-1| + 0.1/sqrt(1) = 3.1
    ens = ensemble_from([[2.0]])
    cfg = config_for(ens, KernelFamily.SQUARED_EXPONENTIAL)
    assert objective(cfg, (7.3,), ens) == pytest.approx(3.1, rel=1e-12)


def test_objective_lambda_zero_is_pure_frobenius():
    rng = np.random.default_rng(4)
    ens = ensemble_from(rng.normal(size=(3, 6)))
    cfg = config_for(ens, KernelFamily.EXPONENTIAL, lam=0.0)
    h = (0.8,)
    cand = _kernel_block(KernelSpec(family=KernelFamily.EXPONENTIAL, h=h), ens.outputs, ens.outputs)
    expected = np.linalg.norm(linear_reference(ens) - cand)
    assert objective(cfg, h, ens) == pytest.approx(expected, rel=1e-13)


def test_objective_linear_lambda_zero_is_exactly_zero():
    ens = ensemble_from(np.random.default_rng(1).normal(size=(2, 5)))
    cfg = config_for(ens, KernelFamily.LINEAR, lam=0.0)
    assert optimize_hyperparams(KernelFamily.LINEAR, TuningTable(ens.outputs), cfg, PsoConfig()).objective_value == 0.0


def test_objective_matches_dense_svd_oracle():
    rng = np.random.default_rng(11)
    ens = ensemble_from(rng.normal(size=(3, 5)))
    cfg = config_for(ens, KernelFamily.EXPONENTIAL)
    # a second ensemble, scored with the same config, is scored against
    # its own linear reference
    other = ensemble_from(np.random.default_rng(1).normal(size=(2, 4)))
    for scored in (ens, other):
        ref = oracles.gramian_dense("linear", scored.outputs)
        cand = oracles.gramian_dense("exponential", scored.outputs, h=(1.0,))
        expected = oracles.objective_svd(ref, cand, 0.1)
        assert objective(cfg, (1.0,), scored) == pytest.approx(expected, rel=1e-9)


def test_objective_overflow_maps_to_inf():
    # 5 r^2 / (3 h^2) is inf at h = 1e-170, so off-diagonal values are NaN
    ens = ensemble_from(np.random.default_rng(2).normal(size=(2, 4)))
    cfg = ObjectiveConfig(
        lam=0.1,
        family=KernelFamily.MATERN52,
        bounds=((1e-200, 1.0),),
    )
    assert objective(cfg, (1e-170,), ens) == math.inf


def test_objective_config_validation():
    with pytest.raises(ValueError, match="lambda"):
        ObjectiveConfig(
            lam=-1.0,
            family=KernelFamily.EXPONENTIAL,
            bounds=((0.1, 1.0),),
        )
    with pytest.raises(ValueError, match="bound pairs"):
        ObjectiveConfig(
            lam=0.1,
            family=KernelFamily.EXPONENTIAL,
            bounds=(),
        )
    with pytest.raises(ValueError, match="lo < hi"):
        ObjectiveConfig(
            lam=0.1,
            family=KernelFamily.EXPONENTIAL,
            bounds=((1.0, 0.5),),
        )
    # a bool or a string is not a weight, and the box is finite at both
    # ends; an integer too large for a float is not finite
    for lam, kind in ((True, "a number"), ("0.1", "a number"), (math.nan, "finite"), (math.inf, "finite"),
                      (10**400, "finite")):
        with pytest.raises(ValueError, match=f"lambda must be {kind}, got {re.escape(repr(lam))}"):
            ObjectiveConfig(lam=lam, family=KernelFamily.EXPONENTIAL, bounds=((0.1, 1.0),))
    with pytest.raises(ValueError, match="0 < lo < hi < inf"):
        ObjectiveConfig(lam=0.1, family=KernelFamily.EXPONENTIAL, bounds=((0.0, 1.0),))
    # each bound is a number, not converted from a bool or a string
    for bound, end, kind in (((1e-3, math.inf), "hi", "finite"), ((1e-3, math.nan), "hi", "finite"),
                             ((1e-3, 10**400), "hi", "finite"), ((True, "2"), "lo", "a number"),
                             (("0.1", 1.0), "lo", "a number")):
        bad = bound[end == "hi"]
        with pytest.raises(ValueError, match=re.escape(f"bounds[0] {end} must be {kind}, got {bad!r}")):
            ObjectiveConfig(lam=0.1, family=KernelFamily.EXPONENTIAL, bounds=(bound,))


# === objective brackets ===


@functools.lru_cache(maxsize=None)
def bracket_data(kind, n, seed):
    """LF columns and what tuning forms from them once: (X, triangle, dbar)."""
    rng = np.random.default_rng(seed)
    if kind == "oscillator":
        X = oscillator_lf(*{2: (1, 2), 36: (2, 18), 114: (6, 19)}[n]).outputs
    elif kind == "normal":
        X = rng.normal(size=(3, n))
    elif kind == "duplicates":
        # each sample twice: zero distances, and unit entries, off the diagonal
        X = np.repeat(rng.normal(size=(3, n // 2)), 2, axis=1)
    else:
        # tight clusters far apart: at short length scales the entries
        # between clusters underflow to 0, and the Gramian is reducible
        centers = 1e4 * rng.normal(size=(2, 3))
        X = centers[:, np.arange(n) % 3] + rng.normal(size=(2, n))
    tri = TuningTable(X)
    return X, tri, tri.dbar


@given(
    st.sampled_from(RADIAL_FAMILIES),
    st.sampled_from(["oscillator", "normal", "clusters", "duplicates"]),
    st.sampled_from([2, 36, 114]),
    st.integers(0, 3),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    st.sampled_from([0.0, 0.1, 100.0]),
)
@example(KernelFamily.SQUARED_EXPONENTIAL, "duplicates", 2, 0, [0.5, 0.5], 0.1)
@example(KernelFamily.RATIONAL_QUADRATIC, "duplicates", 36, 1, [1.0, 0.0], 100.0)
@example(KernelFamily.MATERN32, "normal", 2, 2, [0.0, 0.0], 100.0)
@example(KernelFamily.EXPONENTIAL, "oscillator", 2, 0, [1.0, 1.0], 0.1)
def test_bracket_holds_the_exact_objective(family, kind, n, seed, where, lam):
    # where spans the whole log box: near-identity Gramians at 0,
    # near-rank-1 ones at 1, intermediate ones between
    X, tri, dbar = bracket_data(kind, n, seed)
    cfg = ObjectiveConfig(lam=lam, family=family, bounds=default_bounds(family, dbar))
    h = [lo * (hi / lo) ** t for (lo, hi), t in zip(cfg.bounds, where)]
    want = oracles.objective_full(cfg, h, X)
    # the exact value from the triangle is the full Gramian's, bit for bit
    assert hyperopt._packed_objective(cfg, h, tri) == want
    for rows in (False, True):
        bounds = hyperopt._bracket(cfg, h, tri, rows=rows)
        if lam == 0.0:
            # no stability term to bound: the caller scores the fit exactly
            assert bounds is None
            continue
        lo, hi = bounds
        assert lo <= want <= hi


def test_clustered_gramians_underflow_between_clusters():
    # the reducible case test_bracket_holds_the_exact_objective draws
    X, _, dbar = bracket_data("clusters", 36, 0)
    cand = _kernel_block(KernelSpec(family=KernelFamily.EXPONENTIAL, h=(1e-3 * dbar,)), X, X)
    assert np.count_nonzero(cand[0, 1::3]) == 0 and np.all(cand[0, ::3] > 0)


def test_pair_bound_lifts_the_bracket_above_the_row_sums():
    # K = I + a (e_1 e_3' + e_3 e_1'): ||K||_2 = 1 + a = max(r), while the
    # mean row sum is only 1 + 2a/N; the Rayleigh quotient at e_1 + e_3
    # gives 1 + a, so the bracket closes to its pads around the exact value
    n, a = 5, 0.5
    dists = np.full((n, n), math.inf)
    np.fill_diagonal(dists, 0.0)
    dists[1, 3] = dists[3, 1] = -math.log(a)
    X = np.random.default_rng(0).normal(size=(2, n))
    tri = TuningTable(X)
    tri.dists[:] = dists[np.triu_indices(n, k=1)]  # the crafted distances, packed
    ref = _kernel_block(LINEAR, X, X)
    cfg = ObjectiveConfig(lam=100.0, family=KernelFamily.EXPONENTIAL, bounds=((0.1, 10.0),))
    K = radial_profile(KernelSpec(family=KernelFamily.EXPONENTIAL, h=(1.0,)), dists)
    assert np.count_nonzero(K - np.eye(n)) == 2 and K[1, 3] == pytest.approx(a)
    want = oracles.objective_dense(cfg, K, ref)
    assert hyperopt._packed_objective(cfg, (1.0,), tri) == want
    fit, fro = np.linalg.norm(ref - K), np.linalg.norm(K)
    for rows in (False, True):
        lo, hi = hyperopt._bracket(cfg, (1.0,), tri, rows=rows)
        assert lo >= fit + cfg.lam * (1.0 + K[1, 3]) / fro * (1.0 - 1e-8)
        assert lo <= want <= hi
    # without row sums the upper bound is min(1 + (N - 1) a, ||K||_F)
    assert hi - lo <= 1e-8 * want


@pytest.mark.parametrize("n", [114, 2000, 3000, 10**4])
def test_bracket_pad_covers_its_rounding_bound_at_every_n(n):
    # the bound the pad's comment derives: (N^2 / 2 + N + 8) 2^-53 relative
    # on the stability term; the 1e-9 floor holds up to N = 3,000
    pad = hyperopt._bracket_pad(n)
    assert pad >= (n * n / 2 + n + 8) * 2.0**-53
    assert pad == 1e-9 if n <= 3000 else pad > 1e-9


@pytest.mark.parametrize(
    "cand",
    [
        # symmetric but negative: ||K||_2 = 1.9 lies above every row sum (0.1)
        np.array([[1.0, -0.9], [-0.9, 1.0]]),
        np.array([[1.0, math.nan], [math.nan, 1.0]]),
    ],
    ids=["negative", "nan"],
)
def test_gramians_without_a_bracket_are_scored_exactly(monkeypatch, cand):
    X = np.array([[0.0, 1.0]])
    cfg = ObjectiveConfig(lam=0.1, family=KernelFamily.EXPONENTIAL, bounds=((0.1, 10.0),))
    # a profile that maps the distances (0 on the diagonal, 1 off it) to
    # cand's entries; the table takes the diagonal as 1, cand's own
    table = np.array([cand[0, 0], cand[0, 1]])
    profile = lambda spec, r, out=None, zeros=None: table[np.asarray(r).astype(int)]
    monkeypatch.setattr(hyperopt, "radial_profile", profile)
    monkeypatch.setattr(kernels, "radial_profile", profile)
    spec = KernelSpec(family=KernelFamily.EXPONENTIAL, h=(1.0,))
    assert np.array_equal(_kernel_block(spec, X, X), cand, equal_nan=True)
    tri = TuningTable(X)
    for rows in (False, True):
        assert hyperopt._bracket(cfg, (1.0,), tri, rows=rows) is None
    got = hyperopt._scores(cfg, tri).score(np.zeros(1))
    assert type(got) is float and got == oracles.objective_full(cfg, (1.0,), X)
    if np.all(np.isfinite(cand)):
        assert np.linalg.norm(cand, 2) > cand.sum(axis=1).max()


def test_table_profiles_into_one_buffer_and_sums_each_diagonal_once(monkeypatch):
    # every profile of a run is written into the table's one buffer, which
    # terms then spends on ref - off; the radial diagonal (all 1) is summed
    # once, as the table is formed, however many profiles are scored
    X = oscillator_lf(6, 19).outputs
    sizes = []
    squares = hyperopt._squares
    monkeypatch.setattr(hyperopt, "_squares", lambda v: sizes.append(v.size) or squares(v))
    tri = TuningTable(X)
    for family in RADIAL_FAMILIES:
        spec = KernelSpec(family=family, h=(tri.dbar,) * HYPER_DIMS[family])
        values = tri.profile(spec)
        assert values is tri.values
        expected = radial_profile(spec, tri.dists)
        np.testing.assert_array_equal(values, expected)
        off = expected
        fit = math.sqrt(2.0 * squares(tri.ref_upper - off) + squares(tri.ref_diag - np.ones(tri.n)))
        assert tri.terms(1.0, values) == (fit, 2.0 * squares(off) + squares(np.ones(tri.n)))
    triangle = tri.n * (tri.n - 1) // 2
    assert sizes == [tri.n, tri.n] + [triangle, triangle] * len(RADIAL_FAMILIES)


def test_tuning_holds_three_gramians_at_most():
    # held throughout: the packed triangles (half a matrix of distances,
    # half of reference). A profile adds half a matrix of values, and the
    # Matern profiles' temporaries reach 3 matrices in all; a bracket adds
    # a half-matrix fit temporary, and with row sums one unpacked Gramian,
    # as an exact score does. Holding the N x N reference reached 4
    # matrices, the full-matrix bracket 6 on Matern.
    ens = oscillator_lf(12, 25)
    n = ens.n_samples
    pso = PsoConfig(swarm_size=4, max_iters=1, seed=0)
    warm = config_for(ens, KernelFamily.EXPONENTIAL)
    optimize_hyperparams(KernelFamily.EXPONENTIAL, TuningTable(ens.outputs), warm, pso)  # first-call allocations
    for family in RADIAL_FAMILIES:
        cfg = config_for(ens, family)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            # the table is built inside the window: it is held throughout
            optimize_hyperparams(family, TuningTable(ens.outputs), cfg, pso)
            transient = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert transient <= 3 * 8 * n * n + 2**16, (family.name, transient / (8 * n * n))


# === particle swarm ===


def test_pso_sphere_converges():
    f = lambda h: (h[0] - 3.0) ** 2
    cfg = PsoConfig(swarm_size=20, max_iters=200, seed=7)
    h_best, f_best, trace = pso_minimize(f, cfg, [(0.0, 10.0)])
    assert abs(h_best[0] - 3.0) <= 1e-2
    assert f_best == pytest.approx(trace[-1])


def test_pso_constant_function_stalls_out():
    cfg = PsoConfig(swarm_size=5, max_iters=100, stall_iters=10, seed=0)
    _, f_best, trace = pso_minimize(lambda h: 2.5, cfg, [(0.0, 1.0)])
    assert f_best == 2.5
    # initial entry plus exactly stall_iters non-improving iterations
    assert len(trace) == 11


def test_pso_beats_random_search_on_rosenbrock():
    def rosen(h):
        return (1.0 - h[0]) ** 2 + 100.0 * (h[1] - h[0] ** 2) ** 2

    cfg = PsoConfig(swarm_size=30, max_iters=100, seed=3)
    _, f_best, _ = pso_minimize(rosen, cfg, [(-2.0, 2.0), (-2.0, 2.0)])
    baseline = oracles.random_search_minimum(rosen, [(-2.0, 2.0), (-2.0, 2.0)], 10_000, 3)
    assert f_best <= baseline


@given(st.integers(0, 10**6))
def test_pso_trace_non_increasing_and_in_box(seed):
    evaluated = []

    def f(h):
        evaluated.append(h.copy())
        return float(np.sum((h - 0.3) ** 2))

    cfg = PsoConfig(swarm_size=8, max_iters=25, seed=seed)
    bounds = [(-1.0, 1.0), (0.0, 2.0)]
    h_best, _, trace = pso_minimize(f, cfg, bounds)
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    lo, hi = np.array(bounds).T
    assert np.all(h_best >= lo) and np.all(h_best <= hi)
    for h in evaluated:
        assert np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)


def test_pso_determinism():
    f = lambda h: float(np.cos(h[0]) + 0.1 * h[0])
    cfg = PsoConfig(seed=42)
    first = pso_minimize(f, cfg, [(0.0, 10.0)])
    second = pso_minimize(f, cfg, [(0.0, 10.0)])
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_pso_refuses_a_nan_score():
    # np.argmin would pick the NaN as the minimum
    f = lambda h: math.nan if h[0] > 5.0 else (h[0] - 3.0) ** 2
    with pytest.raises(ValueError, match=r"objective is NaN at \[8\.13"):
        pso_minimize(f, PsoConfig(seed=0, max_iters=20), [(0.0, 10.0)])


@given(st.integers(0, 10**6), st.floats(0.0, 4.0), st.booleans())
def test_pso_on_brackets_matches_the_eager_swarm(seed, spread, staged):
    # the exact value sits anywhere inside a bracket of random width, and
    # a staged bracket first refines to a random narrower one; comparisons
    # must give what the exact values give, ties included
    resolved, refined = [], []

    def resolve(value):
        resolved.append(value)
        return value

    def exact(h):
        return float(np.floor(4.0 * np.sum((h - 0.3) ** 2)))

    def bracketed(h):
        value = exact(h)
        u, w, t = np.random.default_rng(h.view(np.uint64).tolist()).uniform(size=3) * spread

        def refine(value):
            refined.append(value)
            return value - u * t / 4.0, value + w * t / 4.0

        return hyperopt._Bracket(value - u, value + w, resolve, value, refine if staged else None)

    cfg = PsoConfig(swarm_size=8, max_iters=30, seed=seed)
    bounds = [(-1.0, 1.0), (0.0, 2.0)]
    got = pso_minimize(bracketed, cfg, bounds)
    want = oracles.pso_minimize_eager(exact, cfg, bounds)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1] and got[2] == want[2]
    assert all(type(v) is float for v in got[2])
    if spread == 0.0:
        # point brackets decide every comparison; only the trace resolves
        assert len(resolved) == len(set(got[2])) and not refined
    assert len(resolved) <= cfg.swarm_size * len(want[2])
    assert len(refined) <= cfg.swarm_size * len(want[2])


def test_swarm_draws_are_what_a_fresh_philox_draws():
    # stream (it << 32) | p keyed with the seed: a starting draw takes
    # 2 * dim words, so dimension 3 reaches a second block of four; seeds
    # and iterations at their word limits exercise the key's carries
    for seed in (0, 7, 2**40, 2**63 - 1, 2**64 - 1):
        for iteration in (0, 1, 19, 2**32 - 1):
            for dim in (1, 2, 3):
                got = hyperopt._philox_uniforms(seed, hyperopt._streams(range(iteration, iteration + 1), 30), 2 * dim)
                assert got.shape == (30, 2 * dim)
                for particle in range(30):
                    key = np.array([seed, (iteration << 32) | particle], dtype=np.uint64)
                    fresh = np.random.Generator(np.random.Philox(key=key))
                    np.testing.assert_array_equal(got[particle], fresh.uniform(size=2 * dim))


def test_pso_config_validation():
    with pytest.raises(ValueError, match="swarm_size"):
        PsoConfig(swarm_size=1)
    # numpy sizes an axis by a signed 64-bit integer
    for bad in (2**63, 10**20):
        with pytest.raises(ValueError, match=f"swarm_size must be at least 2 and below 2\\*\\*63, got {bad}"):
            PsoConfig(swarm_size=bad)
    with pytest.raises(ValueError, match="v_max_fraction"):
        PsoConfig(v_max_fraction=0.0)
    # non-finite weights and velocity limits are refused; NaN fails no `<= 0`
    # test, and an integer too large for a float is not finite
    for bad in (math.nan, math.inf, 10**400):
        for name in ("k1", "k2", "v_max_fraction"):
            with pytest.raises(ValueError, match=f"{name} must be finite, got {re.escape(repr(bad))}"):
                PsoConfig(**{name: bad})
    for name in ("k1", "k2"):
        with pytest.raises(ValueError, match="k1 and k2 must be positive"):
            PsoConfig(**{name: 0.0})
    # a bool is not a weight, and a string does not compare
    for name in ("k1", "k2", "v_max_fraction"):
        for bad in (True, "x", "1.49", None):
            with pytest.raises(ValueError, match=f"{name} must be a number, got {re.escape(repr(bad))}"):
                PsoConfig(**{name: bad})
    for bad in (True, 3.0, "3"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            PsoConfig(seed=bad)
    with pytest.raises(ValueError):
        pso_minimize(lambda h: 0.0, PsoConfig(), [(1.0, 1.0)])
    # an infinite or NaN bound is refused before any particle is placed
    for bounds in ([(0.0, math.inf)], [(-math.inf, 0.0)], [(0.0, math.nan)], [(0.0, 1.0), (math.nan, 1.0)]):
        with pytest.raises(ValueError, match="finite"):
            pso_minimize(lambda h: 0.0, PsoConfig(), bounds)


# === local refinement ===


def test_refine_quadratic():
    f = lambda h: (h[0] - 3.0) ** 2
    h_star, f_star = refine_local(f, [2.9], [(0.0, 10.0)])
    assert abs(h_star[0] - 3.0) <= 1e-6
    assert f_star <= f([2.9])


def test_refine_stationary_start_returns_start():
    f = lambda h: (h[0] - 3.0) ** 2
    h_star, _ = refine_local(f, [3.0], [(0.0, 10.0)])
    assert h_star[0] == pytest.approx(3.0, abs=1e-9)


def test_refine_kink_matches_grid_oracle():
    f = lambda h: abs(h[0] - 1.0) + 0.1 * h[0] ** 2
    h0 = np.array([0.5])
    h_star, f_star = refine_local(f, h0, [(0.25, 2.0)])
    assert f_star <= f(h0)
    grid_best = oracles.grid_minimum_1d(f, 0.25, 2.0, 1_000_000)
    assert f_star <= grid_best + 1e-3


@given(st.floats(-4.0, 4.0), st.floats(0.5, 3.0))
def test_refine_never_worse_than_start(center, start):
    f = lambda h: (h[0] - center) ** 2 + 0.3 * abs(h[0])
    h_star, f_star = refine_local(f, [start], [(-5.0, 5.0)])
    assert f_star <= f(np.array([start]))
    assert -5.0 <= h_star[0] <= 5.0


def test_refine_survives_non_finite_regions():
    def f(h):
        return math.inf if h[0] > 1.5 else (h[0] - 1.4) ** 2

    h_star, f_star = refine_local(f, [1.0], [(0.0, 3.0)])
    assert f_star <= f(np.array([1.0]))
    assert h_star[0] <= 1.5


# === full tuning pass ===


def test_optimize_linear_family_is_a_no_op():
    ens = ensemble_from(np.random.default_rng(5).normal(size=(2, 6)))
    cfg = config_for(ens, KernelFamily.LINEAR)
    result = optimize_hyperparams(KernelFamily.LINEAR, TuningTable(ens.outputs), cfg, PsoConfig())
    assert result.spec == KernelSpec(family=KernelFamily.LINEAR)
    assert result.evaluations_used == 0
    assert result.objective_value == pytest.approx(
        0.1 / math.sqrt(oracles.srank_svd(linear_reference(ens))), rel=1e-6
    )


def test_optimize_is_deterministic():
    ens = ensemble_from(np.random.default_rng(6).normal(size=(2, 8)))
    cfg = config_for(ens, KernelFamily.MATERN32)
    pso = PsoConfig(max_iters=30, seed=123)
    a = optimize_hyperparams(KernelFamily.MATERN32, TuningTable(ens.outputs), cfg, pso)
    b = optimize_hyperparams(KernelFamily.MATERN32, TuningTable(ens.outputs), cfg, pso)
    assert a.spec.h == b.spec.h
    assert a.objective_value == b.objective_value
    assert a.evaluations_used == b.evaluations_used


def test_optimize_objective_value_is_reproducible():
    ens = ensemble_from(np.random.default_rng(7).normal(size=(3, 7)))
    cfg = config_for(ens, KernelFamily.EXPONENTIAL)
    result = optimize_hyperparams(
        KernelFamily.EXPONENTIAL, TuningTable(ens.outputs), cfg, PsoConfig(max_iters=40, seed=1)
    )
    assert result.evaluations_used > 0
    recomputed = objective(cfg, result.spec.h, ens)
    assert result.objective_value == pytest.approx(recomputed, abs=1e-10)


def test_optimize_scores_each_point_once(monkeypatch):
    # the optimum here sits on the box's upper edge, where clipped particles
    # ask for the same point again
    ens = ensemble_from(np.array([[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]]) ** 2)
    cfg = config_for(ens, KernelFamily.MATERN32)
    bracketed, refined, scored = [], [], []

    bracket, exact = hyperopt._bracket, hyperopt._packed_objective

    def bracketing(cfg, h, tri, rows=False):
        (refined if rows else bracketed).append(np.asarray(h, dtype=float).tobytes())
        return bracket(cfg, h, tri, rows=rows)

    def scoring(cfg, h, tri):
        scored.append(np.asarray(h, dtype=float).tobytes())
        return exact(cfg, h, tri)

    requests, pso = [], hyperopt.pso_minimize

    def swarm(f, *args):
        def request(x):
            requests.append(x)
            return f(x)
        return pso(request, *args)

    monkeypatch.setattr(hyperopt, "_bracket", bracketing)
    monkeypatch.setattr(hyperopt, "_packed_objective", scoring)
    monkeypatch.setattr(hyperopt, "pso_minimize", swarm)
    result = optimize_hyperparams(KernelFamily.MATERN32, TuningTable(ens.outputs), cfg, PsoConfig(seed=3))
    monkeypatch.undo()
    # each distinct point is bracketed once, and only some need the row
    # sums or the exact value
    assert len(bracketed) == len(set(bracketed))
    assert len(refined) == len(set(refined)) and set(refined) <= set(bracketed)
    assert len(scored) == len(set(scored))
    assert set(scored) <= set(bracketed)
    assert len(scored) < len(bracketed)
    assert result.distinct_evaluations == len(bracketed)
    assert result.evaluations_used > len(bracketed)
    # the swarm is tuning's only optimizer: every request is one of its own
    assert result.evaluations_used == len(requests)
    assert result.objective_value == objective(cfg, result.spec.h, ens)


@pytest.mark.parametrize("lam", [0.0, 0.1, 100.0])
@pytest.mark.parametrize("family", RADIAL_FAMILIES, ids=lambda f: f.name.lower())
def test_optimize_matches_tuning_by_the_eager_swarm(monkeypatch, family, lam):
    ens = oscillator_lf(4, 9)
    cfg = config_for(ens, family, lam=lam)

    def eager(f, pso_cfg, bounds):
        return oracles.pso_minimize_eager(lambda x: float(f(x)), pso_cfg, bounds)

    for seed in (0, 1, 2):
        pso = PsoConfig(seed=seed)
        got = optimize_hyperparams(family, TuningTable(ens.outputs), cfg, pso)
        with monkeypatch.context() as patched:
            patched.setattr(hyperopt, "pso_minimize", eager)
            want = optimize_hyperparams(family, TuningTable(ens.outputs), cfg, pso)
        assert got.spec.h == want.spec.h
        assert got.objective_value == want.objective_value
        assert got.evaluations_used == want.evaluations_used
        assert got.distinct_evaluations == want.distinct_evaluations


def test_optimize_squared_exponential_tracks_log_grid_oracle():
    """Far-apart columns: the tuned Frobenius distance to the linear
    reference must be within 10% of a 100-point log-grid scan's best."""
    rng = np.random.default_rng(9)
    cols = rng.normal(size=(3, 5)) * 10.0
    ens = ensemble_from(cols)
    cfg = config_for(ens, KernelFamily.SQUARED_EXPONENTIAL)
    result = optimize_hyperparams(
        KernelFamily.SQUARED_EXPONENTIAL, TuningTable(ens.outputs), cfg, PsoConfig(seed=2)
    )
    ref = oracles.gramian_dense("linear", cols)

    def fro_at(h):
        cand = oracles.gramian_dense("squared_exponential", cols, h=(float(h[0]),))
        return float(np.linalg.norm(ref - cand))

    lo, hi = cfg.bounds[0]
    grid_best = oracles.log_grid_minimum_1d(fro_at, lo, hi, 100)
    assert fro_at(result.spec.h) <= 1.1 * grid_best


# Tuning eigensolves per family at seed 0: linear, exponential, squared
# exponential, rational quadratic, Matern 3/2, Matern 5/2. Each is an
# upper bound; a change that lowers one lowers its bound too.
EIGENSOLVES = {
    "oscillator.json": (1, 3, 2, 19, 3, 2),
    "oscillator-narrow.json": (1, 4, 4, 14, 3, 2),
    "nbody.json": (1, 2, 4, 14, 4, 2),
    "oscillator-trajectory-lf.json": (1, 2, 4, 23, 2, 2),
}


@pytest.fixture(scope="module")
def loaded():
    """config -> its (lf, hf) ensembles, read-only: nbody-default's
    generation takes ~1.5 s, so the tuning and selection tests make each
    config's data once."""
    return {}


def run_adaptive(monkeypatch, tmp_path, loaded, config, budgets=(4,)):
    """``run_experiment`` on a committed config at seed 0, adaptive mode at
    ``budgets`` (None: the config's own): the config it ran and its
    ``RunResult``; osc-traj-lf's data files are written in ``tmp_path``,
    where its config reads them."""
    path = Path(__file__).resolve().parent.parent / "configs" / config
    cfg = cli.load_config(path)
    cfg = replace(cfg, modes=("adaptive",), budgets=budgets or cfg.budgets)
    assert cfg.seed == 0
    if config not in loaded:
        if config == "oscillator-trajectory-lf.json":
            monkeypatch.chdir(tmp_path)
            for args in test_golden.GEN["osc-traj-lf"]:
                assert cli.main(["gen", *args]) == 0
        loaded[config] = cli.load_data(cfg)
    monkeypatch.setattr(cli, "load_data", lambda _: loaded[config])
    return cfg, cli.run_experiment(cfg)


@pytest.mark.parametrize("config", sorted(EIGENSOLVES))
def test_tuning_eigensolves_stay_within_their_counts(monkeypatch, tmp_path, loaded, config):
    counts = dict.fromkeys(KernelFamily, 0)
    tuning = []
    solve, optimize = hyperopt.spectral_norm, cli.optimize_hyperparams

    def counted_solve(A):
        counts[tuning[-1]] += 1
        return solve(A)

    def optimize_one(family, *args):
        tuning.append(KernelFamily(family))
        return optimize(family, *args)

    monkeypatch.setattr(hyperopt, "spectral_norm", counted_solve)
    monkeypatch.setattr(cli, "optimize_hyperparams", optimize_one)
    run_adaptive(monkeypatch, tmp_path, loaded, config)
    assert tuning == list(KernelFamily)
    got = tuple(counts[family] for family in KernelFamily)
    assert all(g <= bound for g, bound in zip(got, EIGENSOLVES[config])), got


@pytest.mark.parametrize("config", sorted(EIGENSOLVES))
def test_tuning_reaches_the_log_grid_minimum_on_a_box_edge(monkeypatch, tmp_path, loaded, config):
    # every tuned family of the four N <= 114 configs: the swarm's value is
    # no worse than the least exact score on a log grid of its box, and
    # each tuned h sits on an edge of that box, as the swarm maps it
    tuned = []
    optimize = cli.optimize_hyperparams

    def optimize_one(family, table, obj_cfg, pso_cfg):
        tuned.append((table, obj_cfg, optimize(family, table, obj_cfg, pso_cfg)))
        return tuned[-1][2]

    monkeypatch.setattr(cli, "optimize_hyperparams", optimize_one)
    run_adaptive(monkeypatch, tmp_path, loaded, config)
    radial = [(table, obj_cfg, ok) for table, obj_cfg, ok in tuned if obj_cfg.bounds]
    assert len(radial) == len(KernelFamily) - 1
    for table, obj_cfg, ok in radial:
        where = f"{config} {obj_cfg.family.name.lower()}"
        least = oracles.log_grid_objective_minimum(lambda h: hyperopt._packed_objective(obj_cfg, h, table),
                                                   obj_cfg.bounds)
        assert ok.objective_value <= least, f"{where}: {ok.objective_value} above the grid's {least}"
        edges = np.exp(np.log(obj_cfg.bounds))
        assert all(h in edge for h, edge in zip(ok.spec.h, edges)), f"{where}: h {ok.spec.h} inside {obj_cfg.bounds}"


def hf_errors_by_budget(monkeypatch, tmp_path, loaded, config):
    """budget -> (selection's report, family -> the HF error of that tuned
    family's budget-n surrogate, built with the HF provider and scored by
    ``median_relative_error``), over the config's own budgets."""
    cfg, result = run_adaptive(monkeypatch, tmp_path, loaded, config, budgets=None)
    lf, hf = loaded[config]
    out = {}
    for n in cfg.budgets:
        errors = {}
        for ok in result.tuned:
            surr = oracles.pivot_and_build(lf, ok.spec, n, hf.column, cfg.rcond)
            errors[ok.spec.family] = median_relative_error(surr, hf, lf).aggregate_median_rel_error
        out[n] = result.reports[n], errors
    return out


@pytest.mark.parametrize("config", ["nbody.json", "oscillator-narrow.json", "oscillator-trajectory-lf.json"])
def test_selection_picks_within_a_quarter_of_the_best_hf_error(monkeypatch, tmp_path, loaded, config):
    # at every budget the family selection chose, from LF data alone, has
    # an HF error at most 1.25 times the best tuned family's. Worst at seed
    # 0: 1.106 on osc-narrow (n=8), 1.222 on nbody-default (n=6), 1.083 on
    # osc-traj-lf (n=10). With -s, one line per budget: the regret table
    over = []
    for n, (report, errors) in hf_errors_by_budget(monkeypatch, tmp_path, loaded, config).items():
        chosen, best = report.chosen_family, min(errors, key=errors.__getitem__)
        print(f"[selection regret] {config} n={n}: chosen {chosen.name.lower()}, best {best.name.lower()}, "
              f"HF error ratio {errors[chosen] / errors[best]:.3f}")
        if not errors[chosen] <= 1.25 * errors[best]:
            over.append((n, chosen.name, best.name, errors))
    assert over == []


# |HF error - 1| of every tuned radial family on the default oscillator:
# at most 3.0e-10 at seed 0, at n = 12
RADIAL_COLLAPSE = 1e-9


def test_selection_collapses_on_the_default_oscillator(monkeypatch, tmp_path, loaded):
    # the README's known limitation: on two forward-Euler scalars every
    # tuned radial family's HF error is 1.0 at every budget, and selection
    # scores linear inf, as LF dimension 2 is below every budget, although
    # its HF error alone is below 1 (0.979-0.986)
    for n, (report, errors) in hf_errors_by_budget(monkeypatch, tmp_path, loaded, "oscillator.json").items():
        assert report.per_kernel_epsilon[KernelFamily.LINEAR] == math.inf
        radial = {family: err for family, err in errors.items() if family != KernelFamily.LINEAR}
        assert len(radial) == len(KernelFamily) - 1
        assert all(abs(err - 1.0) <= RADIAL_COLLAPSE for err in radial.values()), (n, radial)


def test_one_run_forms_tuning_inputs_once_and_scores_from_one_eigendecomposition(monkeypatch):
    # osc-default at seed 0: the shared table collects the packed distance
    # triangle once, the median distance included, and the one linear
    # reference once; each selection score factors its sliced Gramian once.
    # A table per family would make 6 triangles and 6 references, and a
    # separate rank check 30 eigvalsh beside the solves' eigh.
    counts = {"distances": 0, "reference": 0, "eigvalsh": 0, "eigh": 0}
    selecting = []

    def counted(key, f, only_selecting=False):
        def call(*args, **kwargs):
            if selecting or not only_selecting:
                counts[key] += 1
            return f(*args, **kwargs)
        return call

    def select(*args, **kwargs):
        selecting.append(True)
        try:
            return adaptive(*args, **kwargs)
        finally:
            selecting.pop()

    adaptive = cli.adaptive_select
    upper_triangle = hyperopt._upper_triangle

    def triangle(columns, block):
        counts["distances" if block is hyperopt._distances else "reference"] += 1
        return upper_triangle(columns, block)

    monkeypatch.setattr(hyperopt, "_upper_triangle", triangle)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh, True))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh, True))
    monkeypatch.setattr(cli, "adaptive_select", select)
    path = Path(__file__).resolve().parent.parent / "configs" / "oscillator.json"
    cfg = cli.load_config(path)
    assert cfg.seed == 0 and "adaptive" in cfg.modes
    cli.run_experiment(cfg)
    scores = len(cfg.kernels) * len(cfg.budgets)
    assert counts == {"distances": 1, "reference": 1, "eigvalsh": 0, "eigh": scores}, counts


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_optimize_rejects_non_finite_reference_before_scoring(monkeypatch):
    # distances stay finite, but each column's squared norm overflows
    ens = ensemble_from(1e160 * np.array([[1.0, 1.0 + 1e-9, 1.0 + 2e-9]]))
    assert np.isfinite(_distances(ens.outputs, ens.outputs)).all()

    def never_scored(*args):
        raise AssertionError("an objective was scored")

    monkeypatch.setattr(hyperopt, "_objective", never_scored)
    for family in (KernelFamily.LINEAR, KernelFamily.EXPONENTIAL):
        cfg = ObjectiveConfig(lam=0.1, family=family, bounds=default_bounds(family, 1.0))
        with pytest.raises(ArithmeticError, match="non-finite"):
            optimize_hyperparams(family, TuningTable(ens.outputs), cfg, PsoConfig())


def test_optimize_family_mismatch_rejected():
    ens = ensemble_from([[1.0, 2.0]])
    cfg = config_for(ens, KernelFamily.EXPONENTIAL)
    with pytest.raises(ValueError, match="does not match"):
        optimize_hyperparams(KernelFamily.MATERN32, TuningTable(ens.outputs), cfg, PsoConfig())


# === search boxes ===


def test_default_bounds_scale_with_median_distance():
    cols = np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
    dbar = np.median([3.0, 4.0, 5.0])
    for family in (KernelFamily.EXPONENTIAL, KernelFamily.RATIONAL_QUADRATIC):
        bounds = default_bounds(family, TuningTable(cols).dbar)
        assert len(bounds) == {KernelFamily.EXPONENTIAL: 1, KernelFamily.RATIONAL_QUADRATIC: 2}[family]
        for lo, hi in bounds:
            assert lo == pytest.approx(1e-3 * dbar, rel=1e-12)
            assert hi == pytest.approx(1e3 * dbar, rel=1e-12)


def test_median_pairwise_distance_degenerate_cases():
    assert TuningTable(np.array([[1.0]])).dbar == 1.0
    same = np.column_stack([[1.0, 2.0]] * 3)
    assert TuningTable(same).dbar == 1.0
    two = np.array([[0.0, 3.0]])
    assert TuningTable(two).dbar == 3.0
    with pytest.raises(ArithmeticError, match="non-finite"):
        TuningTable(np.array([[-1e200, 1e200]]))
    # the reference (-1e308 off the diagonal) is finite; the distance overflows
    with pytest.raises(ArithmeticError, match="distances are non-finite"):
        TuningTable(np.array([[-1e154, 1e154]]))


def whole_matrix_median(columns):
    """The median over the upper triangle of the whole distance matrix."""
    n = columns.shape[1]
    return float(np.median(_distances(columns, columns)[np.triu_indices(n, k=1)]))


@pytest.mark.parametrize("n", [2, 3, 7, 40])
@pytest.mark.parametrize("dim", [1, 2, 5])
def test_median_pairwise_distance_in_row_blocks_matches_whole_matrix(monkeypatch, n, dim):
    # blocks of max(1, 12 // n) rows: one row per block from n = 7 up
    monkeypatch.setattr(hyperopt, "_BLOCK_DOUBLES", 12)
    rng = np.random.default_rng(n * 10 + dim)
    cols = rng.normal(size=(dim, n)) * 10.0 ** rng.uniform(-3, 3, size=(dim, n))
    assert TuningTable(cols).dbar == whole_matrix_median(cols)


@pytest.mark.parametrize("d", [1, 2, 3, 9, 202])
def test_upper_distances_match_the_dense_loop_bit_for_bit(monkeypatch, d):
    # (n, doubles per row block): one block at n = 2, 3 and 40; rows of
    # one at n = 3, whose last block is a lone entry; at n = 11 rows of 3,
    # whose last block meets one column, and at n = 12 rows of 3 again.
    # The table's reference, packed the same way, is the whole-matrix
    # linear block, which is exactly symmetric.
    rng = np.random.default_rng(d)
    for n, block in [(2, 2**16), (3, 2**16), (3, 3), (11, 33), (12, 36), (40, 2**16)]:
        monkeypatch.setattr(hyperopt, "_BLOCK_DOUBLES", block)
        cols = rng.normal(size=(d, n)) * 10.0 ** rng.uniform(-3, 3, size=(d, n))
        upper = hyperopt._upper_triangle(cols, _distances)
        assert upper.shape == (n * (n - 1) // 2,)
        want = oracles.distance_block_dense(cols, cols)[np.triu_indices(n, k=1)]
        np.testing.assert_array_equal(upper, want)
        table, ref = TuningTable(cols), _kernel_block(LINEAR, cols, cols)
        np.testing.assert_array_equal(ref, ref.T)
        np.testing.assert_array_equal(table.ref_upper, ref[np.triu_indices(n, k=1)])
        np.testing.assert_array_equal(table.ref_diag, np.diagonal(ref))


def test_median_pairwise_distance_pins_the_canonical_configs():
    specs = {
        "0x1.3297940497dafp-3": default_spec("oscillator"),
        "0x1.4aa13658d8baap-1": BenchmarkSpec(name="oscillator", grid=(("omega", 1.0, 1.2, 2), ("gamma", 0.05, 0.5, 57))),
        "0x1.b7078d5a263ccp-1": default_spec("nbody"),
        "0x1.6e4172ed67440p-3": BenchmarkSpec(
            name="oscillator", grid=(("omega", 1.0, 5.0, 40), ("gamma", 0.05, 0.5, 50)), hf_settings={"dt": 0.01}
        ),
    }
    for pinned, spec in specs.items():
        lf, _ = generate(spec)
        assert TuningTable(lf.outputs).dbar.hex() == pinned, spec


@pytest.mark.parametrize("n", [2, 3, 4, 36, 114])
def test_median_pairwise_distance_is_numpys_median_bit_for_bit(n):
    # 1, 3, 6, 630 and 6,441 distances: an even count averages the two
    # middle values, and their sum rounds as np.median's mean rounds it
    rng = np.random.default_rng(50 + n)
    cols = rng.normal(size=(3, n)) * 10.0 ** rng.uniform(-3, 3, size=(3, n))
    table = TuningTable(cols)
    assert table.dbar.hex() == float(np.median(table.dists)).hex()
    for size in range(1, 40):
        values = rng.uniform(size=size) * 10.0 ** rng.uniform(-3, 3, size=size)
        assert hyperopt._median(values).hex() == float(np.median(values)).hex(), size


def test_median_pairwise_distance_holds_the_upper_triangle_once():
    # the table holds two packed triangles, distances and reference, and
    # the median partitions a copy of the distances, freed before the
    # profile buffer is allocated: 3.00 triangles of 16 MB at N = 2000
    # (3.07 by np.median). The N x N reference and the mask that packed
    # it peaked at 4.07.
    n = 2000
    cols = np.random.default_rng(35).normal(size=(2, n))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dbar = TuningTable(cols).dbar
        transient = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    upper_bytes = n * (n - 1) // 2 * 8
    assert transient <= 3.2 * upper_bytes, transient / upper_bytes
    assert dbar == whole_matrix_median(cols)

