"""Objective values against a dense-SVD oracle, swarm behavior against
random search, and the local refinement contract."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bifidelity import hyperopt
from bifidelity.data import SnapshotEnsemble
from bifidelity.hyperopt import (
    ObjectiveConfig,
    PsoConfig,
    default_bounds,
    median_pairwise_distance,
    objective,
    optimize_hyperparams,
    pso_minimize,
    refine_local,
)
from bifidelity.kernels import KernelFamily, KernelSpec, gramian_entries

import oracles


def ensemble_from(columns):
    columns = np.asarray(columns, dtype=float)
    N = columns.shape[1]
    return SnapshotEnsemble(
        outputs=columns,
        params=np.arange(N, dtype=float)[:, None],
        per_sample_cost=np.ones(N),
    )


def linear_reference(ens):
    return gramian_entries(KernelSpec(family=KernelFamily.LINEAR), ens.outputs)


def config_for(ens, family, lam=0.1, **flags):
    return ObjectiveConfig(
        lam=lam,
        family=family,
        bounds=default_bounds(family, ens),
        **flags,
    )


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
    cand = gramian_entries(KernelSpec(family=KernelFamily.EXPONENTIAL, h=h), ens.outputs)
    expected = np.linalg.norm(linear_reference(ens) - cand)
    assert objective(cfg, h, ens) == pytest.approx(expected, rel=1e-13)


def test_objective_linear_lambda_zero_is_exactly_zero():
    ens = ensemble_from(np.random.default_rng(1).normal(size=(2, 5)))
    cfg = config_for(ens, KernelFamily.LINEAR, lam=0.0)
    assert objective(cfg, (), ens) == 0.0


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


def test_pso_config_validation():
    with pytest.raises(ValueError, match="swarm_size"):
        PsoConfig(swarm_size=1)
    with pytest.raises(ValueError, match="v_max_fraction"):
        PsoConfig(v_max_fraction=0.0)
    with pytest.raises(ValueError):
        pso_minimize(lambda h: 0.0, PsoConfig(), [(1.0, 1.0)])


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
    result = optimize_hyperparams(KernelFamily.LINEAR, ens, cfg, PsoConfig())
    assert result.spec == KernelSpec(family=KernelFamily.LINEAR)
    assert result.evaluations_used == 0
    assert result.objective_value == pytest.approx(
        0.1 / math.sqrt(oracles.srank_svd(linear_reference(ens))), rel=1e-6
    )


def test_optimize_is_deterministic():
    ens = ensemble_from(np.random.default_rng(6).normal(size=(2, 8)))
    cfg = config_for(ens, KernelFamily.MATERN32)
    pso = PsoConfig(max_iters=30, seed=123)
    a = optimize_hyperparams(KernelFamily.MATERN32, ens, cfg, pso)
    b = optimize_hyperparams(KernelFamily.MATERN32, ens, cfg, pso)
    assert a.spec.h == b.spec.h
    assert a.objective_value == b.objective_value
    assert a.evaluations_used == b.evaluations_used


def test_optimize_objective_value_is_reproducible():
    ens = ensemble_from(np.random.default_rng(7).normal(size=(3, 7)))
    cfg = config_for(ens, KernelFamily.EXPONENTIAL)
    result = optimize_hyperparams(
        KernelFamily.EXPONENTIAL, ens, cfg, PsoConfig(max_iters=40, seed=1)
    )
    assert result.evaluations_used > 0
    assert result.wall_time >= 0.0
    recomputed = objective(cfg, result.spec.h, ens)
    assert result.objective_value == pytest.approx(recomputed, abs=1e-10)


def test_optimize_scores_each_point_once(monkeypatch):
    # the optimum here sits on the box's upper edge, where clipped particles
    # ask for the same point again
    ens = ensemble_from(np.array([[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]]) ** 2)
    cfg = config_for(ens, KernelFamily.MATERN32)
    scored = []

    scorer = hyperopt._objective

    def counting(cfg, h, X, ref, dists):
        scored.append(np.asarray(h, dtype=float).tobytes())
        return scorer(cfg, h, X, ref, dists)

    monkeypatch.setattr(hyperopt, "_objective", counting)
    result = optimize_hyperparams(KernelFamily.MATERN32, ens, cfg, PsoConfig(seed=3))
    monkeypatch.undo()
    assert len(scored) == len(set(scored))
    assert result.distinct_evaluations == len(scored)
    assert result.evaluations_used > len(scored)
    assert result.objective_value == objective(cfg, result.spec.h, ens)


def test_optimize_squared_exponential_tracks_log_grid_oracle():
    """Far-apart columns: the tuned Frobenius distance to the linear
    reference must be within 10% of a 100-point log-grid scan's best."""
    rng = np.random.default_rng(9)
    cols = rng.normal(size=(3, 5)) * 10.0
    ens = ensemble_from(cols)
    cfg = config_for(ens, KernelFamily.SQUARED_EXPONENTIAL)
    result = optimize_hyperparams(
        KernelFamily.SQUARED_EXPONENTIAL, ens, cfg, PsoConfig(seed=2)
    )
    ref = oracles.gramian_dense("linear", cols)

    def fro_at(h):
        cand = oracles.gramian_dense("squared_exponential", cols, h=(float(h[0]),))
        return float(np.linalg.norm(ref - cand))

    lo, hi = cfg.bounds[0]
    grid_best = oracles.log_grid_minimum_1d(fro_at, lo, hi, 100)
    assert fro_at(result.spec.h) <= 1.1 * grid_best


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_optimize_rejects_non_finite_reference_before_scoring(monkeypatch):
    # distances stay finite, but each column's squared norm overflows
    ens = ensemble_from(1e160 * np.array([[1.0, 1.0 + 1e-9, 1.0 + 2e-9]]))
    assert np.isfinite(median_pairwise_distance(ens.outputs))

    def never_scored(*args):
        raise AssertionError("an objective was scored")

    monkeypatch.setattr(hyperopt, "_objective", never_scored)
    for family in (KernelFamily.LINEAR, KernelFamily.EXPONENTIAL):
        cfg = config_for(ens, family)
        with pytest.raises(ArithmeticError, match="non-finite"):
            optimize_hyperparams(family, ens, cfg, PsoConfig())


def test_optimize_family_mismatch_rejected():
    ens = ensemble_from([[1.0, 2.0]])
    cfg = config_for(ens, KernelFamily.EXPONENTIAL)
    with pytest.raises(ValueError, match="does not match"):
        optimize_hyperparams(KernelFamily.MATERN32, ens, cfg, PsoConfig())


# === search boxes ===


def test_default_bounds_scale_with_median_distance():
    cols = np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
    ens = ensemble_from(cols)
    dbar = np.median([3.0, 4.0, 5.0])
    for family in (KernelFamily.EXPONENTIAL, KernelFamily.RATIONAL_QUADRATIC):
        bounds = default_bounds(family, ens)
        assert len(bounds) == {KernelFamily.EXPONENTIAL: 1, KernelFamily.RATIONAL_QUADRATIC: 2}[family]
        for lo, hi in bounds:
            assert lo == pytest.approx(1e-3 * dbar, rel=1e-12)
            assert hi == pytest.approx(1e3 * dbar, rel=1e-12)


def test_median_pairwise_distance_degenerate_cases():
    assert median_pairwise_distance(np.array([[1.0]])) == 1.0
    same = np.column_stack([[1.0, 2.0]] * 3)
    assert median_pairwise_distance(same) == 1.0
    two = np.array([[0.0, 3.0]])
    assert median_pairwise_distance(two) == 3.0
    with pytest.raises(ArithmeticError, match="non-finite"):
        median_pairwise_distance(np.array([[-1e200, 1e200]]))
