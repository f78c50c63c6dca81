"""Kernel selection: adaptive scores against dense least squares, and
the degeneracy rules."""
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bifidelity.data import held_out
from bifidelity.hyperopt import OptimizedKernel
from bifidelity.kernels import KernelFamily, KernelSpec
from bifidelity.selection import SelectionReport, adaptive_select, lower_median
from bifidelity.surrogate import evaluate, pivot_plan, surrogate_from_dict, surrogate_to_dict

import oracles
from oracles import ensemble_from


def tuned(family, h=()):
    spec = KernelSpec(family=family, h=h)
    return OptimizedKernel(spec=spec, objective_value=0.0, evaluations_used=0)


# === adaptive ===


def test_single_candidate_wins_by_default():
    rng = np.random.default_rng(5)
    ens = ensemble_from(rng.normal(size=(4, 8)))
    report = oracles.pivot_and_select([tuned(KernelFamily.LINEAR)], ens, n=3)
    assert report.chosen_family == KernelFamily.LINEAR
    assert report.n_used == 3


def test_linear_wins_on_exactly_low_rank_data():
    """Columns confined to a 3-dim span: the linear emulator is exact."""
    rng = np.random.default_rng(6)
    basis = rng.normal(size=(5, 3))
    coords = rng.normal(size=(3, 10))
    ens = ensemble_from(basis @ coords)
    optimized = [tuned(KernelFamily.LINEAR), tuned(KernelFamily.EXPONENTIAL, (2.0,))]
    report = oracles.pivot_and_select(optimized, ens, n=3)
    eps = report.per_kernel_epsilon
    assert eps[KernelFamily.LINEAR] <= 1e-8
    assert eps[KernelFamily.EXPONENTIAL] > eps[KernelFamily.LINEAR]
    assert report.chosen_family == KernelFamily.LINEAR


def test_epsilons_match_dense_least_squares_oracle():
    """Scalar-output model, N=30, n=4: the rank rule knocks out the
    linear family (its sliced Gramian is rank 1) and the surviving
    epsilon agrees with an explicit lstsq recomputation."""
    rng = np.random.default_rng(7)
    cols = rng.uniform(0.5, 2.0, size=(1, 30))
    ens = ensemble_from(cols)
    optimized = [
        tuned(KernelFamily.LINEAR),
        tuned(KernelFamily.SQUARED_EXPONENTIAL, (0.3,)),
    ]
    report = oracles.pivot_and_select(optimized, ens, n=4)
    eps = report.per_kernel_epsilon

    lin_gram = oracles.gramian_dense("linear", cols)
    sq_gram = oracles.gramian_dense("squared_exponential", cols, h=(0.3,))
    assert eps[KernelFamily.LINEAR] == math.inf
    assert oracles.adaptive_epsilon_dense(lin_gram, cols, 4) == math.inf
    expected = oracles.adaptive_epsilon_dense(sq_gram, cols, 4)
    assert math.isfinite(expected)
    assert eps[KernelFamily.SQUARED_EXPONENTIAL] == pytest.approx(expected, abs=1e-8)
    assert report.chosen_family == KernelFamily.SQUARED_EXPONENTIAL


def test_chosen_family_attains_minimum():
    rng = np.random.default_rng(9)
    ens = ensemble_from(rng.normal(size=(3, 12)))
    optimized = [
        tuned(KernelFamily.EXPONENTIAL, (1.0,)),
        tuned(KernelFamily.MATERN32, (1.0,)),
        tuned(KernelFamily.MATERN52, (1.0,)),
    ]
    report = oracles.pivot_and_select(optimized, ens, n=5)
    finite = {f: e for f, e in report.per_kernel_epsilon.items() if math.isfinite(e)}
    assert finite
    assert report.per_kernel_epsilon[report.chosen_family] == min(finite.values())
    # a tie goes to the lowest family index, whatever order the scores arrive in
    tied = SelectionReport(
        per_kernel_epsilon={
            KernelFamily.MATERN32: 0.1,
            KernelFamily.LINEAR: math.inf,
            KernelFamily.EXPONENTIAL: 0.1,
            KernelFamily.MATERN52: 0.2,
        },
        n_used=3,
    )
    assert tied.chosen_family == KernelFamily.EXPONENTIAL
    assert tied.families == (
        KernelFamily.LINEAR, KernelFamily.EXPONENTIAL, KernelFamily.MATERN32, KernelFamily.MATERN52,
    )


def test_training_indices_stay_out_of_the_median():
    """Pivot self-residuals are zero; folding them in would drag the
    reported median to a different order statistic."""
    rng = np.random.default_rng(10)
    cols = rng.normal(size=(3, 12))
    ens = ensemble_from(cols)
    spec = KernelSpec(family=KernelFamily.EXPONENTIAL, h=(1.0,))
    report = oracles.pivot_and_select([tuned(KernelFamily.EXPONENTIAL, (1.0,))], ens, n=4)

    gram = oracles.gramian_dense("exponential", cols, h=(1.0,))
    ordering, _ = oracles.greedy_pivots(gram, max_steps=4)
    pivots = list(ordering[:4])
    others = [j for j in range(12) if j not in pivots]
    sliced = gram[np.ix_(pivots, pivots)]
    residuals = []
    for j in others:
        coeffs, *_ = np.linalg.lstsq(sliced, gram[pivots, j], rcond=1e-12)
        residuals.append(float(np.linalg.norm(cols[:, j] - cols[:, pivots] @ coeffs)))
    eps = report.per_kernel_epsilon[KernelFamily.EXPONENTIAL]
    assert eps == pytest.approx(oracles.median_lower(residuals), abs=1e-10)
    polluted = oracles.median_lower(residuals + [0.0] * 4)
    assert abs(eps - polluted) > 1e-6


def test_winner_invariant_under_sample_relabeling():
    # radial Gramians have all-ones diagonals, so the raw epsilon values
    # may shift with the labeling (first pivot ties); the winner may not
    rng = np.random.default_rng(11)
    cols = rng.normal(size=(3, 10))
    optimized = [
        tuned(KernelFamily.EXPONENTIAL, (1.0,)),
        tuned(KernelFamily.MATERN52, (0.8,)),
    ]
    base = oracles.pivot_and_select(optimized, ensemble_from(cols), n=4)
    for _ in range(5):
        perm = rng.permutation(10)
        shuffled = oracles.pivot_and_select(optimized, ensemble_from(cols[:, perm]), n=4)
        assert shuffled.chosen_family == base.chosen_family


def test_scores_are_the_residuals_a_reloaded_archive_emulates():
    # at LF dimension 16 both linear and radial sums depend on operand
    # layout, so a score formed apart from evaluate, or an archive read
    # in another layout, would miss by an ulp
    d, N = 16, 40
    lf = ensemble_from(np.random.default_rng(16).normal(size=(d, N)))
    h = math.sqrt(2.0 * d)
    optimized = [tuned(KernelFamily.LINEAR), tuned(KernelFamily.EXPONENTIAL, (h,)),
                 tuned(KernelFamily.RATIONAL_QUADRATIC, (h, 1.5)), tuned(KernelFamily.MATERN52, (h,))]
    for n in (4, 8, 12):
        report = oracles.pivot_and_select(optimized, lf, n)
        for ok in optimized:
            surr = oracles.pivot_and_build(lf, ok.spec, n, lf.column)
            clone = surrogate_from_dict(json.loads(json.dumps(surrogate_to_dict(surr))))
            queries = lf.outputs[:, held_out(N, clone.pivots)]
            resid = np.linalg.norm(queries - evaluate(clone, queries), axis=0)
            score = report.per_kernel_epsilon[ok.spec.family]
            assert math.isfinite(score) and score == lower_median(resid), f"{ok.spec.family.name} n={n}"


def test_non_psd_family_scores_infinity(indefinite_kernel):
    # Matern-5/2 builds read the oracles' indefinite kernel, whose pivoted
    # factorization hits a Schur diagonal of about -0.38 on this data
    cols = np.array([[0.0, 1.2, 2.4, 3.6, 30.0]])
    ens = ensemble_from(cols)
    indefinite_kernel(KernelFamily.MATERN52)
    optimized = [
        tuned(KernelFamily.EXPONENTIAL, (10.0,)),
        tuned(KernelFamily.MATERN52, (1.0,)),
    ]
    report = oracles.pivot_and_select(optimized, ens, n=3)
    assert report.per_kernel_epsilon[KernelFamily.MATERN52] == math.inf
    assert report.chosen_family == KernelFamily.EXPONENTIAL


def test_budget_bounds_enforced():
    ens = ensemble_from(np.random.default_rng(0).normal(size=(2, 5)))
    plans = [pivot_plan(ens, KernelSpec(family=KernelFamily.LINEAR), 5)]
    with pytest.raises(ValueError, match="budget"):
        adaptive_select(plans, ens, n=5)
    with pytest.raises(ValueError, match="budget"):
        adaptive_select(plans, ens, n=0)


def test_selectors_accept_no_high_fidelity_data():
    # API-level guarantee: kernel choice sees low-fidelity inputs only
    names = set(inspect.signature(adaptive_select).parameters)
    assert not any("hf" in name for name in names)
    assert "lf_ensemble" in names


# === report and median helpers ===


def test_lower_median_even_count():
    assert lower_median([0.1, 0.4, 0.2, 0.3]) == 0.2
    assert lower_median([5.0]) == 5.0
    with pytest.raises(ValueError):
        lower_median([])
    # NaN has no rank, wherever it sits
    for values in ([np.nan, 1.0, 2.0], [1.0, np.nan, 2.0], [1.0, 2.0, np.nan]):
        with pytest.raises(ValueError, match="NaN"):
            lower_median(np.array(values))


@given(st.lists(st.floats(min_value=0.0, allow_infinity=True), min_size=1, max_size=40))
def test_lower_median_picks_the_lower_middle_of_the_sorted_values(values):
    assert lower_median(np.array(values)) == sorted(values)[(len(values) - 1) // 2]


def test_report_validation():
    with pytest.raises(ValueError, match="at least one family"):
        SelectionReport(per_kernel_epsilon={}, n_used=1)
    with pytest.raises(ValueError, match="n_used"):
        SelectionReport(per_kernel_epsilon={KernelFamily.LINEAR: 0.1}, n_used=0)
    # the winner is derived, so a report cannot name a family without the minimal score
    report = SelectionReport(
        per_kernel_epsilon={KernelFamily.LINEAR: 0.1, KernelFamily.EXPONENTIAL: 0.2},
        n_used=1,
    )
    assert report.chosen_family == KernelFamily.LINEAR
