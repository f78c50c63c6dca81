"""Surrogate construction, interpolation, error reporting, the cost
ledger, and archive round-trips."""
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bifidelity.bench import BenchmarkSpec, default_spec, gen_oscillator
from bifidelity import data as data_module
from bifidelity import cli
from bifidelity.cli import _write_json, main
from bifidelity.data import SnapshotEnsemble, column_blocks, held_out, label_groups, normalize_in_place
from bifidelity.hyperopt import OptimizedKernel
from bifidelity.numerics import MatrixNotPSDError
from bifidelity.selection import adaptive_select
from bifidelity import surrogate as surrogate_module
from bifidelity.kernels import (
    KernelFamily,
    KernelSpec,
    _kernel_block,
    cross_kernel_vector,
)
from bifidelity.surrogate import (
    CostLedger,
    HfProviderError,
    Surrogate,
    build_surrogate,
    effective_cost,
    evaluate,
    median_relative_error,
    pivot_plan,
    surrogate_from_dict,
    surrogate_to_dict,
)

import oracles


def ensemble_from(columns, labels=None):
    columns = np.asarray(columns, dtype=float)
    N = columns.shape[1]
    return SnapshotEnsemble(
        outputs=columns,
        params=np.arange(N, dtype=float)[:, None],
        per_sample_cost=np.ones(N),
        labels=labels,
    )


def provider_for(hf_columns):
    hf_columns = np.asarray(hf_columns, dtype=float)
    return lambda idx: hf_columns[:, idx]


SQEXP = KernelSpec(family=KernelFamily.SQUARED_EXPONENTIAL, h=(1.0,))
LINEAR = KernelSpec(family=KernelFamily.LINEAR)


# === normalization ===


def normalized(outputs, labels):
    """A copy of ``outputs`` normalized by ``normalize_in_place``."""
    outputs = np.array(outputs, dtype=float)
    normalize_in_place(outputs, labels)
    return outputs


def test_normalize_constant_row():
    ens = ensemble_from(np.full((1, 4), 2.0))
    scaled = normalized(ens.outputs, ("a",))
    np.testing.assert_array_equal(scaled, np.ones((1, 4)))


def test_normalize_is_idempotent_at_unit_energy():
    rng = np.random.default_rng(0)
    ens = ensemble_from(rng.normal(size=(2, 6)))
    once = normalized(ens.outputs, ("a", "a"))
    twice = normalized(once, ("a", "a"))
    assert np.max(np.abs(twice - once)) <= 1e-12


def test_normalize_two_row_group():
    # every column is [3, 4]: mean squared column norm 25, scale 5
    ens = ensemble_from(np.tile([[3.0], [4.0]], (1, 3)))
    scaled = normalized(ens.outputs, ("a", "a"))
    np.testing.assert_allclose(scaled, np.tile([[0.6], [0.8]], (1, 3)))


def test_normalize_validates_partition():
    ens = ensemble_from(np.ones((2, 3)))
    zero = ensemble_from(np.vstack([np.zeros((1, 3)), np.ones((1, 3))]))
    with pytest.raises(ValueError, match="one name per output row"):
        normalized(ens.outputs, ("a",))
    with pytest.raises(ArithmeticError, match="'z' has energy 0.0"):
        normalized(zero.outputs, ("z", "a"))
    # finite values whose squares overflow, summed without a numpy warning
    with pytest.raises(ArithmeticError, match="'big' has energy inf"):
        normalized(np.full((1, 3), 1e200), ("big",))


# 60 rows each: six contiguous runs; six groups of every sixth row; and
# one run of 12 rows before six interleaved groups of 8
CONTIGUOUS = ("a",) * 12 + ("b",) + ("c",) * 9 + ("d",) * 18 + ("e",) * 9 + ("f",) * 11
INTERLEAVED = tuple(f"row-{r}" for r in range(6)) * 10
MIXED = ("block",) * 12 + tuple(f"every-6th-{r}" for r in range(6)) * 8


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "labels",
    [
        ("a", "b", "a"),
        CONTIGUOUS,
        INTERLEAVED,
        MIXED,
    ],
    ids=["three-rows", "contiguous", "interleaved", "mixed"],
)
def test_normalize_matches_dense_bit_for_bit(labels, order):
    # groups of 8+ rows sum differently pairwise and row by row, so a
    # slice of a column-major array must still add its rows in order (a
    # scale that moves by an ulp often rounds back, hence many groups)
    rows = len(labels)
    rng = np.random.default_rng(rows)
    raw = rng.normal(size=(rows, 50)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 50))
    raw = np.asarray(raw, order=order)
    expected = oracles.normalize_dense(raw, label_groups(labels).values())
    outputs = raw.copy(order=order)
    normalize_in_place(outputs, labels)
    np.testing.assert_array_equal(outputs, expected)


def test_column_blocks_merge_a_one_column_remainder():
    width = max(2, data_module._BLOCK_DOUBLES // 202)
    assert width == 324
    assert column_blocks(202, 0) == []
    assert column_blocks(202, 1) == [slice(0, 1)]
    assert column_blocks(202, 325) == [slice(0, 325)]
    assert column_blocks(202, 326) == [slice(0, 324), slice(324, 326)]
    assert column_blocks(202, 649) == [slice(0, 324), slice(324, 649)]
    # a budget below one row still takes two columns per block
    assert column_blocks(2 * data_module._BLOCK_DOUBLES, 5) == [slice(0, 2), slice(2, 5)]


@pytest.mark.parametrize("columns", [6, 11], ids=["B+1", "2B+1"])
@pytest.mark.parametrize(
    "labels",
    [
        CONTIGUOUS,
        INTERLEAVED,
        MIXED,
    ],
    ids=["contiguous", "interleaved", "mixed"],
)
def test_normalize_in_column_blocks_matches_dense_bit_for_bit(monkeypatch, labels, columns):
    # blocks of B = 5 columns: a sixth or eleventh column joins the last
    # block, where alone it would sum its squares pairwise; it carries most
    # of the energy, so an ulp of its sum shows in the scale
    monkeypatch.setattr(data_module, "_BLOCK_DOUBLES", 5 * 60)
    rng = np.random.default_rng(columns)
    raw = rng.normal(size=(60, columns)) * 10.0 ** rng.uniform(-3, 3, size=(60, columns))
    raw[:, -1] *= 1e3
    outputs = raw.copy()
    normalize_in_place(outputs, labels)
    np.testing.assert_array_equal(outputs, oracles.normalize_dense(raw, label_groups(labels).values()))


# === construction ===


def test_full_budget_reproduces_every_sample():
    rng = np.random.default_rng(1)
    lf_cols = rng.normal(size=(3, 5))
    hf_cols = rng.normal(size=(6, 5))
    lf = ensemble_from(lf_cols)
    surr = build_surrogate(lf, SQEXP, 5, provider_for(hf_cols))
    for j in range(5):
        pred = evaluate(surr, lf_cols[:, j])
        err = np.linalg.norm(pred - hf_cols[:, j]) / np.linalg.norm(hf_cols[:, j])
        assert err <= 1e-8


def test_single_pivot_takes_largest_diagonal():
    lf = ensemble_from(np.array([[3.0, 0.0], [0.0, 2.0]]))
    surr = build_surrogate(lf, LINEAR, 1, provider_for(np.eye(2)))
    assert surr.pivots == (0,)


def test_budget_exactly_n_provider_calls():
    rng = np.random.default_rng(2)
    lf = ensemble_from(rng.normal(size=(4, 9)))
    hf_cols = rng.normal(size=(5, 9))
    calls = []

    def provider(idx):
        calls.append(idx)
        return hf_cols[:, idx]

    for n in (1, 3, 6, 9):
        calls.clear()
        surr = build_surrogate(lf, SQEXP, n, provider)
        assert len(calls) == n
        assert tuple(calls) == surr.pivots


def test_provider_failure_reports_completed_draws():
    lf = ensemble_from(np.random.default_rng(3).normal(size=(2, 6)))

    def flaky(idx):
        if len(seen) == 2:
            raise RuntimeError("backend gone")
        seen.append(idx)
        return np.ones(3)

    seen = []
    with pytest.raises(HfProviderError) as exc_info:
        build_surrogate(lf, SQEXP, 4, flaky)
    pivots = build_surrogate(lf, SQEXP, 4, lambda idx: np.ones(3)).pivots
    assert exc_info.value.completed == 2
    assert exc_info.value.sample_index == pivots[2]
    assert tuple(seen) == pivots[:2]


def test_misshapen_hf_column_rejected():
    lf = ensemble_from(np.random.default_rng(4).normal(size=(2, 4)))
    columns = iter([np.ones(3), np.ones(5)])
    with pytest.raises(ValueError, match="length"):
        build_surrogate(lf, SQEXP, 2, lambda idx: next(columns))
    with pytest.raises(ValueError, match="non-finite"):
        build_surrogate(lf, SQEXP, 1, lambda idx: np.array([np.nan]))


def test_budget_out_of_range():
    lf = ensemble_from(np.ones((1, 3)))
    with pytest.raises(ValueError, match="budget"):
        build_surrogate(lf, SQEXP, 0, provider_for(np.eye(3)))
    with pytest.raises(ValueError, match="budget"):
        build_surrogate(lf, SQEXP, 4, provider_for(np.eye(3)))


def test_oscillator_pivots_match_greedy_oracle():
    lf, hf = gen_oscillator(default_spec("oscillator"))
    for kernel in (LINEAR, SQEXP):
        surr = build_surrogate(lf, kernel, 4, provider_for(hf.outputs))
        gram = _kernel_block(kernel, lf.outputs, lf.outputs)
        ordering, _ = oracles.greedy_pivots(gram, max_steps=4)
        assert set(surr.pivots) == set(ordering[:4])


ORACLE_KERNELS = [
    (KernelSpec(family=KernelFamily.LINEAR), "linear"),
    (KernelSpec(family=KernelFamily.EXPONENTIAL, h=(1.3,)), "exponential"),
    (KernelSpec(family=KernelFamily.SQUARED_EXPONENTIAL, h=(0.9,)), "squared_exponential"),
    (KernelSpec(family=KernelFamily.RATIONAL_QUADRATIC, h=(0.8, 1.5)), "rational_quadratic"),
    (KernelSpec(family=KernelFamily.MATERN32, h=(0.9,)), "matern32"),
    (KernelSpec(family=KernelFamily.MATERN52, h=(1.1,)), "matern52"),
]


def test_build_pivots_match_dense_oracle_for_every_family():
    cols = np.random.default_rng(12).normal(size=(3, 14))
    lf = ensemble_from(cols)
    for spec, name in ORACLE_KERNELS:
        gram = oracles.gramian_dense(name, cols, spec.h)
        for n in (2, 5, 9):
            surr = build_surrogate(lf, spec, n, lambda j: np.ones(2))
            ordering, _ = oracles.greedy_pivots(gram, max_steps=n)
            assert surr.pivots == ordering[:n], f"{name} n={n}"
            np.testing.assert_allclose(
                surr.sliced, gram[np.ix_(surr.pivots, surr.pivots)], rtol=1e-12, atol=1e-14
            )


def test_build_early_stop_appends_lowest_free_indices():
    # linear kernel on LF dimension 2 supports two pivots; the rest of the
    # budget is the lowest free indices, which the sliced Gramian covers too
    cols = np.random.default_rng(13).normal(size=(2, 9))
    surr = build_surrogate(ensemble_from(cols), LINEAR, 5, lambda j: np.ones(2))
    ordering, rank = oracles.greedy_pivots(oracles.gramian_dense("linear", cols), max_steps=5)
    assert rank == 2
    assert surr.pivots == ordering[:5]
    assert list(surr.pivots[2:]) == sorted(set(range(9)) - set(surr.pivots[:2]))[:3]
    np.testing.assert_allclose(surr.sliced, cols[:, surr.pivots].T @ cols[:, surr.pivots],
                               rtol=1e-14, atol=1e-14)


def test_build_not_psd_fails_only_past_the_failing_step(indefinite_kernel):
    lf = ensemble_from(np.array([[0.0, 1.2, 2.4, 3.6, 30.0]]))
    spec = KernelSpec(family=KernelFamily.MATERN52, h=(1.0,))
    indefinite_kernel(spec.family)
    surr = build_surrogate(lf, spec, 2, lambda j: np.ones(2))
    assert surr.pivots == (0, 1)
    with pytest.raises(MatrixNotPSDError):
        build_surrogate(lf, spec, 3, lambda j: np.ones(2))


def never_called(idx):
    raise AssertionError("high-fidelity provider called before the kernel checks")


def steps_before_a_near_tie(A, ordering, rank, tol):
    """Steps of ``ordering`` before the first of its ``rank`` greedy steps
    whose two largest Schur diagonals differ by at most ``tol`` (an exact
    tie breaks toward the lowest index either way), or all of them."""
    for k in range(rank):
        diag = np.sort(oracles.schur_diagonal(A, list(ordering[:k]))[1])
        if 0.0 < diag[-1] - diag[-2] <= tol:
            return k
    return len(ordering)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 16, 64])
def test_plan_prefix_is_every_budgets_greedy_pivots_and_block(dim):
    # one plan to m steps gives, for every n <= m, the pivots pivoting to n
    # steps gives, and the surrogate's sliced Gramian is the dense Gramian's
    # pivot block and, column by column, the cross-kernel vector evaluate
    # forms, bit for bit, so it is exactly symmetric. Below LF dimension 9
    # the linear kernel stops early at its rank and the rest is filled.
    # Every greedy pivot has the largest Schur diagonal up to tol, and the
    # plan follows the dense greedy oracle up to the first near tie, which
    # the two may round either way (at dimension 64 the radial Gramians are
    # close to the identity)
    m, N = 9, 14
    cols = np.random.default_rng(20 + dim).normal(size=(dim, N))
    lf = ensemble_from(cols)
    for spec, name in ORACLE_KERNELS:
        dense = _kernel_block(spec, cols, cols)
        tol = 1e-14 * float(np.max(np.diag(dense)))
        plan = pivot_plan(lf, spec, m)
        assert plan.failed_at is None and len(plan.pivots) == m
        ordering, rank = oracles.greedy_pivots(dense, m)
        if spec.family == KernelFamily.LINEAR and dim < m:
            assert rank == dim  # the fill rule runs
        for k in range(rank):
            rest, diag = oracles.schur_diagonal(dense, list(plan.pivots[:k]))
            assert diag[rest.index(plan.pivots[k])] >= np.max(diag) - tol, f"{name} step {k}"
        agree = steps_before_a_near_tie(dense, ordering, rank, tol)
        for n in range(1, m + 1):
            pivots = plan.pivots_for(n)
            if n <= agree:
                assert pivots == oracles.greedy_pivots(dense, n)[0][:n], f"{name} n={n}"
            surr = build_surrogate(lf, spec, n, lambda j: np.ones(2), plan=plan)
            assert surr.pivots == pivots
            np.testing.assert_array_equal(surr.sliced, dense[np.ix_(pivots, pivots)])
            np.testing.assert_array_equal(surr.sliced, surr.sliced.T)
            P = cols[:, list(pivots)]
            for j in range(n):
                np.testing.assert_array_equal(surr.sliced[:, j], cross_kernel_vector(spec, P, P[:, j]))
            assert surr.pivots == build_surrogate(lf, spec, n, lambda j: np.ones(2)).pivots


def test_a_plan_evaluates_kernel_columns_only_for_greedy_pivots(monkeypatch):
    # the wide oscillator's linear plan pivots twice, at its rank, and fills
    # the other 62 of its 64 pivots without a kernel column
    lf, _ = gen_oscillator(WIDE_SPEC)
    real_block, calls = surrogate_module._kernel_block, []

    def counted(kernel, a, b):
        calls.append(b.shape[1])
        return real_block(kernel, a, b)

    monkeypatch.setattr(surrogate_module, "_kernel_block", counted)
    plan = pivot_plan(lf, LINEAR, 64)
    assert len(plan.pivots) == 64 and plan.failed_at is None
    assert calls == [1, 1]


def test_a_plan_serves_only_its_kernel_and_its_steps():
    lf = ensemble_from(np.random.default_rng(21).normal(size=(2, 6)))
    plan = pivot_plan(lf, SQEXP, 3)
    with pytest.raises(ValueError, match="pivot plan is for"):
        build_surrogate(lf, LINEAR, 2, never_called, plan=plan)
    with pytest.raises(ValueError, match="budget"):
        build_surrogate(lf, SQEXP, 4, never_called, plan=plan)


def test_selection_fails_only_budgets_past_the_failing_step(indefinite_kernel):
    # one Matern-5/2 plan to 3 steps, on the indefinite test kernel, fails
    # at step 2: budget 2 scores as before, budget 3 scores inf, and a build
    # cell at budget 3 raises, as a plan per budget does
    lf = ensemble_from(np.array([[0.0, 1.2, 2.4, 3.6, 30.0]]))
    spec = KernelSpec(family=KernelFamily.MATERN52, h=(1.0,))
    indefinite_kernel(spec.family)
    tuned = [
        OptimizedKernel(spec=KernelSpec(family=KernelFamily.EXPONENTIAL, h=(10.0,)),
                        objective_value=0.0, evaluations_used=0),
        OptimizedKernel(spec=spec, objective_value=0.0, evaluations_used=0),
    ]
    plans = {ok.spec: pivot_plan(lf, ok.spec, 3) for ok in tuned}
    assert plans[spec].failed_at == 2 and plans[spec].pivots == (0, 1)
    at_2 = adaptive_select(tuned, lf, 2, plans=plans)
    at_3 = adaptive_select(tuned, lf, 3, plans=plans)
    assert math.isfinite(at_2.per_kernel_epsilon[spec.family])
    assert at_3.per_kernel_epsilon[spec.family] == math.inf
    assert at_2 == adaptive_select(tuned, lf, 2) and at_3 == adaptive_select(tuned, lf, 3)
    assert build_surrogate(lf, spec, 2, lambda j: np.ones(2), plan=plans[spec]).pivots == (0, 1)
    with pytest.raises(MatrixNotPSDError, match="not PSD"):
        build_surrogate(lf, spec, 3, never_called, plan=plans[spec])


def test_a_non_finite_column_fails_the_run_before_any_hf_draw(monkeypatch):
    # Matern-5/2 at h = 1e-170 has a NaN first column (5 r^2 / (3 h^2) is
    # inf): forming its plan raises, so no build cell draws a HF column
    optimize = cli.optimize_hyperparams

    def tuned(family, *args):
        if family == KernelFamily.MATERN52:
            return OptimizedKernel(spec=KernelSpec(family=family, h=(1e-170,)),
                                   objective_value=0.0, evaluations_used=0)
        return optimize(family, *args)

    def no_build(*args, **kwargs):
        raise AssertionError("a build cell started")

    monkeypatch.setattr(cli, "optimize_hyperparams", tuned)
    monkeypatch.setattr(cli, "build_surrogate", no_build)
    cfg = cli.parse_config({
        "data": {"benchmark": {"name": "oscillator",
                               "grid": [["omega", 1.0, 5.0, 3], ["gamma", 0.05, 0.5, 4]]}},
        "kernels": ["exponential", "matern52"],
        "pso": {"swarm_size": 4, "max_iters": 2},
        "budgets": [2, 3],
    })
    with pytest.raises(ArithmeticError, match="column 0 is non-finite"):
        cli.run_experiment(cfg)


def test_a_run_pivots_each_distinct_kernel_once(monkeypatch):
    # osc-default at seed 0: 6 distinct kernels (the linear baseline is the
    # linear family's), each pivoted once to the largest budget; pivoting
    # per selection score and per build cell ran 40 times
    steps = []
    pivot = surrogate_module.pivoted_cholesky_columns

    def counted(diagonal, column, max_steps):
        steps.append(max_steps)
        return pivot(diagonal, column, max_steps)

    monkeypatch.setattr(surrogate_module, "pivoted_cholesky_columns", counted)
    cfg = cli.load_config(Path(__file__).resolve().parent.parent / "configs" / "oscillator.json")
    assert cfg.seed == 0 and set(cfg.modes) == {"linear-baseline", "adaptive"}
    cli.run_experiment(cfg)
    assert steps == [max(cfg.budgets)] * len(cfg.kernels) == [12] * 6


def test_literal_rational_quadratic_overflowing_diagonal_raises():
    # named for the deleted literal rational-quadratic form, whose K(u, u)
    # overflowed; nothing is drawn from the HF model on either path
    cols = np.random.default_rng(14).normal(size=(2, 6))
    cases = [
        # |u|^2 of outputs near 1e200 overflows the linear diagonal
        (LINEAR, cols * 1e200, "diagonal is non-finite"),
        # 5 r^2 / (3 h^2) is inf at h = 1e-170, so the first column is NaN
        (KernelSpec(family=KernelFamily.MATERN52, h=(1e-170,)), cols, "column 0 is non-finite"),
    ]
    for spec, outputs, message in cases:
        lf = ensemble_from(outputs)
        with pytest.raises(ArithmeticError, match=message):
            build_surrogate(lf, spec, 2, never_called)
        tuned = OptimizedKernel(spec=spec, objective_value=0.0, evaluations_used=0)
        with pytest.raises(ArithmeticError, match=message):
            adaptive_select([tuned], lf, 2)


def test_non_finite_pivot_column_raises(monkeypatch):
    real_block = surrogate_module._kernel_block

    def overflowing_block(kernel, a, b):
        block = real_block(kernel, a, b)
        block[-1] = np.inf
        return block

    monkeypatch.setattr(surrogate_module, "_kernel_block", overflowing_block)
    lf = ensemble_from(np.random.default_rng(15).normal(size=(2, 6)))
    with pytest.raises(ArithmeticError, match="column .* is non-finite"):
        build_surrogate(lf, SQEXP, 2, never_called)


def test_build_and_selection_never_form_the_gramian(monkeypatch):
    N = 12
    real_block, shapes = surrogate_module._kernel_block, []

    def block(kernel, a, b):
        shapes.append((a.shape[1], b.shape[1]))
        if a.shape[1] == b.shape[1] == N:
            raise AssertionError("an N x N Gramian was assembled")
        return real_block(kernel, a, b)

    for name, module in list(sys.modules.items()):
        if name == "bifidelity" or name.startswith("bifidelity."):
            if hasattr(module, "_kernel_block"):
                monkeypatch.setattr(module, "_kernel_block", block)
    rng = np.random.default_rng(16)
    lf = ensemble_from(rng.normal(size=(3, N)))
    hf_cols = rng.normal(size=(4, N))
    for spec in (LINEAR, SQEXP):
        build_surrogate(lf, spec, 4, provider_for(hf_cols))
    tuned = [
        OptimizedKernel(spec=spec, objective_value=0.0, evaluations_used=0)
        for spec in (LINEAR, SQEXP, KernelSpec(family=KernelFamily.MATERN32, h=(1.0,)))
    ]
    assert adaptive_select(tuned, lf, 4).n_used == 4
    assert shapes  # the blocks were formed through the patched seam


def test_build_memory_stays_far_below_one_gramian():
    N, n = 3000, 16
    lf = ensemble_from(np.random.default_rng(17).normal(size=(2, N)))
    gramian_bytes = N * N * 8
    for spec in (LINEAR, SQEXP):
        tracemalloc.start()
        try:
            build_surrogate(lf, spec, n, lambda j: np.ones(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gramian_bytes / 4, f"{spec.family.name}: peak {peak} bytes"


# === evaluation ===


def test_interpolation_at_training_pivots():
    rng = np.random.default_rng(5)
    lf_cols = rng.normal(size=(3, 8))
    hf_cols = rng.normal(size=(4, 8))
    lf = ensemble_from(lf_cols)
    surr = build_surrogate(lf, SQEXP, 4, provider_for(hf_cols))
    assert np.linalg.cond(surr.sliced) <= 1e8
    for pos, j in enumerate(surr.pivots):
        pred = evaluate(surr, lf_cols[:, j])
        truth = hf_cols[:, j]
        assert np.linalg.norm(pred - truth) <= 1e-8 * np.linalg.norm(truth)


def test_single_pivot_closed_form():
    lf_cols = np.array([[0.0, 0.7, 1.4]])
    hf_cols = np.array([[2.0, 5.0, 9.0], [1.0, 0.0, 3.0]])
    lf = ensemble_from(lf_cols)
    surr = build_surrogate(lf, SQEXP, 1, provider_for(hf_cols))
    z1 = surr.pivots[0]
    query = np.array([0.3])
    k_ratio = (
        cross_kernel_vector(SQEXP, lf_cols[:, [z1]], query)[0]
        / cross_kernel_vector(SQEXP, lf_cols[:, [z1]], lf_cols[:, z1])[0]
    )
    np.testing.assert_allclose(evaluate(surr, query), hf_cols[:, z1] * k_ratio, rtol=1e-12)


def test_coefficients_match_dense_solve_oracle():
    """Identity HF snapshots expose the raw coefficient vector."""
    rng = np.random.default_rng(6)
    lf_cols = rng.normal(size=(3, 5))
    lf = ensemble_from(lf_cols)
    drawn = []

    def identity_provider(idx):
        col = np.zeros(5)
        col[len(drawn)] = 1.0
        drawn.append(idx)
        return col

    surr = build_surrogate(lf, SQEXP, 5, identity_provider)
    query = rng.normal(size=3)
    coeffs = evaluate(surr, query)
    rhs = np.array(
        [oracles.kernel_value("squared_exponential", query, lf_cols[:, j], (1.0,))
         for j in surr.pivots]
    )
    expected = np.linalg.solve(surr.sliced, rhs)
    assert np.linalg.norm(coeffs - expected) <= 1e-10 * np.linalg.norm(expected)


def test_linear_kernel_matches_classical_inverse_form():
    # full-rank linear Gramian: coefficients equal the explicit inverse
    rng = np.random.default_rng(7)
    lf_cols = rng.normal(size=(4, 3))
    lf = ensemble_from(lf_cols)
    drawn = []

    def identity_provider(idx):
        col = np.zeros(3)
        col[len(drawn)] = 1.0
        drawn.append(idx)
        return col

    surr = build_surrogate(lf, LINEAR, 3, identity_provider)
    query = rng.normal(size=4)
    coeffs = evaluate(surr, query)
    rhs = lf_cols[:, list(surr.pivots)].T @ query
    expected = np.linalg.inv(surr.sliced) @ rhs
    assert np.linalg.norm(coeffs - expected) <= 1e-10 * np.linalg.norm(expected)


def test_evaluate_validates_queries():
    lf = ensemble_from(np.random.default_rng(8).normal(size=(2, 4)))
    surr = build_surrogate(lf, SQEXP, 2, provider_for(np.eye(4)))
    with pytest.raises(ValueError, match="dimension"):
        evaluate(surr, np.ones(5))



def test_evaluate_block_matches_columnwise():
    rng = np.random.default_rng(5)
    lf = ensemble_from(rng.normal(size=(3, 8)))
    surr = build_surrogate(lf, SQEXP, 4, provider_for(rng.normal(size=(4, 8))))
    assert np.linalg.cond(surr.sliced) <= 1e8
    queries = rng.normal(size=(3, 6))
    block = evaluate(surr, queries)
    assert block.shape == (4, 6)
    for j in range(queries.shape[1]):
        np.testing.assert_allclose(block[:, j], evaluate(surr, queries[:, j]), rtol=1e-12)

# === error metric ===


def crafted_surrogate(lf_queries, hf=2.0):
    """Linear kernel, one pivot with LF value 1: prediction is hf * q."""
    return Surrogate(
        kernel=LINEAR,
        pivots=(0,),
        hf_snapshots=np.array([[hf]]),
        pivot_lf_columns=np.array([[1.0]]),
        rcond=1e-12,
    )


def test_error_metric_known_relative_errors():
    # predictions 2q: choose q so relative errors are exactly .1, .4, .2
    lf = ensemble_from(np.array([[1.0, 0.55, 0.7, 0.6]]))
    hf = ensemble_from(np.array([[2.0, 1.0, 1.0, 1.0]]))
    report = median_relative_error(crafted_surrogate(lf), hf, lf)
    assert report.aggregate_median_rel_error == pytest.approx(0.2, abs=1e-12)


def test_error_metric_single_test_sample():
    lf = ensemble_from(np.array([[1.0, 0.65]]))
    hf = ensemble_from(np.array([[2.0, 1.0]]))
    report = median_relative_error(crafted_surrogate(lf), hf, lf)
    assert report.aggregate_median_rel_error == pytest.approx(0.3, abs=1e-12)


def test_error_metric_exact_surrogate_is_zero():
    lf_vals = np.array([[1.0, 0.3, 0.8, 1.7]])
    lf = ensemble_from(lf_vals)
    hf = ensemble_from(2.0 * lf_vals)
    report = median_relative_error(crafted_surrogate(lf), hf, lf)
    assert report.aggregate_median_rel_error == 0.0


def test_error_metric_excludes_zero_norm_samples():
    # sample 1 has zero true norm; the median is over sample 2 alone
    lf = ensemble_from(np.array([[1.0, 0.5, 0.7]]))
    hf = ensemble_from(np.array([[2.0, 0.0, 1.0]]))
    report = median_relative_error(crafted_surrogate(lf), hf, lf)
    assert report.aggregate_median_rel_error == pytest.approx(0.4, abs=1e-12)


def test_error_metric_excludes_pivots_and_groups_by_label():
    rng = np.random.default_rng(9)
    lf_cols = rng.normal(size=(3, 7))
    hf_cols = rng.normal(size=(4, 7))
    lf = ensemble_from(lf_cols)
    hf = ensemble_from(hf_cols, labels=("a", "a", "b", "b"))
    surr = build_surrogate(lf, SQEXP, 3, provider_for(hf_cols))
    report = median_relative_error(surr, hf, lf)
    held_out = [j for j in range(7) if j not in surr.pivots]
    assert len(held_out) == 4
    rel = sorted(
        np.linalg.norm(hf_cols[:, j] - evaluate(surr, lf_cols[:, j])) / np.linalg.norm(hf_cols[:, j])
        for j in held_out
    )
    assert report.aggregate_median_rel_error == pytest.approx(rel[1], rel=1e-14)
    assert set(report.per_qoi_median_rel_error) == {"a", "b"}


def test_error_metric_matches_columnwise_loop():
    """The block scorer equals a per-column loop, zero-norm columns and
    zero-norm label groups included."""
    rng = np.random.default_rng(13)
    lf_cols = rng.normal(size=(3, 12))
    lf = ensemble_from(lf_cols)
    surr = build_surrogate(lf, SQEXP, 4, provider_for(rng.normal(size=(4, 12))))
    held_out = [j for j in range(12) if j not in surr.pivots]
    truth = rng.normal(size=(4, 12))
    truth[:, held_out[0]] = 0.0
    truth[:, held_out[3]] = 0.0
    truth[2:, held_out[1]] = 0.0
    truth[:2, held_out[5]] = 0.0
    hf = ensemble_from(truth, labels=("a", "a", "b", "b"))
    report = median_relative_error(surr, hf, lf)

    rel, groups = [], {"a": [], "b": []}
    for j in held_out:
        diff = truth[:, j] - evaluate(surr, lf_cols[:, j])
        den = np.linalg.norm(truth[:, j])
        if den > 0.0:
            rel.append(np.linalg.norm(diff) / den)
        for name, rows in (("a", [0, 1]), ("b", [2, 3])):
            if np.linalg.norm(truth[rows, j]) > 0.0:
                groups[name].append(
                    np.linalg.norm(diff[rows]) / np.linalg.norm(truth[rows, j])
                )

    def lower_median(vals):
        return sorted(vals)[(len(vals) - 1) // 2]

    assert report.aggregate_median_rel_error == pytest.approx(lower_median(rel), rel=1e-14)
    assert set(report.per_qoi_median_rel_error) == {"a", "b"}
    for name, vals in groups.items():
        assert report.per_qoi_median_rel_error[name] == pytest.approx(
            lower_median(vals), rel=1e-14
        )


def test_error_metric_full_budget_has_no_test_samples():
    rng = np.random.default_rng(14)
    lf = ensemble_from(rng.normal(size=(3, 5)))
    hf_cols = rng.normal(size=(4, 5))
    hf = ensemble_from(hf_cols, labels=("a", "a", "b", "b"))
    surr = build_surrogate(lf, SQEXP, 5, provider_for(hf_cols))
    report = median_relative_error(surr, hf, lf)
    assert math.isnan(report.aggregate_median_rel_error)
    assert set(report.per_qoi_median_rel_error) == {"a", "b"}
    assert all(math.isnan(v) for v in report.per_qoi_median_rel_error.values())


WIDE_SPEC = BenchmarkSpec(name="oscillator", grid=(("omega", 1.0, 5.0, 40), ("gamma", 0.05, 0.5, 50)),
                          hf_settings={"dt": 0.01})


def scoring_case(case):
    """(surrogate, hf, lf) for the bit-for-bit scorer cases."""
    if case in ("one-column", "two-column", "wide"):
        lf, hf = gen_oscillator(WIDE_SPEC if case == "wide" else default_spec("oscillator"))
        n = {"one-column": lf.n_samples - 1, "two-column": lf.n_samples - 2, "wide": 8}[case]
        return build_surrogate(lf, LINEAR, n, hf.column), hf, lf
    # 24 rows over three labels, with magnitudes that spread over six decades
    rng = np.random.default_rng(31)
    lf = ensemble_from(rng.normal(size=(3, 60)))
    surr = build_surrogate(lf, SQEXP, 6, provider_for(rng.normal(size=(24, 60))))
    truth = rng.normal(size=(24, 60)) * 10.0 ** rng.uniform(-3, 3, size=(24, 60))
    if case == "interleaved":  # no group is a run of rows
        return surr, ensemble_from(truth, labels=("a", "b", "c") * 8), lf
    held_out = [j for j in range(60) if j not in surr.pivots]
    truth[:, held_out[:20:3]] = 0.0  # zero-norm columns
    truth[:12, held_out[1:20:3]] = 0.0  # zero-norm groups
    truth[12:, held_out[2:20:3]] = 0.0
    return surr, ensemble_from(truth, labels=("a",) * 12 + ("b",) * 10 + ("c",) * 2), lf


@pytest.mark.parametrize("case", ["one-column", "two-column", "wide", "interleaved", "zero-norm"])
def test_error_metric_matches_dense_scorer_bit_for_bit(case):
    """Norms sum as np.linalg.norm sums them on the whole blocks and on row
    copies: pairwise down the column-major truth and down a single column,
    row by row otherwise."""
    surr, hf, lf = scoring_case(case)
    report = median_relative_error(surr, hf, lf)
    aggregate, per_qoi = oracles.median_relative_error_dense(surr, hf, lf)
    assert list(report.per_qoi_median_rel_error) == list(per_qoi)
    np.testing.assert_array_equal(
        [report.aggregate_median_rel_error, *report.per_qoi_median_rel_error.values()],
        [aggregate, *per_qoi.values()],
    )


def test_error_metric_holds_two_held_out_blocks():
    # the prediction and one truth copy, each squared in place; whole
    # truth, prediction and difference blocks and their norms' temporaries
    # took 4x the held-out truth bytes
    N, D, n = 2000, 202, 8
    rng = np.random.default_rng(32)
    lf = ensemble_from(rng.normal(size=(2, N)))
    hf = ensemble_from(rng.normal(size=(D, N)), labels=("trajectory",) * 200 + ("energy", "amplitude"))
    surr = build_surrogate(lf, LINEAR, n, hf.column)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        median_relative_error(surr, hf, lf)
        transient = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    truth_bytes = D * (N - n) * 8
    assert transient <= 2.5 * truth_bytes, transient / truth_bytes


@pytest.mark.parametrize("kernel", [LINEAR, SQEXP], ids=["linear", "squared-exponential"])
@pytest.mark.parametrize("held_out", [0, 1, 2, 4, 5, 6, 11], ids=lambda m: f"m{m}")
def test_error_metric_in_column_blocks_matches_dense_scorer_bit_for_bit(monkeypatch, kernel, held_out):
    """Blocks of B = 5 columns, held-out counts 0, 1, 2, B-1, B, B+1 and
    2B+1: each column's norms and prediction are those of the whole block."""
    D, n = 24, 4
    monkeypatch.setattr(data_module, "_BLOCK_DOUBLES", 5 * D)
    N = n + held_out
    rng = np.random.default_rng(100 + held_out)
    lf = ensemble_from(rng.normal(size=(3, N)))
    surr = build_surrogate(lf, kernel, n, provider_for(rng.normal(size=(D, N))))
    assert len(surr.pivots) == n
    truth = rng.normal(size=(D, N)) * 10.0 ** rng.uniform(-3, 3, size=(D, N))
    # "a" and "b" interleave; "c" is a run of eight rows
    hf = ensemble_from(truth, labels=("a", "b") * 8 + ("c",) * 8)
    report = median_relative_error(surr, hf, lf)
    aggregate, per_qoi = oracles.median_relative_error_dense(surr, hf, lf)
    assert list(report.per_qoi_median_rel_error) == list(per_qoi)
    np.testing.assert_array_equal(
        [report.aggregate_median_rel_error, *report.per_qoi_median_rel_error.values()],
        [aggregate, *per_qoi.values()],
    )


def counted_factors(monkeypatch) -> list:
    """The argument tuples of every ``regularized_factor`` call the surrogate module makes from now on."""
    factors = []
    real = surrogate_module.regularized_factor

    def counted(*args):
        factors.append(args)
        return real(*args)

    monkeypatch.setattr(surrogate_module, "regularized_factor", counted)
    return factors


def test_error_metric_factors_the_gramian_once(monkeypatch):
    factors = counted_factors(monkeypatch)
    monkeypatch.setattr(data_module, "_BLOCK_DOUBLES", 2 * 4)
    rng = np.random.default_rng(33)
    lf = ensemble_from(rng.normal(size=(3, 20)))
    hf_cols = rng.normal(size=(4, 20))
    surr = build_surrogate(lf, SQEXP, 4, provider_for(hf_cols))
    assert len(column_blocks(4, 16)) == 8
    median_relative_error(surr, ensemble_from(hf_cols), lf)
    assert len(factors) == 1


def test_a_surrogate_is_factored_once_for_every_evaluation(monkeypatch):
    factors = counted_factors(monkeypatch)
    rng = np.random.default_rng(35)
    lf = ensemble_from(rng.normal(size=(3, 12)))
    hf_cols = rng.normal(size=(4, 12))
    surr = build_surrogate(lf, SQEXP, 4, provider_for(hf_cols))
    for query in (lf.column(0), lf.column(5), lf.outputs[:, 6:9]):
        evaluate(surr, query)
    median_relative_error(surr, ensemble_from(hf_cols), lf)
    assert len(factors) == 1


def test_error_metric_memory_does_not_grow_with_the_sample_count():
    # one block's prediction and truth copy, plus a few N-vectors of
    # column sums; the whole-block scorer held 2x the held-out truth,
    # 6.5 MB at N = 2000 and 26 MB at N = 8000
    D, n = 202, 8
    block_bytes = D * max(2, data_module._BLOCK_DOUBLES // D) * 8
    for N in (2000, 8000):
        rng = np.random.default_rng(34)
        lf = ensemble_from(rng.normal(size=(2, N)))
        hf = ensemble_from(rng.normal(size=(D, N)), labels=("trajectory",) * 200 + ("energy", "amplitude"))
        surr = build_surrogate(lf, LINEAR, n, hf.column)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            median_relative_error(surr, hf, lf)
            transient = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert transient <= 3 * block_bytes + 12 * 8 * N, (N, transient)


def test_error_metric_sample_count_mismatch():
    lf = ensemble_from(np.ones((1, 3)))
    hf = ensemble_from(np.ones((1, 4)))
    with pytest.raises(ValueError, match="sample count"):
        median_relative_error(crafted_surrogate(lf), hf, lf)


# === cost ledger ===


def test_effective_cost_ceiling_examples():
    assert effective_cost(4, 2.5, 1.0).effective_hf == 7
    assert effective_cost(10, 0.1, 1.0).effective_hf == 11
    assert effective_cost(6, 0.0, 1.0).effective_hf == 6
    assert effective_cost(3, 10.0, 4.0).effective_hf == 6


def test_ledger_identity_enforced():
    # effective_hf is derived, so an inconsistent ledger cannot be built
    assert CostLedger(hf_samples_used=4, kernel_opt_cost=2.5, one_hf_cost=1.0).effective_hf == 7
    with pytest.raises(ValueError, match="one_hf_cost"):
        CostLedger(hf_samples_used=4, kernel_opt_cost=0.0, one_hf_cost=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        CostLedger(hf_samples_used=4, kernel_opt_cost=-1.0, one_hf_cost=1.0)


def test_build_threads_opt_cost_into_ledger():
    # the build draws n columns; the ledger adds the optimizer cost on top
    lf = ensemble_from(np.random.default_rng(10).normal(size=(2, 5)))
    surr = build_surrogate(lf, SQEXP, 2, provider_for(np.eye(5)))
    ledger = effective_cost(len(surr.pivots), kernel_opt_cost=2.5, one_hf_cost=1.0)
    assert ledger.hf_samples_used == 2
    assert ledger.effective_hf == 5


# === archives ===


def test_archive_round_trip_bitwise():
    rng = np.random.default_rng(11)
    lf_cols = rng.normal(size=(3, 6))
    hf_cols = rng.normal(size=(5, 6))
    lf = ensemble_from(lf_cols)
    surr = build_surrogate(lf, SQEXP, 3, provider_for(hf_cols))
    clone = surrogate_from_dict(surrogate_to_dict(surr))
    assert clone.pivots == surr.pivots
    assert clone.rcond == surr.rcond
    assert clone.kernel == surr.kernel
    assert np.array_equal(clone.hf_snapshots, surr.hf_snapshots)
    assert np.array_equal(clone.sliced, surr.sliced)
    assert np.array_equal(clone.pivot_lf_columns, surr.pivot_lf_columns)
    query = rng.normal(size=3)
    np.testing.assert_array_equal(evaluate(clone, query), evaluate(surr, query))


@pytest.mark.parametrize("dim", [3, 8, 16, 64])
def test_a_reloaded_archive_emulates_the_runs_bits(dim):
    # the run's surrogate holds its pivots' LF columns column-major, as
    # fancy indexing gives them, and a decoded archive holds them row-major;
    # from LF dimension 3 (linear) and 8 (radial) up, sums over the two
    # layouts run in different orders unless the kernel reads one layout
    N = 40
    rng = np.random.default_rng(40 + dim)
    lf = ensemble_from(rng.normal(size=(dim, N)))
    hf_cols = rng.normal(size=(7, N))
    h = math.sqrt(2.0 * dim)  # about the median distance
    specs = (LINEAR, KernelSpec(family=KernelFamily.EXPONENTIAL, h=(h,)),
             KernelSpec(family=KernelFamily.MATERN52, h=(h,)))
    for spec in specs:
        for n in (4, 8, 12):
            surr = build_surrogate(lf, spec, n, provider_for(hf_cols))
            clone = surrogate_from_dict(json.loads(json.dumps(surrogate_to_dict(surr))))
            queries = lf.outputs[:, held_out(N, surr.pivots)]
            np.testing.assert_array_equal(evaluate(clone, queries), evaluate(surr, queries),
                                          err_msg=f"{spec.family.name} n={n}")


def test_archive_file_round_trip(tmp_path, capsys):
    # the file format the run command writes, read back by the eval command
    rng = np.random.default_rng(12)
    lf = ensemble_from(rng.normal(size=(2, 5)))
    spec = KernelSpec(family=KernelFamily.RATIONAL_QUADRATIC, h=(0.9, 1.3))
    surr = build_surrogate(lf, spec, 3, provider_for(rng.normal(size=(4, 5))))
    path = tmp_path / "surrogate.json"
    _write_json(path, surrogate_to_dict(surr))
    assert surrogate_from_dict(json.loads(path.read_text(encoding="ascii"))).kernel == spec
    query = rng.normal(size=2)
    query_path = tmp_path / "query.csv"
    query_path.write_text("\n".join(repr(float(v)) for v in query) + "\n", encoding="ascii")
    capsys.readouterr()
    assert main(["eval", str(path), str(query_path)]) == 0
    printed = np.array([float(v) for v in capsys.readouterr().out.split()])
    np.testing.assert_array_equal(printed, evaluate(surr, query))


def test_eval_rejects_mixture_archive(tmp_path, capsys):
    # archive layouts older builds wrote: a convex kernel mixture, and the
    # switches and family of the deleted literal and compact kernel forms
    switches = {"rq_literal": False, "compact_wendland": False}
    single = {"kind": "single", "h": [0.9], **switches}
    rejected = {
        "unsupported kernel kind 'mixture'": {
            "kind": "mixture",
            "components": [
                {**single, "family": "exponential", "weight": 0.25},
                {**single, "family": "matern32", "weight": 0.75},
            ],
        },
        "unsupported kernel form 'rq_literal'": {
            **single, "family": "rational_quadratic", "h": [0.9, 1.3], "rq_literal": True
        },
        "unsupported kernel form 'compact_wendland'": {
            **single, "family": "compact_rbf", "h": [4.0, 3.0], "compact_wendland": True
        },
        "unsupported kernel family 'compact_rbf'": {
            **single, "family": "compact_rbf", "h": [1.0, 2.0]
        },
    }
    query = tmp_path / "query.csv"
    query.write_text("1.0\n", encoding="ascii")
    for k, (message, kernel) in enumerate(rejected.items()):
        doc = surrogate_to_dict(crafted_surrogate(None))
        doc["kernel"] = kernel
        archive = tmp_path / f"old{k}.json"
        archive.write_text(json.dumps(doc), encoding="ascii")
        with pytest.raises(ValueError, match=message):
            surrogate_from_dict(doc)
        capsys.readouterr()
        assert main(["eval", str(archive), str(query)]) == 3
        assert message in capsys.readouterr().err

    # with both switches false an old archive is today's formula
    rng = np.random.default_rng(18)
    spec = KernelSpec(family=KernelFamily.RATIONAL_QUADRATIC, h=(0.9, 1.3))
    surr = build_surrogate(ensemble_from(rng.normal(size=(2, 7))), spec, 3,
                              provider_for(rng.normal(size=(4, 7))))
    doc = surrogate_to_dict(surr)
    doc["kernel"].update(switches)
    clone = surrogate_from_dict(doc)
    assert clone.kernel == spec
    queries = rng.normal(size=(2, 5))
    np.testing.assert_array_equal(evaluate(clone, queries), evaluate(surr, queries))


def test_archive_version_gate():
    # version 1 archives stored the sliced Gramian; no reader is kept for them
    doc = surrogate_to_dict(crafted_surrogate(None))
    assert doc["version"] == 2 and set(doc["matrices"]) == {"hf_snapshots", "pivot_lf_columns"}
    for version in (1, 99):
        doc["version"] = version
        with pytest.raises(ValueError, match=f"unsupported archive version {version}, expected 2"):
            surrogate_from_dict(doc)


def test_index_query_requires_training_reference():
    # one LF row, so a scalar could pass for a column; indices are refused
    surr = crafted_surrogate(None)
    for index in (0, -1, 5):
        with pytest.raises(ValueError, match="training ensemble"):
            evaluate(surr, index)
