"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print. Each check carries the wall-clock limit it must finish within.
"""
import functools
import json
import math
import time

import numpy as np
import pytest

from bifidelity.cli import (
    main,
    parse_config,
    read_matrix_csv,
    run_experiment,
    write_matrix_csv,
)
from bifidelity.data import SnapshotEnsemble
from bifidelity.hyperopt import ObjectiveConfig, OptimizedKernel, PsoConfig, objective, pso_minimize
from bifidelity.kernels import (
    KernelFamily,
    KernelSpec,
    kernel_eval,
)
from bifidelity.numerics import pivoted_cholesky
from bifidelity.selection import adaptive_select
from bifidelity.surrogate import (
    build_surrogate,
    effective_cost,
    evaluate,
    surrogate_from_dict,
)

import oracles

FAMILY_NAMES = {
    KernelFamily.LINEAR: "linear",
    KernelFamily.EXPONENTIAL: "exponential",
    KernelFamily.SQUARED_EXPONENTIAL: "squared_exponential",
    KernelFamily.RATIONAL_QUADRATIC: "rational_quadratic",
    KernelFamily.MATERN32: "matern32",
    KernelFamily.MATERN52: "matern52",
}
ALL_FAMILIES = list(FAMILY_NAMES.values())


def acceptance(num, label, limit_seconds):
    """Time the check, enforce its budget, print exactly one line."""

    def decorate(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            ok = False
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < limit_seconds, (
                    f"took {elapsed:.1f}s, limit {limit_seconds}s"
                )
                ok = True
            finally:
                elapsed = time.perf_counter() - start
                status = "PASS" if ok else "FAIL"
                print(f"[acceptance {num}/10] {label}: {status} ({elapsed:.1f}s)")

        return run

    return decorate


def ensemble_from(columns):
    columns = np.asarray(columns, dtype=float)
    N = columns.shape[1]
    return SnapshotEnsemble(
        outputs=columns,
        params=np.arange(N, dtype=float)[:, None],
        per_sample_cost=np.ones(N),
    )


def tuned(family, h=()):
    spec = KernelSpec(family=family, h=h)
    return OptimizedKernel(spec=spec, objective_value=0.0, evaluations_used=0, wall_time=0.0)


def write_toy_dataset(root, seed=0):
    rng = np.random.default_rng(seed)
    write_matrix_csv(root / "lf.csv", rng.normal(size=(2, 8)))
    write_matrix_csv(root / "hf.csv", rng.normal(size=(3, 8)))
    write_matrix_csv(root / "params.csv", np.arange(8.0)[:, None])
    write_matrix_csv(root / "costs.csv", np.vstack([np.ones(8), np.full(8, 2.0)]))
    return {
        "lf_outputs": str(root / "lf.csv"),
        "lf_params": str(root / "params.csv"),
        "hf_outputs": str(root / "hf.csv"),
        "costs": str(root / "costs.csv"),
    }


@acceptance(1, "surrogates interpolate their training pivots", 60)
def test_training_pivots_are_reproduced_on_both_benchmarks():
    from bifidelity.cli import load_data

    setups = [
        ({"name": "oscillator"}, [2, 4, 8]),
        ({"name": "nbody"}, [4, 8]),
    ]
    for bench, budgets in setups:
        cfg = parse_config(
            {
                "data": {"benchmark": bench},
                "budgets": budgets,
                "seed": 0,
            }
        )
        lf, hf = load_data(cfg)
        result = run_experiment(cfg)
        checked = 0
        for cell, archive in result.archives.items():
            surr = surrogate_from_dict(archive)
            if np.linalg.cond(surr.sliced) > 1e8:
                continue
            for j in surr.pivots:
                pred = evaluate(surr, lf.outputs[:, j])
                truth = hf.outputs[:, j]
                err = np.linalg.norm(pred - truth) / np.linalg.norm(truth)
                assert err <= 1e-8, f"{bench['name']} {cell} pivot {j}: {err:.2e}"
            checked += 1
        assert checked > 0, f"no well-conditioned cells on {bench['name']}"


@acceptance(2, "greedy pivot ordering matches a dense re-factoring oracle", 10)
def test_pivot_ordering_matches_dense_oracle():
    for seed in range(100):
        gram = oracles.random_psd(10, seed, distinct_diag=True)
        decomp = pivoted_cholesky(gram, max_steps=10)
        ordering, rank = oracles.greedy_pivots(gram, max_steps=10)
        assert decomp.z == ordering, f"seed {seed}"
        assert decomp.effective_rank == rank, f"seed {seed}"


@acceptance(3, "tuning objective agrees with a dense SVD evaluation", 30)
def test_objective_matches_svd_oracle():
    rng = np.random.default_rng(2024)
    families = list(FAMILY_NAMES)
    for case in range(50):
        m = int(rng.integers(2, 5))
        N = int(rng.integers(6, 13))
        cols = rng.normal(size=(m, N))
        ens = ensemble_from(cols)
        fam = families[case % len(families)]
        dims = {1: 0, 2: 1, 3: 1, 4: 2, 5: 1, 6: 1}[int(fam)]
        h = tuple(float(v) for v in rng.uniform(0.3, 3.0, size=dims))
        cfg = ObjectiveConfig(
            lam=0.1,
            family=fam,
            bounds=tuple((1e-3, 1e3) for _ in range(dims)),
        )
        got = objective(cfg, h, ens)
        ref = oracles.gramian_dense("linear", cols)
        cand = oracles.gramian_dense(FAMILY_NAMES[fam], cols, h=h)
        want = oracles.objective_svd(ref, cand, 0.1)
        assert abs(got - want) <= 1e-9, f"case {case}: {got} vs {want}"


@acceptance(4, "radial kernels are unit at zero, symmetric, translation invariant", 10)
def test_radial_kernel_identities():
    specs = [
        KernelSpec(family=KernelFamily.EXPONENTIAL, h=(0.7,)),
        KernelSpec(family=KernelFamily.SQUARED_EXPONENTIAL, h=(1.2,)),
        KernelSpec(family=KernelFamily.RATIONAL_QUADRATIC, h=(0.8, 1.3)),
        KernelSpec(family=KernelFamily.MATERN32, h=(0.9,)),
        KernelSpec(family=KernelFamily.MATERN52, h=(1.1,)),
    ]
    rng = np.random.default_rng(7)
    points = rng.normal(size=(1000, 3)) * 3.0
    for spec in specs:
        for u in points:
            assert kernel_eval(spec, u, u) == 1.0
        for _ in range(200):
            u, v, t = rng.normal(size=(3, 3))
            assert abs(kernel_eval(spec, u, v) - kernel_eval(spec, v, u)) <= 1e-12
            assert abs(kernel_eval(spec, u + t, v + t) - kernel_eval(spec, u, v)) <= 1e-12


@acceptance(5, "swarm search finds the sphere minimum and never backslides", 30)
def test_swarm_hits_sphere_minimum():
    hits = 0
    for seed in range(20):
        cfg = PsoConfig(max_iters=200, seed=seed)
        h_best, _, trace = pso_minimize(lambda h: (h[0] - 3.0) ** 2, cfg, [(0.1, 10.0)])
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:])), f"seed {seed}"
        if abs(h_best[0] - 3.0) <= 1e-2:
            hits += 1
    assert hits >= 19, f"only {hits}/20 seeds converged"


@acceptance(6, "adaptive budget sweep beats the baseline and decays 10x", 300)
def test_budget_sweep_error_decay():
    cfg = parse_config(
        {
            "data": {
                "benchmark": {
                    "name": "oscillator",
                    "grid": [["omega", 1.0, 1.2, 2], ["gamma", 0.05, 0.5, 57]],
                }
            },
            "kernels": ALL_FAMILIES,
            "lambda": 0.1,
            "seed": 0,
            "budgets": [4, 6, 8, 10, 12],
            "modes": ["linear-baseline", "adaptive"],
        }
    )
    result = run_experiment(cfg)
    med = {(r["mode"], r["n"]): r["median_rel_error"] for r in result.rows}
    for n in (4, 6, 8, 10, 12):
        base = med[("linear-baseline", n)]
        assert med[("adaptive", n)] <= base + 1e-15, f"adaptive regressed at n={n}"
    ratio = med[("adaptive", 4)] / med[("adaptive", 12)]
    assert ratio >= 10.0, f"error only shrank {ratio:.2f}x from n=4 to n=12"


@acceptance(7, "selection outputs: dense-oracle scores, argmin winner", 60)
def test_selection_invariants():
    # scalar 30-sample case with an independent least-squares recompute
    cols = np.random.default_rng(12).uniform(0.5, 2.0, size=(1, 30))
    scalar_ens = ensemble_from(cols)
    library = [tuned(KernelFamily.LINEAR), tuned(KernelFamily.SQUARED_EXPONENTIAL, (0.3,))]
    report = adaptive_select(library, scalar_ens, 4, 1e-12)
    for ok in library:
        name = FAMILY_NAMES[ok.spec.family]
        gram = oracles.gramian_dense(name, cols, h=ok.spec.h)
        want = oracles.adaptive_epsilon_dense(gram, cols, 4)
        got = report.per_kernel_epsilon[ok.spec.family]
        if math.isinf(want):
            assert math.isinf(got), name
        else:
            assert abs(got - want) <= 1e-8, name
    finite = {f: e for f, e in report.per_kernel_epsilon.items() if math.isfinite(e)}
    assert report.chosen_family == min(finite, key=lambda f: (finite[f], int(f)))


@acceptance(8, "cost ledger identity holds on every results row", 60)
def test_cost_identity_on_results(tmp_path):
    assert effective_cost(4, 2.5, 1.0).effective_hf == 7
    assert effective_cost(10, 0.1, 1.0).effective_hf == 11
    files = write_toy_dataset(tmp_path)
    out = tmp_path / "out"
    doc = {
        "data": {"files": files},
        "kernels": ["linear", "squared_exponential"],
        "budgets": [2, 3],
        "modes": ["linear-baseline", "adaptive"],
        "pso": {"swarm_size": 6, "max_iters": 8, "stall_iters": 3},
        "objective_eval_cost": 0.4,
        "seed": 7,
        "out_dir": str(out),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc), encoding="ascii")
    assert main(["run", "--config", str(cfg_path)]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert rows
    for line in rows:
        cells = line.split(",")
        mode, n = cells[0], int(cells[1])
        used, opt = int(cells[2]), float(cells[3])
        one, eff = float(cells[4]), int(cells[5])
        assert used == n
        assert eff == used + math.ceil(opt / one), line
        if mode == "linear-baseline":
            assert opt == 0.0 and eff == n


@acceptance(9, "reruns are byte-identical, serial or parallel", 300)
def test_rerun_reproducibility(tmp_path):
    doc = {
        "data": {
            "benchmark": {
                "name": "oscillator",
                "grid": [["omega", 1.0, 1.2, 2], ["gamma", 0.05, 0.5, 10]],
            }
        },
        "kernels": ["linear", "squared_exponential", "matern32"],
        "budgets": [3, 5],
        "modes": ["linear-baseline", "adaptive"],
        "seed": 0,
    }
    outputs = []
    for tag, extra in (("a", []), ("b", []), ("c", ["--parallel"])):
        out = tmp_path / tag
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps({**doc, "out_dir": str(out)}), encoding="ascii")
        assert main(["run", "--config", str(cfg_path), *extra]) == 0
        archives = sorted((out / "surrogates").glob("*.json"))
        outputs.append(
            (
                (out / "results.csv").read_bytes(),
                (out / "selection.json").read_bytes(),
                [(p.name, p.read_bytes()) for p in archives],
            )
        )
    assert outputs[0] == outputs[1] == outputs[2]


@acceptance(10, "high-fidelity draws equal the budget in every build", 60)
def test_hf_draw_counts(tmp_path):
    rng = np.random.default_rng(13)
    lf = ensemble_from(rng.normal(size=(2, 9)))
    hf_cols = rng.normal(size=(4, 9))
    for n in (1, 2, 5, 8):
        calls = []

        def provider(idx):
            calls.append(idx)
            return hf_cols[:, idx]

        build_surrogate(lf, KernelSpec(family=KernelFamily.SQUARED_EXPONENTIAL, h=(1.0,)), n, provider)
        assert len(calls) == n

    files = write_toy_dataset(tmp_path)
    cfg = parse_config(
        {
            "data": {"files": files},
            "kernels": ["linear", "squared_exponential"],
            "budgets": [2, 3, 5],
            "modes": ["linear-baseline", "adaptive"],
            "pso": {"swarm_size": 6, "max_iters": 8, "stall_iters": 3},
            "seed": 7,
        }
    )
    result = run_experiment(cfg)
    counts = {}
    for event in result.trace:
        if event[0] == "hf_access":
            counts[event[1]] = counts.get(event[1], 0) + 1
    expected = {
        f"{mode}:{n}": n
        for mode in ("linear-baseline", "adaptive")
        for n in (2, 3, 5)
    }
    assert counts == expected
