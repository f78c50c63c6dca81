"""Command line driver: config parsing, file formats, exit codes, and
the selection-before-draw access discipline."""
import base64
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bifidelity import cli
from bifidelity.bench import default_spec
from bifidelity.cli import (
    _CONFIG,
    ConfigError,
    DataError,
    main,
    parse_config,
    read_matrix_csv,
    run_experiment,
    write_matrix_csv,
)
from bifidelity.data import SnapshotEnsemble
from bifidelity.hyperopt import PsoConfig
from bifidelity.surrogate import evaluate, surrogate_from_dict


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """Small file-backed dataset: 8 samples, LF 2 rows, HF 3 rows."""
    root = tmp_path_factory.mktemp("toy")
    rng = np.random.default_rng(0)
    write_matrix_csv(root / "lf.csv", rng.normal(size=(2, 8)))
    write_matrix_csv(root / "hf.csv", rng.normal(size=(3, 8)))
    write_matrix_csv(root / "params.csv", np.arange(8.0)[:, None])
    write_matrix_csv(root / "costs.csv", np.vstack([np.ones(8), np.full(8, 2.0)]))
    return root


def toy_doc(toy, **overrides):
    doc = {
        "data": {
            "files": {
                "lf_outputs": str(toy / "lf.csv"),
                "lf_params": str(toy / "params.csv"),
                "hf_outputs": str(toy / "hf.csv"),
                "costs": str(toy / "costs.csv"),
            }
        },
        "kernels": ["linear", "squared_exponential"],
        "budgets": [2, 3],
        "modes": ["linear-baseline", "adaptive"],
        "pso": {"swarm_size": 6, "max_iters": 8, "stall_iters": 3},
        "objective_eval_cost": 0.4,
        "seed": 7,
    }
    doc.update(overrides)
    return doc


def write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="ascii")
    return str(path)


# === config parsing ===


def test_parse_config_defaults():
    cfg = parse_config({"data": {"benchmark": {"name": "oscillator"}}})
    assert cfg.lam == 0.1
    assert cfg.budgets == (4, 6, 8, 10, 12)
    assert cfg.modes == ("linear-baseline", "adaptive")
    assert len(cfg.kernels) == 6


def test_parse_config_rejects_bad_documents(toy):
    good = toy_doc(toy)
    cases = [
        {**good, "bogus": 1},
        {**good, "data": {}},
        {**good, "data": {"benchmark": {"name": "oscillator"}, "files": {}}},
        {**good, "data": {"benchmark": {"name": "pendulum"}}},
        {**good, "kernels": []},
        {**good, "kernels": ["linear", "linear"]},
        {**good, "kernels": ["gaussian"]},
        {**good, "modes": ["adaptive", "adaptive"]},
        {**good, "modes": ["greedy"]},
        {**good, "budgets": [4, 2]},
        {**good, "budgets": []},
        {**good, "budgets": [0]},
        {**good, "lambda": -1.0},
        {**good, "rcond": -1e-9},
        {**good, "one_hf_cost": 0.0},
        {**good, "objective_eval_cost": -0.5},
        {**good, "pso": {"swarm": 4}},
        {**good, "pso": {"swarm_size": 1}},
        {**good, "pso": {"max_iters": "ten"}},
        {**good, "pso": {"swarm_size": 3.5}},
        {**good, "pso": {"max_iters": 10.0}},
        {**good, "pso": {"stall_iters": True}},
        {**good, "data": {"benchmark": {"name": "oscillator", "seed": "x"}}},
        {**good, "data": {"benchmark": {"name": "oscillator", "lf": {"dt": -1}}}},
        {**good, "data": {"benchmark": {"name": "oscillator", "lf": {"dtt": 0.01}}}},
        {**good, "data": {"benchmark": {"name": "oscillator", "lf": {"trajectory_points": 9}}}},
        {**good, "data": {"benchmark": {"name": "nbody", "hf": {"bodys": 9}}}},
        {**good, "kernels": "linear"},
        {**good, "modes": "adaptive"},
        {**good, "data": {"benchmark": []}},
        {**good, "data": {"files": ["lf_outputs", "lf_params", "hf_outputs"]}},
        {**good, "pso": []},
        {**good, "data": {"benchmark": {"name": "oscillator", "hf": [["dt", 0.01]]}}},
        {**good, "data": {"benchmark": {"name": "oscillator", "grid": [{"0": "omega"}]}}},
    ]
    for doc in cases:
        with pytest.raises(ConfigError):
            parse_config(doc)
    # integers are refused, not truncated, when given as floats, bools or strings
    grid = [["omega", 1.0, 5.0, 6.5], ["gamma", 0.05, 0.5, 3]]
    not_integers = {
        "budgets": [{**good, "budgets": [4.7, 6]}, {**good, "budgets": [True, 6]},
                    {**good, "budgets": ["2", 3]}],
        "seed": [{**good, "seed": 2.9}, {**good, "seed": False}, {**good, "seed": "7"},
                 {**good, "data": {"benchmark": {"name": "oscillator", "seed": 1.5}}}],
        "omega count": [{**good, "data": {"benchmark": {"name": "oscillator", "grid": grid}}}],
    }
    for key, docs in not_integers.items():
        for doc in docs:
            with pytest.raises(ConfigError, match=f"{key} must be an integer"):
                parse_config(doc)
    # a value of the wrong kind is refused, not coerced, and its key is named
    def bench(name="oscillator", **section):
        return {**good, "data": {"benchmark": {"name": name, **section}}}

    wrong_kinds = [
        ("lambda", {**good, "lambda": True}),
        ("lambda", {**good, "lambda": "0.1"}),
        ("rcond", {**good, "rcond": "1e-12"}),
        ("one_hf_cost", {**good, "one_hf_cost": "2"}),
        ("one_hf_cost", {**good, "one_hf_cost": math.inf}),
        ("objective_eval_cost", {**good, "objective_eval_cost": False}),
        ("objective_eval_cost", {**good, "objective_eval_cost": math.nan}),
        ("out_dir", {**good, "out_dir": 5}),
        ("out_dir", {**good, "out_dir": None}),
        ("pso.k1", {**good, "pso": {"k1": math.nan}}),
        ("pso.k1", {**good, "pso": {"k1": True}}),
        ("pso.k1", {**good, "pso": {"k1": "1.5"}}),
        ("data.benchmark.lf.dt", bench(lf={"dt": "0.05"})),
        ("data.benchmark.hf.trajectory_points", bench(hf={"trajectory_points": 20.5})),
        ("data.benchmark.lf.bodies", bench("nbody", lf={"bodies": True})),
        ("data.benchmark.seed", bench("nbody", seed=-1)),
        ("data.benchmark.grid", bench(grid=[["omega", "1", 5.0, 6], ["gamma", 0.05, 0.5, 3]])),
        ("data.benchmark.grid", bench(grid=[["omega", True, 5.0, 6], ["gamma", 0.05, 0.5, 3]])),
        ("data.files.lf_outputs", {**good, "data": {"files": {**good["data"]["files"], "lf_outputs": 1}}}),
    ]
    for key, doc in wrong_kinds:
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(doc)
    # the deleted compact family and kernel-form switches are named
    named = {
        "compact_rbf": {**good, "kernels": ["linear", "compact_rbf"]},
        "rq_literal": {**good, "rq_literal": False},
        "compact_wendland": {**good, "compact_wendland": True},
    }
    for name, doc in named.items():
        with pytest.raises(ConfigError, match=name):
            parse_config(doc)


def test_readme_config_block_lists_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    doc = json.loads(re.sub(r"//.*", "", block))
    parse_config(doc)
    assert set(doc) == set(_CONFIG)
    # every value the block shows is the declared default
    for key, (_, default, _) in _CONFIG.items():
        if key not in ("data", "pso"):
            assert doc[key] == default, key
    assert doc["pso"] == {f.name: f.default for f in fields(PsoConfig) if f.name != "seed"}
    bench = doc["data"]["benchmark"]
    spec = default_spec(bench["name"])
    assert bench["seed"] == spec.seed
    assert [tuple(axis) for axis in bench["grid"]] == list(spec.grid)
    for fidelity, defaults in (("lf", spec.lf_settings), ("hf", spec.hf_settings)):
        for key, value in bench[fidelity].items():
            assert value == defaults[key], f"{fidelity}.{key}"


def test_benchmark_workloads_still_parse():
    """perfbench/child.py reads the raw benchmark section, the modes and the budgets."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"
    for name, workload in json.loads(path.read_text(encoding="utf-8"))["workloads"].items():
        doc = workload["config"]
        cfg = parse_config({**doc, "seed": 1000})
        assert cfg.data["benchmark"] == doc["data"]["benchmark"], name
        assert cfg.modes == tuple(doc.get("modes", ["linear-baseline", "adaptive"])), name
        assert cfg.budgets == tuple(doc.get("budgets", [4, 6, 8, 10, 12])), name


def test_benchmark_child_runs_the_smoke_workload(tmp_path):
    """perfbench/child.py patches package functions by name and passes keywords
    to run_experiment; it must run clean on src, untraced and traced."""
    root = Path(__file__).resolve().parent.parent
    workloads = json.loads((root / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    doc = {**workloads["workloads"]["smoke"]["config"], "seed": 0}
    spans = tmp_path / "spans.json"
    for request in ({"config": doc}, {"config": doc, "trace": True, "spans_path": str(spans)}):
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "child.py"), str(root / "src"),
             json.dumps(request)],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["problems"] == []
    assert spans.exists()


# === CSV matrices ===


def test_matrix_csv_round_trip_is_bitwise(tmp_path):
    arr = np.random.default_rng(1).normal(size=(4, 7)) * 10.0 ** np.arange(-3, 4)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, arr)
    back = read_matrix_csv(path)
    np.testing.assert_array_equal(back, arr)


def test_matrix_csv_failure_modes(tmp_path):
    with pytest.raises(DataError, match="not found"):
        read_matrix_csv(tmp_path / "absent.csv")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="ragged"):
        read_matrix_csv(ragged)
    junk = tmp_path / "junk.csv"
    junk.write_text("1.0,abc\n")
    with pytest.raises(DataError, match="unparsable"):
        read_matrix_csv(junk)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(DataError, match="no data"):
        read_matrix_csv(empty)
    headered = tmp_path / "headered.csv"
    headered.write_text("colA,colB\n1.0,2.0\n")
    np.testing.assert_array_equal(read_matrix_csv(headered, header=True), [[1.0, 2.0]])


@pytest.mark.parametrize("costs", [True, False], ids=["costs-file", "unit-costs"])
def test_loaded_ensembles_hold_the_parsed_arrays(monkeypatch, toy, costs):
    parsed = []

    def reading(path, header=False):
        parsed.append(read_matrix_csv(path, header))
        return parsed[-1]

    monkeypatch.setattr(cli, "read_matrix_csv", reading)
    doc = toy_doc(toy)
    if not costs:
        del doc["data"]["files"]["costs"]
    lf, hf = cli.load_data(parse_config(doc))
    lf_out, params, hf_out = parsed[:3]
    assert lf.outputs is lf_out and hf.outputs is hf_out
    assert lf.params is params and hf.params is params
    assert not any(arr.flags.writeable for arr in (lf_out, params, hf_out))
    if not costs:
        assert not (lf.per_sample_cost.flags.writeable or hf.per_sample_cost.flags.writeable)
    np.testing.assert_array_equal(hf.per_sample_cost, np.full(8, 2.0) if costs else np.ones(8))


# === run pipeline ===


def test_run_emits_full_mode_budget_matrix(toy, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", toy_doc(toy, out_dir=str(out)))
    assert main(["run", "--config", cfg]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:7] == [
        "mode",
        "n",
        "hf_samples_used",
        "kernel_opt_cost",
        "one_hf_cost",
        "effective_hf",
        "median_rel_error",
    ]
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        (mode, n)
        for mode in ("linear-baseline", "adaptive")
        for n in ("2", "3")
    ]
    for r in rows:
        assert r[2] == r[1]  # draws exactly n columns
        if r[0] == "linear-baseline":
            assert float(r[3]) == 0.0 and r[-1] == "linear"
    assert (out / "selection.json").exists()
    for mode in ("linear-baseline", "adaptive"):
        for n in (2, 3):
            assert (out / "surrogates" / f"{mode}_{n}.json").exists()
    doc = json.loads((out / "selection.json").read_text())
    assert set(doc["adaptive"]) == {"2", "3"}
    assert set(doc) == {"hyperparameters", "adaptive", "surrogates"}


def test_every_row_satisfies_cost_identity(toy, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", toy_doc(toy, out_dir=str(out)))
    assert main(["run", "--config", cfg]) == 0
    hyper = json.loads((out / "selection.json").read_text())["hyperparameters"]
    evaluations = sum(h["evaluations_used"] for h in hyper)
    assert evaluations > 0
    for line in (out / "results.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        used, opt, one, eff = int(cells[2]), float(cells[3]), float(cells[4]), int(cells[5])
        assert eff == used + math.ceil(opt / one)
        # adaptive rows are charged every tuning request at objective_eval_cost
        assert opt == (evaluations * 0.4 if cells[0] == "adaptive" else 0.0)
        assert one == 2.0


def test_reruns_are_byte_identical_with_and_without_parallel(toy, tmp_path):
    outs = [tmp_path / f"out{i}" for i in range(3)]
    texts = []
    for out, extra in zip(outs, ([], [], ["--parallel"])):
        cfg = write_config(tmp_path / f"cfg{out.name}.json", toy_doc(toy, out_dir=str(out)))
        assert main(["run", "--config", cfg, *extra]) == 0
        texts.append((out / "results.csv").read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_seed_flag_overrides_config(toy, tmp_path):
    base = write_config(tmp_path / "a.json", toy_doc(toy, out_dir=str(tmp_path / "a")))
    assert main(["run", "--config", base, "--out", str(tmp_path / "b"), "--seed", "7"]) == 0
    assert main(["run", "--config", base]) == 0
    assert (tmp_path / "a" / "results.csv").read_bytes() == (
        tmp_path / "b" / "results.csv"
    ).read_bytes()
    # a seed is SeedSequence entropy, so no two accepted seeds share a stream
    for seed in (0, 2**63):
        assert main(["run", "--config", base, "--out", str(tmp_path / f"s{seed}"), "--seed", str(seed)]) == 0
    assert (tmp_path / "s0" / "selection.json").read_bytes() != (
        tmp_path / f"s{2**63}" / "selection.json"
    ).read_bytes()


def test_header_inputs_need_the_flag(toy, tmp_path):
    lf = read_matrix_csv(toy / "lf.csv")
    hf = read_matrix_csv(toy / "hf.csv")
    params = read_matrix_csv(toy / "params.csv")
    for name, arr in (("lf.csv", lf), ("hf.csv", hf), ("params.csv", params)):
        body = (toy / name).read_text()
        (tmp_path / name).write_text("c0,c1\n" + body)
    doc = toy_doc(
        toy,
        data={
            "files": {
                "lf_outputs": str(tmp_path / "lf.csv"),
                "lf_params": str(tmp_path / "params.csv"),
                "hf_outputs": str(tmp_path / "hf.csv"),
            }
        },
        modes=["linear-baseline"],
        out_dir=str(tmp_path / "out"),
    )
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["run", "--config", cfg, "--header"]) == 0
    assert main(["run", "--config", cfg]) == 3


def test_hf_columns_stay_sealed_until_selection_ends(toy):
    result = run_experiment(parse_config(toy_doc(toy)))
    marker = result.trace.index(("phase", "selection_complete"))
    before = [e for e in result.trace[:marker] if e[0] == "hf_access"]
    assert before == []
    counts = {}
    for event in result.trace[marker + 1 :]:
        assert event[0] == "hf_access"
        counts[event[1]] = counts.get(event[1], 0) + 1
    assert counts == {
        f"{mode}:{n}": n
        for mode in ("linear-baseline", "adaptive")
        for n in (2, 3)
    }


# === exit codes ===


def test_exit_code_2_on_config_errors(toy, tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert main(["run", "--config", str(broken)]) == 2
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    # a directory, and bytes that are not UTF-8 (a UTF-16 byte-order mark)
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    for unreadable in (tmp_path, utf16):
        capsys.readouterr()
        assert main(["run", "--config", str(unreadable)]) == 2
        assert f"unreadable config file {unreadable}" in capsys.readouterr().err
        assert main(["gen", "oscillator", "--config", str(unreadable), "--out", str(tmp_path / "g")]) == 2
        assert not (tmp_path / "g").exists()
    unknown = write_config(tmp_path / "unknown.json", toy_doc(toy, bogus=1))
    assert main(["run", "--config", unknown]) == 2
    # a negative seed, as the key and as the flag, and nothing is written
    doc = toy_doc(toy, out_dir=str(tmp_path / "negative"))
    for args in (["--config", write_config(tmp_path / "neg.json", {**doc, "seed": -1})],
                 ["--config", write_config(tmp_path / "pos.json", doc), "--seed", "-1"]):
        capsys.readouterr()
        assert main(["run", *args]) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "negative").exists()
    # budgets must stay below the 8-sample count
    big = write_config(tmp_path / "big.json", toy_doc(toy, budgets=[8]))
    assert main(["run", "--config", big]) == 2
    # a negative LF step is refused before any data is generated
    bench = {"benchmark": {"name": "oscillator", "lf": {"dt": -1}}}
    negative = write_config(tmp_path / "negative.json", toy_doc(toy, data=bench))
    assert main(["run", "--config", negative]) == 2
    # a section that is not a JSON object, and a budget that is not an integer
    listed = write_config(tmp_path / "listed.json", toy_doc(toy, data={"benchmark": []}))
    assert main(["run", "--config", listed]) == 2
    fractional = write_config(tmp_path / "fractional.json", toy_doc(toy, budgets=[2.5, 3]))
    assert main(["run", "--config", fractional]) == 2
    # a NaN cost is refused before any tuning, and nothing is written
    doc = toy_doc(toy, objective_eval_cost=math.nan, out_dir=str(tmp_path / "nan"))
    assert main(["run", "--config", write_config(tmp_path / "nan.json", doc)]) == 2
    assert not (tmp_path / "nan").exists()
    # omega = 0 is refused before generation divides by it, in run and in gen
    grid = [["omega", 0.0, 2.0, 3], ["gamma", 0.05, 0.5, 3]]
    bench = {"benchmark": {"name": "oscillator", "grid": grid}}
    doc = toy_doc(toy, data=bench, out_dir=str(tmp_path / "zero"))
    assert main(["run", "--config", write_config(tmp_path / "zero.json", doc)]) == 2
    assert not (tmp_path / "zero").exists()
    gen_cfg = write_config(tmp_path / "gen-zero.json", {"grid": grid})
    assert main(["gen", "oscillator", "--config", gen_cfg, "--out", str(tmp_path / "gen-zero")]) == 2
    assert not (tmp_path / "gen-zero").exists()
    # a grid of one or three axes, where the benchmark reads two by position
    axes = {
        "oscillator": [["omega", 1.0, 2.0, 3], ["gamma", 0.05, 0.5, 3], ["zeta", 0.0, 1.0, 2]],
        "nbody": [["m_total", 50.0, 500.0, 2], ["rotation", 0.0, 0.9, 2], ["zeta", 0.0, 1.0, 2]],
    }
    for name, grid in axes.items():
        for count in (1, 3):
            tag = f"{name}-{count}"
            bench = {"benchmark": {"name": name, "grid": grid[:count]}}
            doc = toy_doc(toy, data=bench, out_dir=str(tmp_path / tag))
            capsys.readouterr()
            assert main(["run", "--config", write_config(tmp_path / f"{tag}.json", doc)]) == 2
            assert f"grid needs 2 axes, got {count}" in capsys.readouterr().err
            gen_cfg = write_config(tmp_path / f"gen-{tag}.json", {"grid": grid[:count]})
            assert main(["gen", name, "--config", gen_cfg, "--out", str(tmp_path / f"gen-{tag}")]) == 2
            assert f"grid needs 2 axes, got {count}" in capsys.readouterr().err
            assert not (tmp_path / tag).exists() and not (tmp_path / f"gen-{tag}").exists()


def test_unknown_fidelity_setting_is_named(toy, tmp_path, capsys):
    bench = {"benchmark": {"name": "oscillator", "lf": {"dtt": 0.01}}}
    cfg = write_config(tmp_path / "typo.json", toy_doc(toy, data=bench))
    capsys.readouterr()
    assert main(["run", "--config", cfg]) == 2
    assert "'dtt'" in capsys.readouterr().err
    gen_cfg = write_config(tmp_path / "gen.json", {"hf": {"dtt": 0.01}})
    assert main(["gen", "oscillator", "--config", gen_cfg, "--out", str(tmp_path / "x")]) == 2
    assert "'dtt'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_fidelity_settings_are_refused_in_the_specs_one_wording(toy, tmp_path, capsys):
    # run and gen both leave an undeclared key to the spec, and kind-check a declared one
    bench = {"benchmark": {"name": "oscillator", "hf": {"dtt": 0.01}}}
    cfg = write_config(tmp_path / "typo.json", toy_doc(toy, data=bench))
    gen_cfg = write_config(tmp_path / "gen.json", {"hf": {"dtt": 0.01}})
    capsys.readouterr()
    assert main(["run", "--config", cfg]) == 2
    assert "unknown hf setting(s) ['dtt'] for oscillator" in capsys.readouterr().err
    assert main(["gen", "oscillator", "--config", gen_cfg, "--out", str(tmp_path / "x")]) == 2
    assert "unknown hf setting(s) ['dtt'] for oscillator" in capsys.readouterr().err
    bench["benchmark"]["hf"] = {"dt": "0.01"}
    cfg = write_config(tmp_path / "kind.json", toy_doc(toy, data=bench))
    assert main(["run", "--config", cfg]) == 2
    assert "data.benchmark.hf.dt must be a finite number" in capsys.readouterr().err


def test_additive_mode_is_rejected(toy, tmp_path, capsys):
    doc = toy_doc(toy, modes=["additive"], out_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match=r"\['linear-baseline', 'adaptive'\]"):
        parse_config(doc)
    capsys.readouterr()
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", doc)]) == 2
    assert "unknown mode 'additive'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lambda_sweep_is_gone(toy, tmp_path, capsys):
    # the sweep scored lambda by HF error before a kernel was chosen
    doc = toy_doc(toy, lambda_grid=[0.1], out_dir=str(tmp_path / "out"))
    cfg = write_config(tmp_path / "cfg.json", doc)
    capsys.readouterr()
    assert main(["run", "--config", cfg]) == 2
    assert "'lambda_grid'" in capsys.readouterr().err
    assert main(["tune-lambda", "--config", cfg]) == 2
    assert "invalid choice: 'tune-lambda'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_3_on_data_errors(toy, tmp_path, capsys, monkeypatch):
    doc = toy_doc(toy)
    doc["data"]["files"]["lf_outputs"] = str(tmp_path / "absent.csv")
    missing = write_config(tmp_path / "missing.json", doc)
    assert main(["run", "--config", missing]) == 3
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    doc = toy_doc(toy)
    doc["data"]["files"]["lf_outputs"] = str(ragged)
    assert main(["run", "--config", write_config(tmp_path / "r.json", doc)]) == 3
    # a matrix that is a directory or not UTF-8, and an archive that is a directory
    not_utf8 = tmp_path / "not_utf8.csv"
    not_utf8.write_bytes(b"\xff\xfe1.0,2.0\n")
    query = tmp_path / "query.csv"
    write_matrix_csv(query, np.ones(2))
    for unreadable in (tmp_path, not_utf8):
        doc = toy_doc(toy)
        doc["data"]["files"]["lf_outputs"] = str(unreadable)
        capsys.readouterr()
        assert main(["run", "--config", write_config(tmp_path / "u.json", doc)]) == 3
        assert f"unreadable matrix file {unreadable}" in capsys.readouterr().err
    assert main(["eval", str(tmp_path), str(query)]) == 3
    assert f"unreadable archive {tmp_path}" in capsys.readouterr().err

    def never_tuned(*args, **kwargs):
        raise AssertionError("tuning ran before the costs were checked")

    # a zero or negative HF cost is refused at load, naming the file
    monkeypatch.setattr(cli, "optimize_hyperparams", never_tuned)
    for hf_cost in (0.0, -1.0):
        costs = tmp_path / f"costs{hf_cost}.csv"
        write_matrix_csv(costs, np.vstack([np.ones(8), np.full(8, hf_cost)]))
        doc = toy_doc(toy, out_dir=str(tmp_path / "out"))
        doc["data"]["files"]["costs"] = str(costs)
        capsys.readouterr()
        assert main(["run", "--config", write_config(tmp_path / "c.json", doc)]) == 3
        assert str(costs) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_hf_provider_failure_exits_3(toy, tmp_path, capsys, monkeypatch):
    # the second HF draw fails; the error names its sample and the draw before it
    real = SnapshotEnsemble.column
    drawn = []

    def fails_after_one(self, j):
        if drawn:
            raise OSError("simulation crashed")
        drawn.append(j)
        return real(self, j)

    monkeypatch.setattr(SnapshotEnsemble, "column", fails_after_one)
    doc = toy_doc(toy, modes=["linear-baseline"], budgets=[3], out_dir=str(tmp_path / "out"))
    capsys.readouterr()
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", doc)]) == 3
    err = capsys.readouterr().err
    assert re.search(r"data error: high-fidelity provider failed at sample \d+ after 1 completed draws", err)
    assert not (tmp_path / "out").exists()


def test_exit_code_4_on_numerical_failure(tmp_path, capsys):
    # forward Euler at omega 1000 overflows, in run and in gen
    grid = [["omega", 1000.0, 1000.0, 1], ["gamma", 0.05, 0.5, 5]]
    doc = {
        "data": {"benchmark": {"name": "oscillator", "grid": grid}},
        "kernels": ["linear"],
        "modes": ["linear-baseline"],
        "budgets": [2],
        "out_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path / "cfg.json", doc)
    gen_cfg = write_config(tmp_path / "gen.json", {"grid": grid})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        capsys.readouterr()
        assert main(["run", "--config", cfg]) == 4
        assert "unstable" in capsys.readouterr().err
        assert main(["gen", "oscillator", "--config", gen_cfg, "--out", str(tmp_path / "gen")]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "unstable for samples [0, 1, 2, 3, 4]" in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "gen").exists()


def test_exit_code_4_on_unstable_high_fidelity(tmp_path, capsys):
    # RK4 at omega * dt 5-6 overflows, in run and in gen; Euler stays finite
    bench = {
        "grid": [["omega", 10.0, 12.0, 2], ["gamma", 0.05, 0.5, 3]],
        "hf": {"dt": 0.5, "horizon": 500.0, "trajectory_points": 10},
        "lf": {"dt": 0.01},
    }
    doc = {
        "data": {"benchmark": {"name": "oscillator", **bench}},
        "kernels": ["linear"],
        "modes": ["linear-baseline"],
        "budgets": [2],
        "out_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path / "cfg.json", doc)
    gen_cfg = write_config(tmp_path / "gen.json", bench)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        capsys.readouterr()
        assert main(["run", "--config", cfg]) == 4
        assert "high-fidelity integration unstable" in capsys.readouterr().err
        assert main(["gen", "oscillator", "--config", gen_cfg, "--out", str(tmp_path / "gen")]) == 4
    err = capsys.readouterr().err
    assert "numerical failure: high-fidelity integration unstable for samples [0, 1, 2, 3, 4, 5]" in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "gen").exists()


def test_exit_code_4_on_unstable_nbody(tmp_path, capsys):
    # a huge G overflows every 8-body leapfrog, in run and in gen; warnings
    # are errors here, so the overflow itself must raise none
    bench = {
        "grid": [["m_total", 50.0, 500.0, 2], ["rotation", 0.0, 0.9, 2]],
        "lf": {"bodies": 4, "dt": 0.01, "horizon": 0.5},
        "hf": {"bodies": 8, "dt": 0.01, "horizon": 0.5, "g_const": 1e300},
    }
    doc = {"data": {"benchmark": {"name": "nbody", **bench}}, "budgets": [2],
           "out_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path / "cfg.json", doc)
    gen_cfg = write_config(tmp_path / "gen.json", bench)
    message = "numerical failure: 8-body integration unstable for samples [0, 1, 2, 3]\n"
    capsys.readouterr()
    assert main(["run", "--config", cfg]) == 4
    assert capsys.readouterr().err == message
    assert main(["gen", "nbody", "--config", gen_cfg, "--out", str(tmp_path / "gen")]) == 4
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists() and not (tmp_path / "gen").exists()


def test_gen_names_unstable_samples_without_numpy_warnings(tmp_path):
    # run with the interpreter's default warning filters, which print a
    # RuntimeWarning, not raise it. An unstable LF grid, an unstable HF one,
    # an LF whose Euler states stay finite while its energy overflows, and
    # two nbody LF energies that cannot be normalized: zero (no gravity, no
    # rotation) and overflowing (a finite energy whose square is not)
    root = Path(__file__).resolve().parent.parent
    nbody_grid = [["m_total", 50.0, 500.0, 2], ["rotation", 0.0, 0.9, 2]]
    nbody_hf = {"bodies": 8, "dt": 0.01, "horizon": 0.5}
    unstable = "integration unstable for samples"
    benches = [
        ("oscillator", {"grid": [["omega", 1000.0, 1000.0, 1], ["gamma", 0.05, 0.5, 5]]},
         f"low-fidelity {unstable} [0, 1, 2, 3, 4]"),
        ("oscillator", {"grid": [["omega", 10.0, 12.0, 2], ["gamma", 0.05, 0.5, 3]],
                        "hf": {"dt": 0.5, "horizon": 500.0}}, f"high-fidelity {unstable} [0, 1, 2, 3, 4, 5]"),
        ("oscillator", {"grid": [["omega", 150.0, 150.0, 1], ["gamma", 0.05, 0.5, 3]]},
         f"low-fidelity {unstable} [0, 1, 2]"),
        ("nbody", {"grid": [["m_total", 50.0, 500.0, 2], ["rotation", 0.0, 0.0, 1]],
                   "lf": {"bodies": 4, "dt": 0.01, "horizon": 0.5, "g_const": 0.0}, "hf": nbody_hf},
         "4-body: QoI 'energy' has energy 0.0 and cannot be normalized"),
        ("nbody", {"grid": nbody_grid, "lf": {"bodies": 4, "dt": 0.01, "horizon": 0.5, "g_const": 1e152},
                   "hf": nbody_hf}, "4-body: QoI 'energy' has energy inf and cannot be normalized"),
    ]
    for k, (name, bench, message) in enumerate(benches):
        gen_cfg = write_config(tmp_path / f"gen{k}.json", bench)
        run_doc = {"data": {"benchmark": {"name": name, **bench}}, "out_dir": str(tmp_path / "out")}
        run_cfg = write_config(tmp_path / f"run{k}.json", run_doc)
        gen_args = ["gen", name, "--config", gen_cfg, "--out", str(tmp_path / "gen")]
        for args in (gen_args, ["run", "--config", run_cfg]):
            proc = subprocess.run(
                [sys.executable, "-m", "bifidelity", *args],
                capture_output=True, text=True, cwd=tmp_path, timeout=120,
                env={**os.environ, "PYTHONPATH": str(root / "src")},
            )
            assert proc.returncode == 4, proc.stderr
            assert f"numerical failure: {message}" in proc.stderr
            assert "RuntimeWarning" not in proc.stderr, proc.stderr
            assert not (tmp_path / "gen").exists() and not (tmp_path / "out").exists()


def test_overflowing_lf_outputs_exit_4_before_tuning(toy, tmp_path, capsys):
    huge = tmp_path / "huge_lf.csv"
    write_matrix_csv(huge, 1e200 * np.random.default_rng(3).normal(size=(2, 8)))
    doc = toy_doc(toy, modes=["adaptive"], out_dir=str(tmp_path / "out"))
    doc["data"]["files"]["lf_outputs"] = str(huge)
    capsys.readouterr()
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", doc)]) == 4
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# === gen ===


def test_gen_oscillator_writes_full_grid(tmp_path):
    out = tmp_path / "data"
    assert main(["gen", "oscillator", "--out", str(out)]) == 0
    assert read_matrix_csv(out / "lf_outputs.csv").shape == (2, 114)
    assert read_matrix_csv(out / "hf_outputs.csv").shape == (202, 114)
    assert read_matrix_csv(out / "params.csv").shape == (114, 2)
    assert read_matrix_csv(out / "costs.csv").shape == (2, 114)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["name"] == "oscillator"
    assert meta["hf_labels"][-1] == "amplitude"


def test_gen_nbody_override_and_regeneration(tmp_path):
    override = {
        "grid": [["m_total", 50.0, 500.0, 3], ["rotation", 0.0, 0.9, 3]],
        "lf": {"bodies": 4, "dt": 0.01, "horizon": 0.5},
        "hf": {"bodies": 8, "dt": 0.01, "horizon": 0.5},
    }
    cfg = write_config(tmp_path / "gen.json", override)
    for name in ("one", "two"):
        assert main(["gen", "nbody", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    assert read_matrix_csv(tmp_path / "one" / "params.csv").shape == (9, 2)
    for fname in ("lf_outputs.csv", "hf_outputs.csv", "params.csv", "costs.csv"):
        assert (tmp_path / "one" / fname).read_bytes() == (
            tmp_path / "two" / fname
        ).read_bytes()


def test_gen_config_rejects_name_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "gen.json", {"name": "nbody"})
    assert main(["gen", "oscillator", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    # a root that is not an object, and a grid count that is not an integer
    rejected = {
        "gen config must be a JSON object": [{"grid": []}],
        "axis omega count must be an integer": {
            "grid": [["omega", 1.0, 5.0, 2.5], ["gamma", 0.05, 0.5, 3]]
        },
    }
    for k, (message, doc) in enumerate(rejected.items()):
        cfg = write_config(tmp_path / f"gen{k}.json", doc)
        capsys.readouterr()
        assert main(["gen", "oscillator", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# === eval ===


def test_eval_round_trip(toy, tmp_path, capsys):
    out = tmp_path / "out"
    doc = toy_doc(toy, modes=["linear-baseline"], budgets=[3], out_dir=str(out))
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", doc)]) == 0
    archive = out / "surrogates" / "linear-baseline_3.json"
    column = read_matrix_csv(toy / "lf.csv")[:, 0]
    col_path = tmp_path / "query.csv"
    write_matrix_csv(col_path, column)
    capsys.readouterr()
    assert main(["eval", str(archive), str(col_path)]) == 0
    printed = np.array([float(s) for s in capsys.readouterr().out.split()])
    expected = evaluate(surrogate_from_dict(json.loads(archive.read_text())), column)
    np.testing.assert_array_equal(printed, expected)

    # wrong query dimension is a data error
    write_matrix_csv(tmp_path / "bad.csv", np.ones(5))
    assert main(["eval", str(archive), str(tmp_path / "bad.csv")]) == 3
    assert main(["eval", str(tmp_path / "no.json"), str(col_path)]) == 3
    assert main(["eval", str(archive), str(tmp_path)]) == 3  # a directory for the column

    # a NaN in the query is a data error
    column[0] = np.nan
    write_matrix_csv(tmp_path / "nan.csv", column)
    capsys.readouterr()
    assert main(["eval", str(archive), str(tmp_path / "nan.csv")]) == 3
    assert "finite" in capsys.readouterr().err

    # a malformed archive is a data error that names the bad field
    good = json.loads(archive.read_text())
    matrices = good["matrices"]
    hf_blob = matrices["hf_snapshots"]
    no_dtype = {k: v for k, v in hf_blob.items() if k != "dtype"}
    malformed = [
        ("'dtype'", {**good, "matrices": {**matrices, "hf_snapshots": {**hf_blob, "dtype": "<f4"}}}),
        ("'dtype'", {**good, "matrices": {**matrices, "hf_snapshots": no_dtype}}),
        ("'pivots'", {**good, "pivots": 5}),
        ("'pivots' must hold integers", {**good, "pivots": [p + 0.5 for p in good["pivots"]]}),
        ("'h'", {**good, "kernel": {**good["kernel"], "h": 3}}),
        ("'matrices'", {**good, "matrices": []}),
        ("'kernel'", {**good, "kernel": "single"}),
        ("archive root", [good]),
        ("unreadable archive", {**good, "rcond": None}),
        ("unreadable archive", {**good, "kernel": {**good["kernel"], "h": [[1.0]]}}),
        # a number is a JSON number: neither a string nor a bool
        ("'rcond' must be a number, got str", {**good, "rcond": "1e-12"}),
        ("'rcond' must be a number, got bool", {**good, "rcond": True}),
        ("'h' must be a number, got str", {**good, "kernel": {**good["kernel"], "h": ["0.9"]}}),
        ("'h' must be a number, got bool", {**good, "kernel": {**good["kernel"], "h": [True]}}),
        ("'rows' must be an integer, got str",
         {**good, "matrices": {**matrices, "hf_snapshots": {**hf_blob, "rows": str(hf_blob["rows"])}}}),
        ("'cols' must be an integer, got bool",
         {**good, "matrices": {**matrices, "hf_snapshots": {**hf_blob, "cols": True}}}),
        ("'rows' and 'cols' must be non-negative, got (-1, ",
         {**good, "matrices": {**matrices, "hf_snapshots": {**hf_blob, "rows": -1}}}),
        # non-finite values, refused at load rather than printed or misreported
        ("hf_snapshots must be finite", with_matrix(good, "hf_snapshots", math.nan)),
        ("pivot_lf_columns must be finite", with_matrix(good, "pivot_lf_columns", math.nan)),
        ("rcond must be finite", {**good, "rcond": math.nan}),
        ("rcond must be finite", {**good, "rcond": math.inf}),
    ]
    for k, (field, doc) in enumerate(malformed):
        bad_archive = write_config(tmp_path / f"malformed{k}.json", doc)
        capsys.readouterr()
        assert main(["eval", bad_archive, str(col_path)]) == 3
        assert field in capsys.readouterr().err
    # archives are ASCII; other bytes are a data error too
    accented = tmp_path / "accented.json"
    accented.write_text(json.dumps(good, ensure_ascii=False).replace("single", "singl\u00e9"),
                        encoding="utf-8")
    assert main(["eval", str(accented), str(col_path)]) == 3
    assert "unreadable archive" in capsys.readouterr().err
    # zero LF pivot columns give the linear kernel an all-zero sliced Gramian:
    # a numerical failure, found at load
    assert good["kernel"]["family"] == "linear"
    zero = write_config(tmp_path / "zero.json", with_matrix(good, "pivot_lf_columns", 0.0, every=True))
    assert main(["eval", zero, str(col_path)]) == 4
    assert "Gramian numerically zero" in capsys.readouterr().err


def with_matrix(archive: dict, name: str, value: float, every: bool = False) -> dict:
    """``archive`` with the first entry, or ``every`` entry, of matrix ``name`` set to ``value``."""
    blob = archive["matrices"][name]
    data = np.frombuffer(base64.b64decode(blob["data"]), dtype="<f8").copy()
    data[slice(None) if every else 0] = value
    blob = {**blob, "data": base64.b64encode(data.tobytes()).decode("ascii")}
    return {**archive, "matrices": {**archive["matrices"], name: blob}}
