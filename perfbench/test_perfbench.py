"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import check_result  # noqa: E402
from tracing import Tracer, layer_table, self_times  # noqa: E402


def run_command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),    # overlaps a: together they cover [1, 6]
        ("c", 2.0, 3.0, 1),
        ("d", 9.0, 12.0, 0),   # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == [10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0]


def test_layer_table_counts_recursion_once_in_inclusive_time():
    spans = [
        ("f", 0.0, 4.0, -1),
        ("f", 1.0, 3.0, 0),
        ("g", 5.0, 6.0, -1),
    ]
    table = layer_table(spans)
    assert table["f"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    assert table["g"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_tracer_wraps_every_binding_and_restores():
    home = SimpleNamespace(__name__="pkg.home")

    def work(x):
        return x + 1

    work.__module__ = "pkg.home"
    home.work = work
    home._hidden = work
    user = SimpleNamespace(__name__="pkg.user", work=work)
    tracer = Tracer()
    assert tracer.install([home], [home, user]) == ["home.work"]
    assert user.work(1) == 2 and home.work(2) == 3
    assert [s[0] for s in tracer.spans] == ["home.work", "home.work"]
    tracer.restore()
    assert user.work is work and home.work is work


def _fake_run(trace, archives_pivots, rows):
    return SimpleNamespace(trace=trace, rows=rows,
                           archives={cell: {"pivots": p} for cell, p in archives_pivots.items()})


def test_output_checks_flag_each_broken_invariant():
    cfg = SimpleNamespace(modes=("linear-baseline",), budgets=(2,))
    row = {"mode": "linear-baseline", "n": 2, "hf_samples_used": 2, "kernel_opt_cost": 0.0,
           "one_hf_cost": 1.0, "effective_hf": 2, "median_rel_error": 0.5}
    good = [("phase", "selection_complete"),
            ("hf_access", "linear-baseline:2", 3), ("hf_access", "linear-baseline:2", 1)]
    assert check_result(_fake_run(good, {"linear-baseline:2": [3, 1]}, [row]), cfg, 5) == []

    early = [good[1], good[0], good[2]]
    assert check_result(_fake_run(early, {"linear-baseline:2": [3, 1]}, [row]), cfg, 5)
    short = good[:2]
    assert check_result(_fake_run(short, {"linear-baseline:2": [3, 1]}, [row]), cfg, 5)
    assert check_result(_fake_run(good, {"linear-baseline:2": [3, 3]}, [row]), cfg, 5)
    assert check_result(_fake_run(good, {"linear-baseline:2": [3, 1]}, [row]), cfg, 3)
    for broken in ({"effective_hf": 3}, {"median_rel_error": math.nan}):
        bad_row = {**row, **broken}
        assert check_result(_fake_run(good, {"linear-baseline:2": [3, 1]}, [bad_row]), cfg, 5)


def _declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_command_emits_every_end_to_end_metric_with_its_unit():
    out = _last_json(run_command("--workload", "smoke", "--seed", "3", "--seconds", "1",
                                 "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    units = {name: m["unit"] for name, m in out["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_command_emits_every_per_layer_metric_with_its_unit():
    out = _last_json(run_command("--workload", "smoke", "--seed", "3", "--seconds", "1",
                                 "--trace", "1"))
    assert out["correct"] and out["failed"] == 0
    units = {name: m["unit"] for name, m in out["metrics"].items()}
    assert units == _declared("per_layer")
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    assert metrics["cli.run_experiment.calls"] == 1
    assert metrics["hyperopt.obj_evals"] > 0
    assert 0 < metrics["cli.run_experiment.self_s"] < metrics["cli.run_experiment.s"]


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", "0",
                       cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
