"""Pipeline benchmark: ``bifidelity.cli.run_experiment`` end to end.

    python3 perfbench/run.py --workload osc-default --seed 0 --seconds 55 --trace 0

Run from the root of a checkout. Workloads live in ``workloads.json``
next to this file. Every measurement runs in a fresh child interpreter
(``child.py``) that imports the package from ``src/`` (or the frozen
copy), pinned to one CPU, with one BLAS and OpenMP thread and serial
cells. It needs two CPUs and never runs more children at once.

A run is a closed loop of experiments for ``--seconds``: experiment k at
seed s runs the workload config with config seed s + 1000*k, so each
experiment draws fresh PSO streams and the same seed gives the same
sequence. Each experiment is a pair of runs at that seed, one of the
package under ``src/`` and one of the frozen copy under
``perfbench/baseline/``, at the same time on two CPUs that swap every
experiment. Both runs' outputs are checked (see ``child.check_result``);
an experiment where either raises or breaks a check counts as failed.

``--trace 0`` reports the end-to-end metrics as medians over the run's
measurements. The run time is reported as ``run_rel``, the geometric mean
over the experiments of the ``src/`` run's wall time divided by the
baseline run's: the two runs of a pair share the seed and run at the same
time, so the seed's work and the host's slow or fast phases cancel. The
raw wall times of both are printed on the lines before the result.
``--trace 1`` runs experiment 0 of ``src/`` once untraced and once with
every public function of the package wrapped, and reports per-layer
calls, inclusive and self seconds, the tuning counters, and the tracing
overhead (traced minus untraced ``run_s``). Spans and layer tables are
written under ``.perfbench/``. The last line of stdout is one JSON object;
the lines before it give quartiles, counts and machine facts.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The package as it was when the benchmark was defined; never edit it.
BASELINE_SRC = HERE / "baseline"
OUT_DIR = ROOT / ".perfbench"
THREADS = 1
SEED_STRIDE = 1000
# Keeps the whole run inside the 180 s a run may take, whatever a child does.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "run_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "err_baseline": "ratio",
    "err_best": "ratio",
}
LAYER_FUNCTIONS = [
    "bench.generate",
    "kernels.gramian_entries",
    "kernels.build_gramian",
    "kernels.cross_kernel_vector",
    "numerics.stable_rank",
    "numerics.spectral_norm",
    "numerics.pivoted_cholesky",
    "numerics.solve_regularized",
    "hyperopt.optimize_hyperparams",
    "hyperopt.pso_minimize",
    "hyperopt.refine_local",
    "selection.additive_select",
    "selection.adaptive_select",
    "surrogate.build_surrogate",
    "surrogate.evaluate",
    "surrogate.median_relative_error",
    "cli.run_experiment",
]
COUNTERS = {
    "hyperopt.obj_evals": "count",
    "hyperopt.obj_inf_frac": "ratio",
    "hyperopt.pso_iters": "count",
    "hyperopt.bound_hits": "count",
    "selection.adaptive_inf_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.s"] = "s"
        units[f"{fn}.self_s"] = "s"
    units.update(COUNTERS)
    units["trace_overhead_s"] = "s"
    return units


class ChildFailed(Exception):
    pass


class Runner:
    """Starts child interpreters, each pinned to a CPU, within a shared deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.cpus = sorted(os.sched_getaffinity(0))
        self.env = {
            **os.environ,
            "OMP_NUM_THREADS": str(THREADS),
            "OPENBLAS_NUM_THREADS": str(THREADS),
            "MKL_NUM_THREADS": str(THREADS),
            "BLIS_NUM_THREADS": str(THREADS),
        }

    def child(self, request: dict, src: Path = SRC) -> dict:
        out = self.together([(request, src)])[0]
        if isinstance(out, ChildFailed):
            raise out
        return out

    def together(self, jobs: list[tuple[dict, Path]]) -> list:
        """Runs one child per (request, src) job at the same time, each on its
        own CPU, and returns each child's report or the ChildFailed that
        stopped it. Every child has ended when this returns."""
        if len(jobs) > len(self.cpus):
            raise ChildFailed(f"{len(jobs)} children need as many CPUs, have {self.cpus}")
        procs = []
        try:
            for cpu, (request, src) in zip(self.cpus, jobs):
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "child.py"), str(src), json.dumps(request)],
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    cwd=ROOT,
                    env={**self.env, "PYTHONPATH": str(src)},
                )
                procs.append(proc)
                os.sched_setaffinity(proc.pid, {cpu})
            return [self._report(proc) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    def _report(self, proc):
        timeout = self.deadline - time.monotonic()
        try:
            stdout, stderr = proc.communicate(timeout=max(timeout, 0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return ChildFailed(f"child killed after {max(timeout, 0):.0f} s")
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
            return ChildFailed(f"child exited {proc.returncode}: {tail[0]}")
        return json.loads(stdout.strip().splitlines()[-1])


def workload_config(workload: dict, seed: int, k: int) -> dict:
    doc = json.loads(json.dumps(workload["config"]))
    doc["seed"] = seed + SEED_STRIDE * k
    return doc


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def timed_run(runner: Runner, doc: dict, log, trace: bool = False, spans_path=None):
    """One checked run_experiment of ``src/``; returns the child's report or None."""
    out = runner.together([({"config": doc, "trace": trace, "spans_path": spans_path}, SRC)])[0]
    return checked(out, doc, SRC, log, trace)


def checked(out, doc: dict, src: Path, log, trace: bool = False):
    """Logs one child's report; returns it, or None if it failed or broke a check."""
    label = f"run seed={doc['seed']} src={src.relative_to(ROOT)} trace={int(trace)}"
    if isinstance(out, ChildFailed):
        log(f"{label}: FAILED ({out})")
        return None
    for problem in out["problems"]:
        log(f"{label}: check failed: {problem}")
    log(f"{label}: run_s={out['run_s']:.3f} "
        f"setup_s={out['setup_s']:.3f} peak_rss_mb={out['peak_rss_mb']:.1f} errors={out['errors']}")
    return None if out["problems"] else out


def measure(runner: Runner, workload: dict, seed: int, seconds: float, log) -> dict:
    deadline = min(time.monotonic() + seconds, runner.deadline)
    setups, runs, base_runs, attempted, failed = [], [], [], 0, 0
    last = 0.0
    # Another run starts while at least half of the last one's time is left,
    # so a run ends within about half an experiment of --seconds.
    while attempted == 0 or deadline - time.monotonic() >= last / 2:
        began = time.monotonic()
        doc = workload_config(workload, seed, attempted)
        # A set-up-only child before each experiment spreads the set-up
        # samples over the whole measurement, as the runs are.
        out = runner.child({"config": doc, "setup_only": True})
        setups.append(out["setup_s"])
        if attempted == 0:
            v = out["versions"]
            log(f"machine: nproc={os.cpu_count()} blas_threads={THREADS} "
                f"python={sys.version.split()[0]} numpy={v['numpy']} scipy={v['scipy']} "
                f"blas={v['blas']}")
        # The two runs of a pair run at the same time on different CPUs;
        # swapping the CPUs every experiment cancels any difference between
        # them.
        order = [SRC, BASELINE_SRC] if attempted % 2 else [BASELINE_SRC, SRC]
        attempted += 1
        outs = runner.together([({"config": doc}, src) for src in order])
        pair = {src: checked(out, doc, src, log) for src, out in zip(order, outs)}
        if None in pair.values():
            failed += 1
        else:
            runs.append(pair[SRC])
            base_runs.append(pair[BASELINE_SRC])
            setups.append(pair[SRC]["setup_s"])
        last = time.monotonic() - began

    samples = {"setup_s": setups}
    if runs:
        samples["run_s"] = [r["run_s"] for r in runs]
        samples["baseline_run_s"] = [r["run_s"] for r in base_runs]
        samples["run_rel"] = [r["run_s"] / b["run_s"] for r, b in zip(runs, base_runs)]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in runs]
        samples["err_baseline"] = [r["errors"]["linear-baseline"] for r in runs]
        samples["err_best"] = [min(r["errors"].values()) for r in runs]
        adaptive = [r["errors"]["adaptive"] for r in runs if "adaptive" in r["errors"]]
        if adaptive:
            samples["err_adaptive"] = adaptive
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        log(f"{name}: median={med!r} q1={q1!r} q3={q3!r} over {len(values)} measurements")
    log(f"failed_frac: {failed}/{attempted}")
    values = {name: statistics.median(v) for name, v in samples.items()}
    if runs:
        # The mean of the log ratios, so that a pair's ratio and its inverse
        # weigh the same; each pair's two CPUs differ, and they alternate.
        values["run_rel"] = statistics.geometric_mean(samples["run_rel"])
        log(f"run_rel: geometric mean={values['run_rel']!r} over {len(runs)} pairs")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items() if name in values}
    return {"correct": failed == 0 and len(metrics) == len(END_TO_END),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def measure_traced(runner: Runner, workload: dict, name: str, seed: int, log) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    doc = workload_config(workload, seed, 0)
    plain = timed_run(runner, doc, log)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    traced = timed_run(runner, doc, log, trace=True, spans_path=str(spans_path))
    failed = (plain is None) + (traced is None)
    metrics = {}
    if traced is not None:
        layers = traced["layers"]
        (OUT_DIR / f"layers-{name}-seed{seed}.json").write_text(
            json.dumps({"layers": layers, "counters": traced["counters"]}, indent=1, sort_keys=True)
            + "\n", encoding="ascii")
        log(f"{'layer':<34} {'calls':>8} {'s':>10} {'self_s':>10}")
        for fn, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            log(f"{fn:<34} {row['calls']:>8} {row['s']:>10.4f} {row['self_s']:>10.4f}")
        log(f"{traced['n_spans']} spans written to {spans_path.relative_to(ROOT)}")
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
        for fn in LAYER_FUNCTIONS:
            row = layers.get(fn, empty)
            for field in ("calls", "s", "self_s"):
                metrics[f"{fn}.{field}"] = row[field]
        metrics.update(traced["counters"])
        if plain is not None:
            metrics["trace_overhead_s"] = traced["run_s"] - plain["run_s"]
    units = per_layer_units()
    for key, value in metrics.items():
        if key in COUNTERS or key == "trace_overhead_s":
            log(f"{key}: {value!r}")
    return {"correct": failed == 0 and len(metrics) == len(units),
            "attempted": 2, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for src in (SRC, BASELINE_SRC):
        if not (src / "bifidelity" / "__init__.py").is_file():
            print(f"no bifidelity package under {src}; run from a full checkout",
                  file=sys.stderr)
            return 2

    def log(line: str) -> None:
        print(f"[{args.workload}] {line}", flush=True)

    runner = Runner(deadline=time.monotonic() + HARD_LIMIT_S)
    workload = workloads[args.workload]
    try:
        if args.trace:
            result = measure_traced(runner, workload, args.workload, args.seed, log)
        else:
            result = measure(runner, workload, args.seed, args.seconds, log)
    except ChildFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
