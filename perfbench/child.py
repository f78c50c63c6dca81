"""One benchmark measurement in a fresh interpreter.

Takes a JSON request as its second argument and prints one JSON line on
stdout:

* ``{"config": doc, "setup_only": true}`` times importing ``bifidelity``
  and validating ``doc`` with ``parse_config``, and reports the library
  versions;
* ``{"config": doc, "trace": false}`` also runs ``run_experiment`` once,
  serially, and checks its outputs;
* with ``"trace": true`` and a ``"spans_path"``, every public function of
  the package is wrapped first, and the per-layer table, counters and
  spans come back as well (the spans are written to ``spans_path``).

The package must be importable from the ``src`` directory given as the
first argument; any other copy is refused.
"""
import json
import math
import resource
import sys
import time
from pathlib import Path


def check_result(result, cfg, n_samples: int) -> list[str]:
    """Output invariants of one run; returns a description of each breach.

    Only invariants that any correct pipeline keeps are checked, so a
    change that makes the surrogates more accurate is not a failure.
    """
    problems = []
    trace = result.trace
    markers = [i for i, ev in enumerate(trace) if ev == ("phase", "selection_complete")]
    if len(markers) != 1:
        problems.append(f"expected one selection_complete marker, found {len(markers)}")
    marker = markers[0] if markers else len(trace)
    draws: dict[str, list[int]] = {}
    for i, ev in enumerate(trace):
        if ev[0] == "hf_access":
            if i < marker:
                problems.append(f"hf_access {ev} before selection_complete")
            draws.setdefault(ev[1], []).append(ev[2])

    expected_cells = {f"{m}:{n}" for m in cfg.modes for n in cfg.budgets}
    if {f"{r['mode']}:{r['n']}" for r in result.rows} != expected_cells:
        problems.append("results rows do not cover the (mode, budget) matrix")
    for row in result.rows:
        cell = f"{row['mode']}:{row['n']}"
        n = row["n"]
        drawn = draws.get(cell, [])
        if len(drawn) != n or row["hf_samples_used"] != n:
            problems.append(f"{cell}: drew {len(drawn)} HF columns, ledger says "
                            f"{row['hf_samples_used']}, budget {n}")
        pivots = result.archives[cell]["pivots"]
        if len(set(pivots)) != len(pivots) or not all(0 <= p < n_samples for p in pivots):
            problems.append(f"{cell}: pivots not distinct and in [0, {n_samples})")
        if list(pivots) != drawn:
            problems.append(f"{cell}: HF draws differ from the archived pivots")
        expected = row["hf_samples_used"] + math.ceil(row["kernel_opt_cost"] / row["one_hf_cost"])
        if row["effective_hf"] != expected:
            problems.append(f"{cell}: ledger identity broken ({row['effective_hf']} != {expected})")
        if not math.isfinite(row["median_rel_error"]):
            problems.append(f"{cell}: median_rel_error {row['median_rel_error']} not finite")
    return problems


def _install_tracer(modules):
    """Wrap the package's public functions and the tuning objective."""
    from tracing import Tracer

    tracer = Tracer()
    homes = [modules[k] for k in ("bench", "kernels", "numerics", "hyperopt",
                                  "selection", "surrogate", "cli")]
    tracer.install(homes, list(modules.values()))

    hyperopt = modules["hyperopt"]
    counts = {"obj_evals": 0, "obj_inf": 0, "pso_iters": 0, "bound_hits": 0}

    def counted(f):
        def objective(x):
            value = f(x)
            counts["obj_evals"] += 1
            if not math.isfinite(value):
                counts["obj_inf"] += 1
            return value
        return objective

    # Only hyperopt's own bindings count: the additive selection also calls
    # pso_minimize, on its mixture-weight objective.
    pso = hyperopt.pso_minimize

    def pso_minimize(f, *args, **kwargs):
        out = pso(counted(f), *args, **kwargs)
        counts["pso_iters"] += len(out[2]) - 1
        return out

    refine = hyperopt.refine_local

    def refine_local(f, *args, **kwargs):
        return refine(counted(f), *args, **kwargs)

    tracer.patch(hyperopt, "pso_minimize", pso_minimize)
    tracer.patch(hyperopt, "refine_local", refine_local)

    # A tuned hyperparameter on its search-box edge, to 1e-9 relative.
    optimize = modules["cli"].optimize_hyperparams

    def optimize_hyperparams(family, lf, obj_cfg, pso_cfg):
        out = optimize(family, lf, obj_cfg, pso_cfg)
        for h, (lo, hi) in zip(out.spec.h, obj_cfg.bounds):
            if math.isclose(h, lo, rel_tol=1e-9) or math.isclose(h, hi, rel_tol=1e-9):
                counts["bound_hits"] += 1
        return out

    tracer.patch(modules["cli"], "optimize_hyperparams", optimize_hyperparams)
    return tracer, counts


def main() -> int:
    t0 = time.perf_counter()
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    request = json.loads(sys.argv[2])
    import bifidelity
    from bifidelity import bench, cli

    cfg = cli.parse_config(request["config"])
    setup_s = time.perf_counter() - t0
    if src not in Path(bifidelity.__file__).resolve().parents:
        print(f"bifidelity imported from {bifidelity.__file__}, not {src}", file=sys.stderr)
        return 2

    out = {"setup_s": setup_s}
    if request.get("setup_only"):
        import numpy
        import scipy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["versions"] = {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        }
        print(json.dumps(out))
        return 0

    bench_doc = cfg.data["benchmark"]
    if "grid" in bench_doc:
        n_samples = math.prod(int(axis[3]) for axis in bench_doc["grid"])
    else:
        n_samples = bench.default_spec(bench_doc["name"]).n_samples

    tracer = None
    if request.get("trace"):
        modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                   if name == "bifidelity" or name.startswith("bifidelity.")}
        tracer, counts = _install_tracer(modules)
        run_experiment = modules["cli"].run_experiment
    else:
        run_experiment = cli.run_experiment

    t1 = time.perf_counter()
    result = run_experiment(cfg, parallel=False)
    out["run_s"] = time.perf_counter() - t1
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["problems"] = check_result(result, cfg, n_samples)
    # median_rel_error per mode at the largest budget
    out["errors"] = {row["mode"]: row["median_rel_error"]
                     for row in result.rows if row["n"] == max(cfg.budgets)}

    if tracer is not None:
        tracer.restore()
        from tracing import layer_table

        epsilons = [eps for rep in result.selection_doc.get("adaptive", {}).values()
                    for eps in rep["per_kernel_epsilon"].values()]
        evals_reported = sum(h["evaluations_used"]
                             for h in result.selection_doc["hyperparameters"])
        if counts["obj_evals"] != evals_reported:
            out["problems"].append(f"traced objective calls {counts['obj_evals']} != "
                                   f"evaluations_used {evals_reported}")
        out["layers"] = layer_table(tracer.spans)
        out["counters"] = {
            "hyperopt.obj_evals": counts["obj_evals"],
            "hyperopt.obj_inf_frac": counts["obj_inf"] / max(counts["obj_evals"], 1),
            "hyperopt.pso_iters": counts["pso_iters"],
            "hyperopt.bound_hits": counts["bound_hits"],
            "selection.adaptive_inf_frac":
                sum(math.isinf(e) for e in epsilons) / max(len(epsilons), 1),
        }
        out["n_spans"] = len(tracer.spans)
        with open(request["spans_path"], "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
