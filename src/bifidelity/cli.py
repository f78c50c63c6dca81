"""Command line driver for bi-fidelity surrogate experiments.

Commands
--------
run   kernel selection + surrogate builds over a mode/budget matrix
gen   dump a benchmark ensemble pair to CSV files
eval  load a surrogate archive, emulate one low-fidelity column

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Matrix CSV files are headerless (pass --header to skip one
leading row on inputs); outputs use shortest round-trip float printing,
so reruns with the same config and seed are byte identical, with or
without --parallel.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .bench import BenchmarkSpec, default_spec, generate
from .data import SnapshotEnsemble
from .hyperopt import (
    ObjectiveConfig,
    PsoConfig,
    TuningTable,
    default_bounds,
    optimize_hyperparams,
)
from .kernels import KernelFamily, KernelSpec
from .numerics import NumericsError
from .selection import SelectionReport, adaptive_select
from .surrogate import (
    HfProviderError,
    PivotPlan,
    build_surrogate,
    effective_cost,
    evaluate,
    median_relative_error,
    pivot_plan,
    surrogate_from_dict,
    surrogate_to_dict,
)

__all__ = [
    "ConfigError",
    "DataError",
    "ExperimentConfig",
    "RunResult",
    "parse_config",
    "load_config",
    "read_matrix_csv",
    "write_matrix_csv",
    "run_experiment",
    "main",
]

MODES = ("linear-baseline", "adaptive")
FAMILY_BY_NAME = {fam.name.lower(): fam for fam in KernelFamily}


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


# === configuration ===


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config; ``parse_config`` sets every field, defaults included."""

    data: dict
    kernels: tuple[KernelFamily, ...]
    lam: float
    rcond: float
    pso: dict
    modes: tuple[str, ...]
    budgets: tuple[int, ...]
    seed: int
    out_dir: str
    one_hf_cost: float | None
    objective_eval_cost: float


_REQUIRED = object()

# One declaration per key: (kind, default, range). A "number" is a finite
# JSON number, read as a float; a bool or a string is neither a number nor
# an integer. A list may not be empty, and its kind and range are those of
# its items. null is accepted only where the default is null.
_CONFIG = {
    "data": ("section", _REQUIRED, None),
    "kernels": ("string list", list(FAMILY_BY_NAME), None),
    "lambda": ("number", 0.1, "non-negative"),
    "rcond": ("number", 1e-12, "non-negative"),
    "pso": ("section", {}, None),
    "modes": ("string list", list(MODES), None),
    "budgets": ("integer list", [4, 6, 8, 10, 12], "positive"),
    "seed": ("integer", 0, "non-negative"),
    "out_dir": ("string", "results", None),
    "one_hf_cost": ("number", None, "positive"),  # null: the mean HF per-sample cost
    "objective_eval_cost": ("number", 0.0, "non-negative"),
}
_BENCHMARK = {
    "name": ("string", _REQUIRED, None),
    "seed": ("integer", 0, "non-negative"),
    "grid": ("axis list", None, None),  # null: the benchmark's own grid
    "lf": ("section", {}, None),
    "hf": ("section", {}, None),
}
_FILES = {
    "lf_outputs": ("string", _REQUIRED, None),
    "lf_params": ("string", _REQUIRED, None),
    "hf_outputs": ("string", _REQUIRED, None),
    "costs": ("string", None, None),  # null: unit costs
}
# kind -> (what it must be, test); a bool is never a number or an integer
_KINDS = {
    "integer": ("an integer", lambda v: isinstance(v, int)),
    "number": ("a finite number",
               lambda v: isinstance(v, (int, float)) and abs(v) <= sys.float_info.max),
    "string": ("a string", lambda v: isinstance(v, str)),
    "section": ("a JSON object", lambda v: isinstance(v, dict)),
}
_RANGES = {"positive": lambda v: v > 0, "non-negative": lambda v: v >= 0}


def _like(default) -> tuple:
    """The declaration of a key that takes the kind of its default."""
    return ("integer" if isinstance(default, int) else "number", default, None)


_PSO = {f.name: _like(f.default) for f in fields(PsoConfig) if f.name != "seed"}


def _value(value, kind: str, rng, where: str):
    """``value`` if it is of ``kind`` and in ``rng``; else a ConfigError naming ``where``."""
    if kind.endswith(" list"):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
        return tuple(_value(item, kind[: -len(" list")], rng, where) for item in value)
    if kind == "axis":
        if not isinstance(value, list) or len(value) != 4 or not isinstance(value[0], str):
            raise ConfigError(f"{where} axes must be [name, lo, hi, count] lists, got {value!r}")
        name, lo, hi, count = value
        where = f"{where} axis {name}"
        return (name, _value(lo, "number", None, f"{where} lo"),
                _value(hi, "number", None, f"{where} hi"), _value(count, "integer", None, f"{where} count"))
    what, test = _KINDS[kind]
    if isinstance(value, bool) or not test(value):
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    if kind == "number":
        value = float(value)
    if rng is not None and not _RANGES[rng](value):
        raise ConfigError(f"{where} must be {rng}, got {value!r}")
    return value


def _section(doc, table: dict, where: str) -> dict:
    """Every declared value of section ``doc``, defaults filled in."""
    name = where or "config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {name}")
    out = {}
    for key, (kind, default, rng) in table.items():
        if default is _REQUIRED and key not in doc:
            raise ConfigError(f"{name} needs '{key}'")
        value = doc.get(key, default)
        null = value is None and default is None
        out[key] = None if null else _value(value, kind, rng, f"{where}.{key}".lstrip("."))
    return out


def parse_config(doc: dict) -> ExperimentConfig:
    """Check a raw JSON document against the declarations; unknown keys anywhere are rejected."""
    top = _section(doc, _CONFIG, "")
    data = top["data"]
    if set(data) not in ({"benchmark"}, {"files"}):
        raise ConfigError("data section must hold exactly one of 'benchmark' or 'files'")
    if "benchmark" in data:
        _bench_spec_from_config(data["benchmark"], "data.benchmark")
    else:
        _section(data["files"], _FILES, "data.files")
    for name in top["kernels"]:
        if name not in FAMILY_BY_NAME:
            raise ConfigError(f"unknown kernel family {name!r}")
    for mode in top["modes"]:
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}; choose from {list(MODES)}")
    for key in ("kernels", "modes"):
        if len(set(top[key])) != len(top[key]):
            raise ConfigError(f"{key} must not repeat an entry, got {list(top[key])}")
    if list(top["budgets"]) != sorted(set(top["budgets"])):
        raise ConfigError("budgets must be strictly ascending")
    pso = _section(top["pso"], _PSO, "pso")
    try:
        PsoConfig(**pso)
    except ValueError as exc:
        raise ConfigError(f"invalid pso settings: {exc}") from exc
    # the fields are the keys, with lambda as lam; pso keeps the keys given
    top["kernels"] = tuple(FAMILY_BY_NAME[name] for name in top["kernels"])
    top["pso"] = {key: pso[key] for key in top["pso"]}
    top["lam"] = top.pop("lambda")
    return ExperimentConfig(**top)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise ConfigError(f"unreadable config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    """The config file at ``path``, validated; ``seed``, where given, replaces its ``seed`` key."""
    doc = _read_json(path)
    return parse_config({**doc, "seed": seed} if seed is not None and isinstance(doc, dict) else doc)


# === CSV matrices ===


def _fmt(x) -> str:
    return repr(float(x))


def write_matrix_csv(path, arr) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    lines = [",".join(_fmt(v) for v in row) for row in arr]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_matrix_csv(path, header: bool = False) -> np.ndarray:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise DataError(f"matrix file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise DataError(f"unreadable matrix file {path}: {exc}") from exc
    rows = []
    lines = text.splitlines()
    if header and lines:
        lines = lines[1:]
    for lineno, line in enumerate(lines, start=2 if header else 1):
        if not line.strip():
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparsable number ({exc})") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError(f"{path}: ragged rows (expected width {width})")
    return np.array(rows, dtype=float)


# === data loading ===


def _bench_spec_from_config(doc, where: str) -> BenchmarkSpec:
    """The spec a benchmark section describes; a bad value is a ConfigError.

    Each LF/HF setting takes the kind of the benchmark's default for it;
    the spec refuses a setting the benchmark does not declare.
    """
    bench = _section(doc, _BENCHMARK, where)
    try:
        spec = default_spec(bench["name"], seed=bench["seed"])
        settings = [
            {key: _value(v, _like(defaults[key])[0], None, f"{where}.{fid}.{key}".lstrip("."))
             if key in defaults else v for key, v in bench[fid].items()}
            for fid, defaults in (("lf", spec.lf_settings), ("hf", spec.hf_settings))
        ]
        return replace(spec, grid=bench["grid"] or spec.grid, lf_settings=settings[0],
                       hf_settings=settings[1])
    except ValueError as exc:
        raise ConfigError(f"{where or 'benchmark'}: {exc}") from exc


def load_data(cfg: ExperimentConfig, header: bool = False) -> tuple[SnapshotEnsemble, SnapshotEnsemble]:
    if "benchmark" in cfg.data:
        return generate(_bench_spec_from_config(cfg.data["benchmark"], "data.benchmark"))
    files = cfg.data["files"]
    lf_out = read_matrix_csv(files["lf_outputs"], header)
    params = read_matrix_csv(files["lf_params"], header)
    hf_out = read_matrix_csv(files["hf_outputs"], header)
    N = lf_out.shape[1]
    if params.shape[0] != N:
        raise DataError(
            f"lf_params has {params.shape[0]} rows but lf_outputs has {N} columns"
        )
    if hf_out.shape[1] != N:
        raise DataError(
            f"hf_outputs has {hf_out.shape[1]} columns but lf_outputs has {N}"
        )
    if files.get("costs") is not None:
        costs = read_matrix_csv(files["costs"], header)
        if costs.shape != (2, N):
            raise DataError(f"costs must be a 2x{N} matrix (LF row, HF row)")
        lf_cost, hf_cost = costs[0], costs[1]
        if np.any(hf_cost <= 0):
            raise DataError(f"{files['costs']}: every HF cost (second row) must be positive")
    else:
        lf_cost = np.ones(N)
        hf_cost = np.ones(N)
    for parsed in (lf_out, params, hf_out, lf_cost, hf_cost):
        parsed.setflags(write=False)  # handed over: the ensembles keep them uncopied
    try:
        lf = SnapshotEnsemble(outputs=lf_out, params=params, per_sample_cost=lf_cost)
        hf = SnapshotEnsemble(outputs=hf_out, params=params, per_sample_cost=hf_cost)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    return lf, hf


# === experiment orchestration ===


@dataclass
class RunResult:
    rows: list
    qoi_labels: tuple[str, ...]
    selection_doc: dict
    archives: dict
    trace: list


def _child_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0])


def _kernel_label(kernel: KernelSpec) -> str:
    if kernel.h:
        return f"{kernel.family.name.lower()}(h={'|'.join(_fmt(v) for v in kernel.h)})"
    return kernel.family.name.lower()


def _report_doc(report: SelectionReport) -> dict:
    return {
        "mode": "adaptive",
        "families": [f.name.lower() for f in report.families],
        "n_used": report.n_used,
        "chosen_family": report.chosen_family.name.lower(),
        "per_kernel_epsilon": {
            fam.name.lower(): eps for fam, eps in sorted(report.per_kernel_epsilon.items())
        },
    }


def run_experiment(cfg: ExperimentConfig, parallel: bool = False, header: bool = False) -> RunResult:
    """Selection first, then surrogate builds over the (mode, n) matrix.

    High-fidelity data is only reached through each cell's provider during
    the build phase, after every selection decision is already made; the
    returned trace records the phase marker and each draw.
    """
    lf, hf = load_data(cfg, header)
    N = lf.n_samples
    if any(b >= N for b in cfg.budgets):
        raise ConfigError(f"budgets must stay below the sample count {N}")
    one_hf = cfg.one_hf_cost if cfg.one_hf_cost is not None else float(np.mean(hf.per_sample_cost))

    trace: list = []
    optimized = []
    # one pivot plan per distinct kernel, to the largest budget, for every budget
    plans: dict[KernelSpec, PivotPlan] = {}
    hyper_evals = 0
    adaptive_reports: dict[int, SelectionReport] = {}
    if "adaptive" in cfg.modes:
        table = TuningTable(lf.outputs)  # every family tunes on the same LF data
        for fam in cfg.kernels:
            obj_cfg = ObjectiveConfig(lam=cfg.lam, family=fam, bounds=default_bounds(fam, table.dbar))
            pso_cfg = PsoConfig(**cfg.pso, seed=_child_seed(cfg.seed, int(fam)))
            optimized.append(optimize_hyperparams(fam, table, obj_cfg, pso_cfg))
        del table  # its packed triangles, before selection
        hyper_evals = sum(ok.evaluations_used for ok in optimized)
        plans = {ok.spec: pivot_plan(lf, ok.spec, max(cfg.budgets)) for ok in optimized}
        for n in cfg.budgets:
            adaptive_reports[n] = adaptive_select(optimized, lf, n, cfg.rcond, plans)

    selection_doc: dict = {"hyperparameters": [
        {
            "family": ok.spec.family.name.lower(),
            "h": list(ok.spec.h),
            "objective_value": ok.objective_value,
            "evaluations_used": ok.evaluations_used,
            "distinct_evaluations": ok.distinct_evaluations,
        }
        for ok in optimized
    ]}
    if adaptive_reports:
        selection_doc["adaptive"] = {
            str(n): _report_doc(rep) for n, rep in adaptive_reports.items()
        }
    trace.append(("phase", "selection_complete"))

    opt_cost = hyper_evals * cfg.objective_eval_cost
    mode_cost = {"linear-baseline": 0.0, "adaptive": opt_cost}
    specs_by_family = {ok.spec.family: ok.spec for ok in optimized}

    def cell_kernel(mode: str, n: int):
        if mode == "linear-baseline":
            return KernelSpec(family=KernelFamily.LINEAR)
        return specs_by_family[adaptive_reports[n].chosen_family]

    cells = [(mode, n) for mode in cfg.modes for n in cfg.budgets]
    # every plan is formed before any cell starts
    plans = {
        kernel: plans.get(kernel) or pivot_plan(lf, kernel, max(cfg.budgets))
        for kernel in dict.fromkeys(cell_kernel(*c) for c in cells)
    }

    def run_cell(mode: str, n: int):
        local: list = []

        def provider(index: int) -> np.ndarray:
            local.append(("hf_access", f"{mode}:{n}", int(index)))
            return hf.column(index)

        kernel = cell_kernel(mode, n)
        surr = build_surrogate(lf, kernel, n, provider, cfg.rcond, plans[kernel])
        if len(local) != n:
            raise RuntimeError(f"provider drew {len(local)} columns, expected {n}")
        err = median_relative_error(surr, hf, lf)
        ledger = effective_cost(n, mode_cost[mode], one_hf)
        row = {
            "mode": mode,
            "n": n,
            "hf_samples_used": ledger.hf_samples_used,
            "kernel_opt_cost": ledger.kernel_opt_cost,
            "one_hf_cost": ledger.one_hf_cost,
            "effective_hf": ledger.effective_hf,
            "median_rel_error": err.aggregate_median_rel_error,
            "per_qoi": err.per_qoi_median_rel_error,
            "kernel": _kernel_label(surr.kernel),
        }
        return row, surrogate_to_dict(surr), local

    if parallel:
        with ThreadPoolExecutor() as pool:
            outcomes = list(pool.map(lambda c: run_cell(*c), cells))
    else:
        outcomes = [run_cell(*c) for c in cells]

    rows = []
    archives = {}
    for (mode, n), (row, archive, local) in zip(cells, outcomes):
        rows.append(row)
        archives[f"{mode}:{n}"] = archive
        trace.extend(local)

    qoi_labels = tuple(hf.label_groups().keys())
    selection_doc["surrogates"] = archives
    return RunResult(
        rows=rows,
        qoi_labels=qoi_labels,
        selection_doc=selection_doc,
        archives=archives,
        trace=trace,
    )


def write_results_csv(path, result: RunResult) -> None:
    cols = [
        "mode",
        "n",
        "hf_samples_used",
        "kernel_opt_cost",
        "one_hf_cost",
        "effective_hf",
        "median_rel_error",
    ]
    cols += [f"error_{label}" for label in result.qoi_labels]
    cols.append("kernel")
    lines = [",".join(cols)]
    for row in result.rows:
        cells = [
            row["mode"],
            str(row["n"]),
            str(row["hf_samples_used"]),
            _fmt(row["kernel_opt_cost"]),
            _fmt(row["one_hf_cost"]),
            str(row["effective_hf"]),
            _fmt(row["median_rel_error"]),
        ]
        cells += [_fmt(row["per_qoi"][label]) for label in result.qoi_labels]
        cells.append(row["kernel"])
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


# === commands ===


def _write_json(path, doc) -> None:
    """Write ``doc`` as ASCII JSON with sorted keys, the format reruns reproduce byte for byte."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.seed)
    out_dir = Path(args.out if args.out is not None else cfg.out_dir)
    result = run_experiment(cfg, parallel=args.parallel, header=args.header)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(out_dir / "results.csv", result)
    _write_json(out_dir / "selection.json", result.selection_doc)
    surr_dir = out_dir / "surrogates"
    surr_dir.mkdir(exist_ok=True)
    for cell, archive in result.archives.items():
        _write_json(surr_dir / (cell.replace(":", "_") + ".json"), archive)
    print(f"wrote {out_dir / 'results.csv'} ({len(result.rows)} rows)")
    return 0


def cmd_gen(args) -> int:
    overrides = {}
    if args.config is not None:
        overrides = _read_json(args.config)
        if not isinstance(overrides, dict) or "name" in overrides:
            raise ConfigError("gen config must be a JSON object without a 'name' key")
    bench = {"name": args.benchmark, **overrides}
    if args.seed is not None:
        bench["seed"] = args.seed
    spec = _bench_spec_from_config(bench, "")
    lf, hf = generate(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out_dir / "lf_outputs.csv", lf.outputs)
    write_matrix_csv(out_dir / "hf_outputs.csv", hf.outputs)
    write_matrix_csv(out_dir / "params.csv", lf.params)
    write_matrix_csv(out_dir / "costs.csv", np.vstack([lf.per_sample_cost, hf.per_sample_cost]))
    meta = {
        "name": spec.name,
        "seed": spec.seed,
        "grid": [list(axis) for axis in spec.grid],
        "lf_settings": spec.lf_settings,
        "hf_settings": spec.hf_settings,
        "lf_labels": list(lf.labels) if lf.labels else None,
        "hf_labels": list(hf.labels) if hf.labels else None,
    }
    _write_json(out_dir / "meta.json", meta)
    print(f"wrote {spec.n_samples} samples to {out_dir}")
    return 0


def cmd_eval(args) -> int:
    try:
        surr = surrogate_from_dict(json.loads(Path(args.archive).read_text(encoding="ascii")))
    except FileNotFoundError as exc:
        raise DataError(f"archive not found: {args.archive}") from exc
    except (OSError, KeyError, TypeError, ValueError) as exc:  # a directory, bad JSON, non-ASCII bytes
        raise DataError(f"unreadable archive {args.archive}: {exc}") from exc
    col = read_matrix_csv(args.lf_column, header=args.header)
    if col.ndim == 2 and 1 in col.shape:
        col = col.ravel()
    elif col.ndim == 2 and col.shape[0] > 1 and col.shape[1] > 1:
        raise DataError("lf column file must hold a single vector")
    try:
        pred = evaluate(surr, col)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    for v in pred:
        print(_fmt(v))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifidelity", description="Bi-fidelity surrogate experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the selection + build pipeline")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--parallel", action="store_true")
    run.add_argument("--header", action="store_true")
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("gen", help="write a benchmark ensemble pair to CSV")
    gen.add_argument("benchmark", choices=["oscillator", "nbody"])
    gen.add_argument("--config", default=None)
    gen.add_argument("--out", default="bench_data")
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=cmd_gen)

    ev = sub.add_parser("eval", help="emulate one low-fidelity column")
    ev.add_argument("archive")
    ev.add_argument("lf_column")
    ev.add_argument("--header", action="store_true")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, HfProviderError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericsError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
