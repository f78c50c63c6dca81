"""Command line driver for bi-fidelity surrogate experiments.

Commands
--------
run         kernel selection + surrogate builds over a mode/budget matrix
gen         dump a benchmark ensemble pair to CSV files
tune-lambda sweep the objective's lambda over a grid and report the best
eval        load a surrogate archive, emulate one low-fidelity column

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Matrix CSV files are headerless (pass --header to skip one
leading row on inputs); outputs use shortest round-trip float printing,
so reruns with the same config and seed are byte identical, with or
without --parallel.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bench import BenchmarkSpec, default_spec, generate
from .data import SnapshotEnsemble
from .hyperopt import ObjectiveConfig, PsoConfig, default_bounds, optimize_hyperparams
from .kernels import KernelFamily, KernelSpec
from .numerics import NumericsError
from .selection import SelectionReport, adaptive_select
from .surrogate import (
    build_surrogate,
    load_surrogate,
    median_relative_error,
    surrogate_to_dict,
    evaluate,
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
    data: dict
    kernels: tuple[KernelFamily, ...]
    lam: float = 0.1
    rcond: float = 1e-12
    pso: dict = field(default_factory=dict)
    modes: tuple[str, ...] = MODES
    budgets: tuple[int, ...] = (4, 6, 8, 10, 12)
    seed: int = 0
    out_dir: str = "results"
    one_hf_cost: float | None = None
    objective_eval_cost: float = 0.0
    lambda_grid: tuple[float, ...] | None = None


_TOP_KEYS = {
    "data",
    "kernels",
    "lambda",
    "rcond",
    "pso",
    "modes",
    "budgets",
    "seed",
    "out_dir",
    "one_hf_cost",
    "objective_eval_cost",
    "lambda_grid",
}
_PSO_KEYS = {"swarm_size", "k1", "k2", "v_max_fraction", "max_iters", "stall_iters"}
_BENCH_KEYS = {"name", "seed", "grid", "lf", "hf"}
_FILE_KEYS = {"lf_outputs", "lf_params", "hf_outputs", "costs"}


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _list_value(doc: dict, key: str, default: list) -> list:
    value = doc.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a raw JSON document; unknown keys anywhere are rejected."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")
    if "data" not in doc:
        raise ConfigError("config needs a 'data' section")
    data = doc["data"]
    if not isinstance(data, dict) or set(data) not in ({"benchmark"}, {"files"}):
        raise ConfigError("data section must hold exactly one of 'benchmark' or 'files'")
    if "benchmark" in data:
        bench = data["benchmark"]
        _reject_unknown(bench, _BENCH_KEYS, "data.benchmark")
        if bench.get("name") not in ("oscillator", "nbody"):
            raise ConfigError("data.benchmark.name must be 'oscillator' or 'nbody'")
        _bench_spec_from_config(bench)
    else:
        files = data["files"]
        _reject_unknown(files, _FILE_KEYS, "data.files")
        for key in ("lf_outputs", "lf_params", "hf_outputs"):
            if key not in files:
                raise ConfigError(f"data.files needs '{key}'")

    kernels = []
    for name in _list_value(doc, "kernels", list(FAMILY_BY_NAME)):
        if name not in FAMILY_BY_NAME:
            raise ConfigError(f"unknown kernel family {name!r}")
        kernels.append(FAMILY_BY_NAME[name])
    if len(set(kernels)) != len(kernels):
        raise ConfigError("duplicate kernel families in library")
    if not kernels:
        raise ConfigError("kernel library must not be empty")

    modes = tuple(_list_value(doc, "modes", list(MODES)))
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}; choose from {list(MODES)}")
    if not modes or len(set(modes)) != len(modes):
        raise ConfigError("modes must be a non-empty list without duplicates")

    budgets = tuple(int(n) for n in _list_value(doc, "budgets", [4, 6, 8, 10, 12]))
    if not budgets or any(b < 1 for b in budgets):
        raise ConfigError("budgets must be positive integers")
    if list(budgets) != sorted(set(budgets)):
        raise ConfigError("budgets must be strictly ascending")

    pso = dict(doc.get("pso", {}))
    _reject_unknown(pso, _PSO_KEYS, "pso")
    try:
        PsoConfig(**pso)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid pso settings: {exc}") from exc

    lam = float(doc.get("lambda", 0.1))
    if not math.isfinite(lam) or lam < 0:
        raise ConfigError("lambda must be finite and non-negative")
    rcond = float(doc.get("rcond", 1e-12))
    if not math.isfinite(rcond) or rcond < 0:
        raise ConfigError("rcond must be finite and non-negative")
    one_hf = doc.get("one_hf_cost")
    if one_hf is not None:
        one_hf = float(one_hf)
        if one_hf <= 0:
            raise ConfigError("one_hf_cost must be positive")
    opt_cost = float(doc.get("objective_eval_cost", 0.0))
    if opt_cost < 0:
        raise ConfigError("objective_eval_cost must be non-negative")
    grid = doc.get("lambda_grid")
    if grid is not None:
        grid = tuple(float(v) for v in _list_value(doc, "lambda_grid", []))
        if not grid or any(v < 0 or not math.isfinite(v) for v in grid):
            raise ConfigError("lambda_grid must be non-empty, finite, non-negative")

    return ExperimentConfig(
        data=data,
        kernels=tuple(kernels),
        lam=lam,
        rcond=rcond,
        pso=pso,
        modes=modes,
        budgets=budgets,
        seed=int(doc.get("seed", 0)),
        out_dir=str(doc.get("out_dir", "results")),
        one_hf_cost=one_hf,
        objective_eval_cost=opt_cost,
        lambda_grid=grid,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    try:
        return parse_config(doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


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


def _bench_spec_from_config(bench: dict) -> BenchmarkSpec:
    """The spec a benchmark section describes; a bad value is a ConfigError."""
    try:
        spec = default_spec(bench["name"], seed=int(bench.get("seed", 0)))
        grid = spec.grid
        if "grid" in bench:
            try:
                grid = tuple((str(g[0]), float(g[1]), float(g[2]), int(g[3])) for g in bench["grid"])
            except (TypeError, ValueError, IndexError) as exc:
                raise ConfigError(f"grid axes must be [name, lo, hi, count] lists: {exc}") from exc
        for fidelity, defaults in (("lf", spec.lf_settings), ("hf", spec.hf_settings)):
            _reject_unknown(bench.get(fidelity, {}), set(defaults), f"data.benchmark.{fidelity}")
        lf = {**spec.lf_settings, **bench.get("lf", {})}
        hf = {**spec.hf_settings, **bench.get("hf", {})}
        return BenchmarkSpec(name=spec.name, grid=grid, lf_settings=lf, hf_settings=hf, seed=spec.seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"data.benchmark: {exc}") from exc


def load_data(cfg: ExperimentConfig, header: bool = False) -> tuple[SnapshotEnsemble, SnapshotEnsemble]:
    if "benchmark" in cfg.data:
        try:
            return generate(_bench_spec_from_config(cfg.data["benchmark"]))
        except ArithmeticError as exc:
            raise NumericsError(str(exc)) from exc
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
    if "costs" in files:
        costs = read_matrix_csv(files["costs"], header)
        if costs.shape != (2, N):
            raise DataError(f"costs must be a 2x{N} matrix (LF row, HF row)")
        lf_cost, hf_cost = costs[0], costs[1]
    else:
        lf_cost = np.ones(N)
        hf_cost = np.ones(N)
    try:
        lf = SnapshotEnsemble(outputs=lf_out, params=params, per_sample_cost=lf_cost)
        hf = SnapshotEnsemble(outputs=hf_out, params=params, per_sample_cost=hf_cost)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    return lf, hf


# === experiment orchestration ===


class _TracingProvider:
    """Index -> HF column callback that logs and counts every access."""

    def __init__(self, hf: SnapshotEnsemble, cell: str, sink: list):
        self._hf = hf
        self._cell = cell
        self._sink = sink
        self.count = 0

    def __call__(self, index: int) -> np.ndarray:
        if not 0 <= index < self._hf.n_samples:
            raise DataError(
                f"high-fidelity column missing for sample index {index} "
                f"(have {self._hf.n_samples})"
            )
        self._sink.append(("hf_access", self._cell, int(index)))
        self.count += 1
        return self._hf.column(index)


@dataclass
class RunResult:
    rows: list
    qoi_labels: tuple[str, ...]
    selection_doc: dict
    archives: dict
    trace: list


def _child_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed & 0x7FFFFFFFFFFFFFFF, tag]).generate_state(1, np.uint64)[0])


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

    High-fidelity data is only reached through tracing providers during
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
    hyper_evals = 0
    adaptive_reports: dict[int, SelectionReport] = {}
    if "adaptive" in cfg.modes:
        for fam in cfg.kernels:
            obj_cfg = ObjectiveConfig(lam=cfg.lam, family=fam, bounds=default_bounds(fam, lf))
            pso_cfg = PsoConfig(**cfg.pso, seed=_child_seed(cfg.seed, int(fam)))
            optimized.append(optimize_hyperparams(fam, lf, obj_cfg, pso_cfg))
        hyper_evals = sum(ok.evaluations_used for ok in optimized)
        for n in cfg.budgets:
            adaptive_reports[n] = adaptive_select(optimized, lf, n, cfg.rcond)

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

    def run_cell(mode: str, n: int):
        local: list = []
        provider = _TracingProvider(hf, cell=f"{mode}:{n}", sink=local)
        surr, ledger = build_surrogate(
            lf,
            cell_kernel(mode, n),
            n,
            provider,
            cfg.rcond,
            kernel_opt_cost=mode_cost[mode],
            one_hf_cost=one_hf,
        )
        if provider.count != n:
            raise RuntimeError(f"provider drew {provider.count} columns, expected {n}")
        err = median_relative_error(surr, hf, lf)
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

    cells = [(mode, n) for mode in cfg.modes for n in cfg.budgets]
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


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = ExperimentConfig(**{**cfg.__dict__, "seed": args.seed})
    out_dir = Path(args.out if args.out is not None else cfg.out_dir)
    result = run_experiment(cfg, parallel=args.parallel, header=args.header)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(out_dir / "results.csv", result)
    with open(out_dir / "selection.json", "w", encoding="ascii") as fh:
        json.dump(result.selection_doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    surr_dir = out_dir / "surrogates"
    surr_dir.mkdir(exist_ok=True)
    for cell, archive in result.archives.items():
        name = cell.replace(":", "_") + ".json"
        with open(surr_dir / name, "w", encoding="ascii") as fh:
            json.dump(archive, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"wrote {out_dir / 'results.csv'} ({len(result.rows)} rows)")
    return 0


def cmd_gen(args) -> int:
    overrides = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {args.config}: {exc}") from exc
        _reject_unknown(overrides, _BENCH_KEYS - {"name"}, "gen config")
    bench = {"name": args.benchmark, **overrides}
    if args.seed is not None:
        bench["seed"] = args.seed
    try:
        spec = _bench_spec_from_config(bench)
        lf, hf = generate(spec)
    except ArithmeticError as exc:
        raise NumericsError(str(exc)) from exc
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
    with open(out_dir / "meta.json", "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {spec.n_samples} samples to {out_dir}")
    return 0


def cmd_tune_lambda(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = ExperimentConfig(**{**cfg.__dict__, "seed": args.seed})
    grid = cfg.lambda_grid
    if grid is None:
        grid = tuple(float(v) for v in np.logspace(-2, 0, 5))
    scores = []
    for lam in grid:
        sub = ExperimentConfig(**{**cfg.__dict__, "lam": lam})
        result = run_experiment(sub, parallel=args.parallel, header=args.header)
        errs = [r["median_rel_error"] for r in result.rows if math.isfinite(r["median_rel_error"])]
        score = float(np.mean(errs)) if errs else math.inf
        scores.append((lam, score))
    best_lam, best_score = min(scores, key=lambda t: t[1])
    ties = sum(score == best_score for _, score in scores)
    out_dir = Path(args.out if args.out is not None else cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["lambda,mean_median_rel_error"]
    lines += [f"{_fmt(lam)},{_fmt(score)}" for lam, score in scores]
    (out_dir / "tune_lambda.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    note = f"; {ties} of {len(scores)} lambdas tie, first kept" if ties > 1 else ""
    print(f"best lambda: {_fmt(best_lam)} (mean median relative error {_fmt(best_score)}{note})")
    return 0


def cmd_eval(args) -> int:
    try:
        surr = load_surrogate(args.archive)
    except FileNotFoundError as exc:
        raise DataError(f"archive not found: {args.archive}") from exc
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
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

    tune = sub.add_parser("tune-lambda", help="sweep lambda over a grid")
    tune.add_argument("--config", required=True)
    tune.add_argument("--out", default=None)
    tune.add_argument("--seed", type=int, default=None)
    tune.add_argument("--parallel", action="store_true")
    tune.add_argument("--header", action="store_true")
    tune.set_defaults(func=cmd_tune_lambda)

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
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericsError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
