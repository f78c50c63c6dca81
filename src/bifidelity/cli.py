"""Command line driver for bi-fidelity surrogate experiments.

Commands
--------
run   kernel selection + surrogate builds over a mode/budget matrix
gen   dump a benchmark ensemble pair to CSV files
eval  load a surrogate archive, emulate one low-fidelity column

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Matrix CSV files are headerless; outputs use shortest
round-trip float printing, so reruns with the same config and seed are
byte identical, with or without --parallel.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .bench import BenchmarkSpec, default_spec, generate
from .data import SnapshotEnsemble, checked_kind, checked_number, checked_object
from .hyperopt import (
    ObjectiveConfig,
    OptimizedKernel,
    PsoConfig,
    TuningTable,
    default_bounds,
    optimize_hyperparams,
)
from .kernels import KernelFamily, KernelSpec
from .numerics import NumericsError
from .selection import SelectionReport, adaptive_select
from .surrogate import (
    CostLedger,
    HfProviderError,
    build_surrogate,
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
    pso: PsoConfig
    modes: tuple[str, ...]
    budgets: tuple[int, ...]
    seed: int
    out_dir: str
    one_hf_cost: float | None
    objective_eval_cost: float


_REQUIRED = object()

# One declaration per key: (kind, default, range). A kind is a JSON kind
# (str or dict), "number" or "integer" (what ``checked_number`` accepts, a
# number read as a float), "axis" (a [name, lo, hi, count] list), or a
# one-item list [kind]: a non-empty list whose items have that kind and the
# range. null is accepted only where the default is null. A kind of None
# leaves the value to the type that holds it: so do the pso settings
# (PsoConfig) and the benchmark's seed, grid values and LF/HF settings
# (BenchmarkSpec).
_CONFIG = {
    "data": (dict, _REQUIRED, None),
    "kernels": ([str], list(FAMILY_BY_NAME), None),
    "lambda": ("number", 0.1, "non-negative"),
    "rcond": ("number", 1e-12, "non-negative"),
    "pso": (dict, {}, None),
    "modes": ([str], list(MODES), None),
    "budgets": (["integer"], [4, 6, 8, 10, 12], "positive"),
    "seed": ("integer", 0, "non-negative"),
    "out_dir": (str, "results", None),
    "one_hf_cost": ("number", None, "positive"),  # null: the mean HF per-sample cost
    "objective_eval_cost": ("number", 0.0, "non-negative"),
}
_BENCHMARK = {
    "name": (str, _REQUIRED, None),
    "seed": (None, 0, None),
    "grid": (["axis"], None, None),  # null: the benchmark's own grid
    "lf": (None, {}, None),
    "hf": (None, {}, None),
}
_FILES = {
    "lf_outputs": (str, _REQUIRED, None),
    "lf_params": (str, _REQUIRED, None),
    "hf_outputs": (str, _REQUIRED, None),
    "costs": (str, None, None),  # null: unit costs
}
_RANGES = {"positive": lambda v: v > 0, "non-negative": lambda v: v >= 0}


def _checked(check, *args):
    """``check(*args)``, a ``data`` rule; its ValueError is a ConfigError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _value(value, kind, rng, where: str):
    """``value`` if it is of ``kind`` and in ``rng``; else a ConfigError naming ``where``."""
    if kind is None:
        return value
    if isinstance(kind, list):
        if not _checked(checked_kind, value, list, where):
            raise ConfigError(f"{where} must not be empty")
        return tuple(_value(item, kind[0], rng, where) for item in value)
    if kind == "axis":
        if len(_checked(checked_kind, value, list, where)) != 4:
            raise ConfigError(f"{where} axes must be [name, lo, hi, count] lists, got {value!r}")
        _checked(checked_kind, value[0], str, f"{where} axis name")
        return tuple(value)
    if kind in ("number", "integer"):
        value = _checked(checked_number, value, where, kind == "integer")
    else:
        value = _checked(checked_kind, value, kind, where)
    if rng is not None and not _RANGES[rng](value):
        raise ConfigError(f"{where} must be {rng}, got {value!r}")
    return value


def _section(doc, table: dict, where: str) -> dict:
    """Every declared value of section ``doc``, defaults filled in."""
    name = where or "config"
    _checked(checked_object, doc, table, name)
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
    data = _checked(checked_object, top["data"], ("benchmark", "files"), "data")
    if len(data) != 1:
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
    # each family's swarm takes its seed from the run's, so seed is no pso key
    pso_keys = [f.name for f in fields(PsoConfig) if f.name != "seed"]
    try:
        top["pso"] = PsoConfig(**_checked(checked_object, top["pso"], pso_keys, "pso"))
    except ValueError as exc:
        raise ConfigError(f"pso: {exc}") from exc
    # the fields are the keys, with lambda as lam
    top["kernels"] = tuple(FAMILY_BY_NAME[name] for name in top["kernels"])
    top["lam"] = top.pop("lambda")
    return ExperimentConfig(**top)


def _read_text(path, what: str, error, encoding: str = "utf-8") -> str:
    """The text of input file ``path``; else an ``error`` naming ``what``:
    "<what> not found: <path>", or "unreadable <what> <path>: ..." for a
    directory, a file without read permission or bytes not in ``encoding``."""
    try:
        return Path(path).read_text(encoding=encoding)
    except FileNotFoundError as exc:
        raise error(f"{what} not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"unreadable {what} {path}: {exc}") from exc


def _read_json(path):
    text = _read_text(path, "config file", ConfigError)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    """The config file at ``path``, validated; ``seed``, where given, replaces its ``seed`` key."""
    doc = _read_json(path)
    return parse_config(doc if seed is None else {**_checked(checked_kind, doc, dict, "config"), "seed": seed})


# === CSV matrices ===


def _fmt(x) -> str:
    return repr(float(x))


def write_matrix_csv(path, arr) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    lines = [",".join(_fmt(v) for v in row) for row in arr]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_matrix_csv(path) -> np.ndarray:
    text = _read_text(path, "matrix file", DataError)
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
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
    """The spec a benchmark section describes; the spec's ValueError is a
    ConfigError naming section ``where``.

    The section's keys and its grid's shape are checked here; the seed,
    the grid values and the LF/HF settings are the spec's to check.
    """
    bench = _section(doc, _BENCHMARK, where)
    try:
        spec = default_spec(bench["name"], seed=bench["seed"])
        return replace(spec, grid=bench["grid"] or spec.grid, lf_settings=bench["lf"],
                       hf_settings=bench["hf"])
    except ValueError as exc:
        raise ConfigError(f"{where or 'benchmark'}: {exc}") from exc


def load_data(cfg: ExperimentConfig) -> tuple[SnapshotEnsemble, SnapshotEnsemble]:
    if "benchmark" in cfg.data:
        return generate(_bench_spec_from_config(cfg.data["benchmark"], "data.benchmark"))
    files = cfg.data["files"]
    lf_out = read_matrix_csv(files["lf_outputs"])
    params = read_matrix_csv(files["lf_params"])
    hf_out = read_matrix_csv(files["hf_outputs"])
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
        costs = read_matrix_csv(files["costs"])
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
    """Each result of a run, held once: the results.csv rows, the tuned
    kernels in config order, the selection report per budget, the archive
    per cell and the trace. selection.json is formed from them."""

    rows: list
    tuned: list[OptimizedKernel]
    reports: dict[int, SelectionReport]
    archives: dict
    trace: list

    @property
    def selection_doc(self) -> dict:
        """The content of selection.json."""
        doc: dict = {"hyperparameters": [
            {
                "family": ok.spec.family.name.lower(),
                "h": list(ok.spec.h),
                "objective_value": ok.objective_value,
                "evaluations_used": ok.evaluations_used,
                "distinct_evaluations": ok.distinct_evaluations,
            }
            for ok in self.tuned
        ]}
        if self.reports:
            doc["adaptive"] = {str(n): {
                "families": [f.name.lower() for f in rep.families],
                "chosen_family": rep.chosen_family.name.lower(),
                "per_kernel_epsilon": {
                    fam.name.lower(): eps for fam, eps in sorted(rep.per_kernel_epsilon.items())
                },
            } for n, rep in self.reports.items()}
        return doc


_MASK32 = 0xFFFFFFFF


def _child_seed(seed: int, tag: int) -> int:
    """``np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0]``, in pure Python.

    numpy's SeedSequence (after O'Neill's ``seed_seq``) takes each
    non-negative integer as its 32-bit words, least significant first (0
    is one word), hashes them into a pool of four words, mixes every pool
    word into every other, then mixes in each word past the fourth; the
    first two words it hashes out of the pool are the 64-bit result, low
    word first. All arithmetic is mod 2**32.
    """
    words = []
    for value in (seed, tag):
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, hash_b = [], 0x8B51F9DD
    for value in pool[:2]:
        value ^= hash_b
        hash_b = hash_b * 0x58F38DED & _MASK32
        value = value * hash_b & _MASK32
        out.append(value ^ value >> 16)
    return out[0] | out[1] << 32


def _kernel_label(kernel: KernelSpec) -> str:
    if kernel.h:
        return f"{kernel.family.name.lower()}(h={'|'.join(_fmt(v) for v in kernel.h)})"
    return kernel.family.name.lower()


def run_experiment(cfg: ExperimentConfig, parallel: bool = False) -> RunResult:
    """Selection first, then surrogate builds over the (mode, n) matrix.

    High-fidelity data is only reached through each cell's provider during
    the build phase, after every selection decision is already made; the
    returned trace records the phase marker and each draw.
    """
    lf, hf = load_data(cfg)
    N = lf.n_samples
    if any(b >= N for b in cfg.budgets):
        raise ConfigError(f"budgets must stay below the sample count {N}")
    one_hf = cfg.one_hf_cost if cfg.one_hf_cost is not None else float(np.mean(hf.per_sample_cost))

    trace: list = []
    tuned = []
    if "adaptive" in cfg.modes:
        table = TuningTable(lf.outputs)  # every family tunes on the same LF data
        for fam in cfg.kernels:
            obj_cfg = ObjectiveConfig(lam=cfg.lam, family=fam, bounds=default_bounds(fam, table.dbar))
            pso_cfg = replace(cfg.pso, seed=_child_seed(cfg.seed, int(fam)))
            tuned.append(optimize_hyperparams(fam, table, obj_cfg, pso_cfg))
        del table  # its packed triangles, before selection
    # one pivot plan per family, to the largest budget, for every budget:
    # the tuned kernels, which selection scores, and the baseline's (the
    # tuned linear kernel is the baseline's, as linear has no hyperparameter)
    kernels = [ok.spec for ok in tuned]
    if "linear-baseline" in cfg.modes:
        kernels.append(KernelSpec(family=KernelFamily.LINEAR))
    plans = {kernel.family: pivot_plan(lf, kernel, max(cfg.budgets)) for kernel in dict.fromkeys(kernels)}
    reports: dict[int, SelectionReport] = {}
    if "adaptive" in cfg.modes:
        tuned_plans = [plans[ok.spec.family] for ok in tuned]
        for n in cfg.budgets:
            reports[n] = adaptive_select(tuned_plans, lf, n, cfg.rcond)
    trace.append(("phase", "selection_complete"))

    opt_cost = sum(ok.evaluations_used for ok in tuned) * cfg.objective_eval_cost
    mode_cost = {"linear-baseline": 0.0, "adaptive": opt_cost}
    cells = []
    for mode in cfg.modes:
        for n in cfg.budgets:
            family = reports[n].chosen_family if mode == "adaptive" else KernelFamily.LINEAR
            cells.append((mode, n, plans[family]))
    hf.squared_norms  # before any cell starts, as every cell's error reads them

    def run_cell(mode: str, n: int, plan):
        local: list = []

        def provider(index: int) -> np.ndarray:
            local.append(("hf_access", f"{mode}:{n}", int(index)))
            return hf.column(index)

        surr = build_surrogate(lf, plan, n, provider, cfg.rcond)
        if len(local) != n:
            raise RuntimeError(f"provider drew {len(local)} columns, expected {n}")
        err = median_relative_error(surr, hf, lf)
        ledger = CostLedger(n, mode_cost[mode], one_hf)
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
        from concurrent.futures import ThreadPoolExecutor  # a serial run does without it

        with ThreadPoolExecutor() as pool:
            outcomes = list(pool.map(lambda c: run_cell(*c), cells))
    else:
        outcomes = [run_cell(*c) for c in cells]

    rows = []
    archives = {}
    for (mode, n, _), (row, archive, local) in zip(cells, outcomes):
        rows.append(row)
        archives[f"{mode}:{n}"] = archive
        trace.extend(local)
    return RunResult(rows=rows, tuned=tuned, reports=reports, archives=archives, trace=trace)


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
    # median_relative_error keys per_qoi by the HF labels, in their order
    qoi_labels = list(result.rows[0]["per_qoi"])
    cols += [f"error_{label}" for label in qoi_labels]
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
        cells += [_fmt(row["per_qoi"][label]) for label in qoi_labels]
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
    result = run_experiment(cfg, parallel=args.parallel)
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
    overrides = {} if args.config is None else _read_json(args.config)
    # the benchmark's name is the command's argument, so no key of the config
    keys = [key for key in _BENCHMARK if key != "name"]
    bench = {**_checked(checked_object, overrides, keys, "gen config"), "name": args.benchmark}
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
    text = _read_text(args.archive, "archive", DataError, encoding="ascii")
    try:
        surr = surrogate_from_dict(json.loads(text))
    except ValueError as exc:  # bad JSON or a malformed document
        raise DataError(f"unreadable archive {args.archive}: {exc}") from exc
    col = read_matrix_csv(args.lf_column)
    if 1 not in col.shape:
        raise DataError("lf column file must hold a single vector")
    col = col.ravel()
    try:
        pred = evaluate(surr, col)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    for v in pred:
        print(_fmt(v))
    return 0


def _build_parser():
    import argparse  # the command line's alone; run_experiment does without it

    parser = argparse.ArgumentParser(
        prog="bifidelity", description="Bi-fidelity surrogate experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the selection + build pipeline")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--parallel", action="store_true")
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
