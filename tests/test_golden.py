"""Golden outputs: results.csv, selection.json and every archive of six
configs, and the CSV files ``bifidelity gen`` writes for the one that
reads files, byte for byte, against the SHA-256 digests in
``golden/digests.json``; and, first, the decisions those files record
against the ledger ``golden/decisions.json``.

Each run is ``bifidelity run`` in a subprocess with a fixed BLAS thread
count, after the ``bifidelity gen`` runs whose files its config reads.
The ledger holds, per config, each tuned family's h and objective value,
each cell's pivots, each budget's scores and chosen family, and each
results.csv error, floats written with ``float.hex``. A moved decision
fails naming it, as ``config / path: old → new (relative difference)``.
A change that moves output bytes on purpose records both files again in
the same commit:

    python tests/test_golden.py

which prints each decision it moves in that form, then each config/file
whose digest it changes.
"""
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
DECISIONS = GOLDEN.with_name("decisions.json")

# name -> config: a path under configs/, or the document itself
CONFIGS = {
    "osc-default": "oscillator.json",
    "osc-narrow": "oscillator-narrow.json",
    "nbody-default": "nbody.json",
    # N = 2000, the linear baseline only: no tuning or selection
    "osc-wide-baseline": {
        "data": {"benchmark": {"name": "oscillator",
                               "grid": [["omega", 1.0, 5.0, 40], ["gamma", 0.05, 0.5, 50]],
                               "hf": {"dt": 0.01}}},
        "modes": ["linear-baseline"],
        "budgets": [8, 16, 32, 64],
    },
    # N = 500, tuned: the bracket pad, the pivot plans and threaded LAPACK act
    # above N = 114
    "osc-500": {
        "data": {"benchmark": {"name": "oscillator",
                               "grid": [["omega", 1.0, 5.0, 20], ["gamma", 0.05, 0.5, 25]],
                               "hf": {"dt": 0.01}}},
        "modes": ["linear-baseline", "adaptive"],
        "budgets": [8, 16, 32, 64],
    },
    # N = 114 with LF dimension 22, the oscillator's coarse trajectory: the
    # paper's regime of many LF QoIs, read through data.files
    "osc-traj-lf": "oscillator-trajectory-lf.json",
}
# name -> the `bifidelity gen` arguments that write the files its config
# reads, relative to the run's working directory
GEN = {
    "osc-traj-lf": [
        ["oscillator", "--config", str(ROOT / "configs" / "gen" / "oscillator-trajectory-20.json"),
         "--out", "bench_data/oscillator-trajectory-lf/lf"],
        ["oscillator", "--out", "bench_data/oscillator-trajectory-lf/hf"],
    ],
}
# the configs of N <= 114, where no BLAS call sets an output value; at
# N = 500 the linear objective_value moves by an ulp at two threads
SMALL = ("osc-default", "osc-narrow", "nbody-default", "osc-traj-lf")


def build() -> dict:
    """The numpy version and BLAS build the digests hold under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration')})",
    }


def sha256_files(root: Path, prefix: str = "") -> dict:
    """{prefix + relative path: sha256} for every file under ``root``."""
    return {
        prefix + path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def run(names, threads: int, work: Path) -> None:
    """Run each config at ``threads`` BLAS threads, its output in ``work / name``.

    The ``GEN`` runs go first, one after another, in ``work``. Then the
    runs start together, each in its own interpreter in ``work``.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": str(threads),
           "OMP_NUM_THREADS": str(threads)}
    for name in names:
        for args in GEN.get(name, []):
            subprocess.run([sys.executable, "-m", "bifidelity", "gen", *args], cwd=work, env=env,
                           stdout=subprocess.DEVNULL, check=True)
    procs = {}
    for name in names:
        config = CONFIGS[name]
        if isinstance(config, dict):
            path = work / f"{name}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
        else:
            path = ROOT / "configs" / config
        args = ["run", "--config", str(path), "--out", str(work / name)]
        procs[name] = subprocess.Popen([sys.executable, "-m", "bifidelity", *args], cwd=work, env=env,
                                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for name, proc in procs.items():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"{name}: {err}"


def digests(name: str, work: Path) -> dict:
    """{file: sha256} for every file under the run's output directory, keyed
    by its relative path; the files the config's ``GEN`` runs wrote are
    hashed under ``gen/``."""
    out = sha256_files(work / name)
    for args in GEN.get(name, []):
        out.update(sha256_files(work / args[-1], f"gen/{Path(args[-1]).name}/"))
    return out


def decisions(out: Path) -> dict:
    """{path: value} of the decisions the output files in ``out`` record,
    each path naming its file and the value in it; floats are ``float.hex``
    strings, so that the ledger holds every bit."""
    doc = json.loads((out / "selection.json").read_text(encoding="ascii"))
    ledger = {}
    for hyper in doc["hyperparameters"]:
        where = f"selection.json/hyperparameters/{hyper['family']}"
        for i, h in enumerate(hyper["h"]):
            ledger[f"{where}/h/{i}"] = float.hex(h)
        ledger[f"{where}/objective_value"] = float.hex(hyper["objective_value"])
    for n, report in doc.get("adaptive", {}).items():
        for family, eps in report["per_kernel_epsilon"].items():
            ledger[f"selection.json/adaptive/{n}/per_kernel_epsilon/{family}"] = float.hex(eps)
        ledger[f"selection.json/adaptive/{n}/chosen_family"] = report["chosen_family"]
    for path in sorted((out / "surrogates").glob("*.json")):
        ledger[f"surrogates/{path.name}/pivots"] = json.loads(path.read_text(encoding="ascii"))["pivots"]
    with open(out / "results.csv", encoding="ascii", newline="") as fh:
        for row in csv.DictReader(fh):
            for col in row:
                if col == "median_rel_error" or col.startswith("error_"):
                    ledger[f"results.csv/{row['mode']}:{row['n']}/{col}"] = float.hex(float(row[col]))
    return ledger


def _relative(old, new) -> str:
    """|new - old| / |old| for two ``float.hex`` strings; "-" for other values."""
    try:
        a, b = float.fromhex(old), float.fromhex(new)
    except (TypeError, ValueError):
        return "-"
    return f"{abs(b - a) / abs(a):.2e}" if a and math.isfinite(a) else "-"


def moved_values(old: dict, new: dict) -> list[str]:
    """Each decision that differs between ledgers ``old`` and ``new``, as
    ``config / path: old → new (relative difference)``."""
    missing = "(none)"
    return [
        f"{name} / {path}: {was} → {now} ({_relative(was, now)})"
        for name in new
        for path in sorted(set(old.get(name, {})) | set(new[name]))
        if (was := old.get(name, {}).get(path, missing)) != (now := new[name].get(path, missing))
    ]


def moved(old: dict, new: dict) -> list[str]:
    """Each file, as config/file, whose digest differs between ``old`` and ``new``."""
    return [
        f"{name}/{file}"
        for name in new
        for file in sorted(set(old.get(name, {})) | set(new[name]))
        if old.get(name, {}).get(file) != new[name].get(file)
    ]


def check(names, threads: int, work: Path) -> None:
    """Fails naming each decision that moved from the ledger, then each
    file, as config/file, whose bytes differ from the golden digests."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    ledger = json.loads(DECISIONS.read_text(encoding="utf-8"))
    run(names, threads, work)
    recorded = {key: golden[key] for key in build()}
    note = "" if recorded == build() else f"; recorded under {recorded}, running {build()}"
    values = moved_values({name: ledger[name] for name in names},
                          {name: decisions(work / name) for name in names})
    assert values == [], f"decisions moved at {threads} BLAS thread(s){note}:\n" + "\n".join(values)
    files = moved(golden["digests"], {name: digests(name, work) for name in names})
    assert files == [], f"outputs moved at {threads} BLAS thread(s): {files}{note}"


def test_outputs_match_the_golden_digests_at_one_blas_thread(tmp_path):
    check(list(CONFIGS), 1, tmp_path)


def test_small_outputs_match_the_golden_digests_at_two_blas_threads(tmp_path):
    check(SMALL, 2, tmp_path)


if __name__ == "__main__":
    import tempfile

    def recorded(path: Path) -> dict:
        return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}

    old_digests, old_ledger = recorded(GOLDEN).get("digests", {}), recorded(DECISIONS)
    with tempfile.TemporaryDirectory() as work:
        run(list(CONFIGS), 1, Path(work))
        doc = {**build(), "threads": 1, "digests": {name: digests(name, Path(work)) for name in CONFIGS}}
        ledger = {name: decisions(Path(work) / name) for name in CONFIGS}
    for line in moved_values(old_ledger, ledger) + moved(old_digests, doc["digests"]):
        print(line)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    DECISIONS.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8")
