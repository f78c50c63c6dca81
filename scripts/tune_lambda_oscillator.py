#!/usr/bin/env python3
"""Sweep the objective's lambda on the oscillator and report the best value.

Runs adaptive mode only, since the linear baseline does not depend on
lambda, and scores each lambda by the mean of the finite per-cell median
relative errors; the sweep table lands in <out>/tune_lambda.csv.
"""
import argparse
import json
import sys
from pathlib import Path

from bifidelity.cli import main as cli_main


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default="results/tune_lambda")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budgets", type=int, nargs="+", default=[4, 8, 12])
    p.add_argument(
        "--grid",
        type=float,
        nargs="+",
        default=None,
        help="lambda values to try (default: 5 points log-spaced over [0.01, 1])",
    )
    p.add_argument("--parallel", action="store_true")
    return p.parse_args()


def main():
    args = parse_args()
    doc = {
        "data": {
            "benchmark": {
                "name": "oscillator",
                "grid": [["omega", 1.0, 1.2, 2], ["gamma", 0.05, 0.5, 57]],
            }
        },
        "modes": ["adaptive"],
        "seed": args.seed,
        "budgets": args.budgets,
        "out_dir": args.out,
    }
    if args.grid is not None:
        doc["lambda_grid"] = args.grid
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")
    argv = ["tune-lambda", "--config", str(cfg_path)]
    if args.parallel:
        argv.append("--parallel")
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
