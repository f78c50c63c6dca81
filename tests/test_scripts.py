"""The example scripts under scripts/ write configs the CLI accepts.

Each script's ``main()`` runs with its CLI entry point replaced by a stub
that only loads the written config, so a script that names a removed
mode or key fails here without running an experiment.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from bifidelity import cli

SCRIPTS = {
    "run_oscillator_experiment.py": "run",
    "run_nbody_experiment.py": "run",
    "tune_lambda_oscillator.py": "tune-lambda",
}
SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPT_DIR / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_writes_a_valid_config(name, tmp_path, monkeypatch):
    module = load_script(name)
    calls = []

    def cli_stub(argv):
        calls.append(argv)
        cli.load_config(argv[argv.index("--config") + 1])
        return 0

    out = tmp_path / "out"
    monkeypatch.setattr(module, "cli_main", cli_stub)
    monkeypatch.setattr(sys, "argv", [name, "--out", str(out)])
    assert module.main() == 0
    assert calls == [[SCRIPTS[name], "--config", str(out / "config.json")]]
