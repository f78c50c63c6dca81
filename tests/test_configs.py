"""The committed run configs under configs/ pass the CLI's config check."""
from pathlib import Path

import pytest

from bifidelity import cli

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_committed_config_loads(path):
    cli.load_config(path)
