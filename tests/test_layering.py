"""Module layering: data, kernels and numerics stand alone, and the
benchmark generators need only the data layer."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bifidelity"


def package_imports(module: str) -> set[str]:
    """The sibling modules of the package that ``module`` imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != "bifidelity" and not name.startswith("bifidelity."):
                    continue
                name = name.partition(".")[2]
            # "from . import x" and "from bifidelity import x" import modules by name
            found.update([name.split(".")[0]] if name else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "bifidelity":
                    found.add(parts[1] if len(parts) > 1 else "bifidelity")
    return found


def test_import_scanner_sees_relative_imports():
    assert {"bench", "data", "hyperopt", "kernels"} <= package_imports("cli")


LOWER_LAYERS = {"data": set(), "kernels": set(), "numerics": set(), "bench": {"data"}}


@pytest.mark.parametrize("module", sorted(LOWER_LAYERS))
def test_module_imports_only_its_lower_layers(module):
    assert package_imports(module) == LOWER_LAYERS[module]
