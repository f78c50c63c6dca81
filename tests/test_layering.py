"""Module layering: the package root imports nothing, data, kernels and
numerics stand alone, the benchmark generators need only the data layer,
tuning and the surrogate sit on those three, selection on them and the
surrogate, each private name imported across modules is one the table
below lists, the command line loads no scipy, a tuned run loads
neither numpy.random nor numpy.ma, nor argparse or concurrent.futures,
only the run forms pivot plans, and every def in the package but the
listed ones runs in some command."""
import ast
import json
import subprocess
import sys
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


LOWER_LAYERS = {
    "__init__": set(),
    "data": set(),
    "kernels": set(),
    "numerics": set(),
    "bench": {"data"},
    "hyperopt": {"data", "kernels", "numerics"},
    "surrogate": {"data", "kernels", "numerics"},
    "selection": {"data", "kernels", "numerics", "surrogate"},
}


@pytest.mark.parametrize("module", sorted(LOWER_LAYERS))
def test_module_imports_only_its_lower_layers(module):
    assert package_imports(module) == LOWER_LAYERS[module]


def private_imports(module: str) -> set[str]:
    """``sibling._name`` for each private name that ``module`` imports from a sibling module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0:
            if not source.startswith("bifidelity."):
                continue
            source = source.partition(".")[2]
        found.update(f"{source}.{alias.name}" for alias in node.names
                     if alias.name.startswith("_") and not alias.name.startswith("__"))
    return found


# every private name one module imports from another; any other is a failure
PRIVATE_IMPORTS = {
    "bench": {"data._BLOCK_DOUBLES"},
    "hyperopt": {"data._BLOCK_DOUBLES", "kernels._distances", "kernels._kernel_block", "kernels._kernel_diagonal"},
    "surrogate": {"kernels._kernel_block", "kernels._kernel_diagonal"},
    "selection": set(),
}


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_private_imports_are_the_listed_ones(module):
    assert private_imports(module) == PRIVATE_IMPORTS.get(module, set())


def test_cli_loads_no_scipy():
    # a fresh interpreter, so modules other tests imported do not count
    code = (
        "import json, sys; import bifidelity.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert json.loads(out) == []


def test_tuned_run_loads_neither_numpy_random_nor_numpy_ma():
    # the swarm's draws and seeds are computed, and the median partitions;
    # either module, imported again, costs megabytes in every run. Nor
    # does a serial run load the command line's argparse or the thread
    # pool of --parallel
    doc = {
        "data": {"benchmark": {"name": "oscillator", "grid": [["omega", 1.0, 5.0, 3], ["gamma", 0.05, 0.5, 5]],
                               "hf": {"dt": 0.01, "trajectory_points": 20}}},
        "kernels": ["linear", "squared_exponential", "rational_quadratic"],
        "pso": {"swarm_size": 4, "max_iters": 20, "stall_iters": 20},
        "budgets": [2, 3],
    }
    code = (
        "import json, sys; from bifidelity.cli import parse_config, run_experiment; "
        f"run_experiment(parse_config({doc!r})); "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[:2] in (['numpy', 'random'], ['numpy', 'ma'])"
        " or m.split('.')[0] in ('argparse', 'concurrent'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert json.loads(out) == []


class _Scanner(ast.NodeVisitor):
    """``module.Class.function`` for each node that ``matches``, one entry per node."""

    def __init__(self, module: str, matches):
        self.scope, self.matches, self.found = [module], matches, []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def generic_visit(self, node):
        if self.matches(node):
            self.found.append(".".join(self.scope))
        super().generic_visit(node)


def _bool_test(node) -> bool:
    """An ``isinstance(x, bool)`` call, ``bool`` alone or in a tuple."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
            and len(node.args) == 2 and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1])))


def _key_difference(node) -> bool:
    """``set(...) - x``: the keys of a document that another set leaves over."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name) and node.left.func.id == "set")


def _pivot_plan_call(node) -> bool:
    """A call of ``pivot_plan``, by its bare name or as an attribute."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "pivot_plan"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "pivot_plan")


def scan_package(matches) -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        scanner = _Scanner(path.stem, matches)
        scanner.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += scanner.found
    return found


def scan_source(source: str, matches) -> list[str]:
    scanner = _Scanner("probe", matches)
    scanner.visit(ast.parse(source))
    return scanner.found


def test_one_function_decides_what_a_number_is():
    # a bool is an int to Python; only data.checked_number may tell them
    # apart, so every setting and archive field follows one number rule
    assert scan_package(_bool_test) == ["data.checked_number"]
    probe = "lambda v: isinstance(v, (int, bool))\ndef f(v):\n    return isinstance(v, bool)"
    assert scan_source(probe, _bool_test) == ["probe", "probe.f"]


def test_one_function_decides_which_keys_a_document_may_hold():
    # every config section, benchmark setting and archive level names its
    # unknown keys through data.checked_object, in one wording
    assert scan_package(_key_difference) == ["data.checked_object"]
    probe = "class C:\n    def f(self, d):\n        return set(d) - {'a'}\nset(x) - set(y)\n{1} - set(y)"
    assert scan_source(probe, _key_difference) == ["probe.C.f", "probe"]


def test_only_the_run_forms_pivot_plans():
    # builds and selection take the plans run_experiment forms, one per
    # family to the largest budget, so no other function decides pivots
    assert scan_package(_pivot_plan_call) == ["cli.run_experiment"]
    probe = ("def f(lf, k):\n    return pivot_plan(lf, k, 3)\n"
             "class C:\n    def g(self, lf, k):\n        return surrogate.pivot_plan(lf, k, 2)\n"
             "plan = pivot_plan\n")
    assert scan_source(probe, _pivot_plan_call) == ["probe.f", "probe.C.g"]


def package_defs() -> dict[tuple[Path, int], str]:
    """(file, first line) -> ``module.Class.function`` for every def in the
    package. A decorated def's code object starts at its first decorator
    (``co_firstlineno``), and so does its key."""
    defs = {}

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    defs[path, (child.decorator_list or [child])[0].lineno] = name
            visit(child, name, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)
    return defs


def traced_calls(commands) -> set[tuple[Path, int]]:
    """(file, first line) of every function that runs while ``cli.main``
    runs each argument list of ``commands``, each exiting 0."""
    from bifidelity import cli

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(before)
    assert codes == [0] * len(commands)
    return {(Path(name).resolve(), line) for name, line in seen}


# defs no command calls: the frozen benchmark's child process binds
# refine_local and _fd_gradient by name, and HfProviderError is raised
# only when a provider fails
UNCALLED = {"hyperopt.refine_local", "hyperopt._fd_gradient", "surrogate.HfProviderError.__init__"}


def test_every_def_in_the_package_runs_in_some_command(tmp_path):
    # a tuned run of both modes (the benchmark's smoke config), gen on both
    # benchmarks and eval of one of the run's archives; a def that none of
    # them calls is dead code
    config = tmp_path / "smoke.json"
    config.write_text(json.dumps({
        "data": {"benchmark": {"name": "oscillator", "grid": [["omega", 1.0, 5.0, 3], ["gamma", 0.05, 0.5, 5]],
                               "hf": {"dt": 0.01, "trajectory_points": 20}}},
        "kernels": ["linear", "squared_exponential", "matern32"],
        "pso": {"swarm_size": 4, "max_iters": 3, "stall_iters": 2},
        "budgets": [2, 3],
    }), encoding="utf-8")
    nbody = tmp_path / "nbody.json"
    nbody.write_text(json.dumps({"grid": [["m_total", 50.0, 500.0, 2], ["rotation", 0.0, 0.9, 2]],
                                 "lf": {"bodies": 4, "horizon": 0.1}, "hf": {"bodies": 8, "horizon": 0.1}}),
                     encoding="utf-8")
    column = tmp_path / "column.csv"
    column.write_text("0.5\n0.7\n", encoding="utf-8")
    out = tmp_path / "out"
    called = traced_calls([
        ["run", "--config", str(config), "--out", str(out)],
        ["gen", "nbody", "--config", str(nbody), "--out", str(tmp_path / "nbody")],
        ["gen", "oscillator", "--out", str(tmp_path / "oscillator")],
        ["eval", str(out / "surrogates" / "adaptive_3.json"), str(column)],
    ])
    defs = package_defs()
    assert sorted(name for key, name in defs.items() if key not in called) == sorted(UNCALLED)
