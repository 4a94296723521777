"""The package's module-level imports form no cycle, one function alone
imports a package module when it is called, and importing the package or
its CLI loads no scipy module.

For the cycle check only statements at the top of a module count
(`from .x import ...` and `from . import x`); an import inside a function
runs at call time and is checked on its own.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dplqr"


def _module_imports(source):
    """Sibling modules that a module imports at module level."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module)
            else:
                found.update(alias.name for alias in node.names)
    return found


def _graph():
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    return {name: _module_imports(source) & modules.keys()
            for name, source in modules.items()}


def _cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(name, path):
        state[name] = "open"
        for target in sorted(graph[name]):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                found = visit(target, path + [target])
                if found:
                    return found
        state[name] = "done"
        return None

    for name in sorted(graph):
        if name not in state:
            found = visit(name, [name])
            if found:
                return found
    return None


def test_graph_covers_the_package():
    graph = _graph()
    assert {"cli", "model", "optimizer", "network"} <= graph.keys()
    assert "network" in graph["optimizer"]  # `from . import network as net`
    assert "optimizer" in graph["model"]


def test_cycle_finder_sees_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None


def test_no_module_level_cycle():
    cycle = _cycle(_graph())
    assert cycle is None, "import cycle: " + " -> ".join(cycle or [])


def _function_imports():
    """(module, function, statement) of every package import made inside
    a function body, filed under the innermost function."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk meets an outer function before the ones inside it
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    targets = ["." * node.level + (node.module or "")]
                elif isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                else:
                    continue
                if any(t.startswith(".") or t.split(".")[0] == "dplqr"
                       for t in targets):
                    found[id(node)] = (path.stem, func.name, ast.unparse(node))
    return sorted(found.values())


def test_only_tune_imports_inside_a_function():
    # tune's lazy import of model.fit_stack is the one cycle left; it
    # needs nothing else from model
    assert _function_imports() == [
        ("optimizer", "tune", "from .model import fit_stack, residuals")]


# `predict` calls nothing from scipy, so neither import may load it; the
# functions that need scipy import it when they are called.
_SCIPY_PROBE = """
import sys
import {module}
import dplqr
missing = [name for name in dplqr.__all__ if not hasattr(dplqr, name)]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(missing, scipy)
"""


@pytest.mark.parametrize("module", ["dplqr", "dplqr.cli"])
def test_import_loads_no_scipy(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE.format(module=module)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[] []"
