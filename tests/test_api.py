"""The top-level API covers every name the README and the demos import,
every submodule name the README gives exists, the README's Layout block
lists the package's modules, the report versions it states are the ones
written, and the quick demos run."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dplqr
from dplqr.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme,
                                         re.DOTALL)):
        yield f"README.md python block {k + 1}", block


SOURCES = list(_sources())


def test_sources_found():
    names = [name for name, _ in SOURCES]
    assert any(name.endswith(".py") for name in names)
    assert any(name.startswith("README.md") for name in names)


@pytest.mark.parametrize("name, source", SOURCES,
                         ids=[name for name, _ in SOURCES])
def test_top_level_imports_are_exported(name, source):
    imported = [alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "dplqr"
                for alias in node.names]
    missing = [n for n in imported if n not in dplqr.__all__]
    assert not missing, f"{name} imports {missing} not in dplqr.__all__"
    assert all(hasattr(dplqr, n) for n in dplqr.__all__)


README_NAMES = sorted(set(re.findall(
    r"`(dplqr\.\w+\.\w+)`",
    (ROOT / "README.md").read_text(encoding="utf-8"))))


def test_readme_names_found():
    assert "dplqr.model.predict_batch" in README_NAMES


@pytest.mark.parametrize("dotted", README_NAMES)
def test_readme_submodule_names_resolve(dotted):
    module, name = dotted.rsplit(".", 1)
    assert hasattr(importlib.import_module(module), name), (
        f"README.md names `{dotted}`, which does not exist")


def test_readme_layout_lists_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Layout\n\n```\n(.*?)```", readme, re.DOTALL)
    listed = sorted(re.findall(r"^  (\w+\.py) ", block.group(1), re.M))
    modules = sorted(path.name for path in (ROOT / "src" / "dplqr").glob("*.py")
                     if path.name != "__init__.py")
    assert listed == modules


def _stated_version(readme, pattern):
    found = re.findall(pattern + r" \(schema_version (\d+)\)", readme)
    assert len(found) == 1, f"README.md states {pattern!r} {len(found)} times"
    return int(found[0])


def test_readme_report_versions_are_the_written_ones(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rng = np.random.default_rng(0)
    xz = rng.normal(size=(60, 2))
    rows = [f"{a + b!r},{a!r},{b!r}" for a, b in xz.tolist()]
    (tmp_path / "d.csv").write_text("y,x1,z1\n" + "\n".join(rows) + "\n")
    short = ["--epochs", "2", "--minibatch", "16"]
    assert main(["fit", "--data", str(tmp_path / "d.csv"), "--y", "y",
                 "--x", "x1", "--z", "z1", "--out", str(tmp_path / "m.json"),
                 "--report", str(tmp_path / "fit.json")] + short) == 0
    assert main(["simulate", "--case", "1", "--n", "60", "--replicates",
                 "1", "--no-ci", "--out-dir", str(tmp_path / "sim")]
                + short) == 0
    written = {name: json.loads((tmp_path / path).read_text())
               ["schema_version"]
               for name, path in (("fit", "fit.json"),
                                  ("simulate", "sim/report.json"))}
    assert written == {
        "fit": _stated_version(readme, r"`--report` writes a JSON report"),
        "simulate": _stated_version(readme, r"`report\.json`")}


# simulation_study.py takes several seconds and is left out
@pytest.mark.parametrize("demo", ["csv_model_roundtrip.py",
                                  "fit_and_predict.py",
                                  "confidence_intervals.py"])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
