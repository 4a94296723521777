"""tools/bytecheck.py: its command list runs against the working tree, and
its comparison names each file that moved."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bytecheck():
    spec = importlib.util.spec_from_file_location(
        "bytecheck", ROOT / "tools" / "bytecheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_command_list_runs_with_one_line_per_failure(tmp_path):
    bytecheck = _bytecheck()
    exits = bytecheck.run_commands(ROOT / "src", tmp_path)
    assert exits == {name: code for name, code, _ in bytecheck.COMMANDS}
    # a failing command prints its one error line, a succeeding one none
    for name, code, _ in bytecheck.COMMANDS:
        err = (tmp_path / f"{name}.stderr").read_text(encoding="utf-8")
        if code:
            assert err.startswith("error:") and err.count("\n") == 1, name
        else:
            assert err == "", name
    assert (tmp_path / "simulate" / "report.json").is_file()


def test_compare_names_each_file_that_moved(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side, files in ((parent, {"same": "a", "moved": "b", "gone": "c"}),
                        (change, {"same": "a", "moved": "B", "sub/new": "d"})):
        for name, text in files.items():
            (side / name).parent.mkdir(parents=True, exist_ok=True)
            (side / name).write_text(text, encoding="utf-8")
    assert _bytecheck().compare(parent, change) == (
        ["gone: only in PARENT", "moved: differs", "sub/new: only in CHANGE"],
        1)
