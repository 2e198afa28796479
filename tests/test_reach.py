"""Every function in ``src/gaplab`` runs in some CLI run, and the package
stays within its line budget.

A profile hook, set on the calling thread and on every thread started
meanwhile, records each Python function that runs while ``cli.main``
executes every preset and every experiment's default configuration, shrunk
to a few trials.  Each ``def`` in the package, found by ``ast``, must have
run.  There are no exemptions: a route that only the tests call belongs in
``tests/_oracles.py``.
"""

import ast
import json
import sys
import threading
from pathlib import Path

import pytest

import gaplab
from gaplab import cli

SRC = Path(gaplab.__file__).resolve().parent

# ROADMAP's line budget for src/gaplab, the 0.7.0 size.
LINE_BUDGET = 2630


def test_src_within_line_budget():
    lines = {path.name: path.read_text(encoding="utf-8").count("\n")
             for path in SRC.glob("*.py")}
    assert sum(lines.values()) <= LINE_BUDGET, f"lines per module: {lines}"


def _defined():
    """(module file, qualified name) of every def in the package; a def
    inside a function gets the ``<locals>`` part of ``co_qualname``."""
    found = set()

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((module, prefix + child.name))
                visit(module, child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(module, child, prefix + child.name + ".")
            else:
                visit(module, child, prefix)

    for path in SRC.glob("*.py"):
        visit(path.name, ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _configs():
    """Every preset and every experiment's default configuration, at three
    trials and 500 samples."""
    small = {"n_trials": 3, "n_samples": 500}
    for name in sorted(cli.PRESETS):
        yield name, cli.preset_config(name, small).to_dict()
    for name in cli.EXPERIMENTS:
        yield name, {"experiment": name, **small}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname (Python 3.11)")
def test_every_function_runs_in_a_cli_run(tmp_path):
    ran = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = Path(code.co_filename)
            if path.parent == SRC:
                ran.add((path.name, code.co_qualname))

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        for name, raw in _configs():
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(raw), encoding="utf-8")
            assert cli.main(["run", "--config", str(config),
                             "--out", str(tmp_path / name)]) == 0, name
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    unreached = sorted(_defined() - ran)
    assert not unreached, f"defs no CLI run reaches: {unreached}"
