"""tools/preset_diff.py, run without the presets it normally starts."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "preset_diff.py"


@pytest.fixture
def preset_diff():
    spec = importlib.util.spec_from_file_location("preset_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _child(code):
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


def test_a_failing_tree_stops_the_other_run(monkeypatch, tmp_path, preset_diff):
    children = iter([_child("import sys; sys.exit(1)"),
                     _child("import time; time.sleep(60)")])
    started = []

    def start(root, out):
        started.append(next(children))
        return started[-1]

    monkeypatch.setattr(preset_diff, "_start", start)
    assert preset_diff.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 2
    assert len(started) == 2
    assert all(proc.poll() is not None for proc in started)
