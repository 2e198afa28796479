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


def _write_trials(path, rows, auxiliary=None, first_trial=0):
    path.parent.mkdir(parents=True)
    auxiliary = auxiliary or [float("nan")] * len(rows)
    path.write_text("experiment,dim,trial,discrepancy,pass,auxiliary\n"
                    + "".join(f"theorem1,16,{first_trial + i},{d!r},{p},{x!r}\n"
                              for i, ((d, p), x) in enumerate(zip(rows, auxiliary))),
                    encoding="utf-8")


def test_a_changed_trials_file_reports_its_largest_change_and_flips(tmp_path, preset_diff):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_trials(parent / "a" / "7" / "trials.csv", [(0.05, 1), (0.098, 1), (0.2, 0)])
    _write_trials(change / "a" / "7" / "trials.csv", [(0.05, 1), (0.101, 0), (0.15, 0)])
    _write_trials(parent / "b" / "7" / "trials.csv", [(0.05, 1)])
    _write_trials(change / "b" / "7" / "trials.csv", [(0.05, 1)])
    _write_trials(parent / "c" / "7" / "trials.csv", [(0.05, 1)])
    _write_trials(change / "c" / "7" / "trials.csv", [(0.05, 1), (0.3, 0)])
    # Only the trial numbers and auxiliary values change; NaN equals NaN.
    _write_trials(parent / "d" / "7" / "trials.csv", [(0.05, 1)] * 3,
                  [float("nan"), 0.25, 0.5], first_trial=1)
    _write_trials(change / "d" / "7" / "trials.csv", [(0.05, 1)] * 3,
                  [float("nan"), 0.125, 0.5])
    # A number against NaN is an infinite change.
    _write_trials(parent / "e" / "7" / "trials.csv", [(0.05, 1)], [0.5])
    _write_trials(change / "e" / "7" / "trials.csv", [(0.05, 1)])
    assert preset_diff.compare(parent, change) == [
        "differs: a/7/trials.csv (max |delta discrepancy| 0.05, max |delta auxiliary| 0, "
        "1 pass flags flipped, 0 rows relabelled)",
        "differs: c/7/trials.csv (1 vs 2 trials)",
        "differs: d/7/trials.csv (max |delta discrepancy| 0, max |delta auxiliary| 0.125, "
        "0 pass flags flipped, 3 rows relabelled)",
        "differs: e/7/trials.csv (max |delta discrepancy| 0, max |delta auxiliary| inf, "
        "0 pass flags flipped, 0 rows relabelled)",
    ]
