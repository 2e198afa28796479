"""tools/preset_diff.py, run without the presets it normally starts."""

import importlib.util
import json
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
    # A removed preset: its files count in the closing line too.
    _write_trials(parent / "gone" / "7" / "trials.csv", [(0.05, 1)])
    assert preset_diff.compare(parent, change) == [
        "differs: a/7/trials.csv (max |delta discrepancy| 0.05, max |delta auxiliary| 0, "
        "1 pass flags flipped, 0 rows relabelled)",
        "differs: c/7/trials.csv (1 vs 2 trials)",
        "differs: d/7/trials.csv (max |delta discrepancy| 0, max |delta auxiliary| 0.125, "
        "0 pass flags flipped, 3 rows relabelled)",
        "differs: e/7/trials.csv (max |delta discrepancy| 0, max |delta auxiliary| inf, "
        "0 pass flags flipped, 0 rows relabelled)",
        "only in parent: gone/7/trials.csv",
        "5 of 6 files differ",
    ]
    assert preset_diff.compare(parent, parent)[-1] == "0 of 6 files differ"


def _write_summary(path, points, wall_time_s=1.0, references=None, extras=None):
    path.parent.mkdir(parents=True, exist_ok=True)
    references = references or [0.5] * len(points)
    extras = extras or [{}] * len(points)
    path.write_text(json.dumps({"wall_time_s": wall_time_s, "summary": {"points": [
        {"dim": dim, "pass_fraction": fraction, "median_discrepancy": median,
         "reference": reference, "extra": {**extra, "meets_delta": fraction >= 0.9}}
        for (dim, fraction, median), reference, extra in zip(points, references, extras)]}}),
        encoding="utf-8")


def test_a_changed_summary_reports_its_verdict_changes(tmp_path, preset_diff):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # dim 16 crosses 1 - delta, dim 64 keeps its verdict at a new pass
    # fraction, dim 256 changes only its median.
    _write_summary(parent / "a" / "7" / "summary.json",
                   [(16, 0.914, 0.05), (64, 0.95, 0.04), (256, 1.0, 0.02)])
    _write_summary(change / "a" / "7" / "summary.json",
                   [(16, 0.874, 0.05), (64, 0.96, 0.04), (256, 1.0, 0.01)])
    # Only a volatile field changes: the files do not differ.
    _write_summary(parent / "b" / "7" / "summary.json", [(16, 0.5, 0.1)])
    _write_summary(change / "b" / "7" / "summary.json", [(16, 0.5, 0.1)], wall_time_s=2.0)
    # Medians change, no verdict does: the file differs without verdict lines.
    _write_summary(parent / "c" / "7" / "summary.json", [(16, 0.5, 0.1)])
    _write_summary(change / "c" / "7" / "summary.json", [(16, 0.5, 0.2)])
    _write_summary(parent / "d" / "7" / "summary.json", [(16, 0.5, 0.1)])
    _write_summary(change / "d" / "7" / "summary.json", [(16, 0.5, 0.1), (64, 0.9, 0.1)])
    assert preset_diff.compare(parent, change) == [
        "differs: a/7/summary.json",
        "  dim 16: pass_fraction 0.914 -> 0.874, meets_delta true -> false",
        "  dim 64: pass_fraction 0.95 -> 0.96",
        "differs: c/7/summary.json",
        "differs: d/7/summary.json",
        "  1 vs 2 points",
        "3 of 4 files differ",
    ]


def test_a_pass_fraction_move_reads_in_standard_errors(tmp_path, preset_diff):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # The parent has 500 trials at dims 16 and 32, 40 at dim 64 and 10 at
    # dim 4, the change 50 at dim 64 and the same elsewhere; dim 256 has
    # none.  A move is in standard errors sqrt(p (1 - p) (1/n + 1/m)) of
    # the difference, p pooled: 0.874 -> 0.904 over 500 and 500 is +0.030
    # against sqrt(0.889 * 0.111 * 2/500) = 0.0199, 0.95 -> 0.9 over 40 and
    # 50 is -0.05 against sqrt(0.9222 * 0.0778 * (1/40 + 1/50)) = 0.0568,
    # 1.0 -> 0.998 over 500 and 500 is -0.002 against
    # sqrt(0.999 * 0.001 * 2/500) = 0.0020, and 1.0 -> 0.99 over 10 and 10
    # is -0.01 against sqrt(0.995 * 0.005 * 2/10) = 0.0315: a parent
    # fraction of 1 has a finite move too.
    for root, n_64 in ((parent, 40), (change, 50)):
        (root / "a" / "7").mkdir(parents=True)
        (root / "a" / "7" / "trials.csv").write_text(
            "experiment,dim,trial,discrepancy,pass,auxiliary\n" + "".join(
                f"theorem1,{dim},{i},0.05,1,nan\n"
                for dim, n in ((16, 500), (32, 500), (64, n_64), (4, 10)) for i in range(n)),
            encoding="utf-8")
    _write_summary(parent / "a" / "7" / "summary.json",
                   [(16, 0.874, 0.05), (32, 1.0, 0.01), (64, 0.95, 0.04), (256, 0.5, 0.02),
                    (4, 1.0, 0.1)])
    _write_summary(change / "a" / "7" / "summary.json",
                   [(16, 0.904, 0.05), (32, 0.998, 0.01), (64, 0.9, 0.04), (256, 0.6, 0.02),
                    (4, 0.99, 0.1)])
    assert preset_diff.compare(parent, change) == [
        "differs: a/7/summary.json",
        "  dim 16: pass_fraction 0.874 -> 0.904 (+1.5 SE, 500 -> 500 trials), "
        "meets_delta false -> true",
        "  dim 32: pass_fraction 1.0 -> 0.998 (-1.0 SE, 500 -> 500 trials)",
        "  dim 64: pass_fraction 0.95 -> 0.9 (-0.9 SE, 40 -> 50 trials)",
        "  dim 256: pass_fraction 0.5 -> 0.6",
        "  dim 4: pass_fraction 1.0 -> 0.99 (-0.3 SE, 10 -> 10 trials)",
        "differs: a/7/trials.csv (1050 vs 1060 trials)",
        "2 of 2 files differ",
    ]


def test_a_changed_summary_reports_its_reference_changes(tmp_path, preset_diff):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # dim 16 changes its reference only, dim 64 its reference and verdict,
    # dim 256 nothing.
    points = [(16, 0.95, 0.05), (64, 0.95, 0.04), (256, 1.0, 0.02)]
    _write_summary(parent / "a" / "7" / "summary.json", points,
                   references=[0.33331787109375, 0.784, 0.5])
    _write_summary(change / "a" / "7" / "summary.json",
                   points[:1] + [(64, 0.85, 0.04)] + points[2:],
                   references=[1.0 / 3.0, 0.7839999999999999, 0.5])
    assert preset_diff.compare(parent, change) == [
        "differs: a/7/summary.json",
        "  dim 16: reference 0.33331787109375 -> 0.3333333333333333",
        "  dim 64: reference 0.784 -> 0.7839999999999999, pass_fraction 0.95 -> 0.85, "
        "meets_delta true -> false",
        "1 of 1 files differ",
    ]


def test_a_changed_summary_reports_its_extra_changes(tmp_path, preset_diff):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # dim 4 moves one nested gap and gains a flag, dim 16 only its pass
    # fraction, dim 64 a list value; NaN equals NaN, and dim 256 keeps
    # everything.
    points = [(4, 1.0, 0.5), (16, 1.0, 0.2), (64, 1.0, 0.1), (256, 1.0, 0.05)]
    gaps = {"cap_indicator": 0.0625, "polynomial": 0.375}
    _write_summary(parent / "a" / "7" / "summary.json", points, extras=[
        {"expectation_gaps": gaps, "ks": float("nan")}, {}, {"grid": [1, 2]}, {"ks": 0.5}])
    _write_summary(change / "a" / "7" / "summary.json",
                   points[:1] + [(16, 0.5, 0.2)] + points[2:], extras=[
        {"expectation_gaps": {**gaps, "polynomial": 0.4}, "identity_check": True,
         "ks": float("nan")}, {}, {"grid": [1, 3]}, {"ks": 0.5}])
    assert preset_diff.compare(parent, change) == [
        "differs: a/7/summary.json",
        "  dim 4: expectation_gaps.polynomial 0.375 -> 0.4, identity_check absent -> true",
        "  dim 16: pass_fraction 1.0 -> 0.5, meets_delta true -> false",
        "  dim 64: grid [1, 2] -> [1, 3]",
        "1 of 1 files differ",
    ]
