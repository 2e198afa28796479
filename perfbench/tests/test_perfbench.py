"""Tests of the benchmark's tracer, metric names and correctness checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import math
import re
import sys
import types
from pathlib import Path

import pytest

import spans
import workloads
from spans import Target

ROOT = Path(workloads.__file__).resolve().parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    recorded = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],      # overlaps a: the union [1, 5] counts once
        ["c", 9.0, 12.0, 0],     # runs past its parent: clipped to [9, 10]
        ["a1", 1.5, 2.0, 1],
        ["a2", 2.5, 3.0, 1],
    ]
    own = spans.self_times(recorded)
    assert own == pytest.approx([5.0, 1.0, 3.0, 3.0, 0.5, 0.5])


def test_summarize_aggregates_per_function_and_layer():
    targets = [Target("x", "m", "f"), Target("x", "m", "g"), Target("y", "m", "h")]
    recorded = [["x.f", 0.0, 4.0, -1], ["x.g", 1.0, 2.0, 0], ["x.g", 2.0, 3.5, 0],
                ["y.h", 5.0, 6.0, -1]]
    m = spans.summarize(recorded, targets)
    assert m["x.f.calls"] == 1 and m["x.g.calls"] == 2
    assert m["x.f.total_s"] == pytest.approx(4.0)
    assert m["x.f.self_s"] == pytest.approx(1.5)
    assert m["x.g.self_s"] == pytest.approx(2.5)
    assert m["x.self_s"] == pytest.approx(4.0)
    assert m["y.self_s"] == pytest.approx(1.0)


@pytest.fixture
def fake_package():
    """fakepkg.core defines helper, work and Box.method; fakepkg.user imports
    work by name, as gaplab modules import each other's functions."""
    core = types.ModuleType("fakepkg.core")
    exec(
        "def helper(x):\n    return x + 1\n"
        "def work(x):\n    return helper(x) * 2\n"
        "class Box:\n    def method(self, x):\n        return work(x)\n",
        core.__dict__,
    )
    user = types.ModuleType("fakepkg.user")
    user.work = core.work
    pkg = types.ModuleType("fakepkg")
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield core, user
    for name in mods:
        sys.modules.pop(name, None)


def test_rebinding_traces_nested_calls_and_restores(fake_package):
    core, user = fake_package
    original_work, original_method = core.work, core.Box.method
    targets = [Target("core", "fakepkg.core", "work", lambda a, k: ("n", a[0])),
               Target("core", "fakepkg.core", "helper"),
               Target("core", "fakepkg.core", "Box.method")]
    tracer = spans.Tracer()
    restore = spans.install(tracer, targets, "fakepkg")
    try:
        assert user.work(3) == 8
        assert core.Box().method(1) == 4
    finally:
        restore()
    names = [s[0] for s in tracer.spans]
    assert names == ["core.work", "core.helper", "core.Box.method", "core.work", "core.helper"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1, 2, 3]
    assert tracer.counters == {"n": 4}
    assert core.work is original_work and user.work is original_work
    assert core.Box.method is original_method


def test_missing_function_reads_as_zero_calls(fake_package):
    targets = [Target("core", "fakepkg.core", "work"),
               Target("core", "fakepkg.core", "deleted_function"),
               Target("core", "fakepkg.core", "Gone.method"),
               Target("other", "fakepkg.no_such_module", "f")]
    tracer = spans.Tracer()
    restore = spans.install(tracer, targets, "fakepkg")
    fake_package[1].work(1)
    restore()
    m = spans.summarize(tracer.spans, targets)
    assert m["core.work.calls"] == 1
    for name in ("core.deleted_function", "core.Gone.method", "other.f"):
        assert m[f"{name}.calls"] == 0
        assert m[f"{name}.total_s"] == 0.0 and m[f"{name}.self_s"] == 0.0
    assert m["other.self_s"] == 0.0


def test_counter_survives_a_changed_signature():
    counter = workloads._counting("k", workloads._ons_flops)
    assert counter((None, 8, 2), {}) == ("k", workloads._qr_flops(8, 2))
    assert counter((None,), {}) == ("k", 0)


# ---------------------------------------------------------------------------
# Metric names and BENCHMARK.json
# ---------------------------------------------------------------------------

def _benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_valid_and_unique():
    names = [name for name, _ in workloads.layer_metrics()]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


@pytest.mark.parametrize("bad", ["", "_x", "a b", "a/b", "é", "x" * 65])
def test_metric_name_pattern_rejects(bad):
    assert not NAME.match(bad)


def test_benchmark_json_matches_code():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == workloads.layer_metrics()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

SMALL = {
    "thermal-shell": {"n_trials": 40},
    "purification-sweep": {"n_trials": 200},
    "haar-blocks": {"n_samples": 2000},
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """A genuine small report of each workload: (cfg, trials_csv, summary)."""
    from gaplab import cli

    out = {}
    for workload in workloads.WORKLOADS:
        cfg = dict(workloads.config(workload, 7), **SMALL[workload])
        d = tmp_path_factory.mktemp(workload)
        cli.write_report(cli.run(cli.ExperimentConfig.from_dict(json.loads(json.dumps(cfg)))), d)
        out[workload] = (cfg, (d / "trials.csv").read_text(),
                         json.loads((d / "summary.json").read_text()))
    return out


def _edit_column(trials_csv, column, edit):
    """Apply edit(row_index, dim, value) -> new value to one CSV column."""
    lines = trials_csv.splitlines()
    header = lines[0].split(",")
    col, dim_col = header.index(column), header.index("dim")
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        cells[col] = edit(i, int(cells[dim_col]), cells[col])
        lines[i + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _set_meets_delta(summary, value):
    summary = json.loads(json.dumps(summary))
    for p in summary["summary"]["points"]:
        p["extra"]["meets_delta"] = value
    return summary


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_accepts_genuine_report(reports, workload):
    cfg, text, summary = reports[workload]
    assert workloads.check(workload, cfg, text, summary) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_rejects_missing_row(reports, workload):
    cfg, text, summary = reports[workload]
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    assert workloads.check(workload, cfg, truncated, summary)


@pytest.mark.parametrize("bad", ["nan", "inf", "oops"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_rejects_non_finite_discrepancy(reports, workload, bad):
    cfg, text, summary = reports[workload]
    corrupt = _edit_column(text, "discrepancy", lambda i, d, v: bad if i == 1 else v)
    assert workloads.check(workload, cfg, corrupt, summary)


@pytest.mark.parametrize("workload", ["thermal-shell", "purification-sweep"])
def test_check_rejects_missed_delta(reports, workload):
    cfg, text, summary = reports[workload]
    assert workloads.check(workload, cfg, text, _set_meets_delta(summary, False))


def test_check_rejects_medians_not_decreasing(reports):
    cfg, text, summary = reports["purification-sweep"]
    flat = _edit_column(text, "discrepancy", lambda i, d, v: "0.02")
    assert workloads.check("purification-sweep", cfg, flat, summary)


def test_check_rejects_wrong_shell_dimension(reports):
    cfg, text, summary = reports["thermal-shell"]
    corrupt = _edit_column(text, "dim", lambda i, d, v: "11")
    assert workloads.check("thermal-shell", cfg, corrupt, summary)


def test_check_rejects_l1_not_decreasing(reports):
    cfg, text, summary = reports["haar-blocks"]
    corrupt = _edit_column(text, "discrepancy", lambda i, d, v: "0.5" if d == 256 else v)
    assert workloads.check("haar-blocks", cfg, corrupt, summary)


def test_check_rejects_ks_beyond_sampling_bound(reports):
    cfg, text, summary = reports["haar-blocks"]
    corrupt = _edit_column(text, "auxiliary", lambda i, d, v: "0.2" if d == 64 else v)
    assert workloads.check("haar-blocks", cfg, corrupt, summary)


def test_entry_ks_bias_shrinks_with_n():
    biases = [workloads.entry_ks_bias(n) for n in (4, 16, 64, 256)]
    assert all(a > b for a, b in zip(biases, biases[1:]))
    # n |U_11|^2 with n = 2 is uniform on [0, 2]; its KS distance to Exp(1)
    # is attained where x/2 = 1 - exp(-x) has the largest gap.
    exact = max(abs(x / 2 - (1 - math.exp(-x)))
                for x in (i / 10000 for i in range(20001)))
    assert workloads.entry_ks_bias(2) == pytest.approx(exact, abs=2e-3)
