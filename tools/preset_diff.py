#!/usr/bin/env python3
"""Compare the outputs of every CLI preset between two gaplab source trees.

    python tools/preset_diff.py PARENT_ROOT [CHANGE_ROOT]

CHANGE_ROOT defaults to the tree this script belongs to.  For each tree one
subprocess, with PYTHONPATH=<root>/src, writes every preset of that tree at
its preset seed and at --seed 7.  The script then compares trials.csv,
plotdata.csv and summary.json (without its wall_time_s and library_version
fields), prints one line per file that differs or exists in one tree only,
closes with their count among the files of both trees and exits 1 if any
file differs.  A line for a trials.csv also gives, matching the trials row by
row, the largest change of a trial's discrepancy and of its auxiliary value
(NaN equal to NaN), the number of pass flags that flipped and the number of
rows whose (experiment, dim, trial) label changed.  A summary.json that
differs is followed by one indented line per sweep point whose reference,
pass_fraction or any value in its extra changed, each as old -> new, points
matched in order; a nested extra value is named by its dotted key path
(expectation_gaps.polynomial), and a key that one side lacks reads absent.
A pass_fraction move is also given in standard errors of the difference
of two fractions, sqrt(p (1 - p) (1/n + 1/m)) with p the pooled fraction
and n and m the parent's and the change's trials.csv rows at the point's
dim, so that a move within sampling noise reads as such, also from a parent
fraction of 0 or 1.
The two trees run at once; if either run fails, the script stops the other
and exits 2.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = ("preset", "7")
FILES = ("trials.csv", "plotdata.csv", "summary.json")
VOLATILE = ("wall_time_s", "library_version")

# Run inside each tree's subprocess: argv[1] is the output directory, the
# rest are the seeds ("preset" keeps the preset's own seed).
_WRITE_PRESETS = """
import os, sys
from gaplab.cli import PRESETS, main
out, seeds = sys.argv[1], sys.argv[2:]
for name in sorted(PRESETS):
    for seed in seeds:
        args = ["run", "--preset", name, "--out", os.path.join(out, name, seed)]
        if seed != "preset":
            args += ["--seed", seed]
        if main(args) != 0:
            sys.exit(f"preset {name} at seed {seed} failed")
"""


def _start(root: Path, out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.Popen([sys.executable, "-c", _WRITE_PRESETS, str(out), *SEEDS],
                            cwd=out, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


def _content(path: Path):
    if path.name != "summary.json":
        return path.read_bytes()
    summary = json.loads(path.read_text(encoding="utf-8"))
    for key in VOLATILE:
        summary.pop(key, None)
    return summary


def _largest_change(rows, column: str) -> float:
    """Largest |change| of a float column between paired rows; NaN equals NaN
    and lies infinitely far from any number."""
    changes = [0.0]
    for x, y in rows:
        a, b = float(x[column]), float(y[column])
        if a != b and not (math.isnan(a) and math.isnan(b)):
            changes.append(abs(a - b) if math.isfinite(a - b) else math.inf)
    return max(changes)


def _trial_changes(a: Path, b: Path) -> str:
    """Largest |change| of discrepancy and of auxiliary value, flipped pass
    flags and relabelled rows between the rows of two trials.csv files."""
    tables = []
    for path in (a, b):
        with path.open(encoding="utf-8", newline="") as fh:
            tables.append(list(csv.DictReader(fh)))
    if len(tables[0]) != len(tables[1]):
        return f"{len(tables[0])} vs {len(tables[1])} trials"
    rows = list(zip(*tables))
    flipped = sum(x["pass"] != y["pass"] for x, y in rows)
    label = ("experiment", "dim", "trial")
    relabelled = sum([x[k] for k in label] != [y[k] for k in label] for x, y in rows)
    return (f"max |delta discrepancy| {_largest_change(rows, 'discrepancy'):.3g}, "
            f"max |delta auxiliary| {_largest_change(rows, 'auxiliary'):.3g}, "
            f"{flipped} pass flags flipped, {relabelled} rows relabelled")


def _point_fields(point: dict) -> dict:
    """A sweep point's reference, pass fraction and every extra value, each
    as JSON text (so NaN equals NaN), a nested extra value under its dotted
    key path."""
    fields = {"reference": point["reference"], "pass_fraction": point["pass_fraction"]}

    def visit(extra: dict, prefix: str):
        for key, value in sorted(extra.items()):
            if isinstance(value, dict):
                visit(value, f"{prefix}{key}.")
            else:
                fields[prefix + key] = value

    visit(point["extra"], "")
    return {key: json.dumps(value) for key, value in fields.items()}


def _trial_counts(path: Path) -> dict[str, int]:
    """Rows of a trials.csv per dim (as written there); none if it is absent."""
    counts: dict[str, int] = {}
    if path.exists():
        with path.open(encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                counts[row["dim"]] = counts.get(row["dim"], 0) + 1
    return counts


def _standard_errors(old: float, new: float, n_old: int, n_new: int) -> str:
    """The move old -> new of a pass fraction over n_old and n_new trials in
    standard errors of the difference, from the pooled fraction, which lies
    strictly between 0 and 1 when the two fractions differ."""
    pooled = (old * n_old + new * n_new) / (n_old + n_new)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_old + 1.0 / n_new))
    return f" ({(new - old) / se:+.1f} SE, {n_old} -> {n_new} trials)"


def _verdict_changes(a: dict, b: dict, counts: tuple[dict[str, int], ...]) -> list[str]:
    """One line per sweep point of two summaries whose reference, pass
    fraction or any extra value changed, matching the points in order; a
    pass fraction's move is in standard errors when both trial ``counts``,
    the parent's and the change's, have the point's dim."""
    points = [summary["summary"]["points"] for summary in (a, b)]
    if len(points[0]) != len(points[1]):
        return [f"  {len(points[0])} vs {len(points[1])} points"]
    lines = []
    for x, y in zip(*points):
        old, new = _point_fields(x), _point_fields(y)
        changed = []
        for key in {**old, **new}:
            if old.get(key) != new.get(key):
                changed.append(f"{key} {old.get(key, 'absent')} -> {new.get(key, 'absent')}")
                dim = str(x["dim"])
                if key == "pass_fraction" and all(dim in c for c in counts):
                    changed[-1] += _standard_errors(x[key], y[key],
                                                    *(c[dim] for c in counts))
        if changed:
            lines.append(f"  dim {x['dim']}: {', '.join(changed)}")
    return lines


def compare(parent: Path, change: Path) -> list[str]:
    """One line per output file that differs or exists in one tree only (a
    summary.json followed by its per-point changes), then the count of those
    files among the files of both trees."""
    names = {p.relative_to(parent) for p in parent.rglob("*") if p.name in FILES}
    names |= {p.relative_to(change) for p in change.rglob("*") if p.name in FILES}
    lines, differing = [], 0
    for name in sorted(names):
        a, b = parent / name, change / name
        if not a.exists() or not b.exists():
            lines.append(f"only in {'change' if b.exists() else 'parent'}: {name}")
            differing += 1
        elif (old := _content(a)) != (new := _content(b)):
            detail = f" ({_trial_changes(a, b)})" if name.name == "trials.csv" else ""
            lines.append(f"differs: {name}{detail}")
            differing += 1
            if name.name == "summary.json":
                lines.extend(_verdict_changes(old, new, tuple(
                    _trial_counts(path.parent / "trials.csv") for path in (a, b))))
    return lines + [f"{differing} of {len(names)} files differ"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path, nargs="?",
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "parent", Path(tmp) / "change"]
        runs = []
        try:
            for root, out in zip((args.parent_root, args.change_root), outs):
                out.mkdir()
                runs.append((root, _start(root.resolve(), out)))
            for root, proc in runs:
                _, err = proc.communicate()
                if proc.returncode != 0:
                    print(f"{root}: presets failed\n{err}", file=sys.stderr)
                    return 2
        finally:
            # After a failure the other tree's run is of no use: stop it
            # before its output directory is removed.
            for _, proc in runs:
                proc.kill()
                proc.wait()
                proc.stderr.close()
        lines = compare(*outs)
    print("\n".join(lines))
    return 1 if len(lines) > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
