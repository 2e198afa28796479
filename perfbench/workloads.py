"""Workload definitions, the traced functions, and the correctness checks.

Each workload is a gaplab experiment configuration built from the benchmark
seed, the number of Monte Carlo trials one run performs, and a check on the
report files the run writes.  The checks test distributional properties, not
bytes, so a change that keeps each experiment's law but changes its output
bytes still passes them.  Only the standard library is used here.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import statistics

from spans import Target

# Each config mirrors a built-in preset of ``gaplab.cli`` at the time the
# benchmark was defined, so later edits to the presets do not move it.
_CONFIGS = {
    # Preset thermal-twolevel: 300 trials on a shell of dimension 10 inside
    # C^2 (x) C^200; every trial draws a 200 x 200 Haar basis by QR.
    "thermal-shell": {
        "experiment": "thermal", "system_levels": [0.0, 1.0],
        "bath_spec": {"count": 200, "min": 0.0, "max": 20.0},
        "window": {"energy": 10.0, "width": 0.5},
        "f_spec": {"kind": "polynomial", "phi": "balanced",
                   "coefficients": [0.0, 0.0, 1.0]},
        "epsilon": 0.15, "delta": 0.15, "n_trials": 300,
    },
    # Preset theorem1-cap-sweep with n_trials raised to 5000: 15 000 cheap
    # trials, each with its own generator and a tiny QR, and no Haar basis.
    "purification-sweep": {
        "experiment": "theorem1", "d1": 2,
        "rho_spec": {"spectrum": [0.7, 0.3], "basis_seed": None},
        "f_spec": {"kind": "cap_indicator", "phi": "e1", "threshold": 0.5},
        "epsilon": 0.1, "delta": 0.1, "n_trials": 5000,
        "sweep": {"d2": [16, 64, 256]},
    },
    # Preset submatrix-k1: 4 x 10 000 single-column Haar draws from one
    # generator per size, then KS statistics and quadrature.  It never
    # touches gaplab.conditional.
    "haar-blocks": {
        "experiment": "submatrix", "d1": 1, "sweep": {"d2": [4, 16, 64, 256]},
        "n_samples": 10_000, "epsilon": 0.02,
    },
}

WORKLOADS = tuple(_CONFIGS)

# Kind of child.ReferenceKernel timed around each measured run: the one whose
# cost resembles the workload's dominant cost (see README.md).
REFERENCE_KERNEL = {
    "thermal-shell": "lapack",
    "purification-sweep": "interpreter",
    "haar-blocks": "interpreter",
}


def config(workload: str, seed: int) -> dict:
    """The experiment configuration of a workload at a benchmark seed."""
    return dict(_CONFIGS[workload], seed=int(seed))


def _points(cfg: dict) -> list[int]:
    return cfg["sweep"]["d2"] if cfg.get("sweep") else [cfg.get("d2")]


def trials(cfg: dict) -> int:
    """Monte Carlo trials in one run; for the submatrix experiment a trial is
    one Haar block sample."""
    if cfg["experiment"] == "submatrix":
        return cfg["n_samples"] * len(_points(cfg))
    return cfg["n_trials"] * len(_points(cfg))


def expected_rows(cfg: dict) -> int:
    if cfg["experiment"] == "submatrix":
        return len(_points(cfg))
    return cfg["n_trials"] * len(_points(cfg))


# ---------------------------------------------------------------------------
# Correctness checks on the written report
# ---------------------------------------------------------------------------

# A one-sample KS statistic of N draws exceeds KS_MARGIN / sqrt(N) with
# probability about 2 exp(-2 KS_MARGIN^2) = 7.5e-6 (Kolmogorov's limit law).
KS_MARGIN = 2.5


@functools.lru_cache(maxsize=None)
def entry_ks_bias(n: int, step: float = 1e-3) -> float:
    """Upper bound on the KS distance between the exact law of n |U_11|^2 for
    a Haar U of size n, with CDF 1 - (1 - x/n)^(n-1) on [0, n], and its limit
    Exp(1).  Evaluated on a grid; ``step`` bounds the grid error because both
    densities are at most 1."""
    top = min(float(n), 60.0)
    worst = math.exp(-n)  # beyond x = n the exact CDF is 1
    for i in range(int(top / step) + 1):
        x = i * step
        worst = max(worst, abs((1.0 - x / n) ** (n - 1) - math.exp(-x)))
    return worst + step


def _rows(trials_csv: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(trials_csv)))


def _floats(rows, column: str) -> list[float]:
    return [float(r[column]) for r in rows]


def check(workload: str, cfg: dict, trials_csv: str, summary: dict) -> list[str]:
    """Problems found in one run's report; empty when it is correct."""
    try:
        return _check(workload, cfg, trials_csv, summary)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def _check(workload, cfg, trials_csv, summary) -> list[str]:
    rows = _rows(trials_csv)
    problems = []
    if len(rows) != expected_rows(cfg):
        problems.append(f"{len(rows)} trial rows, expected {expected_rows(cfg)}")
    disc = _floats(rows, "discrepancy")
    if not all(math.isfinite(v) for v in disc):
        problems.append("non-finite discrepancy")
    if problems:
        return problems
    points = summary["summary"]["points"]
    dims = [int(r["dim"]) for r in rows]

    if workload == "purification-sweep":
        by_dim = {d: [] for d in _points(cfg)}
        for d, v in zip(dims, disc):
            by_dim[d].append(v)
        medians = [statistics.median(by_dim[d]) for d in _points(cfg)]
        if not all(a > b for a, b in zip(medians, medians[1:])):
            problems.append(f"median discrepancy not decreasing in d2: {medians}")
        top = [p for p in points if p["dim"] == max(_points(cfg))]
        if len(top) != 1 or top[0]["extra"]["meets_delta"] is not True:
            problems.append("meets_delta not met at the largest d2")

    elif workload == "thermal-shell":
        if set(dims) != {10}:
            problems.append(f"shell dimensions {sorted(set(dims))}, expected 10")
        if len(points) != 1 or points[0]["extra"]["meets_delta"] is not True:
            problems.append("meets_delta not met")

    elif workload == "haar-blocks":
        if dims != _points(cfg):
            problems.append(f"rows for n = {dims}, expected {_points(cfg)}")
        if not all(a > b for a, b in zip(disc, disc[1:])):
            problems.append(f"L1 distance not decreasing in n: {disc}")
        limit = KS_MARGIN / math.sqrt(cfg["n_samples"])
        for n, ks in zip(dims, _floats(rows, "auxiliary")):
            if not ks < entry_ks_bias(n) + limit:
                problems.append(f"ks_entry {ks} at n={n} exceeds its sampling bound")
    return problems


# ---------------------------------------------------------------------------
# Traced functions, one layer per library module
# ---------------------------------------------------------------------------

def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _qr_flops(m: int, n: int) -> float:
    """Real flops of a Householder QR of a complex m x n matrix (m >= n) that
    also forms the reduced Q: twice 2mn^2 - 2n^3/3, times 4 for complex
    arithmetic.  Computed from shapes, not measured."""
    return 8.0 * (2.0 * m * n * n - 2.0 * n ** 3 / 3.0)


def _counting(key: str, amount):
    """Counter that adds ``amount(args, kwargs)``; a call whose arguments no
    longer fit (after a signature change) adds 0 rather than failing."""
    def counter(args, kwargs):
        try:
            return key, amount(args, kwargs)
        except (IndexError, KeyError, TypeError, ValueError, AttributeError):
            return key, 0
    return counter


def _haar_flops(args, kwargs):
    n = int(_arg(args, kwargs, 1, "n"))
    return _qr_flops(n, n)


def _ons_flops(args, kwargs):
    return _qr_flops(int(_arg(args, kwargs, 1, "n")), int(_arg(args, kwargs, 2, "k")))


def _basis_check_flops(args, kwargs):
    basis = kwargs.get("basis", args[1] if len(args) > 1 else None)
    return 0 if basis is None else _arg(args, kwargs, 0, "psi").d2 ** 3


QR_FLOPS = "randomness.qr_flops"
BASIS_CHECK_FLOPS = "conditional.basis_check_flops"
REPORT_BYTES = "cli.report_bytes"
COUNTERS = (QR_FLOPS, BASIS_CHECK_FLOPS, REPORT_BYTES)

_R, _C, _H, _G, _T, _S = (f"gaplab.{m}" for m in
                          ("randomness", "conditional", "hilbert", "gap",
                           "typicality", "stats"))

TARGETS = (
    Target("randomness", _R, "RngStream.generator"),
    Target("randomness", _R, "random_onb"),
    Target("randomness", _R, "haar_unitary", _counting(QR_FLOPS, _haar_flops)),
    Target("randomness", _R, "random_ons", _counting(QR_FLOPS, _ons_flops)),
    Target("randomness", _R, "ginibre"),
    Target("randomness", _R, "uniform_sphere"),
    Target("conditional", _C, "conditional_measure",
           _counting(BASIS_CHECK_FLOPS, _basis_check_flops)),
    Target("conditional", _C, "random_purification"),
    Target("conditional", _C, "integrate"),
    Target("hilbert", _H, "reduced_density_matrix"),
    Target("hilbert", _H, "trace_norm"),
    Target("hilbert", _H, "canonical_density"),
    Target("gap", _G, "sample_gap"),
    # gap_expectation lives in gaplab.typicality but draws the GAP reference
    # samples, so it is reported with the gap layer.
    Target("gap", _T, "gap_expectation"),
    Target("typicality", _T, "random_purification_experiment"),
    Target("typicality", _T, "shell_vs_target_experiment"),
    Target("typicality", _T, "submatrix_convergence_experiment"),
    Target("typicality", _T, "gap_reference"),
    Target("typicality", _T, "uniform_subspace_state"),
    Target("typicality", _T, "microcanonical_shell"),
    Target("typicality", _T, "fit_beta"),
    Target("typicality", _T, "submatrix_l1_distance"),
    Target("typicality", _T, "TestFunction.__call__"),
    Target("stats", _S, "ks_vs_exponential"),
    Target("cli", "gaplab.cli", "run"),
    Target("cli", "gaplab.cli", "write_report"),
)

TRACE_OVERHEAD = "trace.overhead_s"


def layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    names = []
    for t in TARGETS:
        names += [f"{t.name}.calls", f"{t.name}.total_s", f"{t.name}.self_s"]
    names += [f"{layer}.self_s" for layer in dict.fromkeys(t.layer for t in TARGETS)]
    names += list(COUNTERS) + [TRACE_OVERHEAD]
    units = {".calls": "count", "_s": "s", "_bytes": "bytes", "_flops": "flop"}
    return [(n, next(u for end, u in units.items() if n.endswith(end))) for n in names]
