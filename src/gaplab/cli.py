"""Batch experiment front end.

Reads a declarative JSON configuration (or a named built-in preset),
dispatches to the experiment drivers, and persists three files to the
output directory:

* ``trials.csv``   -- one row per trial, in trial order, pinned CSV dialect
  (comma separated, LF line endings, '.' decimal, no quoting).
* ``summary.json`` -- the fully resolved configuration plus summary
  statistics, reference values, wall time, library version and seed.
* ``plotdata.csv`` -- one row per sweep point with the columns
  ``dim,median,q10,q90,pass_fraction``.

Identical configuration and seed produce byte-identical trials.csv and
plotdata.csv regardless of worker count (summary.json differs only in its
wall-time field).  The exit code reflects operational success only;
scientific pass/fail lives in summary.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .conditional import random_purification
from .errors import ConfigError, GaplabError
from .gap import covariance_estimate, gap_sphere_density, sample_gap
from .hilbert import DensityMatrix, canonical_density, trace_norm
from .randomness import RngStream, haar_unitary, uniform_sphere
from .stats import spearman
from . import typicality as T

EXPERIMENTS = (
    "theorem1",
    "theorem2",
    "theorem3",
    "theorem4",
    "canonical_typicality",
    "submatrix",
    "continuity",
    "thermal",
    "gap_selftest",
)

F_KINDS = ("overlap_sq", "real_part", "cap_indicator", "polynomial")

_CONFIG_KEYS = {
    "experiment", "d1", "d2", "dR", "rho_spec", "f_spec", "epsilon", "delta",
    "n_trials", "n_samples", "seed", "sweep", "system_levels", "bath_spec",
    "window", "gamma",
}


_NUMERIC = (int, float, np.integer, np.floating)


def _integer(key: str, value, minimum: int) -> int:
    """``value`` as an int of at least ``minimum``.  Booleans, strings and
    non-integral numbers raise a ConfigError naming the key instead of being
    coerced (``int(True)`` would silently mean 1)."""
    if (isinstance(value, bool)
            or not isinstance(value, _NUMERIC)
            or (isinstance(value, (float, np.floating)) and not float(value).is_integer())):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{key}: must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _number(key: str, value) -> float:
    """``value`` as a finite float, or a ConfigError naming the key."""
    if (isinstance(value, bool)
            or not isinstance(value, _NUMERIC)
            or not math.isfinite(value)):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return float(value)


def _numbers(key: str, value) -> np.ndarray:
    """A list of finite numbers as a float array, or a ConfigError naming the
    key."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: expected a list of numbers, got {value!r}")
    return np.array([_number(key, v) for v in value], dtype=float)


@dataclass
class ExperimentConfig:
    """Validated, fully resolved experiment parameters."""

    experiment: str
    d1: int = 2
    d2: int = 64
    dR: int | None = None
    rho_spec: dict = field(default_factory=lambda: {"spectrum": None, "basis_seed": None})
    f_spec: dict = field(default_factory=lambda: {"kind": "overlap_sq", "phi": "e1"})
    epsilon: float = 0.1
    delta: float = 0.1
    n_trials: int = 100
    n_samples: int = 10_000
    seed: int = 0
    sweep: dict | None = None
    system_levels: list = field(default_factory=lambda: [0.0, 1.0])
    bath_spec: dict = field(default_factory=lambda: {"count": 200, "min": 0.0, "max": 20.0})
    window: dict = field(default_factory=lambda: {"energy": 10.0, "width": 0.5})
    gamma: float = 0.1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: unknown value {self.experiment!r}")
        for key in ("d1", "d2", "n_trials", "n_samples"):
            setattr(self, key, _integer(key, getattr(self, key), 1))
        if self.dR is not None:
            self.dR = _integer("dR", self.dR, 1)
        self.seed = _integer("seed", self.seed, 0)
        for key in ("epsilon", "delta", "gamma"):
            v = _number(key, getattr(self, key))
            if not 0.0 < v < 1.0:
                raise ConfigError(f"{key}: must lie in (0, 1), got {v}")
        for key in ("rho_spec", "f_spec", "bath_spec", "window"):
            if not isinstance(getattr(self, key), dict):
                raise ConfigError(f"{key}: expected a JSON object, got {getattr(self, key)!r}")
        for key in ("energy", "width"):
            _number(f"window.{key}", self.window.get(key))
        if self.sweep is not None:
            if (not isinstance(self.sweep, dict) or len(self.sweep) != 1
                    or next(iter(self.sweep)) not in ("d2", "dR")
                    or not isinstance(next(iter(self.sweep.values())), list)):
                raise ConfigError('sweep: expected {"d2": [...]} or {"dR": [...]}')
            param, values = next(iter(self.sweep.items()))
            if not values:
                raise ConfigError("sweep: expected at least one value")
            self.sweep = {param: [_integer("sweep", v, 1) for v in values]}
        if self.f_spec.get("kind") not in F_KINDS:
            raise ConfigError(f"f_spec.kind: unknown value {self.f_spec.get('kind')!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        if "experiment" not in raw:
            raise ConfigError("experiment: required key is missing")
        return cls(**raw)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment, "d1": self.d1, "d2": self.d2,
            "dR": self.dR, "rho_spec": self.rho_spec, "f_spec": self.f_spec,
            "epsilon": self.epsilon, "delta": self.delta,
            "n_trials": self.n_trials, "n_samples": self.n_samples,
            "seed": self.seed, "sweep": self.sweep,
            "system_levels": self.system_levels, "bath_spec": self.bath_spec,
            "window": self.window, "gamma": self.gamma,
        }


def parse_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a JSON configuration file, applying flag overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw.update(overrides or {})
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# Configuration resolution helpers
# ---------------------------------------------------------------------------

def _resolve_phi(spec, dim: int) -> np.ndarray:
    """phi may be "e<k>", "balanced", or an explicit [[re, im], ...] list."""
    if isinstance(spec, str):
        if spec == "balanced":
            return np.ones(dim, dtype=complex) / math.sqrt(dim)
        if spec.startswith("e"):
            try:
                k = int(spec[1:])
            except ValueError:
                raise ConfigError(f"f_spec.phi: cannot parse {spec!r}")
            if not 1 <= k <= dim:
                raise ConfigError(f"f_spec.phi: index {k} outside 1..{dim}")
            return np.eye(dim, dtype=complex)[k - 1]
        raise ConfigError(f"f_spec.phi: unknown name {spec!r}")
    pairs = [_numbers("f_spec.phi", p) for p in spec] if isinstance(spec, (list, tuple)) else None
    if pairs is None or any(p.shape != (2,) for p in pairs):
        raise ConfigError(f"f_spec.phi: expected a name or [[re, im], ...], got {spec!r}")
    arr = np.array([complex(re, im) for re, im in pairs])
    if arr.shape != (dim,):
        raise ConfigError(f"f_spec.phi: expected {dim} entries, got {arr.shape}")
    return arr


def _resolve_f(cfg: ExperimentConfig, dim: int) -> T.TestFunction:
    spec = cfg.f_spec
    phi = _resolve_phi(spec.get("phi", "e1"), dim)
    kind = spec["kind"]
    if kind == "overlap_sq":
        return T.overlap_sq(phi)
    if kind == "real_part":
        return T.real_part(phi)
    if kind == "cap_indicator":
        return T.cap_indicator(phi, _number("f_spec.threshold", spec.get("threshold", 0.5)))
    return T.polynomial(phi, _numbers("f_spec.coefficients",
                                      spec.get("coefficients", [0.0, 1.0])))


def _resolve_rho(cfg: ExperimentConfig, dim: int) -> DensityMatrix:
    spectrum = cfg.rho_spec.get("spectrum")
    if spectrum is None:
        return DensityMatrix.maximally_mixed(dim)
    spectrum = _numbers("rho_spec.spectrum", spectrum)
    if spectrum.shape != (dim,):
        raise ConfigError(f"rho_spec.spectrum: expected {dim} entries")
    basis_seed = cfg.rho_spec.get("basis_seed")
    basis = None
    if basis_seed is not None:
        seed = _integer("rho_spec.basis_seed", basis_seed, 0)
        basis = haar_unitary(RngStream(seed).generator(), dim)
    try:
        return DensityMatrix.from_spectrum(spectrum, basis)
    except GaplabError as exc:
        raise ConfigError(f"rho_spec.spectrum: {exc}")


def _resolve_bath(cfg: ExperimentConfig) -> np.ndarray:
    spec = cfg.bath_spec
    if "levels" in spec:
        return _numbers("bath_spec.levels", spec["levels"])
    try:
        return np.linspace(_number("bath_spec.min", spec["min"]),
                           _number("bath_spec.max", spec["max"]),
                           _integer("bath_spec.count", spec["count"], 1))
    except KeyError as exc:
        raise ConfigError(f"bath_spec: missing key {exc}")


def _workers() -> int:
    cap = os.environ.get("GAPLAB_THREADS")
    hardware = os.cpu_count() or 1
    if cap is None:
        return hardware
    try:
        return max(1, min(hardware, int(cap)))
    except ValueError:
        raise ConfigError(f"GAPLAB_THREADS: not an integer: {cap!r}")


# ---------------------------------------------------------------------------
# Experiment dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointSummary:
    dim: int
    pass_fraction: float
    median: float
    q10: float
    q90: float
    reference: float
    threshold: float
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    rows: list            # per-trial dicts: dim, trial, discrepancy, passed, auxiliary
    points: list          # PointSummary per sweep point
    wall_time_s: float
    version: str
    seed: int

    @property
    def pass_fraction(self) -> float:
        return float(np.mean([r["passed"] for r in self.rows]))


def _rows_from_records(records, dim: int) -> list:
    return [
        {"dim": dim, "trial": r.trial_index, "discrepancy": r.discrepancy,
         "passed": bool(r.passed), "auxiliary": r.auxiliary}
        for r in records
    ]


def _point_from_outcome(outcome, dim: int, extra: dict | None = None) -> PointSummary:
    disc = outcome.discrepancies
    merged = dict(outcome.extra)
    merged.update(extra or {})
    return PointSummary(
        dim=dim, pass_fraction=outcome.pass_fraction,
        median=float(np.median(disc)), q10=float(np.quantile(disc, 0.1)),
        q90=float(np.quantile(disc, 0.9)), reference=outcome.reference,
        threshold=outcome.threshold, extra=merged,
    )


def _reject_sweep(cfg: ExperimentConfig) -> None:
    if cfg.sweep:
        raise ConfigError(f"sweep: experiment {cfg.experiment!r} does not sweep")


def _sweep_values(cfg: ExperimentConfig, allowed: tuple, default_param: str,
                  default: int) -> tuple[str, list[int]]:
    """The swept parameter and its values; rejects sweeps this experiment
    cannot honor instead of silently ignoring them."""
    if not cfg.sweep:
        return default_param, [default]
    param, values = next(iter(cfg.sweep.items()))
    if param not in allowed:
        raise ConfigError(
            f"sweep: experiment {cfg.experiment!r} cannot sweep {param!r}"
        )
    return param, values


def _dispatch(cfg: ExperimentConfig) -> tuple[list, list]:
    """Run the configured experiment; returns (rows, points)."""
    rows: list = []
    points: list = []
    workers = _workers()
    name = cfg.experiment

    if name == "theorem1":
        rho1 = _resolve_rho(cfg, cfg.d1)
        f = _resolve_f(cfg, cfg.d1)
        _, values = _sweep_values(cfg, ("d2",), "d2", cfg.d2)
        for idx, d2 in enumerate(values):
            stream = RngStream(cfg.seed, idx)
            out = T.random_purification_experiment(
                stream, rho1, d2, f, cfg.epsilon, cfg.n_trials, n_workers=workers)
            rows += _rows_from_records(out.records, d2)
            points.append(_point_from_outcome(out, d2))

    elif name == "theorem2":
        rho1 = _resolve_rho(cfg, cfg.d1)
        f = _resolve_f(cfg, cfg.d1)
        _, values = _sweep_values(cfg, ("d2",), "d2", cfg.d2)
        for idx, d2 in enumerate(values):
            stream = RngStream(cfg.seed, idx)
            psi = random_purification(
                stream.substream(cfg.n_trials + 1).generator(), rho1, d2)
            out = T.random_basis_experiment(
                stream, psi, f, cfg.epsilon, cfg.n_trials, n_workers=workers)
            rows += _rows_from_records(out.records, d2)
            points.append(_point_from_outcome(out, d2))

    elif name in ("theorem3", "theorem4"):
        f = _resolve_f(cfg, cfg.d1)
        default_dr = cfg.dR if cfg.dR is not None else cfg.d1 * cfg.d2
        param, values = _sweep_values(cfg, ("d2", "dR"), "dR", default_dr)
        for idx, value in enumerate(values):
            d2 = value if param == "d2" else cfg.d2
            dr = value if param == "dR" else (
                cfg.dR if cfg.dR is not None else cfg.d1 * d2)
            stream = RngStream(cfg.seed, idx)
            basis = T.random_subspace(
                stream.substream(cfg.n_trials + 1).generator(), cfg.d1, d2, dr)
            if name == "theorem3":
                out = T.shell_universality_experiment(
                    stream, basis, cfg.d1, d2, f, cfg.epsilon, cfg.n_trials,
                    n_workers=workers)
            else:
                omega = _resolve_rho(cfg, cfg.d1)
                out = T.shell_vs_target_experiment(
                    stream, basis, cfg.d1, d2, omega, f, cfg.epsilon,
                    cfg.n_trials, n_workers=workers)
            rows += _rows_from_records(out.records, value)
            points.append(_point_from_outcome(out, value))

    elif name == "canonical_typicality":
        default_dr = cfg.dR if cfg.dR is not None else cfg.d1 * cfg.d2
        _, values = _sweep_values(cfg, ("dR",), "dR", default_dr)
        for idx, dr in enumerate(values):
            stream = RngStream(cfg.seed, idx)
            basis = T.random_subspace(
                stream.substream(cfg.n_trials + 1).generator(), cfg.d1, cfg.d2, dr)
            out = T.canonical_typicality_experiment(
                stream, basis, cfg.d1, cfg.d2, cfg.n_trials, n_workers=workers)
            rows += _rows_from_records(out.records, dr)
            dist = out.distances
            points.append(PointSummary(
                dim=dr, pass_fraction=float(np.mean([r.passed for r in out.records])),
                median=float(np.median(dist)), q10=float(np.quantile(dist, 0.1)),
                q90=float(np.quantile(dist, 0.9)), reference=0.0,
                threshold=2.0 * out.offset,
                extra={
                    "mean_distance": out.mean_distance,
                    "offset": out.offset,
                    "eta_grid": list(out.eta_grid),
                    "exceedance": list(out.exceedance),
                    "bound": list(out.bound),
                    "bound_violated": bool(np.any(out.exceedance > out.bound)),
                },
            ))

    elif name == "submatrix":
        k = cfg.d1
        _, n_values = _sweep_values(cfg, ("d2",), "d2", cfg.d2)
        stream = RngStream(cfg.seed, 0)
        metrics = T.submatrix_convergence_experiment(stream, k, n_values, cfg.n_samples)
        for idx, m in enumerate(metrics):
            passed = m.ks_entry < cfg.epsilon
            rows.append({
                "dim": m.n, "trial": idx,
                "discrepancy": m.l1_distance if m.l1_distance is not None else m.ks_entry,
                "passed": passed, "auxiliary": m.ks_entry,
            })
            med = m.l1_distance if m.l1_distance is not None else m.ks_entry
            points.append(PointSummary(
                dim=m.n, pass_fraction=float(passed), median=float(med),
                q10=float(med), q90=float(med), reference=0.0,
                threshold=cfg.epsilon,
                extra={"ks_entry": m.ks_entry, "ks_entry_max": m.ks_entry_max,
                       "expectation_gaps": m.expectation_gaps},
            ))

    elif name == "continuity":
        _reject_sweep(cfg)
        stream = RngStream(cfg.seed, 0)
        out = T.continuity_probe(stream, cfg.d1, cfg.gamma, cfg.n_trials,
                                 n_probe=cfg.n_samples)
        for i in range(cfg.n_trials):
            rows.append({
                "dim": cfg.d1, "trial": i, "discrepancy": float(out.density_gaps[i]),
                "passed": bool(out.expectation_gaps[i] <= out.trace_distances[i] + 1e-12),
                "auxiliary": float(out.trace_distances[i]),
            })
        rank_corr = spearman(out.trace_distances, out.density_gaps)
        points.append(PointSummary(
            dim=cfg.d1, pass_fraction=float(np.mean([r["passed"] for r in rows])),
            median=float(np.median(out.density_gaps)),
            q10=float(np.quantile(out.density_gaps, 0.1)),
            q90=float(np.quantile(out.density_gaps, 0.9)),
            reference=0.0, threshold=cfg.epsilon,
            extra={"spearman": rank_corr, "gamma": cfg.gamma},
        ))

    elif name == "thermal":
        _reject_sweep(cfg)
        bath = _resolve_bath(cfg)
        system = _numbers("system_levels", cfg.system_levels)
        shell = T.microcanonical_shell(system, bath, float(cfg.window["energy"]),
                                       float(cfg.window["width"]))
        fit = T.fit_beta(system, shell.reduced_density())
        omega = canonical_density(system, fit.beta)
        target_distance = trace_norm(shell.reduced_density().matrix - omega.matrix)
        f = _resolve_f(cfg, shell.d1)
        stream = RngStream(cfg.seed, 0)
        out = T.shell_vs_target_experiment(
            stream, shell.basis(), shell.d1, shell.d2, omega, f, cfg.epsilon,
            cfg.n_trials, n_workers=workers)
        rows += _rows_from_records(out.records, shell.dim)
        points.append(_point_from_outcome(out, shell.dim, extra={
            "beta": fit.beta, "fit_residual": fit.residual,
            "thermal_target_distance": target_distance,
            "shell_dim": shell.dim, "counts": [int(c) for c in shell.counts],
        }))

    elif name == "gap_selftest":
        _reject_sweep(cfg)
        d = cfg.d1
        stream = RngStream(cfg.seed, 0)
        for i in range(cfg.n_trials):
            rng = stream.substream(i).generator()
            rho = T.random_floor_density(rng, d, min(cfg.gamma, 0.5 / d))
            draws = sample_gap(rng, rho, size=cfg.n_samples)
            cov_err = float(np.max(np.abs(covariance_estimate(draws) - rho.matrix)))
            sphere = uniform_sphere(rng, d, size=min(cfg.n_samples, 20_000))
            norm_err = float(abs(np.mean(gap_sphere_density(rho, sphere)) - 1.0))
            rows.append({"dim": d, "trial": i, "discrepancy": cov_err,
                         "passed": cov_err < cfg.epsilon, "auxiliary": norm_err})
        disc = np.array([r["discrepancy"] for r in rows])
        points.append(PointSummary(
            dim=d, pass_fraction=float(np.mean([r["passed"] for r in rows])),
            median=float(np.median(disc)), q10=float(np.quantile(disc, 0.1)),
            q90=float(np.quantile(disc, 0.9)), reference=0.0,
            threshold=cfg.epsilon, extra={},
        ))

    else:  # pragma: no cover - guarded by config validation
        raise ConfigError(f"experiment: unknown value {name!r}")

    return rows, points


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the experiment and assemble the report (no file output)."""
    start = time.perf_counter()
    rows, points = _dispatch(cfg)
    for p in points:
        # the configured confidence target: at least 1 - delta of trials pass
        p.extra["meets_delta"] = bool(p.pass_fraction >= 1.0 - cfg.delta)
    wall = time.perf_counter() - start
    return ExperimentReport(config=cfg.to_dict(), rows=rows, points=points,
                            wall_time_s=wall, version=__version__, seed=cfg.seed)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def trials_csv(report: ExperimentReport) -> str:
    lines = ["experiment,dim,trial,discrepancy,pass,auxiliary"]
    name = report.config["experiment"]
    for r in report.rows:
        lines.append(",".join([
            name, _fmt(r["dim"]), _fmt(r["trial"]), _fmt(r["discrepancy"]),
            _fmt(r["passed"]), _fmt(r["auxiliary"]),
        ]))
    return "\n".join(lines) + "\n"


def emit_plot_data(report: ExperimentReport) -> str:
    """Plot-ready series: one row per sweep point (single row when there is
    no sweep)."""
    if not report.points:
        raise ConfigError("report contains no sweep points")
    lines = ["dim,median,q10,q90,pass_fraction"]
    for p in report.points:
        lines.append(",".join([
            _fmt(p.dim), _fmt(p.median), _fmt(p.q10), _fmt(p.q90),
            _fmt(p.pass_fraction),
        ]))
    return "\n".join(lines) + "\n"


def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def summary_json(report: ExperimentReport) -> str:
    payload = {
        "config": _jsonable(report.config),
        "library_version": report.version,
        "seed": report.seed,
        "wall_time_s": report.wall_time_s,
        "summary": {
            "n_records": len(report.rows),
            "pass_fraction": report.pass_fraction,
            "points": [
                {
                    "dim": p.dim, "pass_fraction": p.pass_fraction,
                    "median_discrepancy": p.median, "q10": p.q10, "q90": p.q90,
                    "reference": p.reference, "threshold": p.threshold,
                    "extra": _jsonable(p.extra),
                }
                for p in report.points
            ],
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(report: ExperimentReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for fname, text in (
        ("trials.csv", trials_csv(report)),
        ("summary.json", summary_json(report)),
        ("plotdata.csv", emit_plot_data(report)),
    ):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Presets and entry point
# ---------------------------------------------------------------------------

PRESETS: dict[str, dict] = {
    "theorem1-default": {
        "experiment": "theorem1", "d1": 2,
        "rho_spec": {"spectrum": [0.7, 0.3], "basis_seed": None},
        "f_spec": {"kind": "overlap_sq", "phi": "e1"},
        "epsilon": 0.1, "delta": 0.1, "n_trials": 500,
        "sweep": {"d2": [16, 64, 256]}, "seed": 20260810,
    },
    "theorem1-cap-sweep": {
        "experiment": "theorem1", "d1": 2,
        "rho_spec": {"spectrum": [0.7, 0.3], "basis_seed": None},
        "f_spec": {"kind": "cap_indicator", "phi": "e1", "threshold": 0.5},
        "epsilon": 0.1, "delta": 0.1, "n_trials": 500,
        "sweep": {"d2": [16, 64, 256]}, "seed": 20260810,
    },
    "theorem2-default": {
        "experiment": "theorem2", "d1": 2, "d2": 64,
        "rho_spec": {"spectrum": [0.7, 0.3], "basis_seed": None},
        "f_spec": {"kind": "cap_indicator", "phi": "e1", "threshold": 0.5},
        "epsilon": 0.1, "delta": 0.1, "n_trials": 500, "seed": 20260811,
    },
    "theorem3-fullspace": {
        "experiment": "theorem3", "d1": 2, "d2": 64, "dR": 128,
        "f_spec": {"kind": "overlap_sq", "phi": "e1"},
        "epsilon": 0.1, "delta": 0.1, "n_trials": 300, "seed": 20260812,
    },
    "theorem4-fullspace": {
        "experiment": "theorem4", "d1": 2, "d2": 64, "dR": 128,
        "rho_spec": {"spectrum": [0.5, 0.5], "basis_seed": None},
        "f_spec": {"kind": "cap_indicator", "phi": "e1", "threshold": 0.5},
        "epsilon": 0.15, "delta": 0.15, "n_trials": 300, "seed": 20260813,
    },
    "canonical-typicality-default": {
        "experiment": "canonical_typicality", "d1": 2, "d2": 50, "dR": 100,
        "n_trials": 1000, "seed": 20260814,
    },
    "thermal-twolevel": {
        "experiment": "thermal", "system_levels": [0.0, 1.0],
        "bath_spec": {"count": 200, "min": 0.0, "max": 20.0},
        "window": {"energy": 10.0, "width": 0.5},
        "f_spec": {"kind": "polynomial", "phi": "balanced",
                   "coefficients": [0.0, 0.0, 1.0]},
        "epsilon": 0.15, "delta": 0.15, "n_trials": 300, "seed": 20260815,
    },
    "submatrix-k1": {
        "experiment": "submatrix", "d1": 1, "sweep": {"d2": [4, 16, 64, 256]},
        "n_samples": 10_000, "epsilon": 0.02, "seed": 20260816,
    },
    "continuity-d2": {
        "experiment": "continuity", "d1": 2, "gamma": 0.1,
        "n_trials": 200, "n_samples": 10_000, "epsilon": 0.5, "seed": 20260817,
    },
    "gap-selftest": {
        "experiment": "gap_selftest", "d1": 4, "n_trials": 5,
        "n_samples": 100_000, "epsilon": 0.01, "seed": 20260818,
    },
}

PRESET_NOTES = {
    "theorem1-default": "random purifications, fixed basis, overlap test function, d2 sweep",
    "theorem1-cap-sweep": "same sweep with a cap indicator (nonlinear statistic)",
    "theorem2-default": "frozen state, random bases at d2=64",
    "theorem3-fullspace": "full product space as the subspace, continuous test function",
    "theorem4-fullspace": "full product space against the maximally mixed target",
    "canonical-typicality-default": "reduced-state concentration at d1=2, d2=50, dim 100",
    "thermal-twolevel": "two-level system, 200-level bath, energy window [10, 10.5]",
    "submatrix-k1": "scaled Haar entries versus the Gaussian limit over n",
    "continuity-d2": "GAP density modulus of continuity at spectrum floor 0.1",
    "gap-selftest": "GAP sampler covariance and sphere-density normalization",
}


def preset_config(name: str, overrides: dict | None = None) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; see `gaplab presets`")
    raw = json.loads(json.dumps(PRESETS[name]))  # deep copy
    raw.update(overrides or {})
    return ExperimentConfig.from_dict(raw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="Monte Carlo experiments for GAP measures and conditional wave functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a config file or preset")
    src = runp.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a JSON experiment configuration")
    src.add_argument("--preset", help="name of a built-in configuration")
    runp.add_argument("--seed", type=int, help="override the configured seed")
    runp.add_argument("--out", default="out", help="output directory (default: ./out)")
    runp.add_argument("--trials", type=int, help="override the configured n_trials")
    sub.add_parser("presets", help="list the built-in configurations")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "presets":
        for name in sorted(PRESETS):
            print(f"{name:32s} {PRESET_NOTES[name]}")
        return 0
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    try:
        if args.config:
            cfg = parse_config(args.config, overrides)
        else:
            cfg = preset_config(args.preset, overrides)
        report = run(cfg)
        write_report(report, args.out)
    except GaplabError as exc:
        print(f"gaplab: error: {exc}", file=sys.stderr)
        return 1
    print(f"{cfg.experiment}: {len(report.rows)} records, "
          f"pass fraction {report.pass_fraction:.3f}, "
          f"outputs in {os.path.abspath(args.out)}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
