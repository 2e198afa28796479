"""Batch experiment front end.

Reads a declarative JSON configuration (or a named built-in preset) and
runs it through one table of experiments, ``EXPERIMENTS``: each entry names
the keys it may sweep and maps the configuration of one sweep point to a
library driver call on the point's stream, ``RngStream(seed, point)``, whose
trials come back as the columns of one ``ExperimentOutcome``.  The report
reads each point's statistics from its outcome and persists three files to
the output directory:

* ``trials.csv``   -- one row per trial, numbered from 0 at each point, pinned
  CSV dialect (comma separated, LF line endings, '.' decimal, no quoting).
* ``summary.json`` -- the fully resolved configuration plus summary
  statistics, reference values, wall time, library version and seed.
* ``plotdata.csv`` -- one row per sweep point with the columns
  ``dim,median,q10,q90,pass_fraction``.

Identical configuration and seed produce byte-identical trials.csv and
plotdata.csv, however the trial engine chunks the trials (summary.json
differs only in its wall-time field).  The exit code reflects operational
success only; scientific pass/fail lives in summary.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, GaplabError
from .hilbert import DensityMatrix
from .randomness import MAX_TRIALS, RngStream, haar_unitary
from . import typicality as T

F_KINDS = ("overlap_sq", "real_part", "cap_indicator", "polynomial")

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
    try:
        finite = (not isinstance(value, bool) and isinstance(value, _NUMERIC)
                  and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return float(value)


def _numbers(key: str, value) -> np.ndarray:
    """A nonempty list of finite numbers as a float array, or a ConfigError
    naming the key."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{key}: expected a nonempty list of numbers, got {value!r}")
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
        if self.n_trials > MAX_TRIALS:
            raise ConfigError(f"n_trials: must be at most 2**32, got {self.n_trials}")
        if self.dR is not None:
            self.dR = _integer("dR", self.dR, 1)
        self.seed = _integer("seed", self.seed, 0)
        for key in ("epsilon", "delta", "gamma"):
            v = _number(key, getattr(self, key))
            if not 0.0 < v < 1.0:
                raise ConfigError(f"{key}: must lie in (0, 1), got {v}")
            setattr(self, key, v)
        for key, allowed in (("rho_spec", {"spectrum", "basis_seed"}),
                             ("f_spec", {"kind", "phi", "threshold", "coefficients"}),
                             ("bath_spec", {"count", "min", "max", "levels"}),
                             ("window", {"energy", "width"})):
            spec = getattr(self, key)
            if not isinstance(spec, dict):
                raise ConfigError(f"{key}: expected a JSON object, got {spec!r}")
            unknown = sorted(map(str, set(spec) - allowed))
            if unknown:
                raise ConfigError(f"{key}: unknown key(s): {', '.join(unknown)}")
        for key in ("energy", "width"):
            _number(f"window.{key}", self.window.get(key))
        if self.sweep is not None:
            if (not isinstance(self.sweep, dict) or len(self.sweep) != 1
                    or not isinstance(next(iter(self.sweep.values())), list)):
                raise ConfigError('sweep: expected {"d2": [...]} or {"dR": [...]}')
            param, values = next(iter(self.sweep.items()))
            if param not in EXPERIMENTS[self.experiment].sweeps:
                raise ConfigError(f"sweep: experiment {self.experiment!r} "
                                  f"cannot sweep {param!r}")
            if not values:
                raise ConfigError("sweep: expected at least one value")
            self.sweep = {param: [_integer("sweep", v, 1) for v in values]}
        if self.f_spec.get("kind") not in F_KINDS:
            raise ConfigError(f"f_spec.kind: unknown value {self.f_spec.get('kind')!r}")
        for f in fields(self):  # summary.json echoes every field
            try:
                json.dumps(getattr(self, f.name))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{f.name}: not JSON-serializable ({exc})") from None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        if "experiment" not in raw:
            raise ConfigError("experiment: required key is missing")
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)


def parse_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a JSON configuration file, applying flag overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, no read permission, ...
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except ValueError as exc:  # a JSONDecodeError, or an int of over 4300 digits
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw.update(overrides or {})
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# Configuration resolution helpers
# ---------------------------------------------------------------------------

def _named(key: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, with a library error re-raised as a
    ConfigError naming ``key``."""
    try:
        return call(*args, **kwargs)
    except GaplabError as exc:
        raise ConfigError(f"{key}: {exc}") from None


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
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(arr)
    if not 0.0 < norm < math.inf:  # the norm TestFunction divides by
        raise ConfigError(f"f_spec.phi: must be a nonzero vector of finite norm, got {spec!r}")
    return arr


def _resolve_f(cfg: ExperimentConfig, dim: int) -> T.TestFunction:
    spec = cfg.f_spec
    phi = _resolve_phi(spec.get("phi", "e1"), dim)
    kind = spec["kind"]
    if kind == "cap_indicator":
        return _named("f_spec.threshold", T.cap_indicator, phi,
                      _number("f_spec.threshold", spec.get("threshold", 0.5)))
    if kind == "polynomial":
        return _named("f_spec.coefficients", T.polynomial, phi,
                      _numbers("f_spec.coefficients", spec.get("coefficients", [0.0, 1.0])))
    return T.TestFunction(kind, phi)


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
    return _named("rho_spec.spectrum", DensityMatrix.from_spectrum, spectrum, basis)


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


# ---------------------------------------------------------------------------
# The experiment table
# ---------------------------------------------------------------------------
#
# Each entry checks the configuration of one sweep point, with the swept
# value in place (a library check that a config value fails becomes a
# ConfigError naming the key), and returns the point's dimension and a
# function that draws the point's trials from the point's stream as one
# ExperimentOutcome.  run() hands point p the stream RngStream(seed, p);
# trial i draws from its substream i, a Monte Carlo reference from
# substream n_trials, a fixed state or subspace from substream n_trials + 1,
# and a single-generator experiment from stream.generator().

def _purification_inputs(cfg: ExperimentConfig):
    if cfg.d2 < cfg.d1:
        raise ConfigError(f"d2: a purification needs d2 >= d1 = {cfg.d1}, got {cfg.d2}")
    return _resolve_rho(cfg, cfg.d1), _resolve_f(cfg, cfg.d1)


def _theorem1(cfg: ExperimentConfig):
    rho1, f = _purification_inputs(cfg)
    return cfg.d2, lambda stream: T.random_purification_experiment(
        stream, rho1, cfg.d2, f, cfg.epsilon, cfg.n_trials)


def _theorem2(cfg: ExperimentConfig):
    rho1, f = _purification_inputs(cfg)
    return cfg.d2, lambda stream: T.random_basis_experiment(
        stream, T.random_purification(stream.substream(cfg.n_trials + 1).generator(),
                                      rho1, cfg.d2), f, cfg.epsilon, cfg.n_trials)


def _on_subspace(cfg: ExperimentConfig, driver):
    """The point's dimension dR (default d1 * d2) and its draw function,
    which runs ``driver(stream, subspace)`` on the point's stream and a random
    dR-dimensional subspace drawn from its substream n_trials + 1."""
    total = cfg.d1 * cfg.d2
    dr = cfg.dR if cfg.dR is not None else total
    if dr > total:
        raise ConfigError(f"dR: subspace dimension must lie in [1, {total}], got {dr}")
    return dr, lambda stream: driver(stream, T.random_subspace(
        stream.substream(cfg.n_trials + 1).generator(), cfg.d1, cfg.d2, dr))


def _theorem3(cfg: ExperimentConfig):
    f = _resolve_f(cfg, cfg.d1)
    if not f.is_continuous:
        raise ConfigError(f"f_spec.kind: theorem3 needs a continuous test function, "
                          f"got {f.kind!r}")
    return _on_subspace(cfg, lambda stream, subspace: T.shell_universality_experiment(
        stream, subspace, f, cfg.epsilon, cfg.n_trials))


def _theorem4(cfg: ExperimentConfig):
    f = _resolve_f(cfg, cfg.d1)
    omega = _resolve_rho(cfg, cfg.d1)
    if omega.min_eigenvalue <= 0.0:
        raise ConfigError("rho_spec.spectrum: theorem4 needs a strictly positive target")
    return _on_subspace(cfg, lambda stream, subspace: T.shell_vs_target_experiment(
        stream, subspace, omega, f, cfg.epsilon, cfg.n_trials))


def _canonical_typicality(cfg: ExperimentConfig):
    return _on_subspace(cfg, lambda stream, subspace: T.canonical_typicality_experiment(
        stream, subspace, cfg.n_trials))


def _submatrix(cfg: ExperimentConfig):
    if cfg.d2 < 2 * cfg.d1:
        raise ConfigError(f"d2: submatrix needs d2 >= 2 d1 = {2 * cfg.d1}, got {cfg.d2}")
    return cfg.d2, lambda stream: T.submatrix_convergence_experiment(
        stream, cfg.d1, cfg.d2, cfg.n_samples, cfg.epsilon)


def _continuity(cfg: ExperimentConfig):
    if not cfg.gamma < 1.0 / cfg.d1:
        raise ConfigError(f"gamma: must lie below 1/d1 = {1.0 / cfg.d1}, got {cfg.gamma}")
    return cfg.d1, lambda stream: T.continuity_probe(
        stream, cfg.d1, cfg.gamma, cfg.n_trials, cfg.epsilon, n_probe=cfg.n_samples)


def _thermal(cfg: ExperimentConfig):
    system = _numbers("system_levels", cfg.system_levels)
    bath = _resolve_bath(cfg)
    shell = _named("window", T.microcanonical_shell, system, bath,
                   float(cfg.window["energy"]), float(cfg.window["width"]))
    if not np.all(shell.counts):
        raise ConfigError(f"window: every system level needs a level pair in the "
                          f"window, got counts {shell.counts.tolist()}")
    f = _resolve_f(cfg, shell.d1)
    return shell.dim, lambda stream: T.thermal_experiment(
        stream, system, shell, f, cfg.epsilon, cfg.n_trials)


def _gap_selftest(cfg: ExperimentConfig):
    return cfg.d1, lambda stream: T.gap_selftest_experiment(
        stream, cfg.d1, cfg.gamma, cfg.epsilon, cfg.n_trials, cfg.n_samples)


class Experiment(NamedTuple):
    sweeps: tuple          # the config keys this experiment may sweep
    run: Callable          # config at the point -> (dim, point stream -> outcome)


EXPERIMENTS = {
    "theorem1": Experiment(("d2",), _theorem1),
    "theorem2": Experiment(("d2",), _theorem2),
    "theorem3": Experiment(("d2", "dR"), _theorem3),
    "theorem4": Experiment(("d2", "dR"), _theorem4),
    "canonical_typicality": Experiment(("dR",), _canonical_typicality),
    "submatrix": Experiment(("d2",), _submatrix),
    "continuity": Experiment((), _continuity),
    "thermal": Experiment((), _thermal),
    "gap_selftest": Experiment((), _gap_selftest),
}


# ---------------------------------------------------------------------------
# Running and reporting
# ---------------------------------------------------------------------------

class Point(NamedTuple):
    """One sweep point: its label and its trials."""

    dim: int
    outcome: T.ExperimentOutcome


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    points: list          # Point per sweep point
    wall_time_s: float

    @property
    def n_records(self) -> int:
        return sum(len(p.outcome.discrepancies) for p in self.points)

    @property
    def pass_fraction(self) -> float:
        return float(np.mean(np.concatenate([p.outcome.passed for p in self.points])))


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the experiment and assemble the report (no file output).

    A sweep (of a key the experiment's table entry allows, checked with the
    config) runs the entry once per value, with the value in place of the
    swept key, and checks every point before the first one draws.  Point p
    draws from RngStream(seed, p) and is labelled by its swept value, or by
    the entry's own dimension when nothing is swept."""
    start = time.perf_counter()
    experiment = EXPERIMENTS[cfg.experiment]
    param, values = next(iter(cfg.sweep.items())) if cfg.sweep else (None, [None])
    checked = [experiment.run(cfg if param is None else replace(cfg, **{param: value}))
               for value in values]
    points = [Point(dim if param is None else value, draw(RngStream(cfg.seed, point)))
              for point, (value, (dim, draw)) in enumerate(zip(values, checked))]
    return ExperimentReport(config=cfg.to_dict(), points=points,
                            wall_time_s=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def trials_csv(report: ExperimentReport) -> str:
    """One row per trial, formatted a column at a time: floats by ``repr``,
    pass flags as 1/0."""
    lines = ["experiment,dim,trial,discrepancy,pass,auxiliary"]
    name = report.config["experiment"]
    for p in report.points:
        out = p.outcome
        columns = (map(str, range(len(out.discrepancies))),
                   map(repr, out.discrepancies.tolist()),
                   np.where(out.passed, "1", "0").tolist(),
                   map(repr, out.auxiliary.tolist()))
        prefix = f"{name},{p.dim},"
        lines.extend(prefix + ",".join(row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def emit_plot_data(report: ExperimentReport) -> str:
    """Plot-ready series: one row per sweep point (single row when there is
    no sweep)."""
    if not report.points:
        raise ConfigError("report contains no sweep points")
    lines = ["dim,median,q10,q90,pass_fraction"]
    for dim, o in report.points:
        lines.append(",".join([str(dim)] + [repr(v) for v in (
            o.median_discrepancy, o.quantile(0.1), o.quantile(0.9), o.pass_fraction)]))
    return "\n".join(lines) + "\n"


def summary_json(report: ExperimentReport) -> str:
    delta = report.config["delta"]
    payload = {
        "config": report.config,
        "library_version": __version__,
        "seed": report.config["seed"],
        "wall_time_s": report.wall_time_s,
        "summary": {
            "n_records": report.n_records,
            "pass_fraction": report.pass_fraction,
            "points": [
                {
                    "dim": dim, "pass_fraction": o.pass_fraction,
                    "median_discrepancy": o.median_discrepancy,
                    "q10": o.quantile(0.1), "q90": o.quantile(0.9),
                    "reference": o.reference, "threshold": o.threshold,
                    # the configured confidence target: at least 1 - delta of trials pass
                    "extra": {**o.extra, "meets_delta": o.pass_fraction >= 1.0 - delta},
                }
                for dim, o in report.points
            ],
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(report: ExperimentReport, out_dir: str) -> None:
    """Write the three report files into ``out_dir``, creating it; an OS
    error (``out_dir`` names a file, no write permission, ...) becomes a
    ConfigError naming the path."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        for fname, text in (
            ("trials.csv", trials_csv(report)),
            ("summary.json", summary_json(report)),
            ("plotdata.csv", emit_plot_data(report)),
        ):
            with open(os.path.join(out_dir, fname), "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write the report to {exc.filename or out_dir}: "
                          f"{exc.strerror}")


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
    print(f"{cfg.experiment}: {report.n_records} records, "
          f"pass fraction {report.pass_fraction:.3f}, "
          f"outputs in {os.path.abspath(args.out)}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
