import json
import subprocess
import sys
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab.cli import (
    EXPERIMENTS,
    F_KINDS,
    MAX_ENTRIES,
    ExperimentConfig,
    ExperimentReport,
    PRESETS,
    Point,
    emit_plot_data,
    main,
    parse_config,
    preset_config,
    run,
    summary_json,
    trials_csv,
    write_report,
)
import gaplab
from gaplab import typicality
from gaplab.errors import ConfigError
from gaplab.randomness import RngStream, haar_unitary

from _oracles import two_sample_ks


TINY = {
    "experiment": "theorem1",
    "d1": 2,
    "d2": 8,
    "rho_spec": {"spectrum": [0.7, 0.3], "basis_seed": None},
    "f_spec": {"kind": "cap_indicator", "phi": "e1", "threshold": 0.5},
    "epsilon": 0.2,
    "n_trials": 20,
    "seed": 99,
}


# The keys each experiment may sweep.
SWEEPABLE = {
    "theorem1": {"d2"}, "theorem2": {"d2"}, "submatrix": {"d2"},
    "canonical_typicality": {"dR"}, "theorem3": {"d2", "dR"},
    "theorem4": {"d2", "dR"}, "continuity": set(), "thermal": set(),
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseConfig:
    def test_minimal_config_populates_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"experiment": "theorem1"}))
        assert cfg.d1 == 2 and cfg.n_trials == 100
        assert cfg.f_spec["kind"] == "overlap_sq"
        # the echo is fully resolved
        assert set(cfg.to_dict()) >= {"epsilon", "delta", "seed", "sweep"}

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/nope.json")

    def test_epsilon_out_of_range_names_key(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "theorem1", "epsilon": 1.5})
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(path)

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "theorem1", "bogus_knob": 3})
        with pytest.raises(ConfigError, match="bogus_knob"):
            parse_config(path)

    def test_unknown_experiment(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "theorem9"})
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(path)

    def test_sweep_schedules_subexperiments(self, tmp_path):
        payload = dict(TINY, sweep={"d2": [8, 16, 32]}, n_trials=5)
        cfg = parse_config(write_config(tmp_path, payload))
        report = run(cfg)
        assert [p.dim for p in report.points] == [8, 16, 32]
        assert report.n_records == 15

    def test_malformed_sweep_rejected(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "theorem1",
                                       "sweep": {"d3": [1]}})
        with pytest.raises(ConfigError, match="sweep"):
            parse_config(path)

    @pytest.mark.parametrize("param", ["d2", "dR"])
    @pytest.mark.parametrize("experiment", sorted(SWEEPABLE))
    def test_unsupported_sweep_parameter_rejected(self, experiment, param):
        raw = {"experiment": experiment, "d1": 2, "d2": 8, "n_trials": 2,
               "n_samples": 50, "seed": 3, "sweep": {param: [4]}}
        if param in SWEEPABLE[experiment]:
            assert [p.dim for p in run(ExperimentConfig.from_dict(raw)).points] == [4]
        else:
            with pytest.raises(ConfigError, match="sweep"):
                run(ExperimentConfig.from_dict(raw))

    def test_subspace_experiment_can_sweep_either_dimension(self):
        base = {"experiment": "theorem3", "d1": 2, "d2": 8, "n_trials": 5,
                "seed": 5, "f_spec": {"kind": "overlap_sq", "phi": "e1"}}
        by_dr = run(ExperimentConfig.from_dict(dict(base, sweep={"dR": [4, 16]})))
        assert [p.dim for p in by_dr.points] == [4, 16]
        by_d2 = run(ExperimentConfig.from_dict(dict(base, sweep={"d2": [8, 16]})))
        assert [p.dim for p in by_d2.points] == [8, 16]

    def test_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, TINY)
        cfg = parse_config(path, {"seed": 7, "n_trials": 3})
        assert cfg.seed == 7 and cfg.n_trials == 3


class TestConfigErrorsNameTheKey:
    @pytest.mark.parametrize("key, value", [
        ("seed", -1),
        ("f_spec", "x"),
        ("n_trials", True),
        ("n_trials", 2.5),
        ("d2", "64"),
        ("epsilon", "0.1"),
        ("window", {"energy": "ten", "width": 0.5}),
    ])
    def test_bad_value_is_config_error(self, tmp_path, key, value):
        path = write_config(tmp_path, dict(TINY, **{key: value}))
        with pytest.raises(ConfigError, match=key):
            parse_config(path)

    def test_integral_float_accepted(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, dict(TINY, n_trials=20.0)))
        assert cfg.n_trials == 20 and isinstance(cfg.n_trials, int)

    def test_numpy_scalar_in_spec_rejected_before_drawing(self, monkeypatch):
        # summary.json echoes the config, and json cannot write a float32.
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking the config")

        monkeypatch.setattr(RngStream, "generator", no_draws)
        spec = {"kind": "cap_indicator", "phi": "e1", "threshold": np.float32(0.5)}
        with pytest.raises(ConfigError, match="^f_spec: not JSON-serializable"):
            run(ExperimentConfig.from_dict(dict(TINY, f_spec=spec)))

    def test_float64_in_spec_accepted_and_echoed(self, tmp_path):
        # np.float64 is a float subclass, so json writes it as a plain number.
        spec = {"kind": "cap_indicator", "phi": "e1", "threshold": np.float64(0.5)}
        cfg = ExperimentConfig.from_dict(dict(TINY, f_spec=spec))
        write_report(run(cfg), str(tmp_path))
        echo = json.loads((tmp_path / "summary.json").read_text())["config"]["f_spec"]
        assert echo == {"kind": "cap_indicator", "phi": "e1", "threshold": 0.5}

    def test_negative_seed_flag_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(TINY))
        assert main(["run", "--config", path, "--out", str(tmp_path / "x"),
                     "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err

    # Values read only when the experiment runs, so checked through main.
    @pytest.mark.parametrize("key, update", [
        ("f_spec.threshold", {"f_spec": {"kind": "cap_indicator", "threshold": "x"}}),
        ("f_spec.coefficients", {"f_spec": {"kind": "polynomial", "coefficients": 3}}),
        ("f_spec.phi", {"f_spec": {"kind": "overlap_sq", "phi": [1, 0]}}),
        ("rho_spec.spectrum", {"rho_spec": {"spectrum": "ab"}}),
        ("rho_spec.basis_seed", {"rho_spec": {"spectrum": [0.5, 0.5], "basis_seed": "s"}}),
        ("bath_spec.count", {"experiment": "thermal",
                             "bath_spec": {"count": "x", "min": 0, "max": 1}}),
        ("system_levels", {"experiment": "thermal", "system_levels": "x"}),
        ("f_spec.coefficients", {"f_spec": {"kind": "polynomial", "coefficients": []}}),
        ("f_spec.threshold", {"f_spec": {"kind": "cap_indicator", "threshold": 1.5}}),
        ("f_spec.phi", {"f_spec": {"kind": "overlap_sq", "phi": [[0, 0], [0, 0]]}}),
        ("d2", {"d2": 1}),
        ("d2", {"experiment": "theorem2", "d2": 1}),
        ("gamma", {"experiment": "continuity", "d1": 20, "gamma": 0.1}),
        ("f_spec.kind", {"experiment": "theorem3"}),
        ("dR", {"experiment": "theorem3", "f_spec": {"kind": "overlap_sq"}, "dR": 17}),
        ("dR", {"experiment": "theorem4", "dR": 17}),
        ("dR", {"experiment": "canonical_typicality", "dR": 17}),
        ("window", {"experiment": "thermal", "window": {"energy": 10.0, "width": -1}}),
        ("window", {"experiment": "thermal", "window": {"energy": -100.0, "width": 0.5}}),
        ("window", {"experiment": "thermal", "window": {"energy": 0.0, "width": 0.05}}),
        ("d2", {"experiment": "submatrix", "d1": 2, "d2": 3}),
        ("rho_spec.spectrum", {"experiment": "theorem4", "rho_spec": {"spectrum": [1.0, 0.0]}}),
        ("rho_spec.spectrum", {"rho_spec": {"spectrum": [1.5, -0.5]}}),
        ("rho_spec.spectrum", {"rho_spec": {"spectrum": [0.2, 0.3, 0.5]}}),
        ("sweep", {"sweep": {"d2": 16}}),
        ("sweep", {"sweep": {"d2": [16], "dR": [4]}}),
        ("sweep", {"sweep": [16, 32]}),
        ("sweep", {"sweep": {"d2": []}}),
        ("f_spec.kind", {"f_spec": {"kind": "cubic"}}),
        ("f_spec.phi", {"f_spec": {"kind": "overlap_sq", "phi": "e"}}),
        ("f_spec.phi", {"f_spec": {"kind": "overlap_sq", "phi": "x1"}}),
        ("f_spec.phi", {"f_spec": {"kind": "overlap_sq", "phi": 5}}),
        ("f_spec.phi", {"f_spec": {"kind": "overlap_sq", "phi": [[1, 0]]}}),
        # Names that int() reads, as e10 and e2: 0.27.1 ran them.
        ("f_spec.phi", {"d1": 10, "d2": 10, "rho_spec": {"spectrum": None},
                        "f_spec": {"kind": "overlap_sq", "phi": "e1_0"}}),
        ("f_spec.phi", {"f_spec": {"kind": "overlap_sq", "phi": "e+2"}}),
        ("f_spec.phi", {"f_spec": {"kind": "overlap_sq", "phi": "e 2"}}),
        ("bath_spec", {"experiment": "thermal", "bath_spec": {"count": 10, "max": 1.0}}),
        # levels with the keys of the other form: 0.27.1 ignored and echoed them.
        ("bath_spec", {"experiment": "thermal",
                       "bath_spec": {"levels": [9.0, 9.5, 10.0, 10.2], "count": 10}}),
        ("bath_spec", {"experiment": "thermal",
                       "bath_spec": {"levels": [9.0, 9.5, 10.0, 10.2], "min": 0, "max": 1}}),
        # The engine's (2, n_trials) float output would exceed MAX_ENTRIES.
        ("n_trials", {"n_trials": 2**33, "f_spec": {"kind": "overlap_sq", "phi": "e1"}}),
        # Unknown keys inside the nested specs.
        ("f_spec", {"f_spec": {"kind": "cap_indicator", "threshhold": 0.3}}),
        ("rho_spec", {"rho_spec": {"spectrum": [0.5, 0.5], "basis": 5}}),
        ("bath_spec", {"experiment": "thermal",
                       "bath_spec": {"count": 10, "min": 0, "max": 1, "step": 0.1}}),
        ("window", {"experiment": "thermal",
                    "window": {"energy": 10.0, "width": 0.5, "centre": 10.25}}),
        # Integers beyond the float range.
        ("epsilon", {"epsilon": 10**400}),
        ("window.energy", {"experiment": "thermal",
                           "window": {"energy": 10**400, "width": 0.5}}),
        ("rho_spec.spectrum", {"rho_spec": {"spectrum": [10**400, 0]}}),
        # phi whose norm overflows.
        ("f_spec.phi", {"f_spec": {"kind": "cap_indicator",
                                   "phi": [[1e308, 1e308], [1e308, 0]]}}),
        ("f_spec.phi", {"f_spec": {"kind": "overlap_sq",
                                   "phi": [[1e308, 1e308], [1e308, 0]]}}),
        # Empty level lists.
        ("system_levels", {"experiment": "thermal", "system_levels": []}),
        ("bath_spec.levels", {"experiment": "thermal", "bath_spec": {"levels": []}}),
        # Sizes whose largest array exceeds MAX_ENTRIES, checked before any
        # allocation (numpy raised "Maximum allowed dimension exceeded" or an
        # OverflowError for each of these in 0.15.0).
        ("d2", {"d2": 10**30}),
        ("d2", {"experiment": "theorem3", "f_spec": {"kind": "overlap_sq"}, "d2": 10**30}),
        ("d2", {"experiment": "canonical_typicality", "d2": 10**30}),
        ("d1", {"d1": 10**30, "d2": 10**30, "rho_spec": {"spectrum": None}}),
        ("n_samples", {"experiment": "submatrix", "n_samples": 10**30}),
        ("n_samples", {"experiment": "continuity", "n_samples": 10**30}),
        ("bath_spec.count", {"experiment": "thermal",
                             "bath_spec": {"count": 10**30, "min": 0, "max": 20}}),
        ("d2", {"experiment": "submatrix", "d1": 1, "d2": 10**30}),
        ("dR", {"experiment": "theorem3", "f_spec": {"kind": "overlap_sq"}, "d2": 5000,
                "dR": 9999}),
        ("system_levels", {"experiment": "thermal", "system_levels": list(range(8193))}),
        ("experiment", {"experiment": ["theorem1"]}),
        ("f_spec.coefficients", {"f_spec": {"kind": "polynomial",
                                            "coefficients": [1e308, 1e308]}}),
        ("f_spec.coefficients", {"f_spec": {"kind": "polynomial",
                                            "coefficients": [0.0, 1e308, 1e308, 1e308]}}),
        # Bound 0: threshold 0 failed every trial in 0.16.0.
        ("f_spec.coefficients", {"f_spec": {"kind": "polynomial", "coefficients": [0.0]}}),
        # Bound 1e-323: epsilon * bound underflowed to 0 and failed every
        # trial in 0.16.1, in each experiment that scales its threshold.
        ("f_spec.coefficients", {"n_trials": 5, "f_spec": {
            "kind": "polynomial", "phi": "e1", "coefficients": [1e-323]}}),
        ("f_spec.coefficients", {"experiment": "theorem2", "f_spec": {
            "kind": "polynomial", "coefficients": [1e-323]}}),
        ("f_spec.coefficients", {"experiment": "theorem4", "f_spec": {
            "kind": "polynomial", "coefficients": [1e-323]}}),
        ("f_spec.coefficients", {"experiment": "thermal", "f_spec": {
            "kind": "polynomial", "coefficients": [1e-323]}}),
        # theorem3 judged within epsilon alone until 0.27.2 and ran it.
        ("f_spec.coefficients", {"experiment": "theorem3", "f_spec": {
            "kind": "polynomial", "coefficients": [1e-323]}}),
        # Keys that the kind ignores: 0.18.0 ran and echoed them in summary.json.
        ("f_spec.threshold", {"f_spec": {"kind": "overlap_sq", "phi": "e1",
                                         "threshold": 0.3, "coefficients": [1, 2]}}),
        ("f_spec.coefficients", {"f_spec": {"kind": "overlap_sq", "coefficients": [1, 2]}}),
        ("f_spec.coefficients", {"f_spec": {"kind": "cap_indicator", "threshold": 0.5,
                                            "coefficients": [1.0]}}),
        ("f_spec.threshold", {"f_spec": {"kind": "polynomial", "threshold": 0.3}}),
        ("f_spec.threshold", {"experiment": "theorem3",
                              "f_spec": {"kind": "real_part", "threshold": "x"}}),
    ])
    def test_bad_config_file_exits_1_naming_the_key(self, tmp_path, capsys, key, update):
        path = write_config(tmp_path, dict(TINY, **update))
        assert main(["run", "--config", path, "--out", str(tmp_path / "x")]) == 1
        assert f"error: {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, out, message", [
        ('{"d1": 2}', "x", "experiment: required key is missing"),
        ('{"experiment": "theorem1",', "x", "config file is not valid JSON"),
        ('["theorem1"]', "x", "config root must be a JSON object"),
        ('{"experiment": "theorem1", "seed": 1' + "0" * 5000 + "}", "x",
         "config file is not valid JSON"),
        # OS errors name the path: the config path is a directory (text
        # None), or --out names an existing file, here the config file.
        (None, "x", "cannot read config file {config}: "),
        (json.dumps(TINY), "config.json", "cannot write the report to {out}: "),
    ])
    def test_bad_config_text_exits_1(self, tmp_path, capsys, text, out, message):
        path, out = tmp_path / "config.json", tmp_path / out
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert f"error: {message.format(config=path, out=out)}" in capsys.readouterr().err


# A valid configuration, every size at 64 or below, so that no check step
# allocates more than a few MB.
FINITE = st.floats(-2.0, 2.0)
VALID = st.fixed_dictionaries({
    "experiment": st.sampled_from(sorted(EXPERIMENTS)),
    "d1": st.integers(1, 4), "d2": st.integers(1, 64),
    "dR": st.one_of(st.none(), st.integers(1, 64)),
    "n_trials": st.integers(1, 64), "n_samples": st.integers(1, 64),
    "seed": st.integers(0, 2**64), "epsilon": st.floats(0.01, 0.99),
    "delta": st.floats(0.01, 0.99), "gamma": st.floats(0.01, 0.99),
    "sweep": st.one_of(st.none(), st.dictionaries(
        st.sampled_from(["d2", "dR"]), st.lists(st.integers(1, 64), min_size=1, max_size=3),
        min_size=1, max_size=1)),
    "rho_spec": st.fixed_dictionaries({
        "spectrum": st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)),
        "basis_seed": st.one_of(st.none(), st.integers(0, 100))}),
    "f_spec": st.fixed_dictionaries({"kind": st.sampled_from(F_KINDS)}, optional={
        "phi": st.one_of(st.sampled_from(["e1", "e2", "balanced"]),
                         st.lists(st.lists(FINITE, min_size=2, max_size=2), max_size=4)),
        "threshold": st.floats(0.0, 1.0),
        "coefficients": st.lists(FINITE, min_size=1, max_size=4)}),
    "system_levels": st.lists(FINITE, min_size=1, max_size=4),
    "bath_spec": st.one_of(
        st.fixed_dictionaries({"count": st.integers(1, 64), "min": FINITE, "max": FINITE}),
        st.fixed_dictionaries({"levels": st.lists(FINITE, min_size=1, max_size=64)})),
    "window": st.fixed_dictionaries({"energy": FINITE, "width": st.floats(0.01, 2.0)}),
})

# What replaces a value: a wrong type, a bool, any float (NaN, inf and the
# extremes included), a nonpositive or over-cap integer, a string, a list of
# such scalars or an object.
SCALAR = st.one_of(st.none(), st.booleans(), st.floats(), st.integers(-3, 0),
                   st.integers(MAX_ENTRIES + 1, 10**40), st.text(max_size=3))
JUNK = st.one_of(
    SCALAR, st.lists(st.one_of(SCALAR, st.floats(-2.0, 2.0)), max_size=4),
    st.dictionaries(st.sampled_from(["kind", "d2", "x"]), SCALAR, max_size=2))
NESTED = {"rho_spec": ("spectrum", "basis_seed"),
          "f_spec": ("kind", "phi", "threshold", "coefficients"),
          "bath_spec": ("count", "min", "max", "levels"), "window": ("energy", "width")}
# Every known key, nested keys as "spec.key", and an unknown key at each level.
PATHS = (["experiment", "d1", "d2", "dR", "n_trials", "n_samples", "seed", "epsilon",
          "delta", "gamma", "sweep", "system_levels", "bogus"]
         + [f"{spec}.{key}" for spec, keys in NESTED.items() for key in keys + ("bogus",)])


@st.composite
def fuzzed_configs(draw):
    """VALID with up to three values, sweep values included, replaced by JUNK."""
    raw = draw(VALID)
    for _ in range(draw(st.integers(0, 3))):
        path, value = draw(st.sampled_from(PATHS + ["sweep values"])), draw(JUNK)
        if path == "sweep values":
            raw["sweep"] = {draw(st.sampled_from(["d2", "dR"])): [draw(st.integers(1, 64)), value]}
        elif "." in path:
            spec, key = path.split(".")
            raw[spec] = {**raw[spec], key: value} if isinstance(raw[spec], dict) else value
        else:
            raw[path] = value
    return raw


@settings(database=None, deadline=None, max_examples=300)
@given(raw=fuzzed_configs())
def test_fuzzed_config_raises_only_config_errors(raw):
    # Each point's check step, as run() calls it; the draw it returns is
    # never called.
    try:
        cfg = ExperimentConfig.from_dict(raw)
        param, values = next(iter(cfg.sweep.items())) if cfg.sweep else (None, [None])
        for value in values:
            EXPERIMENTS[cfg.experiment].run(
                cfg if param is None else replace(cfg, **{param: value}))
    except ConfigError:
        pass


class TestSweepCheckedBeforeDrawing:
    @pytest.mark.parametrize("key, payload", [
        ("d2", {"experiment": "submatrix", "d1": 2, "sweep": {"d2": [256, 3]}}),
        ("d2", {"experiment": "theorem1", "d1": 2, "sweep": {"d2": [64, 1]}}),
        ("dR", {"experiment": "theorem3", "d1": 2, "d2": 4, "sweep": {"dR": [4, 9]}}),
        ("d2", {"experiment": "theorem1", "d1": 2, "sweep": {"d2": [64, 10**30]}}),
    ])
    def test_bad_late_sweep_value_exits_1_before_any_draw(self, tmp_path, capsys,
                                                          monkeypatch, key, payload):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking every sweep point")

        monkeypatch.setattr(RngStream, "generator", no_draws)
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", path, "--out", str(tmp_path / "x")]) == 1
        assert f"error: {key}:" in capsys.readouterr().err


class TestPhiResolution:
    def test_balanced_and_named(self, tmp_path):
        payload = dict(TINY, f_spec={"kind": "overlap_sq", "phi": "balanced"})
        cfg = parse_config(write_config(tmp_path, payload))
        report = run(cfg)
        assert report.points  # resolved and ran

    def test_explicit_vector(self, tmp_path):
        payload = dict(TINY,
                       f_spec={"kind": "overlap_sq", "phi": [[1.0, 0.0], [0.0, 1.0]]})
        cfg = parse_config(write_config(tmp_path, payload))
        assert run(cfg).points

    def test_bad_phi_name(self, tmp_path):
        payload = dict(TINY, f_spec={"kind": "overlap_sq", "phi": "e9"})
        with pytest.raises(ConfigError, match="phi"):
            run(parse_config(write_config(tmp_path, payload)))


class TestRunAndFiles:
    def test_run_writes_all_outputs(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(TINY))
        report = run(cfg)
        out = tmp_path / "out"
        write_report(report, str(out))
        for fname in ("trials.csv", "summary.json", "plotdata.csv"):
            assert (out / fname).exists()
        text = (out / "trials.csv").read_text()
        assert text.splitlines()[0] == "experiment,dim,trial,discrepancy,pass,auxiliary"
        assert len(text.splitlines()) == 1 + cfg.n_trials
        assert "\r" not in text

    def test_summary_echoes_resolved_config(self, tmp_path):
        report = run(ExperimentConfig.from_dict(dict(TINY)))
        payload = json.loads(summary_json(report))
        assert payload["config"]["epsilon"] == 0.2
        assert payload["config"]["delta"] == 0.1  # default made explicit
        assert payload["library_version"]
        point = payload["summary"]["points"][0]
        assert point["extra"]["meets_delta"] is (point["pass_fraction"] >= 0.9)

    @pytest.mark.parametrize("n_trials", [1, 3])
    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_summary_is_strict_json(self, tmp_path, experiment, n_trials):
        # One continuity pair has no rank correlation: 0.27.1 wrote a bare NaN.
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        write_report(run(ExperimentConfig(experiment, n_trials=n_trials)), str(tmp_path))
        json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)

    def test_numpy_scalars_echo_as_python_numbers(self):
        cfg = ExperimentConfig.from_dict(dict(TINY, n_trials=np.int64(2), seed=np.uint32(5),
                                              epsilon=np.float32(0.2), delta=np.float16(0.5)))
        report = run(cfg)
        payload = json.loads(summary_json(report))["config"]
        assert (payload["n_trials"], payload["seed"]) == (2, 5)
        assert payload["epsilon"] == float(np.float32(0.2))
        assert payload["delta"] == 0.5

    def test_trials_csv_columns_pinned(self):
        first = typicality.ExperimentOutcome(
            np.array([0.30000000000000004, 2.5]), np.array([True, False]),
            np.array([np.nan, 1e-17]), 0.0, 0.5)
        later = typicality.ExperimentOutcome(
            np.array([1.0]), np.array([True]), np.array([0.125]), 0.0, 0.5)
        report = ExperimentReport(
            config={"experiment": "theorem1"},
            points=[Point(16, first), Point(64, later)], wall_time_s=0.0)
        assert trials_csv(report) == (
            "experiment,dim,trial,discrepancy,pass,auxiliary\n"
            "theorem1,16,0,0.30000000000000004,1,nan\n"
            "theorem1,16,1,2.5,0,1e-17\n"
            "theorem1,64,0,1.0,1,0.125\n"
        )

    def test_cap_at_threshold_one_passes_on_a_pure_target(self):
        # Every conditional wave function is e1 up to a phase, so mu(f) = 1
        # = GAP(rho)(f), though |<e1|psi>|^2 may round below 1 (0.14.0 passed
        # 4 of these 20 trials, with discrepancies up to 0.73).
        cfg = ExperimentConfig.from_dict({
            "experiment": "theorem1", "d2": 8, "n_trials": 20,
            "rho_spec": {"spectrum": [1.0, 0.0]},
            "f_spec": {"kind": "cap_indicator", "phi": "e1", "threshold": 1.0}})
        out = run(cfg).points[0].outcome
        assert out.reference == 1.0
        assert out.pass_fraction == 1.0
        assert np.max(out.discrepancies) < 1e-12

    def test_rho_basis_seed_rotates_the_spectrum(self):
        payload = dict(TINY, n_trials=3, f_spec={"kind": "overlap_sq", "phi": "e1"},
                       rho_spec={"spectrum": [0.7, 0.3], "basis_seed": 5})
        u = haar_unitary(RngStream(5).generator(), 2)
        expected = 0.7 * abs(u[0, 0]) ** 2 + 0.3 * abs(u[0, 1]) ** 2
        reference = run(ExperimentConfig.from_dict(payload)).points[0].outcome.reference
        assert reference == pytest.approx(expected, abs=1e-12)
        assert abs(reference - 0.7) > 1e-3

    def test_bath_levels_match_the_evenly_spaced_spec(self):
        spaced = dict(PRESETS["thermal-twolevel"], n_trials=3)
        listed = dict(spaced, bath_spec={"levels": np.linspace(0.0, 20.0, 200).tolist()})
        reports = [run(ExperimentConfig.from_dict(raw)) for raw in (spaced, listed)]
        assert reports[0].points[0].dim == 10
        assert trials_csv(reports[1]) == trials_csv(reports[0])

    def test_plotdata_columns_pinned(self):
        report = run(ExperimentConfig.from_dict(dict(TINY)))
        text = emit_plot_data(report)
        lines = text.splitlines()
        assert lines[0] == "dim,median,q10,q90,pass_fraction"
        assert len(lines) == 2  # no sweep -> single row

    def test_plotdata_empty_report_rejected(self):
        report = run(ExperimentConfig.from_dict(dict(TINY)))
        object.__setattr__(report, "points", [])
        with pytest.raises(ConfigError):
            emit_plot_data(report)


class TestReproducibility:
    def test_identical_seeds_byte_identical(self):
        cfg = ExperimentConfig.from_dict(dict(TINY, sweep={"d2": [8, 16]}))
        a = run(cfg)
        b = run(ExperimentConfig.from_dict(dict(TINY, sweep={"d2": [8, 16]})))
        assert trials_csv(a) == trials_csv(b)
        assert emit_plot_data(a) == emit_plot_data(b)

    def test_chunk_size_does_not_change_outputs(self, monkeypatch):
        default = run(ExperimentConfig.from_dict(dict(TINY)))
        entries = TINY["d1"] * TINY["d2"]
        assert typicality.CHUNK_ENTRIES // entries >= TINY["n_trials"]
        for chunk in (1, 7):  # trials per chunk
            monkeypatch.setattr(typicality, "CHUNK_ENTRIES", chunk * entries)
            report = run(ExperimentConfig.from_dict(dict(TINY)))
            for column in ("discrepancies", "passed", "auxiliary"):
                np.testing.assert_array_equal(getattr(report.points[0].outcome, column),
                                              getattr(default.points[0].outcome, column))
            assert trials_csv(report) == trials_csv(default)

    def test_different_seed_changes_outputs(self):
        a = run(ExperimentConfig.from_dict(dict(TINY)))
        b = run(ExperimentConfig.from_dict(dict(TINY, seed=100)))
        assert trials_csv(a) != trials_csv(b)


class TestPresets:
    def test_all_presets_validate(self):
        for name in PRESETS:
            cfg = preset_config(name)
            assert cfg.experiment in name or cfg.experiment.replace("_", "-") in name

    @pytest.mark.parametrize("raw", [
        # Planned sizes: theorem1 at d2 = 4096 with 2000 trials, and a spin
        # bath of 14 spins (16 384 levels j with multiplicity C(14, j)).
        {"experiment": "theorem1", "d2": 4096, "n_trials": 2000},
        {"experiment": "thermal", "n_trials": 300, "window": {"energy": 4.0, "width": 0.5},
         "bath_spec": {"levels": [float(j) for j in range(15) for _ in range(comb(14, j))]}},
    ])
    def test_planned_sizes_pass_the_size_cap(self, raw):
        # The check step only; the draw it returns is never called.
        dim, _ = EXPERIMENTS[raw["experiment"]].run(ExperimentConfig.from_dict(raw))
        assert dim == raw.get("d2", 1365)

    def test_many_system_levels_at_many_trials_pass_the_size_cap(self):
        # 100 system levels at 10**5 trials: 0.19.0 rejected this config, as
        # its Monte Carlo reference would have drawn 10 n_trials vectors of
        # C^100.  Every level has six bath levels in the window.
        raw = {"experiment": "thermal", "system_levels": list(range(100)), "n_trials": 10**5,
               "bath_spec": {"count": 2001, "min": 0.0, "max": 200.0},
               "window": {"energy": 100.0, "width": 0.5}}
        dim, _ = EXPERIMENTS["thermal"].run(ExperimentConfig.from_dict(raw))
        assert dim == 600

    def test_whole_space_needs_no_dense_basis(self):
        # A dense basis of C^2 (x) C^5000 would take 10^8 entries, over the
        # cap; the whole space is the coordinate subspace of all pairs.
        raw = {"experiment": "canonical_typicality", "d2": 5000, "n_trials": 3}
        dim, draw = EXPERIMENTS["canonical_typicality"].run(ExperimentConfig.from_dict(raw))
        assert dim == 10_000
        assert len(draw(RngStream(1)).discrepancies) == 3

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("nope")

    def test_presets_command_lists_names(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_theorem1_default_pass_fraction(self):
        cfg = preset_config("theorem1-default", {"n_trials": 100})
        cfg.sweep = {"d2": [64]}
        report = run(cfg)
        assert report.points[0].outcome.pass_fraction >= 0.9

    @pytest.mark.parametrize("name, overrides, marked", [
        ("theorem1-default", {}, True),
        ("theorem2-default", {"f_spec": {"kind": "overlap_sq", "phi": "e1"}}, True),
        ("theorem1-cap-sweep", {}, False),
        # Judged against the subspace average, not each trial's rho1.
        ("theorem3-fullspace", {}, False),
        # f affine in u: constant, u, c0 + c1 u, or a cap that holds everywhere.
        *[("theorem1-default", {"f_spec": {"kind": "polynomial", "phi": "e1",
                                           "coefficients": c}}, c != [0.0, 0.0, 1.0])
          for c in ([0.0, 1.0], [0.25, 0.5], [0.3], [0.25, 0.5, 0.0], [0.0, 0.0, 1.0])],
        *[("theorem2-default", {"f_spec": {"kind": "cap_indicator", "phi": "e2",
                                           "threshold": t}}, t <= 1e-12)
          for t in (0.0, 1e-12, 0.5)],
    ])
    def test_identity_points_are_marked_in_the_summary(self, name, overrides, marked):
        # Theorems 1 and 2 with f affine in u = |<phi|psi>|^2:
        # mu(c0 + c1 u) = c0 + c1 <phi|rho1|phi>, the reference, in every
        # basis, so every trial passes at rounding.
        report = run(preset_config(name, {"n_trials": 20, **overrides}))
        points = json.loads(summary_json(report))["summary"]["points"]
        flag = True if marked else None
        assert [p["extra"].get("identity_check") for p in points] == [flag] * len(points)
        if marked:
            assert all(p.outcome.discrepancies.max() < 1e-12 for p in report.points)
        assert "identity_check" not in trials_csv(report) + emit_plot_data(report)

    def test_continuity_points_are_marked_in_the_summary(self):
        # |<e1|rho - omega|e1>| <= ||rho - omega||_tr holds for every pair.
        report = run(preset_config("continuity-d2", {"n_trials": 20, "n_samples": 200}))
        point, = json.loads(summary_json(report))["summary"]["points"]
        assert point["extra"]["identity_check"] is True
        assert report.points[0].outcome.passed.all()

    def test_thermal_preset_smoke(self):
        cfg = preset_config("thermal-twolevel", {"n_trials": 10})
        report = run(cfg)
        extra = report.points[0].outcome.extra
        assert abs(extra["beta"]) < 1e-6
        assert extra["target_distance"] < 0.05
        assert report.points[0].dim == 10

    def test_submatrix_preset_smoke(self):
        cfg = preset_config("submatrix-k1", {"n_samples": 500})
        report = run(cfg)
        medians = [p.outcome.median_discrepancy for p in report.points]
        assert medians == sorted(medians, reverse=True)

    def test_cap_sweep_plotdata_median_monotone(self):
        cfg = preset_config("theorem1-cap-sweep", {"n_trials": 150})
        report = run(cfg)
        lines = emit_plot_data(report).splitlines()
        assert len(lines) == 4
        medians = [float(row.split(",")[1]) for row in lines[1:]]
        assert medians[0] > medians[1] > medians[2]


def test_whole_space_route_keeps_the_law_of_the_dense_route():
    # dR = d1 d2 runs on the coordinate subspace of all pairs, where it once
    # drew a dense Haar basis of the whole space.  A uniform state on the
    # whole sphere has one law either way, so both columns must pass a
    # two-sample KS test against the dense route; the dense route on a
    # subspace of dimension d1 must fail it.
    n, f_spec = 3000, {"kind": "polynomial", "phi": "e1", "coefficients": [0.0, 0.0, 1.0]}
    cfg = ExperimentConfig.from_dict({"experiment": "theorem3", "d1": 2, "d2": 16, "dR": 32,
                                      "f_spec": f_spec, "n_trials": n})
    _, draw = EXPERIMENTS["theorem3"].run(cfg)
    whole = draw(RngStream(41))
    f = typicality.polynomial(np.eye(2)[0], f_spec["coefficients"])

    def dense(dim, seed):
        subspace = typicality.random_subspace(RngStream(seed, 1).generator(), 2, 16, dim)
        return typicality.shell_universality_experiment(RngStream(seed), subspace, f, 0.1, n)

    same, control = dense(32, 42), dense(2, 43)
    for column in ("discrepancies", "auxiliary"):
        assert two_sample_ks(getattr(whole, column), getattr(same, column))[1] > 0.01
        assert two_sample_ks(getattr(whole, column), getattr(control, column))[1] < 1e-6


def _same_outcome(a, b):
    return (all(getattr(a, c).tobytes() == getattr(b, c).tobytes()
                for c in ("discrepancies", "passed", "auxiliary"))
            and json.dumps([a.reference, a.threshold, a.extra], sort_keys=True)
            == json.dumps([b.reference, b.threshold, b.extra], sort_keys=True))


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_point_p_draws_from_rngstream_seed_p(experiment):
    # The one random layout: run() hands sweep point p RngStream(seed, p),
    # and every point numbers its trials from 0.  Each experiment runs its
    # first preset at 3 trials, swept over two values where it can sweep.
    name = min(n for n in PRESETS if PRESETS[n]["experiment"] == experiment)
    sweeps = EXPERIMENTS[experiment].sweeps
    cfg = preset_config(name, {"n_trials": 3, "n_samples": 200,
                               "sweep": {sweeps[-1]: [4, 8]} if sweeps else None})
    param, values = next(iter(cfg.sweep.items())) if cfg.sweep else (None, [None])
    report = run(cfg)
    assert len(report.points) == len(values)
    rows = [line.split(",") for line in trials_csv(report).splitlines()[1:]]
    for p, value in enumerate(values):
        _, draw = EXPERIMENTS[experiment].run(
            cfg if param is None else replace(cfg, **{param: value}))
        outcome = report.points[p].outcome
        assert _same_outcome(outcome, draw(RngStream(cfg.seed, p)))
        assert not _same_outcome(outcome, draw(RngStream(cfg.seed, p + 1)))
        numbers = [int(row[2]) for row in rows if row[1] == str(report.points[p].dim)]
        assert numbers == list(range(len(outcome.discrepancies)))


@pytest.mark.parametrize("raw", [{"experiment": e} for e in sorted(EXPERIMENTS)] + [
    # A dense random subspace: 0.27.2 drew it from substream n_trials + 1.
    {"experiment": "theorem3", "d1": 2, "d2": 8, "dR": 8, "seed": 4},
    {"experiment": "canonical_typicality", "d1": 2, "d2": 8, "dR": 5, "seed": 4},
])
def test_the_first_trials_do_not_depend_on_the_trial_count(raw):
    rows = [trials_csv(run(ExperimentConfig.from_dict({**raw, "n_trials": n}))).splitlines()
            for n in (3, 5)]
    assert rows[0] == rows[1][:len(rows[0])]
    assert len(rows[0]) == (2 if raw["experiment"] == "submatrix" else 4)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_runs_end_to_end(tmp_path, name):
    out = tmp_path / name
    assert main(["run", "--preset", name, "--trials", "3", "--out", str(out)]) == 0
    cfg = preset_config(name)
    n_points = len(next(iter(cfg.sweep.values()))) if cfg.sweep else 1
    # Every table entry returns a plain ExperimentOutcome at every point.
    small = preset_config(name, {"n_trials": 3})
    param, values = next(iter(small.sweep.items())) if small.sweep else (None, [None])
    outcomes = []
    for point, value in enumerate(values):
        point_cfg = small if param is None else replace(small, **{param: value})
        _, draw = EXPERIMENTS[small.experiment].run(point_cfg)
        outcomes.append(draw(RngStream(small.seed, point)))
        assert type(outcomes[-1]) is typicality.ExperimentOutcome
    rows_per_point = 1 if cfg.experiment == "submatrix" else 3
    trials = (out / "trials.csv").read_text().splitlines()
    plot = (out / "plotdata.csv").read_text().splitlines()
    summary = json.loads((out / "summary.json").read_text())
    assert len(trials) == 1 + rows_per_point * n_points
    assert len(plot) == 1 + n_points
    assert summary["summary"]["n_records"] == len(trials) - 1
    # Both files read each point's statistics from its outcome.
    for o, row, p in zip(outcomes, plot[1:], summary["summary"]["points"], strict=True):
        stats = [o.median_discrepancy, o.q10, o.q90, o.pass_fraction]
        assert [float(v) for v in row.split(",")[1:]] == stats
        assert [p[k] for k in ("median_discrepancy", "q10", "q90", "pass_fraction")] == stats
        assert p["extra"]["meets_delta"] is (o.pass_fraction >= 1.0 - cfg.delta)


class TestMainEntry:
    def test_run_from_config_file(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(TINY, n_trials=5))
        out = tmp_path / "results"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert "pass fraction" in capsys.readouterr().out

    def test_run_with_overrides(self, tmp_path):
        path = write_config(tmp_path, dict(TINY))
        out = tmp_path / "r2"
        assert main(["run", "--config", path, "--out", str(out),
                     "--trials", "4", "--seed", "123"]) == 0
        payload = json.loads((out / "summary.json").read_text())
        assert payload["config"]["n_trials"] == 4
        assert payload["config"]["seed"] == 123
        rows = (out / "trials.csv").read_text().splitlines()
        assert len(rows) == 5

    def test_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "theorem1", "epsilon": 2.0})
        assert main(["run", "--config", path, "--out", str(tmp_path / "x")]) == 1
        assert "epsilon" in capsys.readouterr().err

    def test_empty_shell_is_operational_error(self, tmp_path, capsys):
        payload = {
            "experiment": "thermal",
            "window": {"energy": -100.0, "width": 0.5},
            "n_trials": 5,
        }
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", path, "--out", str(tmp_path / "y")]) == 1

    def test_preset_flag(self, tmp_path):
        out = tmp_path / "p"
        assert main(["run", "--preset", "continuity-d2", "--trials", "1",
                     "--out", str(out)]) == 0
        assert (out / "plotdata.csv").exists()

    def test_run_does_not_import_scipy(self, tmp_path):
        # scipy's import costs about ten times numpy's.
        code = (
            "import sys\n"
            "from gaplab import cli\n"
            f"assert cli.main(['run', '--preset', 'theorem1-default', '--trials', '3',"
            f" '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            f"assert cli.main(['run', '--preset', 'submatrix-k1',"
            f" '--out', {str(tmp_path / 'sub')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = Path(gaplab.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
