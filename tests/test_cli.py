import json
import os

import numpy as np
import pytest

from gaplab.cli import (
    ExperimentConfig,
    PRESETS,
    emit_plot_data,
    main,
    parse_config,
    preset_config,
    run,
    trials_csv,
    write_report,
)
from gaplab import typicality
from gaplab.errors import ConfigError


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
        assert len(report.rows) == 15

    def test_malformed_sweep_rejected(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "theorem1",
                                       "sweep": {"d3": [1]}})
        with pytest.raises(ConfigError, match="sweep"):
            parse_config(path)

    def test_unsupported_sweep_parameter_rejected(self):
        cfg = ExperimentConfig.from_dict(dict(TINY, sweep={"dR": [4, 8]}))
        with pytest.raises(ConfigError, match="sweep"):
            run(cfg)
        cfg = ExperimentConfig.from_dict(
            {"experiment": "gap_selftest", "n_trials": 1, "sweep": {"d2": [2]}})
        with pytest.raises(ConfigError, match="sweep"):
            run(cfg)

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
    ])
    def test_bad_config_file_exits_1_naming_the_key(self, tmp_path, capsys, key, update):
        path = write_config(tmp_path, dict(TINY, **update))
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
        payload = json.loads(__import__("gaplab.cli", fromlist=["summary_json"])
                             .summary_json(report))
        assert payload["config"]["epsilon"] == 0.2
        assert payload["config"]["delta"] == 0.1  # default made explicit
        assert payload["library_version"]
        point = payload["summary"]["points"][0]
        assert point["extra"]["meets_delta"] is (point["pass_fraction"] >= 0.9)

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
            assert report.rows == default.rows
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
        assert report.points[0].pass_fraction >= 0.9

    def test_thermal_preset_smoke(self):
        cfg = preset_config("thermal-twolevel", {"n_trials": 10})
        report = run(cfg)
        extra = report.points[0].extra
        assert abs(extra["beta"]) < 1e-6
        assert extra["thermal_target_distance"] < 0.05
        assert extra["shell_dim"] == 10

    def test_submatrix_preset_smoke(self):
        cfg = preset_config("submatrix-k1", {"n_samples": 500})
        report = run(cfg)
        medians = [p.median for p in report.points]
        assert medians == sorted(medians, reverse=True)

    def test_cap_sweep_plotdata_median_monotone(self):
        cfg = preset_config("theorem1-cap-sweep", {"n_trials": 150})
        report = run(cfg)
        lines = emit_plot_data(report).splitlines()
        assert len(lines) == 4
        medians = [float(row.split(",")[1]) for row in lines[1:]]
        assert medians[0] > medians[1] > medians[2]


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
        assert main(["run", "--preset", "gap-selftest", "--trials", "1",
                     "--out", str(out)]) == 0
        assert (out / "plotdata.csv").exists()
