"""Config parsing, presets, run orchestration, sweeps, and the CLI."""
import json

import numpy as np
import pytest
import yaml

from riotdyn import ConfigError
from riotdyn.cli import (PRESETS, RunConfig, analyze, emit_config, main,
                         parse_config, run, sweep)

NONLOCAL_CONFIG = {
    "model": "pde_nonlocal",
    "params": {"omega": 0.2, "theta": 0.3, "eta": 0.01, "p": 0.7,
               "z0": 10.0, "beta": 3.0, "a": 2.0},
    "grid": {"length": 16.0, "cells": 32},
    "pde": {"diffusivity": 0.5,
            "nonlocal": {"eta_bar": 0.05,
                         "kernel": {"kind": "tophat", "radius": 2.0}}},
    "schedule": {"kind": "explicit",
                 "shocks": [{"time": 0.0, "amplitude": 5.0, "site": 8.0}]},
    "numerics": {"dt": 0.02, "t_end": 2.0, "output_stride": 10},
}


class TestParseConfig:
    def test_minimal_config_expands_all_defaults(self):
        cfg = parse_config("model: site")
        assert cfg.model == "site"
        assert cfg.resolved["numerics"]["dt"] == 1e-3
        assert cfg.resolved["params"]["omega"] == 0.4
        assert cfg.resolved["experiment"]["kind"] == "none"

    def test_round_trip_every_preset(self):
        for name in PRESETS:
            cfg = parse_config({"preset": name})
            again = parse_config(emit_config(cfg))
            assert again.resolved == cfg.resolved, name

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config("model: site\nbogus: 1")

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="params.gamma"):
            parse_config({"model": "site", "params": {"gamma": 1.0}})

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("model: site\nparams: [unclosed")

    def test_cfl_violation_names_bound(self):
        with pytest.raises(ConfigError, match="stability bound"):
            parse_config({"preset": "pde-wavefront",
                          "numerics": {"dt": 1.0}})

    def test_fig_slow_expansion(self):
        cfg = parse_config({"preset": "fig-slow"})
        p = cfg.resolved["params"]
        assert (p["z0"], p["omega"], p["theta"], p["p"], p["beta"], p["a"]) \
            == (10.0, 0.2, 0.1, 1.0, 10.0, 6.0)
        shock = cfg.resolved["schedule"]["shocks"][0]
        assert (shock["time"], shock["amplitude"]) == (0.0, 5.0)

    def test_unknown_preset_listed(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config({"preset": "fig-unknown"})

    def test_bad_param_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"model": "site", "params": {"omega": -1.0}})

    @pytest.mark.parametrize("site", [500, -1])
    def test_network_shock_site_out_of_range(self, site):
        with pytest.raises(ConfigError, match="node id"):
            parse_config({"model": "network",
                          "network": {"rows": 3, "cols": 3},
                          "schedule": {"kind": "explicit",
                                       "shocks": [{"time": 0.0,
                                                   "amplitude": 1.0,
                                                   "site": site}]}})

    @pytest.mark.parametrize("kind,rejected", [
        ("double_threshold", False), ("delay", False), ("spread", True)])
    def test_network_site_check_only_where_schedule_runs(self, kind,
                                                         rejected):
        # a site-less periodic schedule is only an error for the kinds that
        # integrate the configured schedule
        data = {"preset": "net-double-threshold",
                "schedule": {"kind": "periodic", "amplitude": 1.0,
                             "period": 5.0},
                "experiment": {"kind": kind}}
        if rejected:
            with pytest.raises(ConfigError, match="node id"):
                parse_config(data)
        else:
            assert parse_config(data).schedule().site is None

    def test_schedule_objects_constructed(self):
        cfg = parse_config({"preset": "fig-periodic"})
        sched = cfg.schedule()
        assert sched.amplitude == 2.0 and sched.period == 2.0


class TestRun:
    def test_fig_nullcline_run_writes_artifacts(self, tmp_path):
        cfg = parse_config({"preset": "fig-nullcline"})
        result = run(cfg, tmp_path / "out")
        assert result.summary["status"] == "ok"
        assert result.summary["relaxed_at"] is not None
        for name in ("resolved_config.yaml", "trajectory.txt",
                     "trajectory.txt.schema.json", "summary.json"):
            assert (tmp_path / "out" / name).exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert "wall_time_s" in summary

    # one small run per model; the network run is Brownian, so its noise
    # stream must be reproducible too
    RERUN_CONFIGS = {
        "site": {"preset": "fig-nullcline"},
        "network": {
            "model": "network",
            "params": {"eta": 0.1, "sigma": 0.3, "lambda_b": 0.01},
            "network": {"rows": 3, "cols": 4, "social": "copy_of_V"},
            "schedule": {"kind": "explicit",
                         "shocks": [{"time": 0.0, "amplitude": 4.0,
                                     "site": 5}]},
            "numerics": {"t_end": 2.0, "dt": 1e-2, "output_stride": 3,
                         "noise": "brownian"}},
        "pde_local": {
            "model": "pde_local",
            "params": {"eta": 0.01},
            "grid": {"length": 8.0, "cells": 32},
            "schedule": {"kind": "explicit",
                         "shocks": [{"time": 0.0, "amplitude": 3.0,
                                     "site": 4.0}]},
            "numerics": {"dt": 0.01, "t_end": 1.0, "output_stride": 7}},
        "pde_nonlocal": NONLOCAL_CONFIG,
    }

    def test_rerun_data_files_byte_identical(self, tmp_path):
        for model, config in self.RERUN_CONFIGS.items():
            cfg = parse_config(config)
            run(cfg, tmp_path / model / "a")
            run(cfg, tmp_path / model / "b")
            names = sorted(p.name for p in (tmp_path / model / "a").iterdir()
                           if p.name != "summary.json")
            assert len(names) == 3, (model, names)   # config, data, schema
            for name in names:
                assert ((tmp_path / model / "a" / name).read_bytes()
                        == (tmp_path / model / "b" / name).read_bytes()), \
                    (model, name)

    def test_steady_states_preset(self, tmp_path):
        result = run(parse_config({"preset": "pde-monostable"}),
                     tmp_path / "m")
        assert result.summary["classification"] == "monostable"

    def test_resolved_config_echo_is_parseable(self, tmp_path):
        cfg = parse_config({"preset": "fig-nullcline"})
        run(cfg, tmp_path / "out")
        echoed = (tmp_path / "out" / "resolved_config.yaml").read_text()
        assert parse_config(echoed).resolved == cfg.resolved

    def test_hysteresis_experiment(self, tmp_path):
        cfg = parse_config({
            "model": "site",
            "params": {"beta": 6.0, "lambda_b": 0.05},
            "experiment": {"kind": "hysteresis",
                           "alpha_b_grid": {"start": 0.1, "stop": 1.0,
                                            "count": 10}}})
        result = run(cfg, tmp_path / "h")
        assert result.summary["fold"] is True
        table = (tmp_path / "h" / "hysteresis.txt").read_text().splitlines()
        assert table[0] == "alpha_b n_fixed_points"
        assert len(table) == 11

    def test_spread_experiment(self, tmp_path):
        cfg = parse_config({
            "model": "network",
            "params": {"omega": 0.4, "theta": 0.3, "p": 0.7, "beta": 3.0,
                       "a": 1.0, "z0": 2.0, "eta": 0.35},
            "network": {"rows": 1, "cols": 9, "social": "copy_of_V"},
            "schedule": {"kind": "explicit",
                         "shocks": [{"time": 0.0, "amplitude": 6.0,
                                     "site": 4}]},
            "numerics": {"t_end": 30.0, "dt": 2e-3, "output_stride": 20},
            "experiment": {"kind": "spread", "seed_node": 4}})
        result = run(cfg, tmp_path / "s")
        assert result.summary["regime"] == "local"
        assert (tmp_path / "s" / "activation.txt").exists()


class TestPresetRuns:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_completes_quickly(self, name, tmp_path):
        import time
        started = time.perf_counter()
        result = run(parse_config({"preset": name}), tmp_path / name)
        elapsed = time.perf_counter() - started
        assert result.summary["status"] == "ok"
        assert elapsed < 300.0, f"{name} took {elapsed:.0f}s"


class TestNonlocalConfig:
    CONFIG = NONLOCAL_CONFIG

    def test_nonlocal_run(self, tmp_path):
        result = run(parse_config(self.CONFIG), tmp_path / "nl")
        assert result.summary["status"] == "ok"
        assert (tmp_path / "nl" / "fields.txt").exists()

    def test_gaussian_kernel_variant(self, tmp_path):
        cfg = dict(self.CONFIG)
        cfg["pde"] = {"diffusivity": 0.5,
                      "nonlocal": {"eta_bar": 0.05,
                                   "kernel": {"kind": "gaussian",
                                              "width": 1.0},
                                   "variant": "convolution"}}
        result = run(parse_config(cfg), tmp_path / "nl2")
        assert result.summary["status"] == "ok"


class TestSweep:
    def test_frequency_sweep_flips_regime_once(self, tmp_path):
        # periods 10, 5, 2 are frequencies 0.1, 0.2, 0.5 at amplitude 2
        cfg = parse_config({"preset": "fig-periodic"})
        rows = sweep(cfg, "schedule.period", [10.0, 5.0, 2.0],
                     tmp_path / "sweep")
        regimes = [r["regime"] for r in rows]
        assert regimes[0] == "decaying"
        assert regimes[-1] == "sustained"
        assert sum(a != b for a, b in zip(regimes, regimes[1:])) == 1
        table = (tmp_path / "sweep" / "sweep.txt").read_text().splitlines()
        assert len(table) == 4
        # rows keep the input value ordering
        assert [row.split()[0] for row in table[1:]] == ["10", "5", "2"]

    def test_failed_row_marked_and_others_complete(self, tmp_path):
        cfg = parse_config({"preset": "fig-nullcline"})
        rows = sweep(cfg, "params.omega", [-1.0, 0.4], tmp_path / "s")
        assert rows[0]["status"] == "failed"
        assert rows[1]["status"] == "ok"

    def test_tuple_summaries_stay_out_of_the_table(self, tmp_path):
        # max_activity_window returns a (t0, t1) pair; it goes to sweep.json
        cfg = parse_config({"preset": "fig-slow",
                            "numerics": {"t_end": 20.0},
                            "experiment": {"kind": "window"}})
        rows = sweep(cfg, "params.omega", [0.2, 0.3], tmp_path / "s")
        assert all(len(row["window"]) == 2 for row in rows)
        table = (tmp_path / "s" / "sweep.txt").read_text().splitlines()
        header = table[0].split()
        assert "window" not in header and "window_length" in header
        assert all(len(line.split()) == len(header) for line in table[1:])

    def test_missing_values_keep_every_column(self, tmp_path):
        # a shock of 4 opens no activity window by t=20, so window is None
        # in both rows and the table writes nan in its place
        cfg = parse_config({"preset": "fig-nullcline",
                            "numerics": {"t_end": 20.0},
                            "experiment": {"kind": "window"}})
        rows = sweep(cfg, "params.omega", [0.4, 0.3], tmp_path / "s")
        assert [row["window"] for row in rows] == [None, None]
        lines = (tmp_path / "s" / "sweep.txt").read_text().splitlines()
        header = lines[0].split()
        table = [dict(zip(header, line.split(), strict=True))
                 for line in lines[1:]]
        assert [float(row["value"]) for row in table] == [0.4, 0.3]
        assert [row["window"] for row in table] == ["nan", "nan"]
        assert [float(row["window_length"]) for row in table] == [0.0, 0.0]
        assert [float(row["max_activity"]) for row in table] == [
            row["max_activity"] for row in rows]

    def test_empty_values_rejected(self, tmp_path):
        cfg = parse_config({"preset": "fig-nullcline"})
        with pytest.raises(ConfigError):
            sweep(cfg, "params.omega", [], tmp_path / "s")


class TestAnalyze:
    def test_relaxation_round_trip(self, tmp_path):
        cfg = parse_config({"preset": "fig-nullcline"})
        result = run(cfg, tmp_path / "out")
        redone = analyze(tmp_path / "out", "relaxation")
        assert redone["relaxed_at"] == pytest.approx(
            result.summary["relaxed_at"])

    def test_missing_run_dir(self, tmp_path):
        with pytest.raises(ConfigError):
            analyze(tmp_path / "nope", "relaxation")


class TestMain:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("model: site\nbogus: 1\n")
        assert main(["run", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_complex_rk_stage_aborts_cleanly(self, tmp_path, capsys):
        # from lam=100 with dt=0.1 an RK stage takes lam below -lambda1,
        # where the power-form tension decay turns complex
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(
            {"model": "site", "initial": {"lambda0": 100, "alpha0": 5},
             "numerics": {"dt": 0.1, "t_end": 5}}))
        out = tmp_path / "o"
        assert main(["run", str(cfg_path), "--output", str(out)]) == 3
        assert "integration aborted" in capsys.readouterr().err
        abort = json.loads((out / "abort.json").read_text())
        assert abort["status"] == "aborted" and 0.0 < abort["time"] <= 5.0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "aborted"

    @pytest.mark.parametrize("site", [500, -1])
    def test_network_shock_site_exit_code(self, tmp_path, capsys, site):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(
            {"model": "network", "network": {"rows": 3, "cols": 3},
             "schedule": {"kind": "explicit",
                          "shocks": [{"time": 0.0, "amplitude": 1.0,
                                      "site": site}]},
             "numerics": {"t_end": 1.0}}))
        assert main(["run", str(cfg_path), "--output",
                     str(tmp_path / "o")]) == 2
        assert "node id" in capsys.readouterr().err

    @pytest.mark.parametrize("stride", [0, -3, 2.5])
    def test_output_stride_exit_code(self, tmp_path, capsys, stride):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(
            {"model": "site",
             "numerics": {"t_end": 1, "output_stride": stride}}))
        out = tmp_path / "o"
        assert main(["run", str(cfg_path), "--output", str(out)]) == 2
        assert "numerics.output_stride" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_preset_with_override(self, tmp_path, capsys):
        code = main(["preset", "pde-monostable", "--override",
                     "params.a=5.0", "--output", str(tmp_path / "o")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["classification"] == "bistable"

    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(
            {"preset": "fig-nullcline",
             "numerics": {"t_end": 30.0}}))
        code = main(["run", str(cfg_path), "--output", str(tmp_path / "o")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"

    def test_output_root_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RIOTDYN_OUTPUT_ROOT", str(tmp_path))
        code = main(["preset", "pde-monostable"])
        assert code == 0
        assert (tmp_path / "riotdyn-out" / "summary.json").exists()
