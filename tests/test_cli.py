"""Config parsing, presets, run orchestration, sweeps, and the CLI."""
import hashlib
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riotdyn import (AmplitudeLaw, BlowUpError, ConfigError,
                     NoExcitedStateError, PoissonSchedule, SimulationError,
                     realize)
from riotdyn import cli
from riotdyn.cli import (CONFIG, EXPERIMENTS, PRESETS, REQUIRED, RunConfig,
                         analyze, emit_config, main, parse_config, run,
                         sweep)

README = Path(__file__).resolve().parent.parent / "README.md"

# PDE configs whose first step overflows (params, initial fields)
OVERFLOW_CASES = [
    # an RK stage overflows to a non-finite field
    ({"eta": 0.5, "theta": 0.1, "omega": 0.9},
     {"alpha_field": {"kind": "uniform", "value": 1.7e+308}}),
    # the first step ends at -inf, which a clamp ahead of the finite
    # check would turn into 0
    ({"z0": 2.0, "omega": 0.9, "theta": 0.7, "eta": 0.1},
     {"lambda_field": {"kind": "uniform", "value": 1.0e+200}}),
]


def overflow_config(params, initial):
    return {"model": "pde_local", "params": params,
            "grid": {"length": 4.0, "cells": 16}, "initial": initial,
            "numerics": {"dt": 0.005, "t_end": 0.1}}

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

    # sha256 prefixes of emit_config for every preset: they pin each
    # resolved config byte for byte, so an int that turns into a float or
    # a default that moves shows here
    PRESET_HASHES = {
        "fig-delay": "61d66cace51230f8", "fig-double": "b8f71fb79d204d1f",
        "fig-fast": "55ed3472e9b16ba5", "fig-nullcline": "e66e1e9da1731f6d",
        "fig-periodic": "929b3a41fb5016ed", "fig-slow": "03c6cc66c14e3139",
        "net-delay": "f4fcfcfebb693641",
        "net-double-threshold": "c2edd90fd2e4b553",
        "pde-bistable": "1990bb84ecb55931", "pde-bump": "5b19994f962aeff1",
        "pde-monostable": "a9b525c709205f55",
        "pde-wavefront": "7ef7d1e6da508f37",
    }

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_resolved_preset_bytes_pinned(self, name):
        text = emit_config(parse_config({"preset": name}))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest[:16] == self.PRESET_HASHES[name]

    def test_readme_config_block_shows_the_defaults(self):
        block = re.search(r"### Configuration.*?```yaml\n(.*?)```",
                          README.read_text(), re.S).group(1)
        shown = yaml.safe_load(block)
        defaults = parse_config({}).resolved

        def leaves(tree, path=()):
            for key, value in tree.items():
                if isinstance(value, dict):
                    yield from leaves(value, path + (key,))
                else:
                    yield path + (key,), value

        checked = 0
        for path, value in leaves(shown):
            expected = defaults
            for key in path:
                expected = expected[key]
            assert value == expected and type(value) is type(expected), path
            checked += 1
        assert checked >= 50


# the probes of mistyped configs: each must exit 2 naming its dotted key
SITE_RUN = {"model": "site", "numerics": {"t_end": 1.0}}
NET_RUN = {"model": "network", "network": {"rows": 3, "cols": 3},
           "numerics": {"t_end": 1.0, "dt": 0.01}}
NONLOCAL_RUN = {"model": "pde_nonlocal", "params": {"eta": 0.01},
                "grid": {"length": 16.0, "cells": 32},
                "numerics": {"dt": 0.02, "t_end": 0.2}}
SHOCK_AT_4 = {"kind": "explicit",
              "shocks": [{"time": 0.0, "amplitude": 3.0, "site": 4}]}
PROBES = [
    ("numerics.dt", SITE_RUN, {"numerics": {"dt": "abc"}}),
    ("numerics.t_end", SITE_RUN, {"numerics": {"t_end": [1]}}),
    ("numerics.seed", SITE_RUN, {"numerics": {"seed": "s"}}),
    ("numerics.seed", SITE_RUN, {"numerics": {"seed": 1.7}}),
    ("numerics.dt", SITE_RUN, {"numerics": {"dt": True}}),
    ("network.rows", NET_RUN, {"network": {"rows": "x"}}),
    ("network.rows", NET_RUN, {"network": {"rows": 2.5}}),
    ("network.social", NET_RUN, {"network": {"social": "bogus"}}),
    ("network.hub", NET_RUN, {"network": {"social": "hub", "hub": 500}}),
    ("network.hubs", NET_RUN,
     {"network": {"social": "two_hubs", "hubs": [1]}}),
    ("schedule.shocks[0].time", SITE_RUN,
     {"schedule": {"kind": "explicit", "shocks": [{"amplitude": 1.0}]}}),
    ("experiment.amplitudes", NET_RUN,
     {"experiment": {"kind": "double_threshold", "seed_node": 4,
                     "amplitudes": "abc"}}),
    ("experiment.threshold_fraction", NET_RUN,
     {"schedule": SHOCK_AT_4, "experiment": {
         "kind": "spread", "seed_node": 4, "threshold_fraction": "x"}}),
    ("experiment.eps", SITE_RUN,
     {"experiment": {"kind": "relaxation", "eps": "x"}}),
    ("experiment.alpha_b_grid.count", SITE_RUN,
     {"experiment": {"kind": "hysteresis", "alpha_b_grid": {"count": "x"}}}),
    ("experiment.seed_node", NET_RUN,
     {"schedule": SHOCK_AT_4,
      "experiment": {"kind": "spread", "seed_node": 500}}),
    ("experiment.seed_node", NET_RUN,
     {"experiment": {"kind": "double_threshold", "seed_node": 500}}),
    ("experiment.p_node", NET_RUN,
     {"experiment": {"kind": "delay", "p_node": 500, "m_node": 2}}),
    ("initial.lambda0", SITE_RUN, {"initial": {"lambda0": "x"}}),
    ("grid.cells", {"model": "pde_local", "numerics": {"dt": 0.01,
                                                        "t_end": 0.1}},
     {"grid": {"length": 20.0, "cells": 40.5}}),
    ("pde.nonlocal.kernel.kind", NONLOCAL_RUN,
     {"pde": {"nonlocal": {"kernel": {"kind": "bogus"}}}}),
    ("pde.nonlocal.normalize", NONLOCAL_RUN,
     {"pde": {"nonlocal": {"normalize": "no"}}}),
    ("experiment.kind", SITE_RUN, {"experiment": {"kind": "front"}}),
    # a Poisson schedule takes its seed from numerics.seed
    ("schedule.seed", SITE_RUN, {"schedule": {"kind": "poisson", "seed": 3}}),
    # grid.length takes [lx, ly]
    ("grid.lengths", {"model": "pde_local", "numerics": {"dt": 0.01,
                                                          "t_end": 0.1}},
     {"grid": {"lengths": [20.0]}}),
    # a second shock before the first would be out of time order
    ("experiment.t2", {**NET_RUN, "network": {"rows": 1, "cols": 2}},
     {"experiment": {"kind": "delay", "p_node": 0, "m_node": 1,
                     "t2": -1.0}}),
]


@pytest.mark.parametrize("key,base,change", PROBES,
                         ids=[f"{i:02d}-{k}" for i, (k, _, _)
                              in enumerate(PROBES)])
def test_mistyped_config_exits_2_naming_its_key(tmp_path, capsys, key, base,
                                                change):
    data = json.loads(json.dumps(base))
    for section, values in change.items():
        data.setdefault(section, {}).update(values)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(data))
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert "Traceback" not in err
    assert not out.exists()


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

    def test_poisson_shocks_follow_numerics_seed(self, tmp_path):
        law = {"kind": "exponential", "a": 2.0}
        times = {}
        for seed in (4, 5):
            cfg_path = tmp_path / f"{seed}.yaml"
            cfg_path.write_text(yaml.safe_dump({
                "model": "site",
                "schedule": {"kind": "poisson", "rate": 0.5,
                             "amplitude_law": law},
                "numerics": {"t_end": 40.0, "seed": seed,
                             "output_stride": 50}}))
            out = tmp_path / str(seed)
            assert main(["run", str(cfg_path), "--output", str(out)]) == 0
            data = np.loadtxt(out / "trajectory.txt", skiprows=1, ndmin=2)
            times[seed] = data[data[:, 3] == 1, 0].tolist()
            shocks = realize(PoissonSchedule(0.5, AmplitudeLaw(**law),
                                             seed=seed), 40.0)
            assert len(shocks) >= 5
            assert times[seed] == [s.time for s in shocks]
        assert times[4] != times[5]

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

    def test_failed_rows_keep_every_column(self, tmp_path):
        # at t_end=100 periods 5 and 20 give too few forcing events; their
        # error message stays whole in sweep.json and out of sweep.txt
        cfg = parse_config({"preset": "fig-periodic",
                            "numerics": {"t_end": 100.0}})
        rows = sweep(cfg, "schedule.period", [2.0, 5.0, 20.0],
                     tmp_path / "s")
        assert [row["status"] for row in rows] == ["ok", "failed", "failed"]
        lines = (tmp_path / "s" / "sweep.txt").read_text().splitlines()
        header = lines[0].split()
        table = [dict(zip(header, line.split(), strict=True))
                 for line in lines[1:]]
        assert "error" not in header
        assert [float(row["value"]) for row in table] == [2.0, 5.0, 20.0]
        assert [row["status"] for row in table] == ["ok", "failed", "failed"]
        assert table[1]["regime"] == "nan"
        saved = json.loads((tmp_path / "s" / "sweep.json").read_text())
        for row in saved[1:]:
            assert row["error"] == ("experiment forced_regime needs a "
                                    "periodic or poisson schedule with at "
                                    "least 50 events up to numerics.t_end")

    @pytest.mark.parametrize("error", [SimulationError("no excited state"),
                                       ConfigError("bad value")])
    def test_run_and_config_errors_make_failed_rows(self, tmp_path,
                                                    monkeypatch, error):
        def failing_run(cfg, out):
            raise error

        cfg = parse_config({"preset": "fig-nullcline"})
        monkeypatch.setattr(cli, "run", failing_run)
        rows = sweep(cfg, "params.omega", [0.4, 0.3], tmp_path / "s")
        assert [row["status"] for row in rows] == ["failed", "failed"]
        assert [row["error"] for row in rows] == [str(error)] * 2

    def test_program_bug_propagates(self, tmp_path, monkeypatch):
        def buggy_run(cfg, out):
            raise TypeError("unsupported operand")

        cfg = parse_config({"preset": "fig-nullcline"})
        monkeypatch.setattr(cli, "run", buggy_run)
        with pytest.raises(TypeError, match="unsupported operand"):
            sweep(cfg, "params.omega", [0.4], tmp_path / "s")

    def test_empty_values_rejected(self, tmp_path):
        cfg = parse_config({"preset": "fig-nullcline"})
        with pytest.raises(ConfigError):
            sweep(cfg, "params.omega", [], tmp_path / "s")


# small runs of every experiment kind that writes a table, by kind
TABLE_CONFIGS = {
    "relaxation": {"preset": "fig-nullcline", "numerics": {"t_end": 5.0}},
    "window": {"preset": "fig-slow", "numerics": {"t_end": 5.0, "dt": 0.01},
               "experiment": {"kind": "window"}},
    "hysteresis": {"model": "site", "params": {"beta": 6.0, "lambda_b": 0.05},
                   "experiment": {"kind": "hysteresis",
                                  "alpha_b_grid": {"count": 4}}},
    **{kind: {"model": "network", "params": {"eta": 0.2, "eta_alpha": 0.1},
              "network": {"rows": 3, "cols": 3, "social": "hub", "hub": 4},
              "schedule": {"kind": "explicit", "shocks": [
                  {"time": 0.0, "amplitude": 4.0, "site": 4}]},
              "numerics": {"t_end": 1.0, "dt": 0.01},
              "experiment": {"kind": kind, "seed_node": 4,
                             "amplitudes": [2.0, 10.0]}}
       for kind in ("spread", "double_threshold")},
    **{kind: {"model": "pde_local", "params": {"eta": 0.01},
              "grid": {"length": 8.0, "cells": 16},
              "schedule": {"kind": "explicit", "shocks": [
                  {"time": 0.0, "amplitude": 3.0, "site": 2.0}]},
              "numerics": {"dt": 0.01, "t_end": 0.5},
              "experiment": {"kind": kind, "trigger": 2.0}}
       for kind in ("mass", "front", "peaks")},
}


def test_every_table_has_its_sidecar(tmp_path):
    for kind, config in TABLE_CONFIGS.items():
        run(parse_config(config), tmp_path / kind)
    sweep(parse_config(TABLE_CONFIGS["relaxation"]), "params.beta",
          [2.0, 3.0], tmp_path / "sweep")
    tables = sorted(tmp_path.rglob("*.txt"))
    assert {p.name for p in tables} == {
        "trajectory.txt", "hysteresis.txt", "network.txt", "activation.txt",
        "threshold_scan.txt", "fields.txt", "mass.txt", "front.txt",
        "peaks.txt", "sweep.txt"}
    for path in tables:
        sidecar = json.loads(Path(f"{path}.schema.json").read_text())
        with open(path) as fh:
            header = fh.readline().split()
        assert sidecar["columns"] == header, path
        assert sidecar["schema_version"] == 1, path
    assert len(list(tmp_path.rglob("*.schema.json"))) == len(tables)


def summary_fields(run_dir):
    """The fields of a run's summary.json that its experiment adds."""
    summary = json.loads((run_dir / "summary.json").read_text())
    return {k: v for k, v in summary.items() if k not in (
        "schema_version", "model", "experiment", "status", "max_activity",
        "final_state", "wall_time_s")}


def analyzed(run_dir, kind):
    """What ``riotdyn analyze`` prints for ``kind``, without the kind."""
    out = json.loads(json.dumps(cli._json_ready(analyze(run_dir, kind))))
    assert out.pop("kind") == kind
    return out


MASS_2D = {"model": "pde_local", "params": {"eta": 0.01},
           "grid": {"length": [4.0, 3.0], "cells": [16, 12]},
           "pde": {"diffusivity": 0.1},
           "schedule": {"kind": "explicit", "shocks": [
               {"time": 0.0, "amplitude": 3.0, "site": [1.1, 2.0]},
               {"time": 0.3, "amplitude": 2.0, "site": [3.0, 0.6]}]},
           "numerics": {"dt": 0.01, "t_end": 1.0, "output_stride": 5},
           "experiment": {"kind": "mass"}}


class TestAnalyze:
    def test_relaxation_round_trip(self, tmp_path):
        run(parse_config({"preset": "fig-nullcline"}), tmp_path / "out")
        fields = summary_fields(tmp_path / "out")
        assert list(fields) == ["relaxed_at"]
        assert analyzed(tmp_path / "out", "relaxation") == fields

    @pytest.mark.parametrize("config", [
        {"preset": "pde-bump"}, {"preset": "pde-wavefront"},
        {"preset": "pde-wavefront", "experiment": {"kind": "mass"}},
        MASS_2D], ids=["bump-peaks", "wavefront-front", "wavefront-mass",
                       "2d-mass"])
    def test_field_round_trip(self, tmp_path, config):
        cfg = parse_config(config)
        run(cfg, tmp_path / "out")
        fields = summary_fields(tmp_path / "out")
        assert len(fields) >= 2
        kind = cfg.resolved["experiment"]["kind"]
        assert analyzed(tmp_path / "out", kind) == fields

    # a run, the overrides that shorten it, and a kind it cannot redo:
    # its model has no such experiment, or it recorded no trajectory
    @pytest.mark.parametrize("preset, overrides, kind, message", [
        ("pde-wavefront", ["numerics.t_end=0.5"], "relaxation",
         "'relaxation' is not a pde_local experiment"),
        ("fig-periodic", ["numerics.dt=0.01"], "relaxation",
         "no trajectory.txt in "),
        ("fig-slow", ["numerics.t_end=5"], "front",
         "'front' is not a site experiment"),
        ("pde-monostable", [], "front", "no fields.txt in "),
        ("net-delay", ["numerics.t_end=1", "numerics.dt=0.01"], "mass",
         "'mass' is not a network experiment")])
    def test_kind_the_run_cannot_redo_exits_2(self, tmp_path, capsys, preset,
                                              overrides, kind, message):
        out = tmp_path / preset
        args = ["preset", preset, "--output", str(out)]
        for item in overrides:
            args += ["--override", item]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["analyze", str(out), "--kind", kind]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err

    def test_missing_run_dir(self, tmp_path):
        with pytest.raises(ConfigError):
            analyze(tmp_path / "nope", "relaxation")


class TestMain:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("model: site\nbogus: 1\n")
        assert main(["run", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--axis", "numerics.dt", "--values", "0.1"]])
    @pytest.mark.parametrize("unreadable", ["missing", "directory",
                                            "not_utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, command,
                                       unreadable):
        path = tmp_path / "cfg.yaml"
        if unreadable == "directory":
            path.mkdir()
        elif unreadable == "not_utf8":
            path.write_bytes(b"model: site\n# \xff\xfe\n")
        out = tmp_path / "o"
        code = main([command[0], str(path), *command[1:], "--output",
                     str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err
        assert not out.exists()

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

    @pytest.mark.parametrize("params, initial", OVERFLOW_CASES)
    def test_pde_overflow_aborts_cleanly(self, tmp_path, capsys, params,
                                         initial):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(overflow_config(params, initial)))
        out = tmp_path / "o"
        assert main(["run", str(cfg_path), "--output", str(out)]) == 3
        assert "integration aborted" in capsys.readouterr().err
        abort = json.loads((out / "abort.json").read_text())
        assert abort["status"] == "aborted" and abort["time"] == 0.005
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "aborted"

    @pytest.mark.parametrize("params, initial", OVERFLOW_CASES)
    def test_pde_overflow_raises_no_numpy_warning(self, tmp_path, params,
                                                  initial):
        # the finite check decides; numpy's overflow warnings stay quiet
        cfg = parse_config(overflow_config(params, initial))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BlowUpError):
                run(cfg, tmp_path / "o")
        assert [w for w in caught if w.category is RuntimeWarning] == []

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

    @pytest.mark.parametrize("config", [
        {"model": "site", "numerics": {"t_end": 1.0}},
        {"model": "pde_local", "grid": {"length": 20.0, "cells": 40},
         "numerics": {"dt": 0.01, "t_end": 0.1}},
        {"model": "network", "network": {"rows": 3, "cols": 3},
         "numerics": {"t_end": 1.0},
         "experiment": {"kind": "delay", "p_node": 0, "m_node": 8}},
    ])
    def test_brownian_noise_needs_a_network_run(self, tmp_path, capsys,
                                                config):
        # the other integrators have no noise term: brownian ran silently
        # without noise
        config["numerics"]["noise"] = "brownian"
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(config))
        assert main(["run", str(cfg_path), "--output",
                     str(tmp_path / "o")]) == 2
        assert "numerics.noise" in capsys.readouterr().err

    def test_no_excited_state_aborts_cleanly(self, tmp_path, capsys):
        # omega above G'(0) = z0: no peak activity to measure a window by
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(
            {"model": "site", "params": {"omega": 3.0},
             "numerics": {"t_end": 1.0}, "experiment": {"kind": "window"}}))
        out = tmp_path / "o"
        assert main(["run", str(cfg_path), "--output", str(out)]) == 3
        assert "no excited state" in capsys.readouterr().err
        abort = json.loads((out / "abort.json").read_text())
        assert abort["status"] == "aborted" and abort["time"] is None
        assert issubclass(NoExcitedStateError, SimulationError)
        assert issubclass(NoExcitedStateError, ValueError)

    @pytest.mark.parametrize("text,extra,message", [
        # --seed used to replace the section by {seed: 3} and run defaults
        ("model: site\nnumerics: 5\n", ["--seed", "3"], "numerics.seed"),
        ("- 1\n", [], "config must be a mapping"),
        ("numerics: {t_end: 1.0}\n", ["--seed", "3"], None),
    ])
    def test_command_line_edits_need_a_mapping(self, tmp_path, capsys, text,
                                               extra, message):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(text)
        out = tmp_path / "o"
        code = main(["run", str(cfg_path), "--output", str(out), *extra])
        if message is None:
            assert code == 0
        else:
            assert code == 2 and message in capsys.readouterr().err

    def test_override_yaml_error_exits_2(self, tmp_path, capsys):
        assert main(["preset", "fig-slow", "--override", "params.a=[",
                     "--output", str(tmp_path / "o")]) == 2
        assert "config parse error" in capsys.readouterr().err

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


# ----------------------------------------------------------------------
# property: a config that parses completes (exit 0) or aborts (exit 3)
# ----------------------------------------------------------------------

NODE_KEYS = ("network.hub", "experiment.seed_node", "experiment.p_node",
             "experiment.m_node")
# sizes that keep one run short, by dotted key; every other leaf is drawn
# from its type in CONFIG
SIZES = {
    "numerics.t_end": st.floats(1e-3, 1.0),
    "numerics.dt": st.floats(-3.0, -0.5).map(lambda e: 10.0 ** e),
    "numerics.output_stride": st.integers(1, 50),
    "network.rows": st.integers(1, 5),
    "network.cols": st.integers(1, 5),
    "grid.cells": st.integers(8, 64) | st.lists(st.just(8), min_size=1,
                                                max_size=2),
    "grid.length": st.sampled_from([4.0, 8.0]) | st.lists(
        st.sampled_from([4.0, 8.0]), min_size=1, max_size=2),
    # at most about 200 events per unit time
    "schedule.period": st.floats(-2.3, 1.0).map(lambda e: 10.0 ** e),
    "schedule.rate": st.floats(-1.0, 2.3).map(lambda e: 10.0 ** e),
    "experiment.alpha_b_grid.count": st.integers(-1, 12),
    # node ids: one below the grid, and nodes that most grids have
    **{key: st.integers(-1, 5) for key in NODE_KEYS},
    "network.hubs": st.lists(st.integers(-1, 5), min_size=2, max_size=2),
    "experiment.amplitudes": st.lists(st.floats(1e-3, 20.0), min_size=1,
                                      max_size=3),
}
# drawn in every example: the sizes that defaults would make large, node
# ids, whose defaults lie outside a 5x5 grid, and the schedule and
# experiment kinds
ALWAYS = {"experiment.kind", "schedule.kind", "numerics.t_end",
          "numerics.dt", "grid.cells", "network.rows", "network.cols",
          "network.hubs", *NODE_KEYS}
# the run writes where the test says, a preset is a run of its own, and
# each test case sets the model
NOT_DRAWN = {"preset", "output_dir", "model"}


def leaf_values(leaf, key):
    """A strategy for the values of one CONFIG leaf, valid or not by the
    model's own checks; numbers without a range are drawn from [-10, 10],
    mostly nonnegative."""
    if key in SIZES:
        return SIZES[key]
    if leaf.kind == "record":
        item = config_values(leaf.options, key)
    elif leaf.kind == "choice":
        item = st.sampled_from(leaf.options)
    elif leaf.kind == "bool":
        item = st.booleans()
    elif leaf.kind == "int":
        lo = -2 if leaf.lo is None else int(leaf.lo)
        item = st.integers(lo, lo + 30)
    else:
        lo, hi = leaf.lo, leaf.hi
        item = (st.floats(lo, lo + 10.0 if hi is None else hi,
                          exclude_min=leaf.open, exclude_max=leaf.open)
                if lo is not None else
                st.floats(0.0, 10.0) | st.floats(-10.0, 10.0))
        if leaf.kind == "number":
            item = item | st.integers(-2, 30)
    if leaf.size is not None:
        items = st.lists(item, min_size=leaf.size[0],
                         max_size=leaf.size[1] or 3)
        item = item | items if leaf.scalar else items
    return st.none() | item if leaf.optional else item


def config_values(table, path=""):
    """A strategy for mappings over ``table``: required leaves and those
    under ALWAYS in every example, the rest sometimes, so the defaults are
    exercised too."""
    keys = {key: (f"{path}.{key}" if path else key, spec)
            for key, spec in table.items()}
    drawn = {key: config_values(spec, dotted) if isinstance(spec, dict)
             else leaf_values(spec, dotted)
             for key, (dotted, spec) in keys.items()
             if dotted not in NOT_DRAWN}
    required = {key: s for key, s in drawn.items()
                if any(k == keys[key][0] or k.startswith(keys[key][0] + ".")
                       for k in ALWAYS)
                or not isinstance(table[key], dict)
                and table[key].default is REQUIRED}
    return st.fixed_dictionaries(
        required, optional={k: s for k, s in drawn.items()
                            if k not in required})


def run_configs(model, kind):
    """Configs drawn from CONFIG for one model and experiment kind; a kind
    of another model only exits 2, as the probes show.  A forced-regime run
    needs 50 events up to t_end <= 1, which few drawn schedules have, so
    there the schedule is periodic with 50-200 events up to the drawn
    t_end."""
    configs = config_values(CONFIG).map(lambda data: {
        **data, "model": model, "experiment": {**data["experiment"],
                                               "kind": kind}})
    if kind != "forced_regime":
        return configs
    return configs.flatmap(lambda data: st.integers(50, 200).map(
        lambda events: {**data, "schedule": {
            **data["schedule"], "kind": "periodic",
            "period": data["numerics"]["t_end"] / events}}))


class TestParsedConfigsRun:
    @pytest.mark.parametrize("model,kind", [
        (model, kind) for model, kinds in EXPERIMENTS.items()
        for kind in kinds])
    @settings(max_examples=25,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(data=st.data())
    def test_parsed_config_completes_or_aborts(self, model, kind, data):
        data = data.draw(run_configs(model, kind))
        try:
            parse_config(data)
        except ConfigError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path, out = Path(tmp) / "cfg.yaml", Path(tmp) / "o"
            cfg_path.write_text(yaml.safe_dump(data))
            code = main(["run", str(cfg_path), "--output", str(out)])
            assert code in (0, 3)
            assert (out / "abort.json").exists() == (code == 3)
            assert (out / "summary.json").exists()
