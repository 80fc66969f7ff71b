"""Configuration parsing, named presets, run orchestration, and file output.

Run configurations are YAML documents with nested sections (``model``,
``params``, ``schedule``, ``initial``, ``network``, ``grid``, ``pde``,
``numerics``, ``experiment``, ``output_dir``).  Parsing fills every field
from documented defaults, rejects unknown keys, runs the model validators,
and the fully resolved configuration is echoed verbatim into the output
directory so a run can always be reproduced from its artifacts.

Subcommands:

    riotdyn run <config.yaml> [--output DIR] [--seed N]
    riotdyn preset <name> [--override key=value ...] [--output DIR] [--seed N]
    riotdyn sweep <config.yaml> --axis <dotted.key> --values v1,v2,...
    riotdyn analyze <run_dir> --kind {relaxation|front|peaks|mass}

Data files are plain columnar text with a JSON schema sidecar; reruns with
the same configuration and seed are byte-identical.  The machine-readable
``summary.json`` carries a schema version that must be bumped whenever its
fields change.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .errors import BlowUpError, ConfigError
from .model import ModelParams, SiteState, check_excitability, peak_activity
from ._core import write_table
from .shocks import (AmplitudeLaw, ExplicitSchedule, PeriodicSchedule,
                     PoissonSchedule, Shock, check_node_site, realize)
from .single_site import (TRAJECTORY_COLUMNS, check_relaxation,
                          classify_forced_regime, hysteresis_sweep,
                          integrate_site, max_activity_window,
                          save_trajectory)
from .network import (NETWORK_COLUMNS, classify_spread, delay_experiment,
                      double_threshold_scan, grid_graph, integrate_network,
                      save_network_trajectory)
from .continuum import (FIELD_COLUMNS_1D, FIELD_COLUMNS_2D, FieldState,
                        PdeParams, SpatialGrid, cfl_time_step, integrate_pde,
                        mass_diagnostics, peak_statistics,
                        save_field_trajectory, steady_states, track_front)

SUMMARY_SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "RIOTDYN_OUTPUT_ROOT"

MODELS = ("site", "network", "pde_local", "pde_nonlocal")

# ----------------------------------------------------------------------
# schema and defaults
# ----------------------------------------------------------------------

_PARAM_KEYS = ("omega", "theta", "p", "lambda1", "beta", "a", "z0",
               "lambda_b", "alpha_b", "eta", "eta_alpha", "sigma",
               "decay_form")

SCHEMA: dict = {
    "model": None,
    "preset": None,
    "output_dir": None,
    "params": {k: None for k in _PARAM_KEYS},
    "schedule": {
        "kind": None, "shocks": None, "amplitude": None, "period": None,
        "rate": None, "amplitude_law": {"kind": None, "a": None, "b": None},
        "site": None, "seed": None,
    },
    "initial": {
        "lambda0": None, "alpha0": None,
        "lambda_field": {"kind": None, "value": None, "amplitude": None,
                         "rate": None, "fraction": None, "background": None},
        "alpha_field": {"kind": None, "value": None, "amplitude": None,
                        "rate": None, "fraction": None, "background": None},
    },
    "network": {"rows": None, "cols": None, "social": None, "hub": None,
                "hubs": None},
    "grid": {"length": None, "cells": None, "lengths": None},
    "pde": {
        "diffusivity": None, "deposit": None, "deposit_width": None,
        "nonlocal": {"eta_bar": None, "kernel": {"kind": None, "radius": None,
                                                 "width": None},
                     "normalize": None, "variant": None,
                     "drop_duplicate_decay": None},
    },
    "numerics": {"dt": None, "t_end": None, "output_stride": None,
                 "seed": None, "noise": None},
    "experiment": {
        "kind": None, "eps": None, "delta_fraction": None,
        "seed_node": None, "threshold_fraction": None, "amplitudes": None,
        "p_node": None, "m_node": None, "a1": None, "a2": None, "t2": None,
        "trigger": None, "threshold": None,
        "alpha_b_grid": {"start": None, "stop": None, "count": None},
    },
}

DEFAULT_PARAMS = {
    "omega": 0.4, "theta": 0.7, "p": 0.7, "lambda1": 1.0, "beta": 3.0,
    "a": 1.0, "z0": 2.0, "lambda_b": 0.0, "alpha_b": 0.0, "eta": 0.0,
    "eta_alpha": None, "sigma": 0.0, "decay_form": "power",
}

DEFAULTS: dict = {
    "model": "site",
    "preset": None,
    "output_dir": "riotdyn-out",
    "params": DEFAULT_PARAMS,
    "schedule": {"kind": "none", "shocks": [], "amplitude": 1.0,
                 "period": 1.0, "rate": 1.0,
                 "amplitude_law": {"kind": "constant", "a": 1.0, "b": 0.0},
                 "site": None, "seed": 0},
    "initial": {"lambda0": 0.01, "alpha0": 0.0,
                "lambda_field": {"kind": "zero", "value": 0.0,
                                 "amplitude": 1.0, "rate": 1.0,
                                 "fraction": 0.2, "background": 0.0},
                "alpha_field": {"kind": "zero", "value": 0.0,
                                "amplitude": 1.0, "rate": 1.0,
                                "fraction": 0.2, "background": 0.0}},
    "network": {"rows": 10, "cols": 10, "social": "copy_of_V", "hub": 55,
                "hubs": [22, 77]},
    "grid": {"length": 20.0, "cells": 400, "lengths": None},
    "pde": {"diffusivity": 1.0, "deposit": "cell", "deposit_width": 0.0,
            "nonlocal": {"eta_bar": 0.5,
                         "kernel": {"kind": "tophat", "radius": 1.0,
                                    "width": 1.0},
                         "normalize": True, "variant": "averaging",
                         "drop_duplicate_decay": False}},
    "numerics": {"dt": 1e-3, "t_end": 50.0, "output_stride": 10, "seed": 0,
                 "noise": "none"},
    "experiment": {"kind": "none", "eps": 1e-3, "delta_fraction": 0.05,
                   "seed_node": 55, "threshold_fraction": 0.2,
                   "amplitudes": [2.0, 6.0, 10.0],
                   "p_node": 22, "m_node": 77, "a1": 5.0, "a2": 2.0,
                   "t2": 30.0, "trigger": 0.0, "threshold": None,
                   "alpha_b_grid": {"start": 0.1, "stop": 1.0, "count": 10}},
}


def _check_unknown(data, schema, path: str = "") -> None:
    if not isinstance(data, dict):
        return
    for key, value in data.items():
        here = f"{path}.{key}" if path else key
        if not isinstance(schema, dict) or key not in schema:
            raise ConfigError(f"unknown key {here!r}")
        if isinstance(schema[key], dict) and isinstance(value, dict):
            _check_unknown(value, schema[key], here)


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run configuration (defaults expanded, validated)."""

    resolved: dict

    @property
    def model(self) -> str:
        return self.resolved["model"]

    def params(self) -> ModelParams:
        return ModelParams(**self.resolved["params"])

    def schedule(self):
        sc = self.resolved["schedule"]
        kind = sc["kind"]
        if kind == "none":
            return None
        if kind == "explicit":
            shocks = [Shock(float(s["time"]), float(s["amplitude"]),
                            _site_value(s.get("site")))
                      for s in sc["shocks"]]
            return ExplicitSchedule(shocks)
        if kind == "periodic":
            return PeriodicSchedule(float(sc["amplitude"]),
                                    float(sc["period"]),
                                    _site_value(sc["site"]))
        if kind == "poisson":
            law = sc["amplitude_law"]
            return PoissonSchedule(float(sc["rate"]),
                                   AmplitudeLaw(law["kind"], float(law["a"]),
                                                float(law["b"])),
                                   _site_value(sc["site"]), int(sc["seed"]))
        raise ConfigError(f"unknown schedule kind {kind!r}")

    def spatial_grid(self) -> SpatialGrid:
        g = self.resolved["grid"]
        if g["lengths"] is not None:
            lengths = tuple(float(v) for v in g["lengths"])
            cells = tuple(int(v) for v in g["cells"])
        else:
            lengths = (float(g["length"]),)
            cells = (int(g["cells"]),)
        return SpatialGrid(lengths, cells)

    def pde_params(self) -> PdeParams:
        p = self.resolved["pde"]
        nl = None
        if self.model == "pde_nonlocal":
            spec = p["nonlocal"]
            k = spec["kernel"]
            kernel = (("tophat", float(k["radius"])) if k["kind"] == "tophat"
                      else ("gaussian", float(k["width"])))
            from .continuum import NonlocalSpec
            nl = NonlocalSpec(float(spec["eta_bar"]), kernel,
                              bool(spec["normalize"]), spec["variant"],
                              bool(spec["drop_duplicate_decay"]))
        return PdeParams(self.params(), float(p["diffusivity"]), nl,
                         p["deposit"], float(p["deposit_width"]))


def _site_value(raw):
    if raw is None:
        return None
    if isinstance(raw, (list, tuple)):
        vals = [float(v) for v in raw]
        return tuple(vals) if len(vals) > 1 else vals[0]
    return raw


def parse_config(source) -> RunConfig:
    """Parse and validate a YAML config (text, mapping, or file content).

    Unknown keys are rejected; YAML syntax errors carry the line number;
    model validators run here so a bad configuration never starts a run.
    """
    if isinstance(source, dict):
        data = copy.deepcopy(source)
    else:
        try:
            data = yaml.safe_load(source)
        except yaml.YAMLError as exc:
            line = None
            mark = getattr(exc, "problem_mark", None)
            if mark is not None:
                line = mark.line + 1
            raise ConfigError(f"config parse error: {exc}", line) from exc
        if data is None:
            data = {}
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")

    preset_name = data.get("preset")
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset_name!r}; available: "
                f"{', '.join(sorted(PRESETS))}")
        base = copy.deepcopy(PRESETS[preset_name])
        data = _deep_merge(base, {k: v for k, v in data.items()
                                  if k != "preset"})
        data["preset"] = preset_name

    _check_unknown(data, SCHEMA)
    resolved = _deep_merge(DEFAULTS, data)
    cfg = RunConfig(resolved)
    _validate(cfg)
    return cfg


def emit_config(cfg: RunConfig) -> str:
    """Serialize a resolved config; parse(emit(cfg)) reproduces it exactly."""
    return yaml.safe_dump(cfg.resolved, sort_keys=True)


def _validate(cfg: RunConfig) -> None:
    r = cfg.resolved
    if r["model"] not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {r['model']!r}")
    try:
        params = cfg.params()
        cfg.schedule()
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    check_excitability(params, warn=True)
    num = r["numerics"]
    for key in ("dt", "t_end"):
        if float(num[key]) <= 0.0:
            raise ConfigError(f"numerics.{key} must be > 0")
    stride = num["output_stride"]
    if (isinstance(stride, bool) or not isinstance(stride, numbers.Integral)
            or stride < 1):
        raise ConfigError(
            f"numerics.output_stride must be an integer >= 1, got {stride!r}")
    if num["noise"] not in ("none", "brownian"):
        raise ConfigError("numerics.noise must be none or brownian")
    if r["model"].startswith("pde"):
        try:
            pp = cfg.pde_params()
            grid = cfg.spatial_grid()
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        bound = cfl_time_step(grid, pp)
        if float(num["dt"]) > bound * (1.0 + 1e-12):
            raise ConfigError(
                f"numerics.dt={num['dt']} violates the explicit stability "
                f"bound {bound:.6g} (= 0.4 dx^2 / (2 dim D))")
    if r["model"] == "network":
        n = int(r["network"]["rows"]) * int(r["network"]["cols"])
        if n < 2:
            raise ConfigError("network needs at least 2 nodes")
        # the double_threshold and delay experiments build their own shocks
        if r["experiment"]["kind"] not in ("double_threshold", "delay"):
            try:
                for s in realize(cfg.schedule(), float(num["t_end"]),
                                 int(num["seed"])):
                    check_node_site(s.site, n)
            except ValueError as exc:
                raise ConfigError(f"schedule: {exc}") from exc


# ----------------------------------------------------------------------
# presets: each scenario's defining constants plus documented defaults
# for everything else (initial conditions, dt, grids, horizons)
# ----------------------------------------------------------------------

def _site_preset(params: dict, shocks, lam0: float, alpha0: float,
                 t_end: float, experiment: dict | None = None) -> dict:
    return {
        "model": "site",
        "params": params,
        "schedule": {"kind": "explicit",
                     "shocks": [{"time": t, "amplitude": a, "site": None}
                                for t, a in shocks]},
        "initial": {"lambda0": lam0, "alpha0": alpha0},
        "numerics": {"t_end": t_end},
        "experiment": experiment or {"kind": "relaxation"},
    }


PRESETS: dict[str, dict] = {
    # single burst with a long plateau near the peak and slow monotone decay
    "fig-slow": _site_preset(
        {"z0": 10.0, "omega": 0.2, "theta": 0.1, "p": 1.0, "beta": 10.0,
         "a": 6.0}, [(0.0, 5.0)], 0.1, 2.0, 160.0),
    # same family with a shallow transition slope
    "fig-fast": _site_preset(
        {"z0": 10.0, "omega": 0.2, "theta": 0.1, "p": 1.0, "beta": 1.0,
         "a": 6.0}, [(0.0, 6.0)], 0.1, 1.0, 300.0),
    # first event sub-threshold, second event at t=12 ignites the burst
    "fig-delay": _site_preset(
        {"z0": 10.0, "omega": 0.3, "theta": 0.3, "p": 1.0, "beta": 100.0,
         "a": 6.0}, [(0.0, 5.0), (12.0, 8.0)], 0.1, 0.0, 80.0),
    # second, smaller event reignites the decaying burst
    "fig-double": _site_preset(
        {"z0": 10.0, "omega": 0.3, "theta": 0.4, "p": 1.0, "beta": 1.0,
         "a": 6.0}, [(0.0, 6.0), (24.0, 3.0)], 0.1, 1.0, 120.0),
    # moderate single shock on the phase-plane workhorse set
    "fig-nullcline": _site_preset(
        {"z0": 2.0, "omega": 0.4, "theta": 0.7, "p": 0.7, "beta": 3.0,
         "a": 1.0}, [(0.0, 4.0)], 0.1, 0.0, 80.0),
    # periodic forcing at high frequency: sustained activity
    "fig-periodic": {
        "model": "site",
        "params": {"z0": 2.0, "omega": 0.4, "theta": 0.7, "p": 0.7,
                   "beta": 3.0, "a": 1.0},
        "schedule": {"kind": "periodic", "amplitude": 2.0, "period": 2.0},
        "initial": {"lambda0": 0.01, "alpha0": 0.0},
        "numerics": {"t_end": 500.0},
        "experiment": {"kind": "forced_regime", "delta_fraction": 0.2},
    },
    # hub social graph, one triggering event, amplitude scan (the constants
    # of acceptance criterion 7)
    "net-double-threshold": {
        "model": "network",
        "params": {"z0": 10.0, "omega": 0.2, "theta": 0.3, "p": 0.7,
                   "beta": 1.0, "a": 5.1, "eta": 0.2, "eta_alpha": 0.13},
        "network": {"rows": 10, "cols": 10, "social": "hub", "hub": 55},
        "initial": {"lambda0": 0.01, "alpha0": 0.0},
        "numerics": {"t_end": 50.0, "output_stride": 50},
        "experiment": {"kind": "double_threshold", "seed_node": 55,
                       "amplitudes": [2.0, 6.0, 10.0]},
    },
    # two influential centers; a weak second event reignites activity
    "net-delay": {
        "model": "network",
        "params": {"z0": 2.0, "omega": 0.4, "theta": 0.12, "p": 0.7,
                   "beta": 3.0, "a": 1.0, "eta": 0.02, "lambda_b": 0.001},
        "network": {"rows": 10, "cols": 10, "social": "two_hubs",
                    "hubs": [22, 77]},
        "initial": {"lambda0": 0.01, "alpha0": 0.0},
        "numerics": {"t_end": 70.0, "output_stride": 50},
        "experiment": {"kind": "delay", "p_node": 22, "m_node": 77,
                       "a1": 5.0, "a2": 2.0, "t2": 30.0},
    },
    # ignition wave from a strong localized event on an exponential profile
    "pde-wavefront": {
        "model": "pde_local",
        "params": {"z0": 10.0, "omega": 0.2, "theta": 0.05, "p": 0.7,
                   "beta": 1.0, "a": 100.0, "eta": 0.198},
        "grid": {"length": 20.0, "cells": 400},
        "pde": {"diffusivity": 0.1},
        "schedule": {"kind": "explicit",
                     "shocks": [{"time": 0.0, "amplitude": 50.0,
                                 "site": 0.0}]},
        "initial": {"lambda_field": {"kind": "exp_decay", "amplitude": 1.0,
                                     "rate": 10.0},
                    "alpha_field": {"kind": "zero"}},
        "numerics": {"dt": 5e-3, "t_end": 30.0, "output_stride": 100},
        "experiment": {"kind": "front"},
    },
    # uniform activity, strong event in the middle: spreading bump
    "pde-bump": {
        "model": "pde_local",
        "params": {"z0": 10.0, "omega": 0.2, "theta": 0.05, "p": 0.7,
                   "beta": 1.0, "a": 100.0, "eta": 0.198},
        "grid": {"length": 20.0, "cells": 400},
        "pde": {"diffusivity": 0.1},
        "schedule": {"kind": "explicit",
                     "shocks": [{"time": 0.0, "amplitude": 100.0,
                                 "site": 5.0}]},
        "initial": {"lambda_field": {"kind": "uniform", "value": 2.0},
                    "alpha_field": {"kind": "zero"}},
        "numerics": {"dt": 5e-3, "t_end": 10.0, "output_stride": 100},
        "experiment": {"kind": "peaks", "trigger": 5.0},
    },
    # bistable regime: an excited block invades the rest at a unique speed
    "pde-bistable": {
        "model": "pde_local",
        "params": {"z0": 10.0, "omega": 0.2, "theta": 0.05, "p": 0.5,
                   "beta": 3.0, "a": 5.0, "eta": 0.01, "alpha_b": 2.0},
        "grid": {"length": 80.0, "cells": 400},
        "pde": {"diffusivity": 1.0},
        "initial": {"lambda_field": {"kind": "excited_block",
                                     "fraction": 0.2, "background": 1e-4},
                    "alpha_field": {"kind": "excited_block",
                                    "fraction": 0.2}},
        "numerics": {"dt": 5e-3, "t_end": 60.0, "output_stride": 400},
        "experiment": {"kind": "front"},
    },
    # the same family at low critical tension: the rest state is unstable
    "pde-monostable": {
        "model": "pde_local",
        "params": {"z0": 10.0, "omega": 0.2, "theta": 0.05, "p": 0.5,
                   "beta": 3.0, "a": 1.0, "eta": 0.01, "alpha_b": 2.0},
        "grid": {"length": 80.0, "cells": 400},
        "pde": {"diffusivity": 1.0},
        "numerics": {"dt": 5e-3, "t_end": 10.0, "output_stride": 400},
        "experiment": {"kind": "steady_states"},
    },
}


# ----------------------------------------------------------------------
# field construction for pde initial conditions
# ----------------------------------------------------------------------

def _build_field(spec: dict, grid: SpatialGrid, pp: PdeParams,
                 which: str) -> np.ndarray:
    if grid.dimension != 1 and spec["kind"] not in ("zero", "uniform"):
        raise ConfigError(f"initial field kind {spec['kind']!r} is 1-D only")
    kind = spec["kind"]
    n = grid.shape
    if kind == "zero":
        return np.zeros(n)
    if kind == "uniform":
        return np.full(n, float(spec["value"]))
    x = grid.centers()
    if kind == "exp_decay":
        return float(spec["amplitude"]) * np.exp(-float(spec["rate"]) * x)
    if kind == "block":
        cut = float(spec["fraction"]) * grid.lengths[0]
        return np.where(x < cut, float(spec["value"]),
                        float(spec["background"]))
    if kind == "excited_block":
        rep = steady_states(pp.model)
        alpha2, lam2 = rep.states[-1]
        alpha1 = rep.states[0][0]
        cut = float(spec["fraction"]) * grid.lengths[0]
        if which == "lam":
            return np.where(x < cut, lam2, float(spec["background"]))
        return np.where(x < cut, alpha2, alpha1)
    raise ConfigError(f"unknown field kind {kind!r}")


# ----------------------------------------------------------------------
# run execution
# ----------------------------------------------------------------------

def _write_schema(path: Path, columns, description: str) -> None:
    sidecar = path.with_suffix(path.suffix + ".schema.json")
    sidecar.write_text(json.dumps(
        {"schema_version": SUMMARY_SCHEMA_VERSION, "columns": list(columns),
         "description": description}, indent=2) + "\n")


def _write_table(path: Path, header, formats, columns,
                 description: str) -> None:
    write_table(path, header, formats, columns)
    _write_schema(path, header, description)


def _json_ready(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


@dataclass(frozen=True)
class RunResult:
    summary: dict
    output_dir: Path


def _run_site(cfg: RunConfig, out: Path) -> dict:
    r = cfg.resolved
    params = cfg.params()
    num = r["numerics"]
    init = SiteState(float(r["initial"]["lambda0"]),
                     float(r["initial"]["alpha0"]))
    exp = r["experiment"]
    kind = exp["kind"]
    summary: dict = {}

    if kind == "hysteresis":
        g = exp["alpha_b_grid"]
        grid_vals = np.linspace(float(g["start"]), float(g["stop"]),
                                int(g["count"]))
        res = hysteresis_sweep(params, grid_vals)
        _write_table(out / "hysteresis.txt", ("alpha_b", "n_fixed_points"),
                     ("%.17g", "%d"), (res.grid, res.counts),
                     "fixed-point count along the base-tension sweep")
        summary.update(fold=res.fold, alpha_b1=res.alpha_b1,
                       alpha_b2=res.alpha_b2, message=res.message)
        return summary

    if kind == "forced_regime":
        lam_star = peak_activity(params)
        res = classify_forced_regime(
            params, cfg.schedule(), float(num["t_end"]),
            float(exp["delta_fraction"]) * lam_star, initial=init,
            dt=float(num["dt"]), seed=int(num["seed"]),
            record_stride=int(num["output_stride"]))
        summary.update(regime=res.regime, liminf_estimate=res.liminf_estimate,
                       limsup_estimate=res.limsup_estimate, floor=res.floor,
                       near_peak=res.near_peak, n_events=res.n_events)
        return summary

    traj = integrate_site(params, cfg.schedule(), init, float(num["t_end"]),
                          dt=float(num["dt"]), seed=int(num["seed"]),
                          record_stride=int(num["output_stride"]))
    save_trajectory(traj, out / "trajectory.txt")
    _write_schema(out / "trajectory.txt", TRAJECTORY_COLUMNS,
                  "single-site trajectory; shock_flag marks tension jumps")
    summary["max_activity"] = float(traj.lam.max())
    summary["final_state"] = [float(traj.lam[-1]), float(traj.alpha[-1])]
    if kind == "relaxation":
        relaxed = check_relaxation(traj, float(exp["eps"]))
        summary["relaxed_at"] = relaxed
    elif kind == "window":
        lam_star = peak_activity(params)
        window = max_activity_window(traj,
                                     float(exp["delta_fraction"]) * lam_star)
        summary["window"] = window
        summary["window_length"] = 0.0 if window is None else window[1] - window[0]
    elif kind != "none":
        raise ConfigError(f"experiment {kind!r} is not a site experiment")
    return summary


def _run_network(cfg: RunConfig, out: Path) -> dict:
    r = cfg.resolved
    params = cfg.params()
    num = r["numerics"]
    net = r["network"]
    social = net["social"]
    if social == "hub":
        social = ("hub", int(net["hub"]))
    elif social == "two_hubs":
        social = ("two_hubs", int(net["hubs"][0]), int(net["hubs"][1]))
    graph = grid_graph(int(net["rows"]), int(net["cols"]), social)
    init = (float(r["initial"]["lambda0"]), float(r["initial"]["alpha0"]))
    exp = r["experiment"]
    kind = exp["kind"]
    summary: dict = {}

    if kind == "double_threshold":
        scan = double_threshold_scan(
            graph, params, [float(a) for a in exp["amplitudes"]],
            int(exp["seed_node"]), init, float(num["t_end"]),
            float(num["dt"]), float(exp["threshold_fraction"]),
            record_stride=int(num["output_stride"]))
        _write_table(out / "threshold_scan.txt", ("amplitude", "regime"),
                     ("%.17g", "%s"), (scan.amplitudes, scan.regimes),
                     "spread classification per shock amplitude")
        summary.update(regimes=list(scan.regimes),
                       amplitudes=list(scan.amplitudes),
                       spread_bracket=scan.spread_bracket,
                       nonlocal_bracket=scan.nonlocal_bracket,
                       monotonic=scan.monotonic, flags=list(scan.flags))
        return summary

    if kind == "delay":
        rep = delay_experiment(
            graph, params, float(exp["a1"]), int(exp["p_node"]),
            float(exp["a2"]), int(exp["m_node"]), float(exp["t2"]), init,
            float(num["t_end"]), float(num["dt"]),
            float(exp["threshold_fraction"]),
            record_stride=int(num["output_stride"]))
        summary.update(
            activated_single=rep.activated_single,
            activated_double=rep.activated_double,
            total_activity_single=rep.total_activity_single,
            total_activity_double=rep.total_activity_double,
            post_t2_activity_single=rep.post_t2_activity_single,
            post_t2_activity_double=rep.post_t2_activity_double,
            dominates_after_t2=rep.dominates_after_t2)
        return summary

    traj = integrate_network(graph, params, cfg.schedule(), init,
                             float(num["t_end"]), dt=float(num["dt"]),
                             noise=num["noise"], noise_seed=int(num["seed"]),
                             seed=int(num["seed"]),
                             record_stride=int(num["output_stride"]))
    save_network_trajectory(traj, out / "network.txt")
    _write_schema(out / "network.txt", NETWORK_COLUMNS,
                  "per-node trajectory, nodes fastest-varying")
    summary["max_activity"] = float(traj.lam.max())
    if kind == "spread":
        rep = classify_spread(traj, graph, int(exp["seed_node"]),
                              float(exp["threshold_fraction"]))
        _write_table(out / "activation.txt",
                     ("node", "activation_time", "distance"),
                     ("%d", "%.17g", "%.17g"),
                     (np.arange(graph.n), rep.activation, rep.distances),
                     "first-passage activation times and hop distances")
        summary.update(regime=rep.regime, n_activated=rep.n_activated,
                       jump_nodes=list(rep.jump_nodes),
                       order_violations=rep.order_violations)
    elif kind != "none":
        raise ConfigError(f"experiment {kind!r} is not a network experiment")
    return summary


def _run_pde(cfg: RunConfig, out: Path) -> dict:
    r = cfg.resolved
    num = r["numerics"]
    pp = cfg.pde_params()
    grid = cfg.spatial_grid()
    exp = r["experiment"]
    kind = exp["kind"]
    summary: dict = {}

    if kind == "steady_states":
        rep = steady_states(pp.model)
        summary.update(classification=rep.classification,
                       states=[list(s) for s in rep.states],
                       instability_lhs=rep.instability_lhs,
                       instability_rhs=rep.instability_rhs)
        return summary

    init = FieldState(
        _build_field(r["initial"]["lambda_field"], grid, pp, "lam"),
        _build_field(r["initial"]["alpha_field"], grid, pp, "alpha"))
    traj = integrate_pde(pp, grid, cfg.schedule(), init, float(num["t_end"]),
                         dt=float(num["dt"]), seed=int(num["seed"]),
                         record_stride=int(num["output_stride"]))
    save_field_trajectory(traj, out / "fields.txt")
    _write_schema(out / "fields.txt",
                  FIELD_COLUMNS_1D if grid.dimension == 1
                  else FIELD_COLUMNS_2D,
                  "field snapshots at the configured output stride")
    summary["max_activity"] = float(traj.lam.max())

    if kind == "mass":
        rep = mass_diagnostics(traj)
        _write_table(out / "mass.txt",
                     ("t", "lambda_mass", "alpha_mass", "lower_envelope",
                      "upper_envelope"), ("%.17g",) * 5,
                     (rep.times, rep.lam_mass, rep.alpha_mass,
                      rep.lower_envelope, rep.upper_envelope),
                     "L1 norms and the exponential envelope of tension mass")
        summary.update(k1=rep.k1, k2=rep.k2, fitted_rate=rep.fitted_rate,
                       rate_within_bounds=rep.rate_within_bounds,
                       hypothesis_ok=rep.hypothesis_ok)
    elif kind == "front":
        threshold = exp["threshold"]
        rep = track_front(traj, None if threshold is None else float(threshold))
        found = np.isfinite(rep.positions)
        _write_table(out / "front.txt", ("t", "front_position"),
                     ("%.17g", "%.17g"),
                     (rep.times[found], rep.positions[found]),
                     "front position over time")
        summary.update(speed=rep.speed, threshold=rep.threshold,
                       fit_window=rep.fit_window,
                       monotonicity_violations=rep.monotonicity_violations)
    elif kind == "peaks":
        rep = peak_statistics(traj, _site_value(exp["trigger"]))
        _write_table(out / "peaks.txt",
                     ("distance", "peak_value", "peak_time"),
                     ("%.17g",) * 3,
                     (rep.distances, rep.peak_values, rep.peak_times),
                     "per-cell peak activity and peak time by distance")
        summary.update(p_violation_fraction=rep.p_violation_fraction,
                       t_violation_fraction=rep.t_violation_fraction)
    elif kind != "none":
        raise ConfigError(f"experiment {kind!r} is not a pde experiment")
    return summary


def run(cfg: RunConfig, output_dir=None) -> RunResult:
    """Execute a configuration and write all artifacts.

    Writes the resolved config, trajectory/diagnostic files with schema
    sidecars, and ``summary.json``.  Integration blow-ups are recorded in
    ``abort.json`` and re-raised.
    """
    out = Path(output_dir) if output_dir is not None else _default_out(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.yaml").write_text(emit_config(cfg))
    started = time.perf_counter()
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "model": cfg.model,
        "experiment": cfg.resolved["experiment"]["kind"],
        "status": "ok",
    }
    try:
        if cfg.model == "site":
            summary.update(_run_site(cfg, out))
        elif cfg.model == "network":
            summary.update(_run_network(cfg, out))
        else:
            summary.update(_run_pde(cfg, out))
    except BlowUpError as exc:
        record = {"status": "aborted", "reason": str(exc), "time": exc.time}
        (out / "abort.json").write_text(json.dumps(record, indent=2) + "\n")
        summary["status"] = "aborted"
        summary["abort_time"] = exc.time
        summary["wall_time_s"] = time.perf_counter() - started
        (out / "summary.json").write_text(
            json.dumps(_json_ready(summary), indent=2) + "\n")
        raise
    summary["wall_time_s"] = time.perf_counter() - started
    (out / "summary.json").write_text(
        json.dumps(_json_ready(summary), indent=2) + "\n")
    return RunResult(summary, out)


def _default_out(cfg: RunConfig) -> Path:
    base = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    return base / cfg.resolved["output_dir"]


def _set_by_path(data: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    here = data
    for key in keys[:-1]:
        if key not in here or not isinstance(here[key], dict):
            here[key] = {}
        here = here[key]
    here[keys[-1]] = value


def sweep(cfg: RunConfig, axis: str, values, output_dir=None) -> list[dict]:
    """Run one independent job per axis value and write a combined table.

    Rows keep the input value ordering; a failed run marks its row and the
    remaining runs still complete.
    """
    values = list(values)
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    out = Path(output_dir) if output_dir is not None else _default_out(cfg)
    out.mkdir(parents=True, exist_ok=True)
    summaries: list[dict] = []
    for i, value in enumerate(values):
        data = copy.deepcopy(cfg.resolved)
        _set_by_path(data, axis, value)
        row: dict = {"axis": axis, "value": value}
        try:
            sub = parse_config(data)
            result = run(sub, out / f"{i:03d}")
            row.update(result.summary)
        except Exception as exc:  # noqa: BLE001 - recorded per row
            row["status"] = "failed"
            row["error"] = str(exc)
        summaries.append(row)

    keys = ["value", "status"]
    for row in summaries:
        for key, val in row.items():
            if key in ("axis", "schema_version", "wall_time_s"):
                continue
            if key not in keys and not isinstance(val, (list, tuple, dict)):
                keys.append(key)
    # columns mix types from row to row, so cells are formatted one by one;
    # a missing value is written as nan so that every row has every column
    cells = [["nan" if row.get(k) is None else
              "%.17g" % row[k] if isinstance(row[k], float) else str(row[k])
              for row in summaries] for k in keys]
    _write_table(out / "sweep.txt", keys, ("%s",) * len(keys), cells,
                 f"summaries per {axis} value, input order")
    (out / "sweep.json").write_text(
        json.dumps(_json_ready(summaries), indent=2) + "\n")
    return summaries


# ----------------------------------------------------------------------
# analyze: re-run analyses on stored artifacts
# ----------------------------------------------------------------------

def _load_run(run_dir: Path) -> tuple[RunConfig, Path]:
    cfg_path = run_dir / "resolved_config.yaml"
    if not cfg_path.exists():
        raise ConfigError(f"no resolved_config.yaml in {run_dir}")
    return parse_config(cfg_path.read_text()), run_dir


def _load_field_trajectory(cfg: RunConfig, run_dir: Path):
    from .continuum import FieldTrajectory
    data = np.loadtxt(run_dir / "fields.txt", skiprows=1, ndmin=2)
    grid = cfg.spatial_grid()
    if grid.dimension != 1:
        raise ConfigError("analyze supports 1-D field runs")
    n = grid.cells[0]
    times = data[::n, 0]
    lam = data[:, 2].reshape(-1, n)
    alpha = data[:, 3].reshape(-1, n)
    events = realize(cfg.schedule(), float(cfg.resolved["numerics"]["t_end"]),
                     int(cfg.resolved["numerics"]["seed"]))
    return FieldTrajectory(times, lam, alpha, np.array([], dtype=int),
                           tuple(events), grid, cfg.pde_params())


def analyze(run_dir, kind: str) -> dict:
    """Recompute an analysis from a run directory's stored artifacts."""
    cfg, run_dir = _load_run(Path(run_dir))
    exp = cfg.resolved["experiment"]
    if kind == "relaxation":
        from .single_site import load_trajectory
        traj = load_trajectory(run_dir / "trajectory.txt", cfg.params())
        return {"kind": kind,
                "relaxed_at": check_relaxation(traj, float(exp["eps"]))}
    if kind == "front":
        traj = _load_field_trajectory(cfg, run_dir)
        rep = track_front(traj, exp["threshold"])
        return {"kind": kind, "speed": rep.speed,
                "monotonicity_violations": rep.monotonicity_violations}
    if kind == "peaks":
        traj = _load_field_trajectory(cfg, run_dir)
        rep = peak_statistics(traj, _site_value(exp["trigger"]))
        return {"kind": kind,
                "p_violation_fraction": rep.p_violation_fraction,
                "t_violation_fraction": rep.t_violation_fraction}
    if kind == "mass":
        traj = _load_field_trajectory(cfg, run_dir)
        rep = mass_diagnostics(traj)
        return {"kind": kind, "k1": rep.k1, "k2": rep.k2,
                "fitted_rate": rep.fitted_rate,
                "rate_within_bounds": rep.rate_within_bounds}
    raise ConfigError(f"unknown analysis kind {kind!r}")


# ----------------------------------------------------------------------
# command line entry point
# ----------------------------------------------------------------------

def _apply_overrides(data: dict, overrides) -> None:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, _, raw = item.partition("=")
        _set_by_path(data, key, yaml.safe_load(raw))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="riotdyn",
        description="simulate and analyze coupled activity/tension dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a YAML config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--output", type=Path, default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name", choices=sorted(PRESETS))
    p_preset.add_argument("--override", action="append", default=[],
                          metavar="KEY=VALUE")
    p_preset.add_argument("--output", type=Path, default=None)
    p_preset.add_argument("--seed", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="run a config across axis values")
    p_sweep.add_argument("config", type=Path)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--output", type=Path, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)

    p_an = sub.add_parser("analyze", help="recompute an analysis from a run")
    p_an.add_argument("run_dir", type=Path)
    p_an.add_argument("--kind", required=True,
                      choices=("relaxation", "front", "peaks", "mass"))

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            data = yaml.safe_load(args.config.read_text()) or {}
            if args.seed is not None:
                _set_by_path(data, "numerics.seed", args.seed)
            result = run(parse_config(data), args.output)
            print(json.dumps(_json_ready(result.summary), indent=2))
        elif args.command == "preset":
            data: dict = {"preset": args.name}
            _apply_overrides(data, args.override)
            if args.seed is not None:
                _set_by_path(data, "numerics.seed", args.seed)
            result = run(parse_config(data), args.output)
            print(json.dumps(_json_ready(result.summary), indent=2))
        elif args.command == "sweep":
            data = yaml.safe_load(args.config.read_text()) or {}
            if args.seed is not None:
                _set_by_path(data, "numerics.seed", args.seed)
            values = [yaml.safe_load(v) for v in args.values.split(",")]
            sweep(parse_config(data), args.axis, values, args.output)
        else:
            print(json.dumps(_json_ready(analyze(args.run_dir, args.kind)),
                             indent=2))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
