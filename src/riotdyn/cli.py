"""Configuration parsing, named presets, run orchestration, and file output.

Run configurations are YAML documents with nested sections (``model``,
``params``, ``schedule``, ``initial``, ``network``, ``grid``, ``pde``,
``numerics``, ``experiment``, ``output_dir``), described by one table of
typed leaves with their defaults (``CONFIG``).  Parsing checks every value
against it, fills the defaults, rejects unknown keys and runs the model
validators and the rules that tie keys together; the fully resolved
configuration is echoed verbatim into the output directory so a run can
always be reproduced from its artifacts.

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
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .errors import ConfigError, SimulationError
from .model import (DECAY_FORMS, ModelParams, SiteState, check_excitability,
                    required_peak_activity)
from ._core import write_table
from .shocks import (AmplitudeLaw, ExplicitSchedule, PeriodicSchedule,
                     PoissonSchedule, Shock, event_count, realize)
from .single_site import (MIN_FORCING_EVENTS, check_relaxation,
                          classify_forced_regime, hysteresis_sweep,
                          integrate_site, load_trajectory,
                          max_activity_window, save_trajectory)
from .network import (ACTIVATION_FRACTION, classify_spread, delay_experiment,
                      double_threshold_scan, grid_graph, integrate_network,
                      save_network_trajectory)
from .continuum import (CFL_SAFETY, FieldState, NonlocalSpec, PdeParams,
                        SpatialGrid, cfl_time_step, integrate_pde,
                        load_field_trajectory, mass_diagnostics,
                        peak_statistics, save_field_trajectory,
                        steady_states, track_front)

SUMMARY_SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "RIOTDYN_OUTPUT_ROOT"

# ----------------------------------------------------------------------
# the config table: one tree of typed leaves with their defaults
# ----------------------------------------------------------------------

class Leaf(NamedTuple):
    """One config value, its default and its type: ``kind`` "float" (an
    int is stored as a float), "int" (never a bool), "number" (int or float
    as given: node ids, coordinates), "bool", "str", "choice" (one of
    ``options``) or "record" (a mapping checked against the table
    ``options``).  A number lies in [lo, hi], or (lo, hi) when ``open``;
    ``optional`` admits null.  With ``size`` = (lo, hi) the value is a list
    of lo to hi (None: any) items, and ``scalar`` admits one bare item."""

    default: object
    kind: str = "float"
    lo: float | None = None
    hi: float | None = None
    open: bool = False
    options: tuple | dict = ()
    optional: bool = False
    size: tuple | None = None
    scalar: bool = False

    def text(self) -> str:
        """What the leaf accepts, for error messages."""
        what = {"int": "an integer", "bool": "true or false",
                "str": "a string", "record": "a mapping",
                "choice": f"one of {', '.join(self.options)}"}.get(
                    self.kind, "a finite number")
        if self.lo is not None:
            what += f" {'>' if self.open else '>='} {self.lo:g}"
        if self.hi is not None:
            what += f" and {'<' if self.open else '<='} {self.hi:g}"
        if self.size is not None:
            lo, hi = self.size
            count = lo if lo == hi else f"{lo} to {hi}" if hi else f"{lo}+"
            what = (f"{what + ', or ' if self.scalar else ''}a list of "
                    f"{count} items, each {what}")
        return f"null or {what}" if self.optional else what

    def parse(self, value, key: str):
        """The value to store for ``value`` at the dotted ``key``."""
        if value is None and self.optional:
            return None
        if self.size is None or self.scalar and not isinstance(value, list):
            return self._item(value, key)
        if not (isinstance(value, list) and self.size[0] <= len(value)
                <= (self.size[1] or len(value))):
            raise ConfigError(f"{key} must be {self.text()}, got {value!r}")
        return [self._item(v, f"{key}[{i}]") for i, v in enumerate(value)]

    def _item(self, value, key: str):
        kind, lo, hi, closed = self.kind, self.lo, self.hi, not self.open
        if kind == "record":
            return _resolve(self.options, value, key)
        if kind in ("bool", "str", "choice"):
            ok = isinstance(value, bool if kind == "bool" else str) and (
                kind != "choice" or value in self.options)
        else:
            ok = (isinstance(value, int if kind == "int" else (int, float))
                  and not isinstance(value, bool)
                  and abs(value) <= sys.float_info.max
                  and (lo is None or value > lo or closed and value == lo)
                  and (hi is None or value < hi or closed and value == hi))
        if not ok:
            raise ConfigError(f"{key} must be {self.text()}, got {value!r}")
        return float(value) if kind == "float" else value


REQUIRED = object()     # the default of a leaf that must be given


def _choice(*options: str) -> Leaf:
    """A choice whose default is its first option."""
    return Leaf(options[0], "choice", options=options)


_PDE_EXPERIMENTS = ("none", "mass", "steady_states", "front", "peaks")
EXPERIMENTS = {
    "site": ("none", "relaxation", "window", "forced_regime", "hysteresis"),
    "network": ("none", "spread", "double_threshold", "delay"),
    "pde_local": _PDE_EXPERIMENTS, "pde_nonlocal": _PDE_EXPERIMENTS}
# a node id on a network, a coordinate x (or [x, y] in 2-D) on a grid
SITE = Leaf(None, "number", optional=True, size=(1, 2), scalar=True)
FIELD = {"kind": _choice("zero", "uniform", "exp_decay", "block",
                         "excited_block"),
         "value": Leaf(0.0, lo=0.0), "amplitude": Leaf(1.0, lo=0.0),
         "rate": Leaf(1.0, lo=0.0), "fraction": Leaf(0.2),
         "background": Leaf(0.0, lo=0.0)}

CONFIG: dict = {
    "model": _choice(*EXPERIMENTS),
    "preset": Leaf(None, "str", optional=True),
    "output_dir": Leaf("riotdyn-out", "str"),
    # the defaults of ModelParams, which checks the values
    "params": {f.name: _choice(*DECAY_FORMS) if f.name == "decay_form"
               else Leaf(f.default, optional=f.default is None)
               for f in fields(ModelParams)},
    "schedule": {
        "kind": _choice("none", "explicit", "periodic", "poisson"),
        "shocks": Leaf([], "record", size=(0, None), options={
            "time": Leaf(REQUIRED), "amplitude": Leaf(REQUIRED),
            "site": SITE}),
        "amplitude": Leaf(1.0), "period": Leaf(1.0), "rate": Leaf(1.0),
        "amplitude_law": {"kind": _choice("constant", "exponential",
                                          "uniform"),
                          "a": Leaf(1.0), "b": Leaf(0.0)},
        "site": SITE},
    "initial": {"lambda0": Leaf(0.01, lo=0.0), "alpha0": Leaf(0.0, lo=0.0),
                "lambda_field": FIELD, "alpha_field": FIELD},
    "network": {"rows": Leaf(10, "int", lo=1), "cols": Leaf(10, "int", lo=1),
                "social": _choice("copy_of_V", "hub", "two_hubs"),
                "hub": Leaf(55, "int"),
                "hubs": Leaf([22, 77], "int", size=(2, 2))},
    "grid": {"length": Leaf(20.0, size=(1, 2), scalar=True),
             "cells": Leaf(400, "int", size=(1, 2), scalar=True)},
    "pde": {"diffusivity": Leaf(1.0), "deposit": _choice("cell", "gaussian"),
            "deposit_width": Leaf(0.0),
            "nonlocal": {
                "eta_bar": Leaf(0.5),
                "kernel": {"kind": _choice("tophat", "gaussian"),
                           "radius": Leaf(1.0, lo=0.0, open=True),
                           "width": Leaf(1.0, lo=0.0, open=True)},
                "normalize": Leaf(True, "bool"),
                "variant": _choice("averaging", "convolution"),
                "drop_duplicate_decay": Leaf(False, "bool")}},
    "numerics": {"dt": Leaf(1e-3, lo=0.0, open=True),
                 "t_end": Leaf(50.0, lo=0.0, open=True),
                 "output_stride": Leaf(10, "int", lo=1),
                 "seed": Leaf(0, "int", lo=0),
                 "noise": _choice("none", "brownian")},
    "experiment": {
        "kind": _choice(*dict.fromkeys(
            k for kinds in EXPERIMENTS.values() for k in kinds)),
        "eps": Leaf(1e-3), "delta_fraction": Leaf(0.05),
        "seed_node": Leaf(55, "int"),
        "threshold_fraction": Leaf(ACTIVATION_FRACTION, lo=0.0, hi=1.0,
                                   open=True),
        "amplitudes": Leaf([2.0, 6.0, 10.0], lo=0.0, open=True,
                           size=(1, None)),
        "p_node": Leaf(22, "int"), "m_node": Leaf(77, "int"),
        "a1": Leaf(5.0, lo=0.0, open=True), "a2": Leaf(2.0),
        "t2": Leaf(30.0, lo=0.0),
        "trigger": Leaf(0.0, "number", size=(1, 2), scalar=True),
        "threshold": Leaf(None, optional=True),
        "alpha_b_grid": {"start": Leaf(0.1, lo=0.0), "stop": Leaf(1.0),
                         "count": Leaf(10, "int")}},
}


def _resolve(table: dict, data, path: str = "") -> dict:
    """Check ``data`` against ``table``: reject unknown keys, parse every
    given leaf by its type and fill the rest with defaults."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be a mapping, got {data!r}")
    prefix = f"{path}." if path else ""
    for key in data:
        if key not in table:
            raise ConfigError(f"unknown key {prefix + str(key)!r}")
    out = {}
    for key, spec in table.items():
        if isinstance(spec, dict):
            out[key] = _resolve(spec, data.get(key, {}), prefix + key)
        elif key in data:
            out[key] = spec.parse(data[key], prefix + key)
        elif spec.default is REQUIRED:
            raise ConfigError(f"{prefix + key} is required")
        else:   # copied, so that no two configs share a list default
            out[key] = copy.copy(spec.default)
    return out


def _deep_merge(base: dict, override: dict) -> dict:
    """``base`` updated by ``override`` section by section.  The values are
    shared, not copied: ``_resolve`` builds every container anew."""
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
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
        site, law = _site_value(sc["site"]), sc["amplitude_law"]
        if sc["kind"] == "explicit":
            return ExplicitSchedule([
                Shock(s["time"], s["amplitude"], _site_value(s["site"]))
                for s in sc["shocks"]])
        if sc["kind"] == "periodic":
            return PeriodicSchedule(sc["amplitude"], sc["period"], site)
        if sc["kind"] == "poisson":
            return PoissonSchedule(
                sc["rate"], AmplitudeLaw(law["kind"], law["a"], law["b"]),
                site, self.resolved["numerics"]["seed"])
        return None

    def spatial_grid(self) -> SpatialGrid:
        g = self.resolved["grid"]
        return SpatialGrid(*(tuple(v) if isinstance(v, list) else (v,)
                             for v in (g["length"], g["cells"])))

    def pde_params(self) -> PdeParams:
        p = self.resolved["pde"]
        nl = None
        if self.model == "pde_nonlocal":
            spec = p["nonlocal"]
            k = spec["kernel"]
            kernel = (("tophat", k["radius"]) if k["kind"] == "tophat"
                      else ("gaussian", k["width"]))
            nl = NonlocalSpec(spec["eta_bar"], kernel, spec["normalize"],
                              spec["variant"], spec["drop_duplicate_decay"])
        return PdeParams(self.params(), p["diffusivity"], nl, p["deposit"],
                         p["deposit_width"])


def _site_value(raw):
    if isinstance(raw, list):
        return tuple(raw) if len(raw) > 1 else raw[0]
    return raw


def parse_config(source) -> RunConfig:
    """Parse and validate a YAML config (text, mapping, or file content).

    Errors name the dotted key, or for YAML syntax the line number; a
    configuration that parses starts a run that completes or aborts.
    """
    data = _load_yaml(source) if isinstance(source, (str, bytes)) else source
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")
    preset_name = data.get("preset")
    if preset_name is not None:
        if not isinstance(preset_name, str) or preset_name not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset_name!r}; available: "
                f"{', '.join(sorted(PRESETS))}")
        data = _deep_merge(PRESETS[preset_name], data)
    cfg = RunConfig(_resolve(CONFIG, data))
    _validate(cfg)
    return cfg


def _load_yaml(text):
    """A YAML value; a syntax error is a ConfigError with its line number."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ConfigError(f"config parse error: {exc}",
                          None if mark is None else mark.line + 1) from exc


def emit_config(cfg: RunConfig) -> str:
    """Serialize a resolved config; parse(emit(cfg)) reproduces it exactly."""
    return yaml.safe_dump(cfg.resolved, sort_keys=True)


def _validate(cfg: RunConfig) -> None:
    """The rules that tie keys together; CONFIG has checked each leaf."""
    r = cfg.resolved
    model, num, exp = r["model"], r["numerics"], r["experiment"]
    kind, sc = exp["kind"], r["schedule"]
    if kind not in EXPERIMENTS[model]:
        raise ConfigError(f"experiment.kind {kind!r} is not a {model} "
                          f"experiment: use {', '.join(EXPERIMENTS[model])}")
    if num["noise"] == "brownian" and (model != "network"
                                       or kind not in ("none", "spread")):
        raise ConfigError("numerics.noise: brownian needs model network "
                          "with experiment kind none or spread")
    try:
        params, schedule = cfg.params(), cfg.schedule()
        if model.startswith("pde"):
            pp, grid = cfg.pde_params(), cfg.spatial_grid()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    check_excitability(params, warn=True)
    if kind == "forced_regime" and (
            sc["kind"] not in ("periodic", "poisson") or event_count(
                schedule, num["t_end"]) < MIN_FORCING_EVENTS):
        raise ConfigError(f"experiment forced_regime needs a periodic or "
                          f"poisson schedule with at least "
                          f"{MIN_FORCING_EVENTS} events up to numerics.t_end")
    g, amps = exp["alpha_b_grid"], exp["amplitudes"]
    if kind == "hysteresis" and (g["count"] < 2 or not (np.diff(np.linspace(
            g["start"], g["stop"], g["count"])) > 0.0).all()):
        raise ConfigError("experiment.alpha_b_grid needs count >= 2 and "
                          "stop > start")
    if kind == "double_threshold" and any(
            b <= a for a, b in zip(amps, amps[1:])):
        raise ConfigError("experiment.amplitudes must be strictly increasing")
    # where the schedule's shocks land; double_threshold and delay build
    # their own shocks at experiment nodes
    sites = ([] if sc["kind"] == "none" or kind in ("double_threshold",
                                                   "delay") else
             [("schedule.site", sc["site"])] if sc["kind"] != "explicit" else
             [(f"schedule.shocks[{i}].site", s["site"])
              for i, s in enumerate(sc["shocks"])])
    if model == "network":
        _check_nodes(r, sites)
    elif model != "site":
        _check_grid(r, params, pp, grid, sites)


def _check_nodes(r: dict, sites: list) -> None:
    net, exp = r["network"], r["experiment"]
    n = net["rows"] * net["cols"]
    if n < 2:
        raise ConfigError("network needs at least 2 nodes")
    if net["social"] == "two_hubs" and net["hubs"][0] == net["hubs"][1]:
        raise ConfigError("network.hubs: the two hubs must be distinct")
    sites += {"hub": [("network.hub", net["hub"])],
              "two_hubs": [("network.hubs", h) for h in net["hubs"]]
              }.get(net["social"], [])
    sites += [(f"experiment.{k}", exp[k]) for k in {
        "spread": ["seed_node"], "double_threshold": ["seed_node"],
        "delay": ["p_node", "m_node"]}.get(exp["kind"], [])]
    for key, node in sites:
        if not (isinstance(node, int) and 0 <= node < n):
            raise ConfigError(f"{key}: {node!r} is not a node id in [0, {n})")


def _check_grid(r: dict, params: ModelParams, pp: PdeParams,
                grid: SpatialGrid, sites: list) -> None:
    bound = cfl_time_step(grid, pp)
    if r["numerics"]["dt"] > bound * (1.0 + 1e-12):
        raise ConfigError(
            f"numerics.dt={r['numerics']['dt']} violates the explicit "
            f"stability bound {bound:.6g} (= {CFL_SAFETY:g} dx^2 / (2 dim D))")
    kind, init = r["experiment"]["kind"], r["initial"]
    inits = {init["lambda_field"]["kind"], init["alpha_field"]["kind"]}
    if grid.dimension != 1 and (r["model"] == "pde_nonlocal" or kind ==
                                "front" or inits - {"zero", "uniform"}):
        raise ConfigError("pde_nonlocal, experiment front and initial fields "
                          "other than zero and uniform need a 1-D grid")
    if ((kind == "steady_states" or "excited_block" in inits)
            and params.theta <= params.eta):
        raise ConfigError("steady states need params.theta > params.eta")
    if kind == "peaks":
        sites.append(("experiment.trigger", r["experiment"]["trigger"]))
    for key, site in sites:
        if (len(site) if isinstance(site, list) else 0 if site is None
                else 1) != grid.dimension:
            raise ConfigError(f"{key} must be a coordinate on the "
                              f"{grid.dimension}-D grid, got {site!r}")


# ----------------------------------------------------------------------
# presets: each scenario's defining constants plus documented defaults
# for everything else (initial conditions, dt, grids, horizons)
# ----------------------------------------------------------------------

def _site_preset(params: dict, shocks, alpha0: float, t_end: float) -> dict:
    return {"model": "site", "params": params,
            "schedule": {"kind": "explicit", "shocks": [
                {"time": t, "amplitude": a, "site": None} for t, a in shocks]},
            "initial": {"lambda0": 0.1, "alpha0": alpha0},
            "numerics": {"t_end": t_end}, "experiment": {"kind": "relaxation"}}


# the two continuum families: eta above h(0), where tension does not
# dissipate, and a bistable/monostable pair that differs only in a
_IGNITION = {
    "model": "pde_local",
    "params": {"z0": 10.0, "omega": 0.2, "theta": 0.05, "p": 0.7,
               "beta": 1.0, "a": 100.0, "eta": 0.198},
    "grid": {"length": 20.0, "cells": 400}, "pde": {"diffusivity": 0.1},
    "initial": {"alpha_field": {"kind": "zero"}},
    "numerics": {"dt": 5e-3, "output_stride": 100},
}
_INVASION = {
    "model": "pde_local",
    "params": {"z0": 10.0, "omega": 0.2, "theta": 0.05, "p": 0.5,
               "beta": 3.0, "eta": 0.01, "alpha_b": 2.0},
    "grid": {"length": 80.0, "cells": 400}, "pde": {"diffusivity": 1.0},
    "numerics": {"dt": 5e-3, "output_stride": 400},
}

PRESETS: dict[str, dict] = {
    # single burst with a long plateau near the peak and slow monotone decay
    "fig-slow": _site_preset(
        {"z0": 10.0, "omega": 0.2, "theta": 0.1, "p": 1.0, "beta": 10.0,
         "a": 6.0}, [(0.0, 5.0)], 2.0, 160.0),
    # same family with a shallow transition slope
    "fig-fast": _site_preset(
        {"z0": 10.0, "omega": 0.2, "theta": 0.1, "p": 1.0, "beta": 1.0,
         "a": 6.0}, [(0.0, 6.0)], 1.0, 300.0),
    # first event sub-threshold, second event at t=12 ignites the burst
    "fig-delay": _site_preset(
        {"z0": 10.0, "omega": 0.3, "theta": 0.3, "p": 1.0, "beta": 100.0,
         "a": 6.0}, [(0.0, 5.0), (12.0, 8.0)], 0.0, 80.0),
    # second, smaller event reignites the decaying burst
    "fig-double": _site_preset(
        {"z0": 10.0, "omega": 0.3, "theta": 0.4, "p": 1.0, "beta": 1.0,
         "a": 6.0}, [(0.0, 6.0), (24.0, 3.0)], 1.0, 120.0),
    # moderate single shock on the phase-plane workhorse set
    "fig-nullcline": _site_preset(
        {"z0": 2.0, "omega": 0.4, "theta": 0.7, "p": 0.7, "beta": 3.0,
         "a": 1.0}, [(0.0, 4.0)], 0.0, 80.0),
    # periodic forcing at high frequency: sustained activity
    "fig-periodic": {
        "model": "site",
        "params": {"z0": 2.0, "omega": 0.4, "theta": 0.7, "p": 0.7,
                   "beta": 3.0, "a": 1.0},
        "schedule": {"kind": "periodic", "amplitude": 2.0, "period": 2.0},
        "numerics": {"t_end": 500.0},
        "experiment": {"kind": "forced_regime", "delta_fraction": 0.2},
    },
    # hub social graph, one triggering event, amplitude scan (the constants
    # of acceptance criterion 7)
    "net-double-threshold": {
        "model": "network",
        "params": {"z0": 10.0, "omega": 0.2, "theta": 0.3, "p": 0.7,
                   "beta": 1.0, "a": 5.1, "eta": 0.2, "eta_alpha": 0.13},
        "network": {"social": "hub", "hub": 55},
        "numerics": {"t_end": 50.0, "output_stride": 50},
        "experiment": {"kind": "double_threshold", "seed_node": 55,
                       "amplitudes": [2.0, 6.0, 10.0]},
    },
    # two influential centers; a weak second event reignites activity
    "net-delay": {
        "model": "network",
        "params": {"z0": 2.0, "omega": 0.4, "theta": 0.12, "p": 0.7,
                   "beta": 3.0, "a": 1.0, "eta": 0.02, "lambda_b": 0.001},
        "network": {"social": "two_hubs", "hubs": [22, 77]},
        "numerics": {"t_end": 70.0, "output_stride": 50},
        "experiment": {"kind": "delay", "p_node": 22, "m_node": 77,
                       "a1": 5.0, "a2": 2.0, "t2": 30.0},
    },
    # ignition wave from a strong localized event on an exponential profile
    "pde-wavefront": _deep_merge(_IGNITION, {
        "schedule": {"kind": "explicit",
                     "shocks": [{"time": 0.0, "amplitude": 50.0,
                                 "site": 0.0}]},
        "initial": {"lambda_field": {"kind": "exp_decay", "amplitude": 1.0,
                                     "rate": 10.0}},
        "numerics": {"t_end": 30.0},
        "experiment": {"kind": "front"}}),
    # uniform activity, strong event in the middle: spreading bump
    "pde-bump": _deep_merge(_IGNITION, {
        "schedule": {"kind": "explicit",
                     "shocks": [{"time": 0.0, "amplitude": 100.0,
                                 "site": 5.0}]},
        "initial": {"lambda_field": {"kind": "uniform", "value": 2.0}},
        "numerics": {"t_end": 10.0},
        "experiment": {"kind": "peaks", "trigger": 5.0}}),
    # bistable regime: an excited block invades the rest at a unique speed
    "pde-bistable": _deep_merge(_INVASION, {
        "params": {"a": 5.0},
        "initial": {"lambda_field": {"kind": "excited_block",
                                     "fraction": 0.2, "background": 1e-4},
                    "alpha_field": {"kind": "excited_block",
                                    "fraction": 0.2}},
        "numerics": {"t_end": 60.0},
        "experiment": {"kind": "front"}}),
    # the same family at low critical tension: the rest state is unstable
    "pde-monostable": _deep_merge(_INVASION, {
        "params": {"a": 1.0},
        "numerics": {"t_end": 10.0},
        "experiment": {"kind": "steady_states"}}),
}


# ----------------------------------------------------------------------
# run execution
# ----------------------------------------------------------------------

def _build_field(spec: dict, grid: SpatialGrid, pp: PdeParams,
                 which: str) -> np.ndarray:
    kind = spec["kind"]
    if kind == "zero":
        return np.zeros(grid.shape)
    if kind == "uniform":
        return np.full(grid.shape, spec["value"])
    x = grid.centers()
    if kind == "exp_decay":
        return spec["amplitude"] * np.exp(-spec["rate"] * x)
    cut = spec["fraction"] * grid.lengths[0]
    if kind == "block":
        return np.where(x < cut, spec["value"], spec["background"])
    rep = steady_states(pp.model)               # excited_block
    alpha2, lam2 = rep.states[-1]
    alpha1 = rep.states[0][0]
    if which == "lam":
        return np.where(x < cut, lam2, spec["background"])
    return np.where(x < cut, alpha2, alpha1)


def _json_ready(value):
    if isinstance(value, (np.generic, np.ndarray)):
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


# ----------------------------------------------------------------------
# analyses of a recorded trajectory, shared by run and analyze: each takes
# the experiment section and gives the summary fields of its kind and the
# table that a run writes, as (file name, header, formats, columns,
# description) for write_table, or None
# ----------------------------------------------------------------------

def _relaxation(exp: dict, traj):
    return {"relaxed_at": check_relaxation(traj, exp["eps"])}, None


def _window(exp: dict, traj):
    window = max_activity_window(
        traj, exp["delta_fraction"] * required_peak_activity(traj.params))
    return {"window": window, "window_length":
            0.0 if window is None else window[1] - window[0]}, None


def _spread(exp: dict, traj):
    rep = classify_spread(traj, traj.graph, exp["seed_node"],
                          exp["threshold_fraction"])
    return (dict(regime=rep.regime, n_activated=rep.n_activated,
                 jump_nodes=list(rep.jump_nodes),
                 order_violations=rep.order_violations),
            ("activation.txt", ("node", "activation_time", "distance"),
             ("%d", "%.17g", "%.17g"),
             (np.arange(traj.graph.n), rep.activation, rep.distances),
             "first-passage activation times and hop distances"))


def _mass(exp: dict, traj):
    rep = mass_diagnostics(traj)
    return (dict(k1=rep.k1, k2=rep.k2, fitted_rate=rep.fitted_rate,
                 rate_within_bounds=rep.rate_within_bounds,
                 hypothesis_ok=rep.hypothesis_ok),
            ("mass.txt", ("t", "lambda_mass", "alpha_mass", "lower_envelope",
                          "upper_envelope"), ("%.17g",) * 5,
             (rep.times, rep.lam_mass, rep.alpha_mass, rep.lower_envelope,
              rep.upper_envelope),
             "L1 norms and the exponential envelope of tension mass"))


def _front(exp: dict, traj):
    rep = track_front(traj, exp["threshold"])
    found = np.isfinite(rep.positions)
    return (dict(speed=rep.speed, threshold=rep.threshold,
                 fit_window=rep.fit_window,
                 monotonicity_violations=rep.monotonicity_violations),
            ("front.txt", ("t", "front_position"), ("%.17g", "%.17g"),
             (rep.times[found], rep.positions[found]),
             "front position over time"))


def _peaks(exp: dict, traj):
    rep = peak_statistics(traj, _site_value(exp["trigger"]))
    return (dict(p_violation_fraction=rep.p_violation_fraction,
                 t_violation_fraction=rep.t_violation_fraction),
            ("peaks.txt", ("distance", "peak_value", "peak_time"),
             ("%.17g",) * 3, (rep.distances, rep.peak_values, rep.peak_times),
             "per-cell peak activity and peak time by distance"))


ANALYSES = {"relaxation": _relaxation, "window": _window, "spread": _spread,
            "mass": _mass, "front": _front, "peaks": _peaks}
# the kinds that `riotdyn analyze` offers, one per stored site or field run
ANALYZE_KINDS = ("relaxation", "front", "peaks", "mass")


def _analysed(cfg: RunConfig, traj, out: Path, summary: dict) -> dict:
    """``summary`` updated by the configured analysis of ``traj``, if any,
    whose table is written into ``out``."""
    exp = cfg.resolved["experiment"]
    if exp["kind"] in ANALYSES:
        values, table = ANALYSES[exp["kind"]](exp, traj)
        if table is not None:
            write_table(out / table[0], *table[1:])
        summary.update(values)
    return summary


def _run_site(cfg: RunConfig, out: Path) -> dict:
    r, params = cfg.resolved, cfg.params()
    num, exp = r["numerics"], r["experiment"]
    init = SiteState(r["initial"]["lambda0"], r["initial"]["alpha0"])
    if exp["kind"] == "hysteresis":
        g = exp["alpha_b_grid"]
        res = hysteresis_sweep(params, np.linspace(g["start"], g["stop"],
                                                   g["count"]))
        write_table(out / "hysteresis.txt", ("alpha_b", "n_fixed_points"),
                    ("%.17g", "%d"), (res.grid, res.counts),
                    "fixed-point count along the base-tension sweep")
        return dict(fold=res.fold, alpha_b1=res.alpha_b1,
                    alpha_b2=res.alpha_b2, message=res.message)
    if exp["kind"] == "forced_regime":
        return asdict(classify_forced_regime(
            params, cfg.schedule(), num["t_end"],
            exp["delta_fraction"] * required_peak_activity(params),
            initial=init, dt=num["dt"], record_stride=num["output_stride"]))

    traj = integrate_site(params, cfg.schedule(), init, num["t_end"],
                          dt=num["dt"], record_stride=num["output_stride"])
    save_trajectory(traj, out / "trajectory.txt")
    return _analysed(cfg, traj, out, {
        "max_activity": float(traj.lam.max()),
        "final_state": [float(traj.lam[-1]), float(traj.alpha[-1])]})


def _run_network(cfg: RunConfig, out: Path) -> dict:
    r, params = cfg.resolved, cfg.params()
    num, exp, net = r["numerics"], r["experiment"], r["network"]
    social = {"hub": ("hub", net["hub"]),
              "two_hubs": ("two_hubs", *net["hubs"])}.get(net["social"],
                                                         net["social"])
    graph = grid_graph(net["rows"], net["cols"], social)
    init = (r["initial"]["lambda0"], r["initial"]["alpha0"])
    if exp["kind"] == "double_threshold":
        scan = double_threshold_scan(
            graph, params, exp["amplitudes"], exp["seed_node"], init,
            num["t_end"], num["dt"], exp["threshold_fraction"],
            record_stride=num["output_stride"])
        write_table(out / "threshold_scan.txt", ("amplitude", "regime"),
                    ("%.17g", "%s"), (scan.amplitudes, scan.regimes),
                    "spread classification per shock amplitude")
        # not asdict: summary.json keeps its key order, regimes first
        return dict(regimes=list(scan.regimes),
                    amplitudes=list(scan.amplitudes),
                    spread_bracket=scan.spread_bracket,
                    nonlocal_bracket=scan.nonlocal_bracket,
                    monotonic=scan.monotonic, flags=list(scan.flags))
    if exp["kind"] == "delay":
        return asdict(delay_experiment(
            graph, params, exp["a1"], exp["p_node"], exp["a2"],
            exp["m_node"], exp["t2"], init, num["t_end"], num["dt"],
            exp["threshold_fraction"], record_stride=num["output_stride"]))

    traj = integrate_network(graph, params, cfg.schedule(), init,
                             num["t_end"], dt=num["dt"], noise=num["noise"],
                             noise_seed=num["seed"],
                             record_stride=num["output_stride"])
    save_network_trajectory(traj, out / "network.txt")
    return _analysed(cfg, traj, out, {"max_activity": float(traj.lam.max())})


def _run_pde(cfg: RunConfig, out: Path) -> dict:
    r, pp, grid = cfg.resolved, cfg.pde_params(), cfg.spatial_grid()
    num, exp = r["numerics"], r["experiment"]
    if exp["kind"] == "steady_states":
        rep = steady_states(pp.model)
        return dict(classification=rep.classification,
                    states=[list(s) for s in rep.states],
                    instability_lhs=rep.instability_lhs,
                    instability_rhs=rep.instability_rhs)

    init = FieldState(
        _build_field(r["initial"]["lambda_field"], grid, pp, "lam"),
        _build_field(r["initial"]["alpha_field"], grid, pp, "alpha"))
    traj = integrate_pde(pp, grid, cfg.schedule(), init, num["t_end"],
                         dt=num["dt"], record_stride=num["output_stride"])
    save_field_trajectory(traj, out / "fields.txt")
    return _analysed(cfg, traj, out, {"max_activity": float(traj.lam.max())})


def run(cfg: RunConfig, output_dir=None) -> RunResult:
    """Execute a configuration and write all artifacts.

    Writes the resolved config, trajectory/diagnostic files with schema
    sidecars, and ``summary.json``.  A SimulationError (a blow-up, or
    parameters with no excited state) is recorded in ``abort.json`` and
    re-raised.
    """
    out = Path(output_dir) if output_dir is not None else _default_out(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.yaml").write_text(emit_config(cfg))
    started = time.perf_counter()
    summary = {"schema_version": SUMMARY_SCHEMA_VERSION, "model": cfg.model,
               "experiment": cfg.resolved["experiment"]["kind"],
               "status": "ok"}
    aborted = None
    try:
        summary.update({"site": _run_site, "network": _run_network}.get(
            cfg.model, _run_pde)(cfg, out))
    except SimulationError as exc:
        aborted = exc
        (out / "abort.json").write_text(json.dumps(
            {"status": "aborted", "reason": str(exc), "time": exc.time},
            indent=2) + "\n")
        summary.update(status="aborted", abort_time=exc.time)
    summary["wall_time_s"] = time.perf_counter() - started
    (out / "summary.json").write_text(
        json.dumps(_json_ready(summary), indent=2) + "\n")
    if aborted is not None:
        raise aborted
    return RunResult(summary, out)


def _default_out(cfg: RunConfig) -> Path:
    base = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    return base / cfg.resolved["output_dir"]


def _set_by_path(data: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    for key in keys[:-1]:
        data = data.setdefault(key, {}) if isinstance(data, dict) else None
    if not isinstance(data, dict):
        raise ConfigError(f"cannot set {dotted}: not inside a mapping")
    data[keys[-1]] = value


def sweep(cfg: RunConfig, axis: str, values, output_dir=None) -> list[dict]:
    """Run one independent job per axis value and write a combined table.

    Rows keep the input value ordering; a run that raises SimulationError
    or ConfigError marks its row failed, and the remaining runs complete.
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
            row.update(run(parse_config(data), out / f"{i:03d}").summary)
        except (SimulationError, ConfigError) as exc:
            row["status"] = "failed"
            row["error"] = str(exc)
        summaries.append(row)

    # lists and the error message (it has spaces) stay in sweep.json
    keys = list(dict.fromkeys(["value", "status"] + [
        key for row in summaries for key, val in row.items()
        if key not in ("axis", "schema_version", "wall_time_s", "error")
        and not isinstance(val, (list, tuple, dict))]))
    # columns mix types from row to row, so cells are formatted one by one;
    # a missing value is written as nan so that every row has every column
    cells = [["nan" if row.get(k) is None else
              "%.17g" % row[k] if isinstance(row[k], float) else str(row[k])
              for row in summaries] for k in keys]
    write_table(out / "sweep.txt", keys, ("%s",) * len(keys), cells,
                f"summaries per {axis} value, input order")
    (out / "sweep.json").write_text(
        json.dumps(_json_ready(summaries), indent=2) + "\n")
    return summaries


# ----------------------------------------------------------------------
# analyze: re-run analyses on stored artifacts
# ----------------------------------------------------------------------

def analyze(run_dir, kind: str) -> dict:
    """Redo the analysis of experiment ``kind`` on a run directory's stored
    trajectory; returns the summary fields a run of that kind reports.

    The stored configuration, with ``experiment.kind`` set to ``kind``,
    must parse, so a kind that the run's model cannot do is a ConfigError;
    so is a directory without the configuration or the trajectory.
    """
    run_dir = Path(run_dir)
    if kind not in ANALYZE_KINDS:
        raise ConfigError(f"unknown analysis kind {kind!r}")
    stored = run_dir / "resolved_config.yaml"
    if not stored.exists():
        raise ConfigError(f"no resolved_config.yaml in {run_dir}")
    data = _load_yaml(stored.read_text())
    _set_by_path(data, "experiment.kind", kind)
    cfg = parse_config(data)
    path = run_dir / ("trajectory.txt" if cfg.model == "site"
                      else "fields.txt")
    if not path.exists():
        raise ConfigError(f"no {path.name} in {run_dir}")
    if cfg.model == "site":
        traj = load_trajectory(path, cfg.params())
    else:
        traj = load_field_trajectory(
            path, cfg.spatial_grid(), cfg.pde_params(),
            realize(cfg.schedule(), cfg.resolved["numerics"]["t_end"]))
    values, _ = ANALYSES[kind](cfg.resolved["experiment"], traj)
    return {"kind": kind, **values}


# ----------------------------------------------------------------------
# command line entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="riotdyn",
        description="simulate and analyze coupled activity/tension dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a YAML config")
    p_run.add_argument("config", type=Path)
    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name", choices=sorted(PRESETS))
    p_preset.add_argument("--override", action="append", default=[],
                          metavar="KEY=VALUE")
    p_sweep = sub.add_parser("sweep", help="run a config across axis values")
    p_sweep.add_argument("config", type=Path)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    for p in (p_run, p_preset, p_sweep):
        p.add_argument("--output", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)

    p_an = sub.add_parser("analyze", help="recompute an analysis from a run")
    p_an.add_argument("run_dir", type=Path)
    p_an.add_argument("--kind", required=True,
                      choices=ANALYZE_KINDS)

    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            print(json.dumps(_json_ready(analyze(args.run_dir, args.kind)),
                             indent=2))
            return 0
        if args.command == "preset":
            data: dict = {"preset": args.name}
            for item in args.override:
                key, eq, raw = item.partition("=")
                if not eq:
                    raise ConfigError(f"override {item!r} must look like "
                                      "key=value")
                _set_by_path(data, key, _load_yaml(raw))
        else:
            try:
                data = _load_yaml(args.config.read_text()) or {}
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read {args.config}: "
                                  f"{getattr(exc, 'strerror', exc)}")
        if args.seed is not None:
            _set_by_path(data, "numerics.seed", args.seed)
        if args.command == "sweep":
            values = [_load_yaml(v) for v in args.values.split(",")]
            sweep(parse_config(data), args.axis, values, args.output)
        else:
            result = run(parse_config(data), args.output)
            print(json.dumps(_json_ready(result.summary), indent=2))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
