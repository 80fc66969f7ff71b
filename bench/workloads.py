"""The four benchmark workloads: their inputs, the steps they take, and the
checks their outputs must pass.

A workload is a list of operations.  An operation is one configuration run
through ``riotdyn.cli.run`` (config parse happens in set-up), followed by the
checks in ``checks.py`` on what it wrote.  Inputs depend only on the
workload's name, the seed and the small flag.  The small flag is for the
benchmark's own tests: it shortens the network workloads and leaves the site
and continuum ones as they are.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# the constants of acceptance criterion 7 and the net-double-threshold preset
NET_PARAMS = {"z0": 10.0, "omega": 0.2, "theta": 0.3, "p": 0.7, "beta": 1.0,
              "a": 5.1, "eta": 0.2, "eta_alpha": 0.13}
# net-scan horizon: the labels and jump counts of the 50-unit preset hold at 20
SCAN_T_END = 20.0
SITE_PRESETS = ("fig-slow", "fig-fast", "fig-delay", "fig-double",
                "fig-nullcline", "fig-periodic")


@dataclass(frozen=True)
class Operation:
    """One run: a config for ``cli.parse_config`` and the checks on its output.

    ``known_fault`` names a check that fails on every run because of a fault
    in the program, recorded in CHANGES.md; when it is the only failing check
    the operation counts as failed rather than as a wrong result.
    """

    name: str
    config: dict
    checks: tuple[Callable, ...]
    known_fault: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    operations: tuple[Operation, ...]


def site_presets(seed: int, small: bool) -> Workload:
    relax = (checks.activity_ceiling, checks.tension_closed_form,
             checks.relaxes)
    behaviour = {"fig-delay": relax + (checks.ignites_after(12.0),),
                 "fig-periodic": (checks.activity_ceiling, checks.sustained)}
    ops = [Operation(name, {"preset": name}, behaviour.get(name, relax))
           for name in SITE_PRESETS]
    # acceptance criterion 6, sharp transition: the fold exists
    ops.append(Operation("hysteresis", {
        "model": "site", "params": {"beta": 6.0, "lambda_b": 0.05},
        "experiment": {"kind": "hysteresis",
                       "alpha_b_grid": {"start": 0.1, "stop": 1.0,
                                        "count": 10}}},
        (checks.hysteresis_fixed_points,)))
    # the only seeded input: shock times and amplitudes of a Poisson train
    ops.append(Operation("poisson", {
        "model": "site",
        "schedule": {"kind": "poisson", "rate": 0.8,
                     "amplitude_law": {"kind": "exponential", "a": 2.0}},
        "initial": {"lambda0": 0.01, "alpha0": 0.0},
        "numerics": {"t_end": 200.0, "output_stride": 10, "seed": seed},
        "experiment": {"kind": "none"}},
        (checks.activity_ceiling, checks.tension_closed_form)))
    return Workload("site-presets", tuple(ops))


def pde_presets(seed: int, small: bool) -> Workload:
    base = (checks.fields_nonnegative, checks.activity_cap)
    ops = [
        Operation("pde-wavefront", {"preset": "pde-wavefront"},
                  base + (checks.tension_mass_at_start,)),
        Operation("pde-bump", {"preset": "pde-bump"},
                  base + (checks.tension_mass_at_start, checks.peak_order,
                          checks.reported_peak_order),
                  known_fault="reported_peak_order"),
        Operation("pde-bistable", {"preset": "pde-bistable"},
                  base + (checks.front_speed,)),
        Operation("pde-monostable", {"preset": "pde-monostable"},
                  (checks.steady_state_residuals,)),
    ]
    # 401 cells on [0, 20]: the centre cell is centred on x = 10, so the
    # deposit and the field stay mirror-symmetric; the kernel radius is not a
    # whole number of cells, so no pair of cells sits on the tophat's edge
    amplitude = 30.0 + 20.0 * float(np.random.default_rng(seed).random())
    ops.append(Operation("pde-nonlocal", {
        "model": "pde_nonlocal",
        "params": {"z0": 10.0, "omega": 0.2, "theta": 0.3, "p": 0.7,
                   "beta": 1.0, "a": 5.0, "eta": 0.05},
        "grid": {"length": 20.0, "cells": 401},
        "pde": {"diffusivity": 0.1,
                "nonlocal": {"eta_bar": 0.2,
                             "kernel": {"kind": "tophat", "radius": 1.0},
                             "variant": "averaging"}},
        "schedule": {"kind": "explicit",
                     "shocks": [{"time": 0.0, "amplitude": amplitude,
                                 "site": 10.0}]},
        "initial": {"lambda_field": {"kind": "uniform", "value": 0.01}},
        "numerics": {"dt": 4e-3, "t_end": 10.0, "output_stride": 100},
        "experiment": {"kind": "none"}},
        base + (checks.tension_mass_at_start, checks.mirror_symmetric)))
    return Workload("pde-presets", tuple(ops))


def net_scan(seed: int, small: bool) -> Workload:
    numerics = {"t_end": SCAN_T_END, "seed": seed}
    if small:
        # same sample interval (0.05); the labels and brackets are unchanged
        numerics.update(dt=5e-3, output_stride=10)
    op = Operation("net-double-threshold",
                   {"preset": "net-double-threshold", "numerics": numerics},
                   (checks.scan_regimes,))
    return Workload("net-scan", (op,))


def net_single(seed: int, small: bool) -> Workload:
    side, t_end = (10, 5.0) if small else (30, 25.0)
    hub = (side // 2) * side + side // 2          # on the diagonal
    amplitude = 6.0 + 4.0 * float(np.random.default_rng(seed).random())
    op = Operation("spread", {
        "model": "network", "params": NET_PARAMS,
        "network": {"rows": side, "cols": side, "social": "hub", "hub": hub},
        "schedule": {"kind": "explicit",
                     "shocks": [{"time": 0.0, "amplitude": amplitude,
                                 "site": hub}]},
        "initial": {"lambda0": 0.01, "alpha0": 0.0},
        "numerics": {"t_end": t_end, "dt": 0.01, "output_stride": 50},
        "experiment": {"kind": "spread", "seed_node": hub}},
        (checks.network_nonnegative, checks.hub_tension_at_start,
         checks.transpose_symmetric, checks.network_row_count))
    return Workload("net-single", (op,))


WORKLOADS: dict[str, Callable[[int, bool], Workload]] = {
    "site-presets": site_presets,
    "pde-presets": pde_presets,
    "net-scan": net_scan,
    "net-single": net_single,
}


def build(name: str, seed: int, small: bool = False) -> Workload:
    return WORKLOADS[name](seed, small)


# ----------------------------------------------------------------------
# work counted from inputs and outputs, never from inside the program
# ----------------------------------------------------------------------

def fixed_steps(t_end: float, dt: float, stops=()) -> int:
    """Steps of a fixed-step integrator that stops exactly at each time in
    ``stops``: every interval between stops takes ceil(span / dt) steps, the
    last of them partial."""
    bounds = sorted({float(t) for t in stops if 0.0 < t < t_end}) + [t_end]
    n, t0 = 0, 0.0
    for b in bounds:
        n += max(1, int(math.ceil((b - t0) / dt - 1e-9)))
        t0 = b
    return n


def scan_integrations(summary: dict) -> int:
    """Integrations a double-threshold scan ran: one per grid amplitude plus
    one per bisection, read off each bracket's width."""
    grid = [float(a) for a in summary["amplitudes"]]
    runs = len(grid)
    for bracket in (summary["spread_bracket"], summary["nonlocal_bracket"]):
        if bracket is None:
            continue
        lo, hi = float(bracket[0]), float(bracket[1])
        gap = min(b - a for a, b in zip(grid, grid[1:]) if a <= lo and hi <= b)
        runs += round(math.log2(gap / (hi - lo)))
    return runs


def count_steps(resolved: dict, summary: dict, out_dir) -> int:
    """Integrator steps one operation took.  One step advances one
    integration's whole state; B integrations count B times."""
    num = resolved["numerics"]
    t_end, dt = float(num["t_end"]), float(num["dt"])
    kind = resolved["experiment"]["kind"]
    if kind in ("hysteresis", "steady_states"):
        return 0
    if kind == "double_threshold":
        return scan_integrations(summary) * fixed_steps(t_end, dt)
    sched = resolved["schedule"]
    if sched["kind"] == "periodic":
        period = float(sched["period"])
        stops = [k * period for k in range(1, int(t_end / period) + 1)]
    elif sched["kind"] == "explicit":
        stops = [float(s["time"]) for s in sched["shocks"]]
    elif sched["kind"] == "poisson":
        # seeded shock times, read from the shock flags of the trajectory
        data = checks.load_table(out_dir / "trajectory.txt")
        stops = data[data[:, 3] > 0.5, 0]
    else:
        stops = []
    return fixed_steps(t_end, dt, stops)


DATA_FILES = {"site": "trajectory.txt", "network": "network.txt",
              "pde_local": "fields.txt", "pde_nonlocal": "fields.txt"}


def saved_rows(model: str, out_dir) -> int:
    """Data rows the trajectory writer produced (the header not counted)."""
    path = out_dir / DATA_FILES[model]
    if not path.exists():
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1
