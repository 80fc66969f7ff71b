"""Spans around the calls into each riotdyn layer, and the per-layer metrics
built from them.

The spans are recorded from the benchmark's side: each traced public
function is replaced, in every riotdyn module that holds it, by a wrapper
that times the call and notes the span that was open when it started.  The
program itself is not changed.  Functions called once per RK stage (the
right-hand sides and the Laplacian) are not wrapped, because a wrapper there
would cost as much as the call; they are timed separately, by calling them on
a state taken from the run.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# layer -> public functions whose calls are recorded as spans
TRACED = {
    "cli": ("run",),
    "model": ("fixed_points", "peak_activity"),
    "shocks": ("realize",),
    "single_site": ("integrate_site", "check_relaxation",
                    "max_activity_window", "classify_forced_regime",
                    "hysteresis_sweep", "save_trajectory"),
    "network": ("grid_graph", "integrate_network", "activation_times",
                "classify_spread", "double_threshold_scan",
                "delay_experiment", "save_network_trajectory"),
    "continuum": ("integrate_pde", "kernel_matrix", "mass_diagnostics",
                  "steady_states", "track_front", "peak_statistics",
                  "save_field_trajectory"),
}
# integrators whose returned trajectories supply states for the RHS timings
KEEP_RESULTS = ("network.integrate_network", "continuum.integrate_pde")

SITE_ANALYSES = ("check_relaxation", "max_activity_window",
                 "classify_forced_regime", "hysteresis_sweep")
PDE_ANALYSES = ("mass_diagnostics", "steady_states", "track_front",
                "peak_statistics")


class Tracer:
    """Records [name, start, end, parent index, round] spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.round = 0
        self.active = True
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "riotdyn" or name.startswith("riotdyn.")]
        for layer, names in TRACED.items():
            source = sys.modules[f"riotdyn.{layer}"]
            for fname in names:
                original = getattr(source, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapped)
                        self._restore.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._restore):
            setattr(mod, fname, original)
        self._restore.clear()

    def start_round(self, index: int) -> None:
        self.round = index
        self.results.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, parent, tracer.round]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if keep:
                tracer.results[name].append(result)
            return result
        return traced

    def round_totals(self, index: int) -> dict[str, dict[str, float]]:
        """Per span name: summed duration, summed self time and call count
        in one round.  Self time is a span's duration minus that of its
        direct children."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, rnd in self.spans:
            if rnd == index and parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "count": 0})
        for i, (name, start, end, parent, rnd) in enumerate(self.spans):
            if rnd != index:
                continue
            t = totals[name]
            t["total"] += end - start
            t["self"] += end - start - child_time[i]
            t["count"] += 1
        return totals


def per_call_us(fn, *args, batch_s: float = 0.02, batches: int = 7) -> float:
    """Median time of one call, in microseconds, over batches of calls that
    each last at least ``batch_s``."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn(*args)
        if time.perf_counter() - start >= batch_s:
            break
        n *= 2
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(n):
            fn(*args)
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples) * 1e6


def rhs_timings(tracer: Tracer) -> dict[str, float]:
    """Per-call times of the RHS and Laplacian on states the run produced,
    and the bytes one RHS call must move (operands read, derivatives
    written; computed from array sizes, not measured)."""
    out: dict[str, float] = {}
    network = sys.modules["riotdyn.network"]
    continuum = sys.modules["riotdyn.continuum"]
    nets = tracer.results.get("network.integrate_network")
    if nets:
        traj = nets[-1]
        state = network.NetworkState(traj.lam[-1].copy(),
                                     traj.alpha[-1].copy())
        out["network.rhs_us"] = per_call_us(network.network_rhs, state,
                                            traj.graph, traj.params)
        n = traj.graph.n
        # float copies of V and C, two state vectors in, two derivatives out
        out["network.rhs_bytes"] = 8.0 * (2 * n * n + 4 * n)
    local = nonlocal_ = None
    for traj in tracer.results.get("continuum.integrate_pde", ()):
        if traj.pde_params.nonlocal_spec is None:
            local = traj
        else:
            nonlocal_ = traj
    if local is not None:
        state = continuum.FieldState(local.lam[-1].copy(),
                                     local.alpha[-1].copy())
        out["continuum.laplacian_us"] = per_call_us(
            continuum.laplacian, state.lam, local.grid.dx)
        out["continuum.rhs_local_us"] = per_call_us(
            continuum.pde_rhs_local, state, local.grid, local.pde_params)
    if nonlocal_ is not None:
        state = continuum.FieldState(nonlocal_.lam[-1].copy(),
                                     nonlocal_.alpha[-1].copy())
        kernel = continuum.kernel_matrix(nonlocal_.grid,
                                         nonlocal_.pde_params.nonlocal_spec)
        out["continuum.rhs_nonlocal_us"] = per_call_us(
            continuum.pde_rhs_nonlocal, state, nonlocal_.grid,
            nonlocal_.pde_params, kernel)
        n = kernel.shape[0]
        # the kernel matrix, two fields in, two derivatives out
        out["continuum.rhs_nonlocal_bytes"] = 8.0 * (n * n + 4 * n)
    return out


def round_metrics(totals: dict, work: dict, rhs: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``work`` holds what the benchmark counted from inputs and outputs:
    steps per model family and rows written per writer.  ``rhs`` holds
    the per-call RHS timings.  A layer the workload does not call reads 0.
    """
    def total(name):
        return totals[name]["total"] if name in totals else 0.0

    def self_time(name):
        return totals[name]["self"] if name in totals else 0.0

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m: dict[str, float] = {
        "cli.run_self_s": self_time("cli.run"),
        "model.fixed_points_s": total("model.fixed_points"),
        "model.peak_activity_s": total("model.peak_activity"),
        "shocks.realize_s": total("shocks.realize"),
    }

    site_s = total("single_site.integrate_site")
    site_steps = work["steps"]["site"]
    site_save = total("single_site.save_trajectory")
    m.update({
        "single_site.integrate_s": site_s,
        "single_site.steps": float(site_steps),
        "single_site.step_us": ratio(site_s, site_steps, 1e6),
        "single_site.analysis_s": sum(self_time(f"single_site.{f}")
                                      for f in SITE_ANALYSES),
        "single_site.save_s": site_save,
        "single_site.save_rows_per_s": ratio(work["rows"]["site"], site_save),
    })

    net_s = total("network.integrate_network")
    net_steps = work["steps"]["network"]
    net_step_us = ratio(net_s, net_steps, 1e6)
    net_rhs = rhs.get("network.rhs_us", 0.0)
    net_save = total("network.save_network_trajectory")
    m.update({
        "network.rhs_us": net_rhs,
        "network.integrate_s": net_s,
        "network.integrations": float(
            totals["network.integrate_network"]["count"]
            if "network.integrate_network" in totals else 0),
        "network.steps": float(net_steps),
        "network.step_us": net_step_us,
        # computed: what a step costs beyond its four RHS evaluations
        "network.bookkeeping_us": (net_step_us - 4.0 * net_rhs
                                   if net_steps else 0.0),
        "network.rhs_bytes": rhs.get("network.rhs_bytes", 0.0),
        "network.classify_spread_s": total("network.classify_spread"),
        "network.scan_self_s": self_time("network.double_threshold_scan"),
        "network.save_s": net_save,
        "network.save_rows_per_s": ratio(work["rows"]["network"], net_save),
    })

    pde_s = total("continuum.integrate_pde")
    local_steps = work["steps"]["pde_local"]
    nonlocal_steps = work["steps"]["pde_nonlocal"]
    pde_steps = local_steps + nonlocal_steps
    pde_step_us = ratio(pde_s, pde_steps, 1e6)
    rhs_local = rhs.get("continuum.rhs_local_us", 0.0)
    rhs_nonlocal = rhs.get("continuum.rhs_nonlocal_us", 0.0)
    # computed: the step-weighted RHS cost of the local and nonlocal runs
    rhs_mean = ratio(local_steps * rhs_local + nonlocal_steps * rhs_nonlocal,
                     pde_steps)
    pde_save = total("continuum.save_field_trajectory")
    m.update({
        "continuum.laplacian_us": rhs.get("continuum.laplacian_us", 0.0),
        "continuum.rhs_local_us": rhs_local,
        "continuum.rhs_nonlocal_us": rhs_nonlocal,
        "continuum.rhs_nonlocal_bytes": rhs.get(
            "continuum.rhs_nonlocal_bytes", 0.0),
        "continuum.kernel_matrix_s": total("continuum.kernel_matrix"),
        "continuum.integrate_s": pde_s,
        "continuum.steps": float(pde_steps),
        "continuum.step_us": pde_step_us,
        "continuum.bookkeeping_us": (pde_step_us - 4.0 * rhs_mean
                                     if pde_steps else 0.0),
        "continuum.analysis_s": sum(self_time(f"continuum.{f}")
                                    for f in PDE_ANALYSES),
        "continuum.save_s": pde_save,
        "continuum.save_rows_per_s": ratio(work["rows"]["pde"], pde_save),
    })
    return m
