"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line, or via
plain ``pytest`` (lines for failing criteria always surface).
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from riotdyn import (AmplitudeLaw, ExplicitSchedule, FieldState,
                     FieldTrajectory, ModelParams, PdeParams,
                     PeriodicSchedule, PoissonSchedule, Shock, SiteState,
                     SpatialGrid, check_relaxation, classify_forced_regime,
                     classify_spread, delay_experiment, grid_graph,
                     hysteresis_sweep, integrate_network, integrate_pde,
                     integrate_site, mass_diagnostics, max_activity_window,
                     peak_activity, peak_statistics, steady_states,
                     track_front)
from riotdyn.model import tension_decay_rate_arr

from conftest import BASE

LAM_STAR = 1.6                      # peak activity of the workhorse set
DELTA = 0.05 * LAM_STAR             # near-peak margin for windows

_cache: dict = {}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _single_shock_run(amplitude: float, t_end: float = 120.0,
                      stride: int = 10):
    key = ("site", amplitude, t_end, stride)
    if key not in _cache:
        _cache[key] = integrate_site(
            BASE, ExplicitSchedule([Shock(0.0, amplitude)]),
            SiteState(0.01, 0.0), t_end=t_end, dt=1e-3, record_stride=stride)
    return _cache[key]


def test_criterion_01_self_relaxation():
    ok = True
    details = []
    for amplitude in (0.4, 4.0, 30.0):
        started = time.perf_counter()
        traj = _single_shock_run(amplitude)
        relaxed = check_relaxation(traj, 1e-3)
        elapsed = time.perf_counter() - started
        good = (relaxed is not None and traj.lam[-1] <= 1e-3
                and traj.alpha[-1] <= 1e-3 and elapsed < 5.0)
        ok = ok and good
        details.append(f"A={amplitude}: relaxed_at="
                       f"{relaxed if relaxed is None else round(relaxed, 2)}"
                       f" in {elapsed:.2f}s")
    _report(1, "single-shock self-relaxation", ok, "; ".join(details))


def test_criterion_02_window_growth_with_amplitude():
    started = time.perf_counter()
    lengths = []
    for amplitude in (4.0, 30.0, 100.0):
        window = max_activity_window(_single_shock_run(amplitude), DELTA)
        lengths.append(0.0 if window is None else window[1] - window[0])
    elapsed = time.perf_counter() - started
    increasing = all(b > a for a, b in zip(lengths, lengths[1:]))
    _report(2, "near-peak window grows with shock strength",
            increasing and elapsed < 15.0,
            f"lengths={[round(v, 3) for v in lengths]} in {elapsed:.1f}s")


def test_criterion_03_tension_closed_form():
    traj = integrate_site(BASE, ExplicitSchedule([Shock(0.0, 30.0)]),
                          SiteState(0.01, 0.0), t_end=80.0, dt=1e-3)
    h = tension_decay_rate_arr(traj.lam, BASE)
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * (h[1:] + h[:-1]) * np.diff(traj.times))])
    err = np.max(np.abs(traj.alpha - 30.0 * np.exp(-integral))) / 30.0
    _report(3, "tension matches its closed-form solution", err <= 1e-4,
            f"max relative error {err:.2e}")


def test_criterion_04_activity_ceiling():
    worst = 0.0
    for amplitude in (0.4, 4.0, 30.0, 100.0):
        worst = max(worst, _single_shock_run(amplitude).lam.max())
    for period in (2.0, 10.0):
        key = ("periodic", period)
        if key not in _cache:
            _cache[key] = integrate_site(
                BASE, PeriodicSchedule(2.0, period), SiteState(0.01, 0.0),
                t_end=500.0, dt=1e-3, record_stride=10)
        worst = max(worst, _cache[key].lam.max())
    poisson = integrate_site(
        BASE, PoissonSchedule(0.8, AmplitudeLaw("constant", 2.0), seed=42),
        SiteState(0.01, 0.0), t_end=200.0, dt=1e-3, record_stride=10)
    worst = max(worst, poisson.lam.max())
    _report(4, "activity never exceeds the peak", worst <= LAM_STAR + 1e-6,
            f"max over matrix {worst:.8f} vs {LAM_STAR}")


def test_criterion_05_forcing_frequency_flip():
    started = time.perf_counter()
    low = classify_forced_regime(BASE, PeriodicSchedule(2.0, 10.0),
                                 horizon=500.0, delta=0.2 * LAM_STAR)
    high = classify_forced_regime(BASE, PeriodicSchedule(2.0, 2.0),
                                  horizon=500.0, delta=0.2 * LAM_STAR)
    elapsed = time.perf_counter() - started
    ok = (low.regime == "decaying" and high.regime == "sustained"
          and high.liminf_estimate >= LAM_STAR - 0.2 * LAM_STAR
          and elapsed < 30.0)
    _report(5, "forcing frequency flips decaying/sustained", ok,
            f"nu=0.1 {low.regime}; nu=0.5 {high.regime} "
            f"liminf={high.liminf_estimate:.3f} in {elapsed:.1f}s")


def test_criterion_06_hysteresis_fold():
    started = time.perf_counter()
    grid = np.linspace(0.1, 1.0, 10)
    shallow = hysteresis_sweep(replace(BASE, beta=3.0, lambda_b=0.05), grid)
    sharp = hysteresis_sweep(replace(BASE, beta=6.0, lambda_b=0.05), grid)
    elapsed = time.perf_counter() - started
    ok = (not shallow.fold and shallow.message == "no fold"
          and sharp.fold
          and 0.7 * sharp.alpha_b1 < 0.41 < 0.7 * sharp.alpha_b2
          and elapsed < 60.0)
    detail = (f"beta=3 {shallow.message}; beta=6 "
              f"theta*ab1={0.7 * sharp.alpha_b1:.4f} "
              f"theta*ab2={0.7 * sharp.alpha_b2:.4f} in {elapsed:.1f}s"
              if sharp.fold else "no fold found at beta=6")
    _report(6, "base-tension fold appears only for the sharp transition",
            ok, detail)


def test_criterion_07_network_double_threshold():
    # The documented set omega=0.2, theta=0.3, z0=10, beta=1, p=0.7, eta=0.2
    # on the 10x10 grid whose hub (node 55) is the social center, with
    # unit-mass tension jumps at the hub.  Two constants are set here:
    #   a=5.1: the switch midpoint.  The activation threshold is then
    #     alpha_c = a - ln(z0/omega - 1) = 1.2, within reach of the shocks
    #     (a=100 gives alpha_c = 96, which no shock of size <= 10 reaches).
    #     Above a ~ 5.5 the A=6 shock stays contained; below a ~ 4.7 the
    #     A=6 front outruns the sampling and reads as jumps.
    #   eta_alpha=0.13: the tension inflow every node receives from the hub.
    #     At eta_alpha = eta = 0.2 the A=6 hub already ignites blocks of
    #     nodes ahead of the front, so A=6 reads nonlocal too; at 0.13 only
    #     the A=10 broadcast does, while the A=6 activity spreads as a
    #     front.  The ladder holds for eta_alpha in 0.12-0.135.
    # Both constants can move by 5% either way, and dt/stride can become
    # 5e-4/100, without changing the three regimes.
    started = time.perf_counter()
    params = ModelParams(omega=0.2, theta=0.3, z0=10.0, beta=1.0, a=5.1,
                         p=0.7, eta=0.2, eta_alpha=0.13)
    graph = grid_graph(10, 10, ("hub", 55))
    reports, coarse = {}, {}
    for amplitude in (2.0, 6.0, 10.0):
        traj = integrate_network(
            graph, params, ExplicitSchedule([Shock(0.0, amplitude, 55)]),
            (0.01, 0.0), t_end=50.0, dt=1e-3, record_stride=50)
        reports[amplitude] = classify_spread(traj, graph, 55)
        # every second record is a stride-100 run: its only shock is at t=0
        # and 50,000 steps are a multiple of 100
        every_second = replace(traj, times=traj.times[::2],
                               lam=traj.lam[::2], alpha=traj.alpha[::2])
        coarse[amplitude] = classify_spread(every_second, graph, 55)
    elapsed = time.perf_counter() - started
    regimes = {amp: rep.regime for amp, rep in reports.items()}
    jumps = {amp: len(rep.jump_nodes) for amp, rep in reports.items()}
    coarse_regimes = {amp: rep.regime for amp, rep in coarse.items()}
    coarse_jumps = {amp: len(rep.jump_nodes) for amp, rep in coarse.items()}
    ladder = {2.0: "contained", 6.0: "local", 10.0: "nonlocal"}
    ok = (regimes == ladder
          and jumps[6.0] == 0 and jumps[10.0] > 0
          and coarse_regimes == ladder
          and coarse_jumps[6.0] == 0 and coarse_jumps[10.0] > 0
          and elapsed < 120.0)
    _report(7, "double threshold at A=2/6/10", ok,
            f"observed {regimes} with jump nodes {jumps}, at stride 100 "
            f"{coarse_regimes} with {coarse_jumps} in {elapsed:.0f}s")


def test_criterion_08_delay_effect():
    started = time.perf_counter()
    params = ModelParams(omega=0.4, theta=0.12, p=0.7, beta=3.0, a=1.0,
                         z0=2.0, eta=0.02, lambda_b=0.001)
    graph = grid_graph(10, 10, ("two_hubs", 22, 77))
    rep = delay_experiment(graph, params, 5.0, 22, 2.0, 77, 30.0,
                           (0.01, 0.0), t_end=70.0, dt=1e-3,
                           record_stride=50)
    elapsed = time.perf_counter() - started
    ratio = rep.post_t2_activity_double / rep.post_t2_activity_single
    ok = ratio >= 2.0 and rep.dominates_after_t2 and elapsed < 120.0
    _report(8, "second event at least doubles post-t2 activity", ok,
            f"ratio={ratio:.2f} in {elapsed:.0f}s")


def test_criterion_09_mass_decay_bounds():
    started = time.perf_counter()
    params = ModelParams(omega=0.2, theta=0.3, eta=0.01, p=0.7, z0=10.0,
                         beta=3.0, a=2.0)
    grid = SpatialGrid((20.0,), (400,))
    pp = PdeParams(model=params, D=0.1)
    init = FieldState(np.full(400, 2.0), np.zeros(400))
    traj = integrate_pde(pp, grid, ExplicitSchedule([Shock(0.0, 5.0, 10.0)]),
                         init, t_end=60.0, dt=5e-3, record_stride=100)
    rep = mass_diagnostics(traj)
    elapsed = time.perf_counter() - started
    k1_expect = 0.29
    k2_expect = 0.3 / (1.0 + 9.8) ** 0.7 - 0.01
    envelope_ok = bool(((rep.alpha_mass >= rep.lower_envelope * 0.98)
                        & (rep.alpha_mass <= rep.upper_envelope * 1.02)).all())
    ok = (abs(rep.k1 - k1_expect) < 1e-12
          and abs(rep.k2 - k2_expect) < 1e-12
          and rep.rate_within_bounds is True
          and envelope_ok and elapsed < 60.0)
    _report(9, "tension mass decays inside the exponential envelope", ok,
            f"k1={rep.k1:.5f} k2={rep.k2:.5f} fitted={rep.fitted_rate:.5f} "
            f"envelope_ok={envelope_ok} in {elapsed:.0f}s")


def test_criterion_10_regime_classification():
    started = time.perf_counter()
    params = ModelParams(omega=0.2, theta=0.05, eta=0.01, p=0.5, z0=10.0,
                         beta=3.0, alpha_b=2.0, a=5.0)
    high = steady_states(params)
    low = steady_states(replace(params, a=1.0))
    elapsed = time.perf_counter() - started
    ok = (high.classification == "bistable"
          and low.classification == "monostable" and elapsed < 1.0)
    _report(10, "bistable at a=5, monostable at a=1", ok,
            f"a=5 {high.classification}, a=1 {low.classification} "
            f"in {elapsed * 1e3:.0f}ms")


def test_criterion_11_front_speed():
    started = time.perf_counter()
    # manufactured translating profile
    grid = SpatialGrid((40.0,), (800,))
    pp_m = PdeParams(model=ModelParams(omega=0.2, z0=10.0), D=1.0)
    times = np.linspace(0.0, 10.0, 51)
    x = grid.centers()
    profile = 9.8 / (1.0 + np.exp((x[None, :] - 5.0 - times[:, None]) / 0.5))
    manufactured = FieldTrajectory(times, profile, np.zeros_like(profile),
                                   np.array([], dtype=int), (), grid, pp_m)
    recovered = track_front(manufactured).speed

    # bistable invasion front
    params = ModelParams(omega=0.2, theta=0.05, eta=0.01, p=0.5, z0=10.0,
                         beta=3.0, alpha_b=2.0, a=5.0)
    rep = steady_states(params)
    alpha2, lam2 = rep.states[-1]
    alpha1 = rep.states[0][0]
    grid_b = SpatialGrid((80.0,), (400,))
    pp = PdeParams(model=params, D=1.0)
    xb = grid_b.centers()
    init = FieldState(np.where(xb < 16.0, lam2, 1e-4),
                      np.where(xb < 16.0, alpha2, alpha1))
    traj = integrate_pde(pp, grid_b, None, init, t_end=60.0, dt=5e-3,
                         record_stride=400)
    lam_star = peak_activity(params)
    c_half = track_front(traj, threshold=0.5 * lam_star).speed
    c_third = track_front(traj, threshold=0.3 * lam_star).speed
    elapsed = time.perf_counter() - started
    robust = abs(c_half - c_third) / abs(c_half)
    ok = (abs(recovered - 1.0) <= 0.01 and c_half > 0.0 and robust < 0.05
          and elapsed < 120.0)
    _report(11, "front speeds: manufactured 1%, bistable positive+robust",
            ok, f"recovered={recovered:.4f}, bistable c={c_half:.4f}, "
            f"threshold spread {robust:.2%} in {elapsed:.0f}s")


def test_criterion_12_peak_statistics():
    started = time.perf_counter()
    params = ModelParams(omega=0.2, theta=0.05, eta=0.198, p=0.7, z0=10.0,
                         beta=1.0, a=100.0)
    grid = SpatialGrid((20.0,), (400,))
    pp = PdeParams(model=params, D=0.1)
    init = FieldState(np.exp(-10.0 * grid.centers()), np.zeros(400))
    traj = integrate_pde(pp, grid, ExplicitSchedule([Shock(0.0, 50.0, 0.0)]),
                         init, t_end=30.0, dt=5e-3, record_stride=100)
    rep = peak_statistics(traj, 0.0)
    elapsed = time.perf_counter() - started
    ok = (rep.p_violation_fraction < 0.05 and rep.t_violation_fraction < 0.05
          and elapsed < 60.0)
    _report(12, "peak height falls and peak time rises with distance", ok,
            f"p violations {rep.p_violation_fraction:.2%}, "
            f"t violations {rep.t_violation_fraction:.2%} in {elapsed:.0f}s")


def test_criterion_13_numerics_hygiene(mesh_halving_runs):
    # RK4 step halving
    def site_run(dt):
        return integrate_site(BASE, None, SiteState(0.5, 3.0), t_end=5.0,
                              dt=dt, record_stride=1)

    t1, t2, t4 = site_run(0.05), site_run(0.025), site_run(0.0125)
    d1 = max(np.max(np.abs(t1.lam - t2.lam[::2])),
             np.max(np.abs(t1.alpha - t2.alpha[::2])))
    d2 = max(np.max(np.abs(t2.lam - t4.lam[::2])),
             np.max(np.abs(t2.alpha - t4.alpha[::2])))
    rk4_ratio = d1 / d2

    # PDE mesh halving with a resolution-independent (gaussian) deposit
    (g1, u1), (g2, u2), (g4, u4) = mesh_halving_runs
    x1 = g1.centers()
    e1 = np.max(np.abs(u1 - np.interp(x1, g2.centers(), u2)))
    e2 = np.max(np.abs(np.interp(x1, g2.centers(), u2)
                       - np.interp(x1, g4.centers(), u4)))
    pde_ratio = e1 / e2

    # seeded stochastic reproducibility
    p_noise = ModelParams(omega=0.2, theta=0.1, p=1.0, beta=10.0, a=6.0,
                          z0=10.0, eta=0.05, sigma=0.05)
    g = grid_graph(3, 3)
    sched = ExplicitSchedule([Shock(0.0, 5.0, 4)])
    a = integrate_network(g, p_noise, sched, (0.1, 2.0), t_end=3.0, dt=0.01,
                          noise="brownian", noise_seed=11)
    b = integrate_network(g, p_noise, sched, (0.1, 2.0), t_end=3.0, dt=0.01,
                          noise="brownian", noise_seed=11)
    reproducible = (np.array_equal(a.lam, b.lam)
                    and np.array_equal(a.alpha, b.alpha))

    ok = (8.0 <= rk4_ratio <= 32.0 and 3.0 <= pde_ratio <= 5.0
          and reproducible)
    _report(13, "numerics hygiene (orders and reproducibility)", ok,
            f"rk4 ratio {rk4_ratio:.1f}, pde ratio {pde_ratio:.2f}, "
            f"stochastic bit-reproducible {reproducible}")
