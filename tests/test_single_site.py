"""Single-site integration and the burst/relaxation/hysteresis analyses."""
import math
from dataclasses import replace

import numpy as np
import pytest

from riotdyn import (AmplitudeLaw, BlowUpError, ExplicitSchedule,
                     PeriodicSchedule, PoissonSchedule, Shock, SiteState,
                     check_relaxation, classify_forced_regime,
                     hysteresis_sweep, integrate_site, load_trajectory,
                     max_activity_window, peak_activity, save_trajectory)
from riotdyn.model import tension_decay_rate_arr

from conftest import BASE, SLOW

LAM_STAR = 1.6  # peak activity of the workhorse set (z0 - omega)


def single_shock(amplitude):
    return ExplicitSchedule([Shock(0.0, amplitude)])


class TestIntegrateSite:
    def test_rest_state_is_invariant(self):
        traj = integrate_site(BASE, None, SiteState(0.0, 0.0), t_end=5.0,
                              dt=1e-2)
        assert np.all(traj.lam == 0.0)
        assert np.all(traj.alpha == 0.0)

    def test_shock_at_zero_applied_after_initial(self):
        traj = integrate_site(BASE, single_shock(5.0), SiteState(0.0, 1.0),
                              t_end=1.0, dt=1e-2)
        assert traj.times[0] == 0.0
        assert traj.alpha[0] == pytest.approx(6.0)
        assert traj.shock_marks.tolist() == [0]

    def test_times_strictly_increasing(self, strong_shock_run):
        assert np.all(np.diff(strong_shock_run.times) > 0)

    def test_activity_continuous_across_shock(self):
        traj = integrate_site(BASE, ExplicitSchedule([Shock(0.5, 3.0)]),
                              SiteState(0.2, 0.0), t_end=1.0, dt=1e-3)
        k = int(traj.shock_marks[0])
        assert traj.times[k] == pytest.approx(0.5)
        # tension jumps by the amplitude, activity only drifts by O(dt)
        assert traj.alpha[k] - traj.alpha[k - 1] == pytest.approx(3.0, abs=1e-2)
        assert abs(traj.lam[k] - traj.lam[k - 1]) < 1e-2

    def test_shock_time_hit_exactly_with_coarse_step(self):
        traj = integrate_site(BASE, ExplicitSchedule([Shock(0.25, 1.0)]),
                              SiteState(0.1, 0.0), t_end=1.0, dt=0.2)
        assert 0.25 in traj.times.tolist()

    def test_states_stay_nonnegative(self, strong_shock_run):
        assert strong_shock_run.lam.min() >= 0.0
        assert strong_shock_run.alpha.min() >= 0.0

    def test_blow_up_aborts_with_time(self):
        # far above capacity, one coarse RK4 step overshoots below
        # -lambda1, where the power decay has no real value
        with pytest.raises(BlowUpError) as err:
            integrate_site(BASE, None, SiteState(1e3, 10.0), t_end=10.0,
                           dt=1.0)
        assert 0.0 < err.value.time <= 10.0

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            integrate_site(BASE, None, SiteState(0.0, 0.0), t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate_site(BASE, None, SiteState(0.0, 0.0), t_end=0.0)
        with pytest.raises(ValueError):
            integrate_site(BASE, None, SiteState(0.0, 0.0), t_end=1.0,
                           record_stride=0)


class TestBurstShapes:
    def test_slow_preset_burst_and_monotone_decay(self, slow_burst_run):
        traj = slow_burst_run
        peak_i = int(traj.lam.argmax())
        assert traj.lam[peak_i] > 0.97 * 9.8      # plateaus near the peak
        post = traj.lam[peak_i:]
        assert np.all(np.diff(post) <= 1e-9)      # then decays monotonically
        assert traj.lam[-1] < 1e-3

    def test_small_shock_generates_no_riot(self):
        traj = integrate_site(BASE, single_shock(0.4), SiteState(0.01, 0.0),
                              t_end=40.0, dt=1e-3, record_stride=10)
        assert traj.lam.max() < 0.1 * LAM_STAR

    def test_monotone_phase_plane_excursion(self, strong_shock_run):
        traj = strong_shock_run
        assert np.all(np.diff(traj.alpha) <= 1e-12)  # tension never rises
        # activity is unimodal: at most one rise->fall transition
        d = np.diff(traj.lam)
        signs = np.sign(d[np.abs(d) > 1e-10])
        changes = int((np.diff(signs) != 0).sum())
        assert changes <= 1

    def test_activity_ceiling(self, strong_shock_run):
        assert strong_shock_run.lam.max() <= LAM_STAR + 1e-6


class TestClosedFormTension:
    def test_single_shock_tension_identity(self, strong_shock_run):
        # alpha(t) = A exp(-int h(lam)) with the integral quadratured from
        # the stored activity samples
        traj = strong_shock_run
        h = tension_decay_rate_arr(traj.lam, traj.params)
        integral = np.concatenate(
            [[0.0], np.cumsum(0.5 * (h[1:] + h[:-1]) * np.diff(traj.times))])
        predicted = 30.0 * np.exp(-integral)
        assert np.max(np.abs(traj.alpha - predicted)) / 30.0 <= 1e-4

    def test_decay_rate_lower_bound(self, strong_shock_run):
        # int_0^t h(lam) ds >= theta t / (1 + peak)^p along the trajectory
        traj = strong_shock_run
        h = tension_decay_rate_arr(traj.lam, traj.params)
        integral = np.concatenate(
            [[0.0], np.cumsum(0.5 * (h[1:] + h[:-1]) * np.diff(traj.times))])
        bound = (traj.params.theta * traj.times
                 / (1.0 + LAM_STAR) ** traj.params.p)
        assert np.all(integral >= bound - 1e-9)


class TestCheckRelaxation:
    def test_zero_trajectory_relaxes_immediately(self):
        traj = integrate_site(BASE, None, SiteState(0.0, 0.0), t_end=2.0,
                              dt=1e-2)
        assert check_relaxation(traj, 1e-3) == 0.0

    def test_single_shock_relaxes(self, strong_shock_run):
        relaxed = check_relaxation(strong_shock_run, 1e-3)
        assert relaxed is not None
        assert 0.0 < relaxed < 80.0

    def test_sustained_forcing_does_not_relax(self):
        traj = integrate_site(BASE, PeriodicSchedule(2.0, 2.0),
                              SiteState(0.01, 0.0), t_end=60.0, dt=1e-3,
                              record_stride=10)
        assert check_relaxation(traj, 1e-3) is None


class TestMaxActivityWindow:
    def test_zero_run_has_no_window(self):
        traj = integrate_site(BASE, None, SiteState(0.0, 0.0), t_end=2.0,
                              dt=1e-2)
        assert max_activity_window(traj, 0.08) is None

    def test_strong_shock_window_nonempty(self, strong_shock_run):
        window = max_activity_window(strong_shock_run, 0.05 * LAM_STAR)
        assert window is not None
        t0, t1 = window
        assert t1 > t0

    def test_window_grows_with_amplitude(self, strong_shock_run):
        w30 = max_activity_window(strong_shock_run, 0.05 * LAM_STAR)
        traj100 = integrate_site(BASE, single_shock(100.0),
                                 SiteState(0.01, 0.0), t_end=80.0, dt=1e-3,
                                 record_stride=10)
        w100 = max_activity_window(traj100, 0.05 * LAM_STAR)
        assert w100[1] - w100[0] > w30[1] - w30[0]

    def test_requires_excited_state(self):
        traj = integrate_site(replace(BASE, omega=2.5), None,
                              SiteState(0.0, 0.0), t_end=1.0, dt=1e-2)
        with pytest.raises(ValueError):
            max_activity_window(traj, 0.1)


class TestForcedRegime:
    def test_low_frequency_decays(self):
        res = classify_forced_regime(BASE, PeriodicSchedule(2.0, 10.0),
                                     horizon=500.0, delta=0.32)
        assert res.regime == "decaying"

    def test_high_frequency_sustains_near_peak(self):
        res = classify_forced_regime(BASE, PeriodicSchedule(2.0, 2.0),
                                     horizon=500.0, delta=0.32)
        assert res.regime == "sustained"
        assert res.liminf_estimate >= LAM_STAR - 0.32
        assert res.near_peak

    def test_deterministic_given_seed(self):
        sched = PoissonSchedule(0.5, AmplitudeLaw("constant", 2.0), seed=9)
        a = classify_forced_regime(BASE, sched, 300.0, 0.32)
        b = classify_forced_regime(BASE, sched, 300.0, 0.32)
        assert a == b

    def test_poisson_flip_is_monotone(self):
        regimes = []
        for nu in (0.05, 0.3, 0.8):
            sched = PoissonSchedule(nu, AmplitudeLaw("constant", 2.0), seed=42)
            res = classify_forced_regime(BASE, sched,
                                         horizon=max(500.0, 60.0 / nu),
                                         delta=0.32)
            regimes.append(res.regime)
        assert regimes[0] == "decaying"
        assert regimes[-1] == "sustained"
        flips = sum(r1 != r2 for r1, r2 in zip(regimes, regimes[1:]))
        assert flips == 1

    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError, match="events"):
            classify_forced_regime(BASE, PeriodicSchedule(2.0, 10.0),
                                   horizon=100.0, delta=0.32)

    def test_rejects_explicit_schedule(self):
        with pytest.raises(ValueError):
            classify_forced_regime(BASE, single_shock(2.0), 500.0, 0.32)


class TestHysteresisSweep:
    GRID = np.linspace(0.1, 1.0, 10)

    def test_sharp_transition_has_fold_around_observed_point(self):
        res = hysteresis_sweep(replace(BASE, beta=6.0, lambda_b=0.05),
                               self.GRID)
        assert res.fold
        assert 0.7 * res.alpha_b1 < 0.41 < 0.7 * res.alpha_b2

    def test_shallow_transition_has_no_fold(self):
        res = hysteresis_sweep(replace(BASE, beta=3.0, lambda_b=0.05),
                               self.GRID)
        assert not res.fold
        assert res.message == "no fold"
        assert res.alpha_b1 is None and res.alpha_b2 is None

    def test_single_point_grid_rejected(self):
        with pytest.raises(ValueError):
            hysteresis_sweep(BASE, [0.5])

    def test_thresholds_are_count_transitions(self):
        res = hysteresis_sweep(replace(BASE, beta=6.0, lambda_b=0.05),
                               self.GRID)
        from riotdyn import fixed_points
        p = replace(BASE, beta=6.0, lambda_b=0.05)
        assert len(fixed_points(replace(p, alpha_b=res.alpha_b1 - 1e-4))) == 1
        assert len(fixed_points(replace(p, alpha_b=res.alpha_b1 + 1e-4))) == 3
        assert len(fixed_points(replace(p, alpha_b=res.alpha_b2 - 1e-4))) == 3
        assert len(fixed_points(replace(p, alpha_b=res.alpha_b2 + 1e-4))) == 1


class TestSerialization:
    def test_round_trip(self, tmp_path):
        traj = integrate_site(BASE, single_shock(4.0), SiteState(0.01, 0.0),
                              t_end=5.0, dt=1e-2)
        path = tmp_path / "traj.txt"
        save_trajectory(traj, path)
        loaded = load_trajectory(path, BASE)
        np.testing.assert_array_equal(loaded.times, traj.times)
        np.testing.assert_array_equal(loaded.lam, traj.lam)
        np.testing.assert_array_equal(loaded.alpha, traj.alpha)
        np.testing.assert_array_equal(loaded.shock_marks, traj.shock_marks)

    def test_header_and_flags(self, tmp_path):
        traj = integrate_site(BASE, single_shock(4.0), SiteState(0.01, 0.0),
                              t_end=1.0, dt=1e-2)
        path = tmp_path / "traj.txt"
        save_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t lambda alpha shock_flag"
        assert lines[1].endswith(" 1")   # the t=0 shock is flagged
        assert lines[2].endswith(" 0")
