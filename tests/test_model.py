"""Kernel nonlinearities, closed forms, and phase-plane analysis."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riotdyn import (ModelParams, SiteState, activity_nullcline,
                     activity_rate, check_excitability, fixed_points,
                     peak_activity, self_reinforcement, tension_decay_rate,
                     tension_nullcline, tension_rate, tension_threshold,
                     transition_rate)
from riotdyn.model import (self_reinforcement_arr, tension_decay_rate_arr,
                           transition_rate_arr)

from conftest import BASE

finite_tension = st.floats(min_value=-50.0, max_value=50.0,
                           allow_nan=False, allow_infinity=False)


class TestSelfReinforcement:
    def test_zero_at_origin(self):
        assert self_reinforcement(0.0, replace(BASE, z0=10.0)) == 0.0

    def test_direct_evaluation(self):
        assert self_reinforcement(5.0, replace(BASE, z0=10.0)) == 25.0

    def test_root_at_capacity(self):
        assert self_reinforcement(10.0, replace(BASE, z0=10.0)) == 0.0

    @given(z=st.floats(min_value=1e-6, max_value=2.0 - 1e-6))
    def test_positive_inside_capacity(self, z):
        assert self_reinforcement(z, BASE) > 0.0

    @given(z=st.floats(min_value=0.0, max_value=2.0))
    def test_symmetry_about_midpoint(self, z):
        assert self_reinforcement(z, BASE) == pytest.approx(
            self_reinforcement(BASE.z0 - z, BASE), abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            self_reinforcement(math.nan, BASE)


class TestTransitionRate:
    def test_midpoint_is_half(self):
        for beta in (0.5, 3.0, 50.0):
            p = replace(BASE, beta=beta, a=1.7)
            assert transition_rate(1.7, p) == pytest.approx(0.5, abs=1e-15)

    def test_direct_evaluation(self):
        p = replace(BASE, beta=1.0, a=6.0)
        assert transition_rate(0.0, p) == pytest.approx(
            1.0 / (1.0 + math.exp(6.0)), rel=1e-14)

    def test_saturation(self):
        assert transition_rate(1e6, BASE) == 1.0
        assert transition_rate(-1e6, BASE) == 0.0

    @given(a1=st.floats(min_value=-5.0, max_value=5.0),
           gap=st.floats(min_value=1e-3, max_value=10.0))
    def test_monotone(self, a1, gap):
        # resolvable separations only: the sigmoid saturates in floats
        assert transition_rate(a1, BASE) < transition_rate(a1 + gap, BASE)

    @given(d=st.floats(min_value=0.0, max_value=40.0))
    def test_point_symmetry_about_midpoint(self, d):
        total = (transition_rate(BASE.a - d, BASE)
                 + transition_rate(BASE.a + d, BASE))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestTensionDecayRate:
    def test_at_rest_equals_theta(self):
        assert tension_decay_rate(0.0, BASE) == BASE.theta
        p = replace(BASE, decay_form="exponential")
        assert tension_decay_rate(0.0, p) == BASE.theta

    def test_power_form_direct(self):
        p = replace(BASE, theta=0.7, p=0.7, lambda1=1.0)
        assert tension_decay_rate(1.0, p) == pytest.approx(
            0.7 * 2.0 ** -0.7, rel=1e-14)

    def test_zero_exponent_is_flat(self):
        p = replace(BASE, p=0.0)
        for lam in (0.0, 1.0, 7.3):
            assert tension_decay_rate(lam, p) == BASE.theta

    @given(l1=st.floats(min_value=0.0, max_value=50.0),
           gap=st.floats(min_value=1e-3, max_value=10.0))
    def test_monotone_decreasing(self, l1, gap):
        assert tension_decay_rate(l1, BASE) > tension_decay_rate(l1 + gap, BASE)


class TestArrayForms:
    ARR = ((self_reinforcement, self_reinforcement_arr),
           (transition_rate, transition_rate_arr),
           (tension_decay_rate, tension_decay_rate_arr))

    @pytest.mark.parametrize("form", ["power", "exponential"])
    @pytest.mark.parametrize("scalar, arr", ARR)
    def test_elementwise_in_place_and_zero_dim(self, scalar, arr, form):
        p = replace(BASE, decay_form=form)
        x = np.array([0.0, 0.3, 1.7, 6.0, 1e6])
        want = [scalar(v, p) for v in x]
        got = arr(x, p)
        assert got.tolist() == pytest.approx(want, rel=1e-14, abs=1e-300)
        out = np.full_like(x, np.nan)
        assert arr(x, p, out=out) is out
        assert out.tobytes() == got.tobytes()
        assert float(arr(np.asarray(1.7), p)) == got[2]


class TestReactions:
    def test_activity_rate_vanishes_at_rest(self):
        assert activity_rate(0.0, 0.3, BASE) == 0.0

    def test_activity_rate_root_at_peak(self):
        # saturated tension: root of -omega z + z (z0 - z) sits at z0 - omega
        p = replace(BASE, z0=2.0, omega=0.4)
        assert activity_rate(1.6, 1e9, p) == pytest.approx(0.0, abs=1e-12)

    def test_activity_rate_direct(self):
        p = replace(BASE, z0=2.0, omega=0.4)
        assert activity_rate(1.0, p.a, p) == pytest.approx(0.1, rel=1e-12)

    def test_tension_rate_zero_state(self):
        assert tension_rate(0.0, 0.0, BASE) == 0.0

    def test_tension_rate_direct(self):
        assert tension_rate(0.0, 1.0, BASE) == pytest.approx(-0.7, rel=1e-14)

    def test_tension_rate_stationary_point(self):
        p = replace(BASE, alpha_b=0.5)
        alpha = tension_nullcline(1.3, p)
        assert tension_rate(1.3, alpha, p) == pytest.approx(0.0, abs=1e-14)

    @given(alpha=st.floats(min_value=1e-9, max_value=100.0),
           lam=st.floats(min_value=0.0, max_value=2.0))
    def test_tension_rate_negative_without_base(self, alpha, lam):
        assert tension_rate(lam, alpha, BASE) < 0.0


class TestPeakActivity:
    def test_closed_form(self):
        assert peak_activity(replace(BASE, z0=2.0, omega=0.4)) == pytest.approx(
            1.6, abs=1e-12)
        assert peak_activity(replace(BASE, z0=10.0, omega=0.2)) == pytest.approx(
            9.8, abs=1e-12)

    def test_no_excited_state(self):
        assert peak_activity(replace(BASE, z0=2.0, omega=2.5)) is None
        assert peak_activity(replace(BASE, z0=2.0, omega=2.0)) is None

    def test_exact_without_a_root_search(self):
        # a sign scan with bisection returned 9.80000000000004 here
        assert peak_activity(replace(BASE, z0=10.0, omega=0.2)) == 10.0 - 0.2

    @given(z0=st.floats(min_value=1e-3, max_value=1e3),
           omega=st.floats(min_value=0.0, max_value=1e3))
    def test_largest_root_of_the_growth_balance(self, z0, omega):
        p = replace(BASE, z0=z0, omega=omega)
        z = peak_activity(p)
        if z0 <= omega:
            assert z is None
            return
        assert z > 0.0
        assert abs(-omega * z + self_reinforcement(z, p)) <= 1e-12 * z0 * z0


class TestTensionThreshold:
    def test_sigmoid_inversion(self):
        p = replace(BASE, z0=2.0, omega=0.4, beta=3.0, a=1.0)
        assert tension_threshold(p) == pytest.approx(
            1.0 - math.log(4.0) / 3.0, abs=1e-12)

    def test_midpoint_case(self):
        # omega / G'(0) = 0.5 puts the threshold exactly at the midpoint a
        p = replace(BASE, z0=2.0, omega=1.0)
        assert tension_threshold(p) == pytest.approx(p.a, abs=1e-12)

    def test_step_limit(self):
        p = replace(BASE, z0=2.0, omega=0.4, beta=1e6)
        assert tension_threshold(p) == pytest.approx(p.a, abs=1e-5)

    def test_never_excitable(self):
        assert tension_threshold(replace(BASE, omega=5.0)) == math.inf


class TestActivityNullcline:
    def test_zero_branch_below_threshold(self):
        alpha_c = tension_threshold(BASE)
        assert activity_nullcline(alpha_c - 0.05, BASE) == 0.0

    def test_saturated_limit(self):
        assert activity_nullcline(1e9, BASE) == pytest.approx(1.6, abs=1e-12)

    def test_closed_form_mid_branch(self):
        # r(alpha) = 0.4 gives z0 - omega/r = 1
        alpha = BASE.a - math.log(1.0 / 0.4 - 1.0) / BASE.beta
        assert activity_nullcline(alpha, BASE) == pytest.approx(1.0, rel=1e-12)

    def test_positive_lambda_b_branch(self):
        p = replace(BASE, lambda_b=0.05)
        lam = activity_nullcline(0.3, p)
        assert lam > 0.0
        assert activity_rate(lam, 0.3, p) == pytest.approx(0.0, abs=1e-10)


class TestFixedPoints:
    def test_single_attracting_rest_state(self):
        pts = fixed_points(BASE)
        assert len(pts) == 1
        assert pts[0].state == SiteState(0.0, 0.0)
        assert pts[0].stability == "stable"

    def test_three_intersections_sharp_transition(self):
        p = replace(BASE, beta=6.0, lambda_b=0.05, alpha_b=0.41 / 0.7)
        pts = fixed_points(p)
        assert len(pts) == 3
        assert [fp.stability for fp in pts] == ["stable", "saddle", "stable"]

    def test_single_intersection_shallow_transition(self):
        for theta_ab in (0.2, 0.41, 0.6):
            p = replace(BASE, beta=3.0, lambda_b=0.05, alpha_b=theta_ab / 0.7)
            assert len(fixed_points(p)) == 1

    def test_residuals_below_tolerance(self):
        p = replace(BASE, beta=6.0, lambda_b=0.05, alpha_b=0.41 / 0.7)
        for fp in fixed_points(p):
            lam, alpha = fp.state.lam, fp.state.alpha
            assert abs(activity_rate(lam, alpha, p)) <= 1e-9
            assert abs(tension_rate(lam, alpha, p)) <= 1e-9

    def test_count_stable_under_grid_refinement(self):
        for p in (BASE,
                  replace(BASE, beta=6.0, lambda_b=0.05, alpha_b=0.41 / 0.7),
                  replace(BASE, beta=3.0, lambda_b=0.05, alpha_b=0.6 / 0.7)):
            assert len(fixed_points(p)) == len(fixed_points(p, samples=20480))


class TestExcitability:
    def test_holds_on_workhorse_set(self):
        report = check_excitability(BASE)
        assert report.holds

    def test_violated_when_rest_transition_large(self):
        # a=1 with z0=10 self-excites without any shock
        p = replace(BASE, z0=10.0, omega=0.2, beta=3.0, a=1.0)
        report = check_excitability(p)
        assert not report.quiet_state_attracting
        assert not report.holds

    def test_warns_on_violation(self):
        p = replace(BASE, z0=10.0, omega=0.2, beta=3.0, a=1.0)
        with pytest.warns(UserWarning, match="excitability"):
            check_excitability(p, warn=True)


class TestParamsValidation:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            ModelParams(omega=-0.1)

    def test_rejects_bad_decay_form(self):
        with pytest.raises(ValueError):
            ModelParams(decay_form="cubic")

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ModelParams(z0=0.0)

    def test_state_rejects_negative(self):
        with pytest.raises(ValueError):
            SiteState(-1.0, 0.0)

    def test_negative_p_accepted(self):
        # fast-decay variant: valid data, outside the invariant suites
        p = ModelParams(p=-0.5)
        assert tension_decay_rate(1.0, p) > p.theta

