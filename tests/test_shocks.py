"""Shock schedules: validation, realization, determinism."""
import gc
import importlib
import math
import sys

import numpy as np
import pytest

from riotdyn import (AmplitudeLaw, ExplicitSchedule, PeriodicSchedule,
                     PoissonSchedule, Shock, realize)


class TestShockValidation:
    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            Shock(0.0, 0.0)
        with pytest.raises(ValueError):
            Shock(0.0, -1.0)

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError):
            Shock(math.inf, 1.0)

    def test_explicit_must_be_sorted(self):
        with pytest.raises(ValueError):
            ExplicitSchedule([Shock(5.0, 1.0), Shock(1.0, 1.0)])

    def test_ties_keep_list_order(self):
        sched = ExplicitSchedule([Shock(1.0, 2.0), Shock(1.0, 3.0)])
        out = realize(sched, 10.0)
        assert [s.amplitude for s in out] == [2.0, 3.0]


class TestRealize:
    def test_periodic_arithmetic_progression(self):
        out = realize(PeriodicSchedule(2.0, 5.0), horizon=12.0)
        assert [(s.time, s.amplitude) for s in out] == [
            (0.0, 2.0), (5.0, 2.0), (10.0, 2.0)]

    def test_explicit_passthrough(self):
        sched = ExplicitSchedule([Shock(0.0, 5.0), Shock(12.0, 5.0)])
        out = realize(sched, 20.0)
        assert [(s.time, s.amplitude) for s in out] == [(0.0, 5.0), (12.0, 5.0)]

    def test_explicit_truncated_to_horizon(self):
        sched = ExplicitSchedule([Shock(0.0, 5.0), Shock(12.0, 5.0)])
        assert len(realize(sched, 10.0)) == 1

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            realize(PeriodicSchedule(1.0, 1.0), 0.0)

    def test_poisson_deterministic_in_seed(self):
        sched = PoissonSchedule(0.5, AmplitudeLaw("exponential", 2.0))
        a = realize(sched, 100.0, seed=7)
        b = realize(sched, 100.0, seed=7)
        assert a == b
        c = realize(sched, 100.0, seed=8)
        assert a != c

    def test_poisson_sorted(self):
        out = realize(PoissonSchedule(2.0, AmplitudeLaw("uniform", 1.0, 3.0)),
                      200.0, seed=3)
        times = [s.time for s in out]
        assert times == sorted(times)
        assert all(1.0 <= s.amplitude <= 3.0 for s in out)

    def test_poisson_count_concentration(self):
        # nu * horizon = 5000 expected events; 3-sigma window
        out = realize(PoissonSchedule(0.5, AmplitudeLaw("constant", 2.0)),
                      1e4, seed=123)
        assert abs(len(out) - 5000) <= 3 * math.sqrt(5000)
        assert all(s.amplitude == 2.0 for s in out)

    def test_poisson_mean_interarrival(self):
        out = realize(PoissonSchedule(0.5), 3e4, seed=11)
        gaps = np.diff([s.time for s in out])
        assert gaps.size >= 10_000
        assert abs(gaps.mean() - 2.0) / 2.0 <= 0.02


class TestAmplitudeLaw:
    def test_uniform_bounds_checked(self):
        with pytest.raises(ValueError):
            AmplitudeLaw("uniform", 3.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AmplitudeLaw("levy", 1.0)

    def test_exponential_mean(self):
        out = realize(PoissonSchedule(1.0, AmplitudeLaw("exponential", 2.5)),
                      2e4, seed=5)
        amps = np.array([s.amplitude for s in out])
        assert abs(amps.mean() - 2.5) / 2.5 <= 0.05


def test_reimports_leave_no_schedule_classes_behind():
    # a set-up that purges riotdyn and imports it afresh, then puts the
    # original modules back, must let the fresh copies go; an alias held
    # in typing's cache (a typing.Union of the schedule classes) keeps them
    def ours(name):
        return name == "riotdyn" or name.startswith("riotdyn.")

    saved = {name: mod for name, mod in sys.modules.items() if ours(name)}
    try:
        for _ in range(5):
            for name in [n for n in sys.modules if ours(n)]:
                del sys.modules[name]
            importlib.import_module("riotdyn")
    finally:
        for name in [n for n in sys.modules if ours(n)]:
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    alive = [obj for obj in gc.get_objects()
             if isinstance(obj, type) and obj.__name__ == "ExplicitSchedule"
             and obj.__module__ == "riotdyn.shocks"]
    assert alive == [ExplicitSchedule]
