"""Exogenous shock schedules: explicit lists, periodic trains, compound Poisson.

A shock is an impulse that instantaneously adds its amplitude to the social
tension at one site; integrators stop exactly at each shock time, apply the
jump, and resume.  Schedules are immutable; sampling a Poisson schedule is a
pure function of (schedule, horizon): the schedule carries its own seed.

Randomness comes from ``numpy.random.default_rng`` (PCG64).  Each event
draws one inter-arrival gap and then one amplitude, in that order, which
pins the stream layout so that stored realizations stay reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Shock",
    "AmplitudeLaw",
    "ExplicitSchedule",
    "PeriodicSchedule",
    "PoissonSchedule",
    "ShockSchedule",
    "realize",
    "event_count",
    "check_node_site",
]

Site = int | float | tuple | None


@dataclass(frozen=True)
class Shock:
    """One impulse: at ``time``, tension at ``site`` jumps by ``amplitude``.

    ``site`` is None for single-site runs, a node id on networks, or a
    coordinate (float, or tuple in 2-D) on spatial grids.
    """

    time: float
    amplitude: float
    site: Site = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise ValueError(f"shock time must be finite, got {self.time}")
        if not math.isfinite(self.amplitude) or self.amplitude <= 0.0:
            raise ValueError(
                f"shock amplitude must be finite and > 0, got {self.amplitude}")


@dataclass(frozen=True)
class AmplitudeLaw:
    """Distribution of Poisson shock amplitudes.

    kind "constant": every amplitude equals ``a``.
    kind "exponential": exponential with mean ``a``.
    kind "uniform": uniform on [a, b].
    """

    kind: str = "constant"
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "exponential", "uniform"):
            raise ValueError(f"unknown amplitude law {self.kind!r}")
        if self.kind == "uniform" and not (0.0 < self.a <= self.b):
            raise ValueError("uniform law needs 0 < a <= b")
        if self.kind != "uniform" and self.a <= 0.0:
            raise ValueError("amplitude scale must be > 0")

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "constant":
            return self.a
        if self.kind == "exponential":
            return float(rng.exponential(self.a))
        return float(rng.uniform(self.a, self.b))


@dataclass(frozen=True)
class ExplicitSchedule:
    """A literal list of shocks; must be sorted by time (ties keep order)."""

    shocks: tuple[Shock, ...]

    def __init__(self, shocks: Sequence[Shock]):
        shocks = tuple(shocks)
        times = [s.time for s in shocks]
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("explicit shocks must be sorted by time")
        object.__setattr__(self, "shocks", shocks)


@dataclass(frozen=True)
class PeriodicSchedule:
    """Equal shocks of ``amplitude`` at t = 0, T, 2T, ... with period T."""

    amplitude: float
    period: float
    site: Site = None

    def __post_init__(self) -> None:
        if self.period <= 0.0 or not math.isfinite(self.period):
            raise ValueError(f"period must be finite and > 0, got {self.period}")
        if self.amplitude <= 0.0:
            raise ValueError("amplitude must be > 0")


@dataclass(frozen=True)
class PoissonSchedule:
    """Compound Poisson process: exponential(rate) inter-arrival times and
    i.i.d. amplitudes, both determined by ``seed``."""

    rate: float
    amplitude_law: AmplitudeLaw = field(default_factory=AmplitudeLaw)
    site: Site = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate <= 0.0:
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")


ShockSchedule = ExplicitSchedule | PeriodicSchedule | PoissonSchedule | None


def _check_horizon(horizon: float) -> None:
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")


def realize(schedule: ShockSchedule, horizon: float) -> list[Shock]:
    """Materialize a schedule as a time-sorted list of shocks on [0, horizon].

    Explicit schedules are truncated; periodic ones emit t = 0, T, 2T, ...
    up to the horizon; Poisson ones are sampled with the schedule's own
    seed.  Same inputs always give the same list.
    """
    _check_horizon(horizon)
    if schedule is None:
        return []
    if isinstance(schedule, ExplicitSchedule):
        return [s for s in schedule.shocks if 0.0 <= s.time <= horizon]
    if isinstance(schedule, PeriodicSchedule):
        return [Shock(i * schedule.period, schedule.amplitude, schedule.site)
                for i in range(event_count(schedule, horizon))]
    if isinstance(schedule, PoissonSchedule):
        rng = np.random.default_rng(schedule.seed)
        scale = 1.0 / schedule.rate
        out: list[Shock] = []
        t = float(rng.exponential(scale))
        while t <= horizon:
            out.append(Shock(t, schedule.amplitude_law.sample(rng),
                             schedule.site))
            t += float(rng.exponential(scale))
        return out
    raise TypeError(f"unknown schedule type {type(schedule).__name__}")


def event_count(schedule: ShockSchedule, horizon: float) -> int:
    """``len(realize(...))``, without building a periodic schedule's shocks."""
    if isinstance(schedule, PeriodicSchedule):
        _check_horizon(horizon)
        return int(math.floor(horizon / schedule.period)) + 1
    return len(realize(schedule, horizon))


def check_node_site(site, n: int, what: str = "network shock site") -> None:
    """Reject a node id that is not an integer in [0, n): a network shock
    site, a seed node, an edge end."""
    if not isinstance(site, (int, np.integer)) or not 0 <= site < n:
        raise ValueError(f"{what} {site!r} is not a node id in [0, {n})")
