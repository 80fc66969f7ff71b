"""Single-site dynamics under shocks, and the analyses built on them.

The integrator advances the coupled activity/tension reactions with a fixed
step (classical RK4), stops exactly at every shock time, applies
the tension jump there, and resumes.  A shock at t=0 is applied after the
initial condition is set, so the recorded state at t=0 already includes it.
Recorded tension therefore jumps only at marked indices while activity stays
continuous across shocks.

Analyses: relaxation detection, longest near-peak activity window, the
sustained-vs-decaying classification under repeated forcing, and the
hysteresis sweep over the base tension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._core import (NEGATIVITY_CLAMP, Stack, drive, group_events,
                    warn_clamps, write_table)
from .errors import BlowUpError
from .model import (ModelParams, SiteState, _bisect_predicate, fixed_points,
                    required_peak_activity, tension_nullcline)
from .shocks import (PeriodicSchedule, PoissonSchedule, ShockSchedule,
                     event_count)

__all__ = [
    "Trajectory",
    "ForcedRegimeResult",
    "HysteresisResult",
    "integrate_site",
    "check_relaxation",
    "max_activity_window",
    "classify_forced_regime",
    "hysteresis_sweep",
    "save_trajectory",
    "load_trajectory",
]

# Sustained-regime floor and transient handling for forced runs.
SUSTAINED_FLOOR_BASE_FACTOR = 10.0
SUSTAINED_FLOOR_PEAK_FRACTION = 0.05
TRANSIENT_FRACTION = 0.5
MIN_FORCING_EVENTS = 50


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped single-site states plus shock bookkeeping.

    ``shock_marks`` are indices into ``times`` at which a tension jump was
    applied (the stored state there is post-jump).
    """

    times: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    shock_marks: np.ndarray
    params: ModelParams
    clamp_count: int = 0

    def state(self, i: int) -> SiteState:
        return SiteState(float(self.lam[i]), float(self.alpha[i]))


def _make_rhs(params: ModelParams):
    """Scalar RHS closure with the constants hoisted."""
    omega, z0, beta, a = params.omega, params.z0, params.beta, params.a
    theta, p, lam1 = params.theta, params.p, params.lambda1
    lam_b = params.lambda_b
    source = params.theta * params.alpha_b
    power = params.decay_form == "power"
    exp, pow_ = math.exp, math.pow

    def rhs(lam: float, alpha: float) -> tuple[float, float]:
        x = -beta * (alpha - a)
        if x > 700.0:
            r = 0.0
        elif x < -700.0:
            r = 1.0
        else:
            r = 1.0 / (1.0 + exp(x))
        if power:
            # math.pow raises ValueError where ** would turn complex
            h = theta * pow_(1.0 + lam / lam1, -p)
        else:
            h = theta * exp(-p * lam)
        return (-omega * (lam - lam_b) + r * lam * (z0 - lam),
                source - alpha * h)

    return rhs


def integrate_site(params: ModelParams,
                   schedule: ShockSchedule = None,
                   initial: SiteState = SiteState(0.0, 0.0),
                   t_end: float = 50.0,
                   dt: float = 1e-3,
                   record_stride: int = 1) -> Trajectory:
    """Integrate one site from ``initial`` to ``t_end`` under a schedule.

    Classical RK4 with a fixed step and exact stopping at every shock time
    (a partial final step per segment); the tension jump is applied there
    and the post-jump state recorded.  A state that leaves the real, finite
    domain aborts with :class:`BlowUpError`; after that check negative
    roundoff is clamped to zero (and counted).

    Parameters
    ----------
    record_stride:
        Keep every n-th step in the trajectory (shock times and the final
        time are always kept).
    """
    rhs = _make_rhs(params)
    clamp_count = 0

    def step(state, t, h):
        # _core.rk4 inlined: the extra call costs the site step about 7%
        nonlocal clamp_count
        lam, alpha = state
        try:
            d1l, d1a = rhs(lam, alpha)
            d2l, d2a = rhs(lam + 0.5 * h * d1l, alpha + 0.5 * h * d1a)
            d3l, d3a = rhs(lam + 0.5 * h * d2l, alpha + 0.5 * h * d2a)
            d4l, d4a = rhs(lam + h * d3l, alpha + h * d3a)
        except (ValueError, OverflowError) as exc:
            raise BlowUpError(t, f"state left the finite domain at "
                              f"t={t:.6g}: {exc}") from exc
        lam += h * (d1l + 2.0 * d2l + 2.0 * d3l + d4l) / 6.0
        alpha += h * (d1a + 2.0 * d2a + 2.0 * d3a + d4a) / 6.0
        if not (math.isfinite(lam) and math.isfinite(alpha)):
            raise BlowUpError(t)
        if lam < 0.0:
            if lam < -NEGATIVITY_CLAMP:
                clamp_count += 1
            lam = 0.0
        if alpha < 0.0:
            if alpha < -NEGATIVITY_CLAMP:
                clamp_count += 1
            alpha = 0.0
        return lam, alpha

    def jump(state, shocks):
        return state[0], state[1] + sum(s.amplitude for s in shocks)

    records = Stack()
    marks = drive(step, jump, (float(initial.lam), float(initial.alpha)),
                  group_events(schedule, t_end), t_end, dt,
                  record_stride, records.add)

    warn_clamps(clamp_count)
    return Trajectory(*records.arrays(), marks, params, clamp_count)


def _relaxation_floors(params: ModelParams) -> tuple[float, float]:
    """The rest point the system should settle to: the lowest-activity
    stable fixed point, or the base levels when none is classified stable."""
    stable = [fp for fp in fixed_points(params) if fp.stability == "stable"]
    if stable:
        fp = min(stable, key=lambda f: f.state.lam)
        return fp.state.lam, fp.state.alpha
    lam_floor = params.lambda_b
    return lam_floor, tension_nullcline(lam_floor, params)


def check_relaxation(traj: Trajectory, eps: float) -> float | None:
    """Earliest time after the last shock from which the trajectory stays
    within ``eps`` of the rest state in both components.

    Returns that time, or ``None`` when the run never settles.
    """
    lam_floor, alpha_floor = _relaxation_floors(traj.params)
    ok = ((traj.lam <= lam_floor + eps)
          & (traj.alpha <= alpha_floor + eps))
    if traj.shock_marks.size:
        start = int(traj.shock_marks[-1])
    else:
        start = 0
    # suffix scan: last index where the condition fails
    bad = np.nonzero(~ok)[0]
    first_good = 0 if bad.size == 0 else int(bad[-1]) + 1
    if first_good >= traj.times.size:
        return None
    return float(traj.times[max(first_good, start)])


def max_activity_window(traj: Trajectory,
                        delta: float) -> tuple[float, float] | None:
    """Longest contiguous interval with activity >= peak - ``delta``.

    Returns (t0, t1), or ``None`` when the level is never reached.
    """
    lam_star = required_peak_activity(traj.params)
    mask = traj.lam >= lam_star - delta
    if not mask.any():
        return None
    best = (0.0, None)
    run_start = None
    padded = np.concatenate([mask, [False]])
    for i, flag in enumerate(padded):
        if flag and run_start is None:
            run_start = i
        elif not flag and run_start is not None:
            t0, t1 = traj.times[run_start], traj.times[i - 1]
            if t1 - t0 >= best[0]:
                best = (t1 - t0, (float(t0), float(t1)))
            run_start = None
    return best[1]


@dataclass(frozen=True)
class ForcedRegimeResult:
    """Outcome of a long run under periodic or Poisson forcing.

    ``liminf_estimate``/``limsup_estimate`` are the min/max of activity over
    the post-transient half of the run; asymptotic statements about the true
    liminf/limsup are out of reach at finite horizon.
    """

    regime: str  # "sustained" | "decaying"
    liminf_estimate: float
    limsup_estimate: float
    floor: float
    near_peak: bool
    n_events: int


def classify_forced_regime(params: ModelParams,
                           schedule: ShockSchedule,
                           horizon: float,
                           delta: float,
                           initial: SiteState = SiteState(0.01, 0.0),
                           dt: float = 1e-3,
                           record_stride: int = 10) -> ForcedRegimeResult:
    """Classify repeated forcing as sustained or decaying.

    The first half of the run is discarded as transient.  The regime is
    sustained when the minimum activity over the second half stays above
    max(10 lambda_b, 0.05 peak); that minimum is reported as the liminf
    estimate.  ``near_peak`` additionally reports whether it stays within
    ``delta`` of the peak activity.
    """
    if not isinstance(schedule, (PeriodicSchedule, PoissonSchedule)):
        raise ValueError("forced-regime classification needs a periodic or "
                         "poisson schedule")
    n_events = event_count(schedule, horizon)
    if n_events < MIN_FORCING_EVENTS:
        raise ValueError(
            f"horizon {horizon} covers only {n_events} events; "
            f"need >= {MIN_FORCING_EVENTS}")
    lam_star = required_peak_activity(params)
    traj = integrate_site(params, schedule, initial, horizon, dt=dt,
                          record_stride=record_stride)
    tail = traj.times >= horizon * TRANSIENT_FRACTION
    lam_tail = traj.lam[tail]
    floor = max(SUSTAINED_FLOOR_BASE_FACTOR * params.lambda_b,
                SUSTAINED_FLOOR_PEAK_FRACTION * lam_star)
    liminf = float(lam_tail.min())
    limsup = float(lam_tail.max())
    regime = "sustained" if liminf >= floor else "decaying"
    return ForcedRegimeResult(regime, liminf, limsup, floor,
                              liminf >= lam_star - delta, n_events)


@dataclass(frozen=True)
class HysteresisResult:
    """Fold structure of the fixed points along a base-tension sweep.

    ``alpha_b1`` is where the high-activity stable point appears,
    ``alpha_b2`` where the low-activity one disappears; ``None`` when the
    corresponding transition was not bracketed by the grid.
    """

    grid: tuple[float, ...]
    counts: tuple[int, ...]
    fold: bool
    alpha_b1: float | None
    alpha_b2: float | None
    message: str


def _n_points(params: ModelParams, alpha_b: float) -> int:
    return len(fixed_points(replace(params, alpha_b=alpha_b)))


def _refine_transition(params: ModelParams, lo: float, hi: float) -> float:
    """Bisect the boundary of the three-intersection region in alpha_b."""
    return _bisect_predicate(lambda v: _n_points(params, v) >= 3, lo, hi,
                             1e-6)


def hysteresis_sweep(params: ModelParams,
                     alpha_b_grid) -> HysteresisResult:
    """Sweep the base tension and locate the bistable fold, if any.

    Runs the fixed-point solver per grid value; the two thresholds are
    bracketed at grid resolution and refined by bisection to 1e-6.
    """
    grid = [float(v) for v in alpha_b_grid]
    if len(grid) < 2:
        raise ValueError("alpha_b grid needs at least two points to bracket"
                         " a fold")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha_b grid must be strictly increasing")
    counts = [_n_points(params, v) for v in grid]
    multi = [c >= 3 for c in counts]
    if not any(multi):
        return HysteresisResult(tuple(grid), tuple(counts), False, None,
                                None, "no fold")
    first = multi.index(True)
    last = len(multi) - 1 - multi[::-1].index(True)
    alpha_b1 = (_refine_transition(params, grid[first - 1], grid[first])
                if first > 0 else None)
    alpha_b2 = (_refine_transition(params, grid[last], grid[last + 1])
                if last + 1 < len(grid) else None)
    message = "fold"
    if alpha_b1 is None or alpha_b2 is None:
        message = "fold partially bracketed by grid"
    return HysteresisResult(tuple(grid), tuple(counts), True, alpha_b1,
                            alpha_b2, message)


def save_trajectory(traj: Trajectory, path) -> None:
    """Write columnar text, header row then (t, lambda, alpha, shock_flag),
    and its schema sidecar."""
    flags = np.zeros(traj.times.size, dtype=np.int8)
    flags[traj.shock_marks] = 1
    write_table(path, ("t", "lambda", "alpha", "shock_flag"),
                ("%.17g", "%.17g", "%.17g", "%d"),
                (traj.times, traj.lam, traj.alpha, flags),
                "single-site trajectory; shock_flag marks tension jumps")


def load_trajectory(path, params: ModelParams) -> Trajectory:
    """Read a trajectory written by :func:`save_trajectory`."""
    data = np.loadtxt(path, skiprows=1, ndmin=2)
    marks = np.nonzero(data[:, 3] > 0.5)[0]
    return Trajectory(data[:, 0], data[:, 1], data[:, 2], marks, params)
