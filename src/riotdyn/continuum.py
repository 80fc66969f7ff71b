"""Method-of-lines solver for the continuum activity/tension systems.

Local form (both fields diffuse, kappa = omega - eta):

    lam_t   = D lap(lam) + r(alpha) G(lam) - kappa lam
    alpha_t = D lap(alpha) - (h(lam) - eta) alpha + theta alpha_b

Nonlocal form (tension couples through a top-hat or Gaussian interaction
kernel J instead of diffusing; the activity equation gains the base-level
source):

    lam_t   = D lap(lam) - kappa lam + r(alpha) G(lam) + omega lambda_b
    alpha_t = eta_bar * (row-normalized J) alpha - h(lam) alpha
              + theta alpha_b                       ["averaging" variant]
    alpha_t = eta_bar * (J alpha - alpha) - (h(lam) + eta_bar) alpha
              + theta alpha_b                       ["convolution" variant]

The convolution variant is implemented exactly as written above, which
subtracts the eta_bar * alpha term twice; ``drop_duplicate_decay`` switches
to the single-decay reading.  Boundaries are zero-flux (reflecting) so that
the discrete diffusion conserves mass and the mass diagnostics are
meaningful.  Spatial shocks deposit their amplitude as A / dx^dim into the
cell containing the shock location (optionally as a narrow Gaussian of
fixed physical width, which keeps refinement studies comparable).

Analyses: L1-mass decay with the two-sided exponential envelope, constant
steady states with the monostable/bistable classification, front tracking
with a least-squares speed estimate, and per-location peak statistics.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from ._core import (Stack, drive_arrays, group_events, rhs_pair, rk4,
                    write_table)
from .errors import NoExcitedStateError
from .model import (ModelParams, peak_activity,
                    self_reinforcement, self_reinforcement_arr,
                    tension_decay_rate, tension_decay_rate_arr,
                    transition_rate, transition_rate_arr)
from .shocks import Shock, ShockSchedule

__all__ = [
    "SpatialGrid",
    "FieldState",
    "NonlocalSpec",
    "PdeParams",
    "FieldTrajectory",
    "MassDecayReport",
    "SteadyStatesReport",
    "FrontReport",
    "PeakReport",
    "cfl_time_step",
    "laplacian",
    "kernel_matrix",
    "pde_rhs_local",
    "pde_rhs_nonlocal",
    "integrate_pde",
    "mass_diagnostics",
    "steady_states",
    "find_bistability_boundary",
    "track_front",
    "peak_statistics",
    "save_field_trajectory",
    "load_field_trajectory",
]

CFL_SAFETY = 0.4
MIN_CELLS = 8
FRONT_THRESHOLD_FRACTION = 0.5
SPEED_FIT_FRACTION = 1.0 / 3.0   # final third of the front samples


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid with zero-flux boundaries on a 1-D or 2-D box.

    ``lengths`` and ``cells`` are per axis; the cell size dx must be the
    same on every axis.  Cell centers sit at (i + 1/2) dx.
    """

    lengths: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lengths) not in (1, 2) or len(self.cells) != len(self.lengths):
            raise ValueError("grid must be 1-D or 2-D with matching axes")
        if any(n < MIN_CELLS for n in self.cells):
            raise ValueError(f"need at least {MIN_CELLS} cells per axis")
        dxs = [L / n for L, n in zip(self.lengths, self.cells)]
        if any(abs(d - dxs[0]) > 1e-12 * dxs[0] for d in dxs):
            raise ValueError("cell size must be uniform across axes")
        if dxs[0] <= 0.0:
            raise ValueError("cell size must be > 0")

    @property
    def dimension(self) -> int:
        return len(self.cells)

    @property
    def dx(self) -> float:
        return self.lengths[0] / self.cells[0]

    @property
    def shape(self) -> tuple[int, ...]:
        # row-major (y, x) in 2-D
        return tuple(reversed(self.cells)) if self.dimension == 2 else self.cells

    @property
    def cell_measure(self) -> float:
        return self.dx ** self.dimension

    def centers(self, axis: int = 0) -> np.ndarray:
        n = self.cells[axis]
        return (np.arange(n) + 0.5) * self.dx

    def cell_index(self, site) -> tuple[int, ...]:
        """Index of the cell containing a physical coordinate."""
        if self.dimension == 1:
            x = float(site if not isinstance(site, (tuple, list)) else site[0])
            return (int(np.clip(math.floor(x / self.dx), 0, self.cells[0] - 1)),)
        x, y = float(site[0]), float(site[1])
        ix = int(np.clip(math.floor(x / self.dx), 0, self.cells[0] - 1))
        iy = int(np.clip(math.floor(y / self.dx), 0, self.cells[1] - 1))
        return (iy, ix)


@dataclass(frozen=True)
class FieldState:
    """Activity and tension fields over the grid cells."""

    lam: np.ndarray
    alpha: np.ndarray

    def __post_init__(self) -> None:
        if self.lam.shape != self.alpha.shape:
            raise ValueError("field shapes must match")
        if not (np.isfinite(self.lam).all() and np.isfinite(self.alpha).all()):
            raise ValueError("field entries must be finite")
        if (self.lam < 0).any() or (self.alpha < 0).any():
            raise ValueError("field entries must be nonnegative")


@dataclass(frozen=True)
class NonlocalSpec:
    """Nonlocal tension coupling: strength, kernel, and variant.

    kernel: ("tophat", radius) or ("gaussian", width), with a finite
    scale > 0.
    variant "averaging" uses the row-normalized kernel as a pure inflow;
    "convolution" uses kernel-minus-identity with the extra decay term.
    """

    eta_bar: float
    kernel: tuple = ("tophat", 1.0)
    normalize: bool = True
    variant: str = "averaging"
    drop_duplicate_decay: bool = False

    def __post_init__(self) -> None:
        if self.eta_bar <= 0.0 or not math.isfinite(self.eta_bar):
            raise ValueError("eta_bar must be finite and > 0")
        if self.variant not in ("averaging", "convolution"):
            raise ValueError(f"unknown nonlocal variant {self.variant!r}")
        kind, scale = (self.kernel if isinstance(self.kernel, tuple)
                       and len(self.kernel) == 2 else (None, None))
        if kind not in ("tophat", "gaussian") or not (
                isinstance(scale, numbers.Real) and 0.0 < scale < math.inf):
            raise ValueError("kernel must be (tophat or gaussian, scale) with "
                             f"a finite scale > 0, got {self.kernel!r}")


@dataclass(frozen=True)
class PdeParams:
    """Continuum parameters: the scalar model plus diffusivity and options.

    Requires kappa = omega - eta > 0.  ``deposit`` selects how a shock's
    amplitude enters the tension field: "cell" puts A/dx^dim into one cell,
    "gaussian" spreads the same total mass over a fixed physical width.
    """

    model: ModelParams
    D: float = 1.0
    nonlocal_spec: NonlocalSpec | None = None
    deposit: str = "cell"
    deposit_width: float = 0.0

    def __post_init__(self) -> None:
        if self.D <= 0.0 or not math.isfinite(self.D):
            raise ValueError(f"diffusivity must be finite and > 0, got {self.D}")
        if self.model.kappa <= 0.0:
            raise ValueError(
                "continuum runs require kappa = omega - eta > 0, got "
                f"kappa={self.model.kappa}")
        if self.deposit not in ("cell", "gaussian"):
            raise ValueError(f"deposit must be cell or gaussian, got {self.deposit!r}")
        if self.deposit == "gaussian" and self.deposit_width <= 0.0:
            raise ValueError("gaussian deposit needs deposit_width > 0")


def cfl_time_step(grid: SpatialGrid, pp: PdeParams) -> float:
    """Largest stable explicit step: safety * dx^2 / (2 dim D)."""
    return CFL_SAFETY * grid.dx ** 2 / (2.0 * grid.dimension * pp.D)


def laplacian(u: np.ndarray, dx: float) -> np.ndarray:
    """Second-order central-difference Laplacian with zero-flux boundaries
    (an edge cell stands in for its missing neighbour), in one new array."""
    return _stencil(u, dx, u.ndim, np.empty_like(u))


def _stencil(u: np.ndarray, dx: float, ndim: int, lap: np.ndarray,
             tmp: np.ndarray | None = None) -> np.ndarray:
    """:func:`laplacian` over the last ``ndim`` axes of ``u``, written into
    ``lap``; ``tmp``, of u's shape, holds the centre term when it is given.
    The leading axes (the two fields of a stacked state) are batched."""
    if ndim == 1:
        np.add(u[..., :-2], u[..., 2:], out=lap[..., 1:-1])
        np.add(u[..., :1], u[..., 1:2], out=lap[..., :1])
        np.add(u[..., -2:-1], u[..., -1:], out=lap[..., -1:])
    else:
        np.add(u[..., :-2, :], u[..., 2:, :], out=lap[..., 1:-1, :])
        np.add(u[..., :1, :], u[..., 1:2, :], out=lap[..., :1, :])
        np.add(u[..., -2:-1, :], u[..., -1:, :], out=lap[..., -1:, :])
        lap[..., 1:] += u[..., :-1]
        lap[..., :1] += u[..., :1]
        lap[..., :-1] += u[..., 1:]
        lap[..., -1:] += u[..., -1:]
    lap -= np.multiply(u, 2.0 * ndim, out=tmp)
    lap /= dx * dx
    return lap


def kernel_matrix(grid: SpatialGrid, spec: NonlocalSpec) -> np.ndarray:
    """Quadrature matrix of the interaction kernel on the grid.

    Midpoint rule: K[i, j] = J(|x_i - x_j|) dx, zero outside the domain.
    With ``normalize`` each row is scaled to sum to one (the eta_bar / int J
    prefactor); K is built in place, in one n x n buffer.
    """
    if grid.dimension != 1:
        raise NotImplementedError("nonlocal coupling is implemented in 1-D")
    x = grid.centers()
    K = np.subtract.outer(x, x)
    np.abs(K, out=K)
    kind, scale = spec.kernel
    if kind == "tophat":
        np.less_equal(K, scale, out=K)
    else:
        K /= scale
        np.square(K, out=K)
        K *= -0.5
        np.exp(K, out=K)
    K *= grid.dx
    if spec.normalize:
        K /= K.sum(axis=1)[:, None]
    return K


def _make_rhs(grid: SpatialGrid, pp: PdeParams, K: np.ndarray | None = None):
    """The local or nonlocal RHS as ``f(y, out)``, which writes the
    derivatives at the stacked fields ``y`` (activity in row 0, tension in
    row 1) into another array ``out``.  The kernel matrix, the constants
    and the work buffers are made once here, not per call."""
    m, spec = pp.model, pp.nonlocal_spec
    D, dx, kappa, nd = pp.D, grid.dx, m.kappa, grid.dimension
    inflow = m.theta * m.alpha_b
    # the Laplacian's centre term, then two temporaries of one field
    tmp = np.empty((2,) + grid.shape)
    t1, t2 = tmp
    if spec is None:
        def rhs(y, out):
            lam, alpha = y
            dlam, dalpha = out
            _stencil(y, dx, nd, out, tmp)
            out *= D
            transition_rate_arr(alpha, m, out=t1)
            dlam += np.multiply(t1, self_reinforcement_arr(lam, m, out=t2),
                                out=t1)
            dlam -= np.multiply(lam, kappa, out=t1)
            tension_decay_rate_arr(lam, m, out=t1)
            np.subtract(t1, m.eta, out=t1)
            dalpha -= np.multiply(t1, alpha, out=t1)
            dalpha += inflow
        return rhs

    if K is None:
        K = kernel_matrix(grid, spec)
    eta_bar, source = spec.eta_bar, m.omega * m.lambda_b
    averaging = spec.variant == "averaging"
    duplicate_decay = not spec.drop_duplicate_decay

    def rhs(y, out):
        lam, alpha = y
        dlam, dalpha = out
        _stencil(y[:1], dx, 1, out[:1], tmp[:1])
        dlam *= D
        dlam -= np.multiply(lam, kappa, out=t1)
        transition_rate_arr(alpha, m, out=t1)
        dlam += np.multiply(t1, self_reinforcement_arr(lam, m, out=t2),
                            out=t1)
        dlam += source
        np.matmul(K, alpha, out=dalpha)
        if not averaging:
            dalpha -= alpha
        dalpha *= eta_bar
        tension_decay_rate_arr(lam, m, out=t1)
        if not averaging and duplicate_decay:
            np.add(t1, eta_bar, out=t1)
        dalpha -= np.multiply(t1, alpha, out=t1)
        dalpha += inflow
    return rhs


def pde_rhs_local(state: FieldState, grid: SpatialGrid,
                  pp: PdeParams) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the local-diffusion system."""
    if pp.nonlocal_spec is not None:
        pp = replace(pp, nonlocal_spec=None)
    return rhs_pair(_make_rhs(grid, pp), state.lam, state.alpha)


def pde_rhs_nonlocal(state: FieldState, grid: SpatialGrid, pp: PdeParams,
                     K: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the nonlocal-tension system."""
    if pp.nonlocal_spec is None:
        raise ValueError("nonlocal RHS needs pde params with a nonlocal spec")
    return rhs_pair(_make_rhs(grid, pp, K), state.lam, state.alpha)


@dataclass(frozen=True)
class FieldTrajectory:
    """Recorded field snapshots plus the realized shocks."""

    times: np.ndarray            # (T,)
    lam: np.ndarray              # (T, *shape)
    alpha: np.ndarray            # (T, *shape)
    shock_marks: np.ndarray
    shocks: tuple[Shock, ...]
    grid: SpatialGrid
    pde_params: PdeParams
    clamp_count: int = 0


def _deposit_field(grid: SpatialGrid, pp: PdeParams, shock: Shock,
                   alpha: np.ndarray) -> None:
    """Add a shock's mass to the tension field in place (total mass = A)."""
    if pp.deposit == "cell":
        idx = grid.cell_index(shock.site)
        alpha[idx] += shock.amplitude / grid.cell_measure
        return
    if grid.dimension == 1:
        x = grid.centers()
        x0 = float(shock.site if not isinstance(shock.site, (tuple, list))
                   else shock.site[0])
        g = np.exp(-0.5 * ((x - x0) / pp.deposit_width) ** 2)
    else:
        x = grid.centers(0)
        y = grid.centers(1)
        x0, y0 = float(shock.site[0]), float(shock.site[1])
        g = np.exp(-0.5 * (((x[None, :] - x0) ** 2 + (y[:, None] - y0) ** 2)
                           / pp.deposit_width ** 2))
    alpha += shock.amplitude * g / (g.sum() * grid.cell_measure)


def integrate_pde(pp: PdeParams, grid: SpatialGrid,
                  schedule: ShockSchedule = None,
                  initial: FieldState | None = None,
                  t_end: float = 10.0,
                  dt: float | None = None,
                  seed: int | None = None,
                  record_stride: int = 1) -> FieldTrajectory:
    """RK4 time stepping of the local or nonlocal system.

    ``dt`` defaults to the CFL bound; an explicit dt above the bound is
    rejected.  Shock times are hit exactly; the deposit is applied there
    and the post-jump snapshot recorded.
    """
    dt_max = cfl_time_step(grid, pp)
    if dt is None:
        dt = dt_max
    elif dt > dt_max * (1.0 + 1e-12):
        raise ValueError(
            f"dt={dt:.6g} violates the explicit stability bound "
            f"{dt_max:.6g} = {CFL_SAFETY} dx^2 / (2 dim D)")

    if initial is None:
        shape = grid.shape
        initial = FieldState(np.zeros(shape), np.zeros(shape))
    if initial.lam.shape != grid.shape:
        raise ValueError(
            f"initial fields must have shape {grid.shape}, got "
            f"{initial.lam.shape}")

    def jump(y, shocks):
        y = y.copy()
        for s in shocks:
            _deposit_field(grid, pp, s, y[1])
        return y

    rhs = _make_rhs(grid, pp)
    y = np.array((initial.lam, initial.alpha), dtype=float)
    clamped = np.empty_like(y)

    def stage(y, out):
        rhs(np.maximum(y, 0.0, out=clamped), out)

    events = group_events(schedule, t_end, seed)
    records = Stack()
    marks, clamps = drive_arrays(rk4(stage, y.shape), jump, y, events, t_end,
                                 dt, record_stride, records.add)
    return FieldTrajectory(*records.arrays(), marks,
                           tuple(s for _, group in events for s in group),
                           grid, pp, clamps[0])


@dataclass(frozen=True)
class MassDecayReport:
    """L1 norms over time and the exponential envelope of the tension mass.

    k1 = theta - eta and k2 = h(peak activity) - eta bound the tension-mass
    decay rate from below and above; the fitted rate is the negated slope
    of a log-linear fit after the last shock.  When k2 <= 0 the decay
    hypothesis fails and the bound check is skipped.
    """

    times: np.ndarray
    lam_mass: np.ndarray
    alpha_mass: np.ndarray
    k1: float
    k2: float
    fitted_rate: float | None
    rate_within_bounds: bool | None
    hypothesis_ok: bool
    lower_envelope: np.ndarray
    upper_envelope: np.ndarray


def mass_diagnostics(traj: FieldTrajectory) -> MassDecayReport:
    """Discrete L1 norms per snapshot plus the fitted tension-decay rate."""
    m = traj.pde_params.model
    measure = traj.grid.cell_measure
    axes = tuple(range(1, traj.lam.ndim))
    lam_mass = traj.lam.sum(axis=axes) * measure
    alpha_mass = traj.alpha.sum(axis=axes) * measure

    lam_star = peak_activity(m)
    k1 = m.theta - m.eta
    k2 = (tension_decay_rate(lam_star, m) - m.eta
          if lam_star is not None else k1)
    hypothesis_ok = k2 > 0.0

    # envelope anchored at the pre-shock initial mass plus each deposit
    t = traj.times
    shock_mass0 = sum(s.amplitude for s in traj.shocks if s.time <= 0.0)
    mass0 = float(alpha_mass[0]) - shock_mass0

    def envelope(rate: float) -> np.ndarray:
        env = mass0 * np.exp(-rate * t)
        for s in traj.shocks:
            env = env + s.amplitude * np.where(
                t >= s.time, np.exp(-rate * np.maximum(t - s.time, 0.0)), 0.0)
        return env

    lower = envelope(k1)
    upper = envelope(k2)

    fitted = None
    within = None
    t_last_shock = max((s.time for s in traj.shocks), default=0.0)
    mask = (t >= t_last_shock) & (alpha_mass > 0.0)
    if mask.sum() >= 3:
        slope = np.polyfit(t[mask], np.log(alpha_mass[mask]), 1)[0]
        fitted = float(-slope)
        if hypothesis_ok:
            within = k2 <= fitted <= k1
    return MassDecayReport(t, lam_mass, alpha_mass, k1, k2, fitted, within,
                           hypothesis_ok, lower, upper)


@dataclass(frozen=True)
class SteadyStatesReport:
    """Constant steady states (tension, activity) and the regime.

    classification is "monostable" when the non-excited state violates the
    linear stability condition r(alpha_1) G'(0) + eta <= h(0) + kappa, and
    "bistable" otherwise (the excited state is stable for the default
    forms either way).
    """

    states: tuple[tuple[float, float], ...]
    classification: str
    instability_lhs: float
    instability_rhs: float
    positivity_limit: float | None


def _tw_alpha_of_lam(lam: float, params: ModelParams) -> float:
    return params.theta * params.alpha_b / (
        tension_decay_rate(lam, params) - params.eta)


def steady_states(params: ModelParams) -> SteadyStatesReport:
    """Constant states of the traveling-front system and their regime.

    Solves r(alpha(lam)) G(lam) - kappa lam = 0 with alpha(lam) =
    theta alpha_b / (h(lam) - eta) on the range where h(lam) > eta; the
    non-excited state is (theta alpha_b / (theta - eta), 0).
    """
    if params.kappa <= 0.0:
        raise ValueError("steady states need kappa = omega - eta > 0")
    if tension_decay_rate(0.0, params) <= params.eta:
        raise ValueError(
            "tension decay positivity h(lam) > eta fails already at lam=0")

    # positivity limit: h is nonincreasing for p > 0
    hi = 1.5 * params.z0
    limit: float | None = None
    if tension_decay_rate(hi, params) <= params.eta:
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if tension_decay_rate(mid, params) > params.eta:
                lo = mid
            else:
                hi = mid
        limit = lo
    scan_hi = limit * (1.0 - 1e-9) if limit is not None else 1.5 * params.z0

    def f(lam: float) -> float:
        return (transition_rate(_tw_alpha_of_lam(lam, params), params)
                * self_reinforcement(lam, params) - params.kappa * lam)

    from .model import _scan_roots
    roots = sorted(set(round(r, 14) for r in _scan_roots(f, 0.0, scan_hi)))
    if not roots or roots[0] > 1e-12:
        roots = [0.0] + roots
    states = tuple((_tw_alpha_of_lam(lam, params), lam) for lam in roots)

    alpha1 = states[0][0]
    lhs = transition_rate(alpha1, params) * params.z0 + params.eta
    rhs = tension_decay_rate(0.0, params) + params.kappa
    classification = "monostable" if lhs > rhs else "bistable"
    return SteadyStatesReport(states, classification, lhs, rhs, limit)


def find_bistability_boundary(params: ModelParams, a_lo: float, a_hi: float,
                              tol: float = 1e-4) -> float:
    """Empirical critical tension separating monostable from bistable,
    located by bisecting the steady-state classification."""
    def bistable(a: float) -> bool:
        return steady_states(replace(params, a=a)).classification == "bistable"

    lo_b = bistable(a_lo)
    if lo_b == bistable(a_hi):
        raise ValueError("classification does not change on [a_lo, a_hi]")
    lo, hi = a_lo, a_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if bistable(mid) == lo_b:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FrontReport:
    """Front positions over time and the fitted propagation speed."""

    times: np.ndarray
    positions: np.ndarray          # NaN where no front exists
    speed: float | None
    threshold: float
    fit_window: tuple[float, float] | None
    monotonicity_violations: int   # increases ahead of the crest, last snapshot


def track_front(traj: FieldTrajectory,
                threshold: float | None = None) -> FrontReport:
    """Track the rightmost crossing of a level set in a 1-D run.

    The front position is the largest x with lam >= threshold, linearly
    interpolated between cells; the speed is the least-squares slope over
    the final third of the snapshots where a front exists.  Returns no
    estimate when the threshold is never crossed.
    """
    if traj.grid.dimension != 1:
        raise ValueError("front tracking expects a 1-D run")
    if threshold is None:
        lam_star = peak_activity(traj.pde_params.model)
        if lam_star is None:
            raise NoExcitedStateError("parameters admit no excited state; "
                                      "pass an explicit threshold")
        threshold = FRONT_THRESHOLD_FRACTION * lam_star

    x = traj.grid.centers()
    positions = np.full(traj.times.size, np.nan)
    for i, profile in enumerate(traj.lam):
        above = np.nonzero(profile >= threshold)[0]
        if above.size == 0:
            continue
        j = int(above[-1])
        if j == profile.size - 1:
            positions[i] = x[-1]
        else:
            drop = profile[j] - profile[j + 1]
            frac = (profile[j] - threshold) / drop if drop > 0 else 0.0
            positions[i] = x[j] + frac * traj.grid.dx

    finite = np.nonzero(np.isfinite(positions))[0]
    speed = None
    window = None
    if finite.size >= 3:
        start = finite[int(math.floor(finite.size * (1.0 - SPEED_FIT_FRACTION)))]
        sel = finite[finite >= start]
        if sel.size >= 2:
            speed = float(np.polyfit(traj.times[sel], positions[sel], 1)[0])
            window = (float(traj.times[sel[0]]), float(traj.times[sel[-1]]))

    violations = 0
    if finite.size:
        profile = traj.lam[finite[-1]]
        crest = int(profile.argmax())
        ahead = profile[crest:]
        tol = 1e-9 * max(1.0, float(profile.max()))
        violations = int((np.diff(ahead) > tol).sum())
    return FrontReport(traj.times, positions, speed, float(threshold),
                       window, violations)


@dataclass(frozen=True)
class PeakReport:
    """Per-location peak value and peak time, ordered by distance from the
    triggering location, with adjacent-pair monotonicity violation fractions.

    Ties within the tolerances (plateaus, simultaneous samples) do not
    count as violations.
    """

    distances: np.ndarray
    peak_values: np.ndarray
    peak_times: np.ndarray
    p_violation_fraction: float
    t_violation_fraction: float
    p_tolerance: float
    t_tolerance: float


def peak_statistics(traj: FieldTrajectory, trigger_site) -> PeakReport:
    """Peak activity p(x) and peak time t(x) versus distance to the trigger."""
    peaks = traj.lam.max(axis=0)
    peak_times = traj.times[traj.lam.argmax(axis=0)]
    if traj.grid.dimension == 1:
        x = traj.grid.centers()
        x0 = float(trigger_site if not isinstance(trigger_site, (tuple, list))
                   else trigger_site[0])
        dist = np.abs(x - x0)
        peaks = peaks.ravel()
        peak_times = peak_times.ravel()
        dist = dist.ravel()
    else:
        xc = traj.grid.centers(0)
        yc = traj.grid.centers(1)
        x0, y0 = float(trigger_site[0]), float(trigger_site[1])
        dist = np.sqrt((xc[None, :] - x0) ** 2 + (yc[:, None] - y0) ** 2).ravel()
        peaks = peaks.reshape(-1)
        peak_times = peak_times.reshape(-1)

    order = np.argsort(dist, kind="stable")
    dist, peaks, peak_times = dist[order], peaks[order], peak_times[order]

    p_tol = 1e-3 * max(float(peaks.max()), 1e-12)
    diffs = np.diff(traj.times)
    t_tol = 2.0 * float(np.median(diffs)) if diffs.size else 0.0
    n_pairs = max(peaks.size - 1, 1)
    p_viol = float((np.diff(peaks) > p_tol).sum()) / n_pairs
    t_viol = float((np.diff(peak_times) < -t_tol).sum()) / n_pairs
    return PeakReport(dist, peaks, peak_times, p_viol, t_viol, p_tol, t_tol)


def save_field_trajectory(traj: FieldTrajectory, path) -> None:
    """Write snapshots as (t, x[, y], lambda, alpha) rows, and their schema
    sidecar; in 2-D y is the outer and x the inner loop."""
    shape = traj.lam.shape
    t = np.broadcast_to(traj.times.reshape((-1,) + (1,) * (len(shape) - 1)),
                        shape)
    x = np.broadcast_to(traj.grid.centers(0), shape)
    if traj.grid.dimension == 1:
        header, coords = ("t", "x", "lambda", "alpha"), (t, x)
    else:
        y = np.broadcast_to(traj.grid.centers(1)[:, None], shape)
        header, coords = ("t", "x", "y", "lambda", "alpha"), (t, x, y)
    write_table(path, header, ("%.17g",) * len(header),
                coords + (traj.lam, traj.alpha),
                "field snapshots at the configured output stride")


def load_field_trajectory(path, grid: SpatialGrid, pp: PdeParams,
                          shocks) -> FieldTrajectory:
    """Read snapshots written by :func:`save_field_trajectory` on ``grid``;
    ``shocks`` are the run's realized shocks, which the file does not hold
    (the mass envelope needs them)."""
    data = np.loadtxt(path, skiprows=1, ndmin=2)
    shape = (-1,) + grid.shape
    return FieldTrajectory(data[::math.prod(grid.shape), 0],
                           data[:, -2].reshape(shape),
                           data[:, -1].reshape(shape),
                           np.array([], dtype=int), tuple(shocks), grid, pp)
