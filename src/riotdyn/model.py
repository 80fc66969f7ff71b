"""Core model: parameters, nonlinearities, and phase-plane analysis.

The dynamics everywhere in this package couple an observable *activity*
level ``lam`` with an implicit *social tension* ``alpha``:

    d(lam)/dt   = -omega (lam - lambda_b) + r(alpha) G(lam)    =: activity_rate
    d(alpha)/dt = theta alpha_b - alpha h(lam)                 =: tension_rate

with three ingredient functions

    G(z)      = z (z0 - z)                    saturating self-reinforcement
    r(alpha)  = 1 / (1 + exp(-beta (alpha - a)))   tension-gated switch
    h(lam)    = theta (1 + lam/lambda1)^(-p)  or  theta exp(-p lam)

The three forms are fixed.  This module also houses the phase-plane
machinery: nullclines, fixed points with stability, the peak sustainable
activity and the tension threshold at which the activity nullcline lifts
off zero.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoExcitedStateError

__all__ = [
    "ModelParams",
    "SiteState",
    "FixedPoint",
    "ExcitabilityReport",
    "self_reinforcement",
    "transition_rate",
    "tension_decay_rate",
    "activity_rate",
    "tension_rate",
    "self_reinforcement_arr",
    "transition_rate_arr",
    "tension_decay_rate_arr",
    "peak_activity",
    "required_peak_activity",
    "tension_threshold",
    "activity_nullcline",
    "tension_nullcline",
    "fixed_points",
    "check_excitability",
]

# Root finding: uniform sign scan followed by bisection.
SCAN_SAMPLES = 2048
ROOT_TOL = 1e-12
# Eigenvalue real parts closer to zero than this are reported as marginal.
EIGEN_TOL = 1e-9

DECAY_FORMS = ("power", "exponential")


@dataclass(frozen=True)
class ModelParams:
    """Scalar constants of the activity/tension model.

    Defaults are the workhorse single-site set used throughout the tests
    (omega=0.4, z0=2, beta=3, a=1, theta=0.7, p=0.7).

    omega       decay rate of activity toward its base level (>= 0)
    theta       decay rate of tension, h(0) = theta (>= 0)
    p           influence of activity on the tension decay (usually (0, 1])
    lambda1     activity scale in the power decay form (> 0)
    beta        sharpness of the relaxed/excited transition (> 0)
    a           critical tension, midpoint of the transition (>= 0)
    z0          activity capacity, G vanishes there (> 0)
    lambda_b    base activity level (>= 0)
    alpha_b     base tension level (>= 0)
    eta         coupling strength toward neighbors (>= 0, spatial runs)
    eta_alpha   optional separate strength for the tension coupling on
                networks; None means "same as eta"
    sigma       multiplicative noise amplitude (>= 0, stochastic runs)
    decay_form  "power" for theta (1+lam/lambda1)^-p, "exponential"
                for theta exp(-p lam)
    """

    omega: float = 0.4
    theta: float = 0.7
    p: float = 0.7
    lambda1: float = 1.0
    beta: float = 3.0
    a: float = 1.0
    z0: float = 2.0
    lambda_b: float = 0.0
    alpha_b: float = 0.0
    eta: float = 0.0
    eta_alpha: float | None = None
    sigma: float = 0.0
    decay_form: str = "power"

    def __post_init__(self) -> None:
        for name in ("omega", "theta", "a", "lambda_b", "alpha_b", "eta",
                     "sigma"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        for name in ("beta", "z0", "lambda1"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not math.isfinite(self.p):
            raise ValueError(f"p must be finite, got {self.p}")
        if self.eta_alpha is not None and (
                not math.isfinite(self.eta_alpha) or self.eta_alpha < 0.0):
            raise ValueError(
                f"eta_alpha must be finite and >= 0, got {self.eta_alpha}")
        if self.decay_form not in DECAY_FORMS:
            raise ValueError(
                f"decay_form must be one of {DECAY_FORMS}, got {self.decay_form!r}")

    @property
    def kappa(self) -> float:
        """Net decay rate omega - eta of activity under spatial coupling."""
        return self.omega - self.eta

    @property
    def tension_coupling(self) -> float:
        """Strength of the tension coupling on networks: eta_alpha, or eta
        when it is None."""
        return self.eta if self.eta_alpha is None else self.eta_alpha


@dataclass(frozen=True)
class SiteState:
    """Activity and tension at a single site."""

    lam: float
    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and math.isfinite(self.alpha)):
            raise ValueError("state components must be finite")
        if self.lam < 0.0 or self.alpha < 0.0:
            raise ValueError("state components must be nonnegative")


def self_reinforcement(z: float, params: ModelParams) -> float:
    """G(z) = z (z0 - z): positive on (0, z0), zero at 0 and z0."""
    if not math.isfinite(z):
        raise ValueError(f"activity must be finite, got {z}")
    return z * (params.z0 - z)


def transition_rate(alpha: float, params: ModelParams) -> float:
    """r(alpha) = 1/(1 + exp(-beta (alpha - a))): fraction of the
    self-reinforcement that is active at tension ``alpha``."""
    if not math.isfinite(alpha):
        raise ValueError(f"tension must be finite, got {alpha}")
    x = -params.beta * (alpha - params.a)
    # exp overflow guard: the sigmoid saturates well before x = +-700
    if x > 700.0:
        return 0.0
    if x < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(x))


def tension_decay_rate(lam: float, params: ModelParams) -> float:
    """h(lam): tension decay rate, slowed down by high activity (p > 0).

    Power form theta (1 + lam/lambda1)^-p or exponential form
    theta exp(-p lam), selected by ``params.decay_form``; h(0) = theta.
    """
    if params.decay_form == "power":
        # ValueError below lam = -lambda1, where ** would turn complex
        return params.theta * math.pow(1.0 + lam / params.lambda1, -params.p)
    return params.theta * math.exp(-params.p * lam)


def activity_rate(lam: float, alpha: float, params: ModelParams) -> float:
    """Reaction term of the activity equation:
    -omega (lam - lambda_b) + r(alpha) G(lam)."""
    return (-params.omega * (lam - params.lambda_b)
            + transition_rate(alpha, params) * self_reinforcement(lam, params))


def tension_rate(lam: float, alpha: float, params: ModelParams) -> float:
    """Reaction term of the tension equation: theta alpha_b - alpha h(lam)."""
    return params.theta * params.alpha_b - alpha * tension_decay_rate(lam, params)


def self_reinforcement_arr(z: np.ndarray, params: ModelParams,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise G over an array of activities, written into ``out`` when
    it is given."""
    z = np.asarray(z, dtype=float)
    g = np.subtract(params.z0, z, out=out)
    g *= z
    return g


def transition_rate_arr(alpha: np.ndarray, params: ModelParams,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise r over an array of tensions, written into ``out`` when it
    is given; the exponent is clipped to [-700, 700]."""
    alpha = np.asarray(alpha, dtype=float)
    x = np.subtract(alpha, params.a, out=out)
    x *= -params.beta
    x = np.exp(np.minimum(np.maximum(x, -700.0, out=out), 700.0, out=out),
               out=out)
    x += 1.0
    return np.divide(1.0, x, out=out)


def tension_decay_rate_arr(lam: np.ndarray, params: ModelParams,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise h over an array of activities, written into ``out`` when
    it is given."""
    lam = np.asarray(lam, dtype=float)
    if params.decay_form == "power":
        h = np.divide(lam, params.lambda1, out=out)
        h += 1.0
        h **= -params.p
    else:
        h = np.exp(np.multiply(lam, -params.p, out=out), out=out)
    h *= params.theta
    return h


def _bisect(f: Callable[[float], float], lo: float, hi: float,
            tol: float = ROOT_TOL) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) < tol:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisect_predicate(pred: Callable[[float], bool], lo: float, hi: float,
                      tol: float) -> float:
    """Where ``pred`` changes value on [lo, hi], taking ``pred(hi)`` to
    differ from ``pred(lo)``: the midpoint of a bracket bisected to at most
    ``tol`` wide."""
    at_lo = pred(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid) == at_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scan_roots(f: Callable[[float], float], lo: float, hi: float,
                samples: int = SCAN_SAMPLES) -> list[float]:
    """Roots of f on [lo, hi] by uniform sign scan + bisection.

    An exact (or near-exact) zero at a sample point is kept as a root;
    sign changes between samples are refined by bisection.
    """
    xs = [lo + (hi - lo) * i / samples for i in range(samples + 1)]
    fs = [f(x) for x in xs]
    roots: list[float] = []
    atol = 1e-13 * max(1.0, max(abs(v) for v in fs))
    for i, (x, fx) in enumerate(zip(xs, fs)):
        if abs(fx) <= atol:
            if not roots or abs(x - roots[-1]) > (hi - lo) / samples:
                roots.append(x)
            continue
        if i + 1 <= samples and abs(fs[i + 1]) > atol:
            if (fx < 0.0) != (fs[i + 1] < 0.0):
                roots.append(_bisect(f, x, xs[i + 1]))
    return roots


def peak_activity(params: ModelParams) -> float | None:
    """Largest sustainable activity: the positive root of -omega z + G(z),
    z0 - omega in closed form.  Returns ``None`` when omega >= G'(0) = z0
    and no positive root exists (no excited state).
    """
    if params.z0 <= params.omega:
        return None
    return params.z0 - params.omega


def required_peak_activity(params: ModelParams) -> float:
    """:func:`peak_activity`, or NoExcitedStateError where there is none."""
    lam_star = peak_activity(params)
    if lam_star is None:
        raise NoExcitedStateError("parameters admit no excited state")
    return lam_star


def tension_threshold(params: ModelParams) -> float:
    """Tension alpha_c at which the activity nullcline lifts off zero,
    solving r(alpha_c) = omega / G'(0).

    Returns ``-inf`` when the system is excitable at any tension
    (omega/G'(0) <= r at all alpha) and ``+inf`` when it is never excitable.
    """
    gp0 = params.z0                     # G'(0)
    if params.omega >= gp0:
        return math.inf
    rc = params.omega / gp0
    if rc <= 0.0:
        return -math.inf
    # sigmoid inversion: a - ln(G'(0)/omega - 1)/beta
    return params.a - math.log(1.0 / rc - 1.0) / params.beta


def activity_nullcline(alpha: float, params: ModelParams) -> float:
    """Largest nonnegative root of the activity reaction at fixed tension.

    For lambda_b = 0 this is max(0, z0 - omega/r(alpha)); it increases from
    0 at the tension threshold up to the peak activity as alpha grows.  For
    lambda_b > 0 it is the positive root of r lam^2 - b lam - omega lambda_b
    with b = r z0 - omega.
    """
    r = transition_rate(alpha, params)
    c = params.omega * params.lambda_b
    if c > 0.0:
        # either form of the root, whichever has no cancellation
        b = r * params.z0 - params.omega
        root = math.sqrt(b * b + 4.0 * r * c)
        return (b + root) / (2.0 * r) if b > 0.0 else 2.0 * c / (root - b)
    if r <= params.omega / params.z0:
        return 0.0
    return max(0.0, params.z0 - params.omega / r)


def tension_nullcline(lam: float, params: ModelParams) -> float:
    """Tension at which the tension equation is stationary for fixed
    activity: alpha = theta alpha_b / h(lam)."""
    return params.theta * params.alpha_b / tension_decay_rate(lam, params)


@dataclass(frozen=True)
class FixedPoint:
    """An intersection of the two nullclines with its linear stability."""

    state: SiteState
    stability: str  # "stable" | "unstable" | "saddle" | "marginal"
    eigenvalues: tuple[complex, complex]


def _jacobian(lam: float, alpha: float, params: ModelParams):
    """Analytic Jacobian of (activity_rate, tension_rate) at a state."""
    r = transition_rate(alpha, params)
    dG = params.z0 - 2.0 * lam
    drdalpha = params.beta * r * (1.0 - r)
    h = tension_decay_rate(lam, params)
    if params.decay_form == "power":
        dhdlam = (-params.p / params.lambda1) * params.theta * (
            1.0 + lam / params.lambda1) ** (-params.p - 1.0)
    else:
        dhdlam = -params.p * h
    return ((-params.omega + r * dG,
             drdalpha * self_reinforcement(lam, params)),
            (-alpha * dhdlam, -h))


def _classify(jac) -> tuple[str, tuple[complex, complex]]:
    (j11, j12), (j21, j22) = jac
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    disc = tr * tr / 4.0 - det
    if disc >= 0.0:
        root = math.sqrt(disc)
        eigs = (complex(tr / 2.0 + root), complex(tr / 2.0 - root))
    else:
        root = math.sqrt(-disc)
        eigs = (complex(tr / 2.0, root), complex(tr / 2.0, -root))
    re1, re2 = eigs[0].real, eigs[1].real
    if abs(re1) <= EIGEN_TOL or abs(re2) <= EIGEN_TOL:
        return "marginal", eigs
    if re1 < 0.0 and re2 < 0.0:
        return "stable", eigs
    if re1 > 0.0 and re2 > 0.0:
        return "unstable", eigs
    return "saddle", eigs


def fixed_points(params: ModelParams,
                 samples: int = SCAN_SAMPLES) -> list[FixedPoint]:
    """All intersections of the activity and tension nullclines.

    The tension equation is stationary exactly on alpha = theta alpha_b /
    h(lam), so intersections reduce to a 1-D root problem in lam, solved by
    sign scanning [0, 1.5 z0] with ``samples`` points and bisection.
    Stability is classified from the Jacobian eigenvalues; a real part
    within ``EIGEN_TOL`` of zero is reported as "marginal".
    """
    def f(lam: float) -> float:
        return activity_rate(lam, tension_nullcline(lam, params), params)

    roots = _scan_roots(f, 0.0, 1.5 * params.z0, samples)
    points = []
    for lam in roots:
        lam = max(0.0, lam)
        alpha = tension_nullcline(lam, params)
        stability, eigs = _classify(_jacobian(lam, alpha, params))
        points.append(FixedPoint(SiteState(lam, max(0.0, alpha)), stability, eigs))
    points.sort(key=lambda fp: fp.state.lam)
    return points


@dataclass(frozen=True)
class ExcitabilityReport:
    """Whether G'(0) r(0) < omega < G'(0) holds.

    The lower inequality makes the quiet state attracting at zero tension;
    the upper one makes a rioting state attracting at saturated tension.
    Violations are reported (and warned about), never raised: several of
    the bundled presets intentionally sit outside this regime.
    """

    quiet_state_attracting: bool   # G'(0) r(0) < omega
    excited_state_exists: bool     # omega < G'(0)
    growth_slope: float
    rest_transition: float

    @property
    def holds(self) -> bool:
        return self.quiet_state_attracting and self.excited_state_exists


def check_excitability(params: ModelParams, warn: bool = False) -> ExcitabilityReport:
    """Evaluate the excitability hypothesis, optionally emitting a warning."""
    gp0 = params.z0                     # G'(0)
    r0 = transition_rate(0.0, params)
    report = ExcitabilityReport(
        quiet_state_attracting=gp0 * r0 < params.omega,
        excited_state_exists=params.omega < gp0,
        growth_slope=gp0,
        rest_transition=r0,
    )
    if warn and not report.holds:
        warnings.warn(
            "excitability hypothesis G'(0) r(0) < omega < G'(0) violated: "
            f"G'(0)={gp0:.6g}, r(0)={r0:.6g}, omega={params.omega:.6g}",
            stacklevel=2)
    return report
