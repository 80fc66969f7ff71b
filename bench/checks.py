"""Checks on what each benchmark operation wrote.

Every check reads the run's data files (or its summary.json) and compares
them with a computation made here, from the model equations as the README
states them, or with a property the method must have.  None compares with a
stored copy of an earlier output.  A check returns None when it passes and
a one-line reason when it fails.
"""
from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np


def load_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, skiprows=1, ndmin=2)


@dataclass
class RunOutput:
    """A finished operation: resolved config, summary and run directory."""

    resolved: dict
    out_dir: Path
    _tables: dict = field(default_factory=dict, repr=False)

    @property
    def summary(self) -> dict:
        return self.table("summary.json")

    @property
    def params(self) -> dict:
        return self.resolved["params"]

    def table(self, name: str):
        if name not in self._tables:
            path = self.out_dir / name
            self._tables[name] = (json.loads(path.read_text())
                                  if name.endswith(".json")
                                  else load_table(path))
        return self._tables[name]


# ----------------------------------------------------------------------
# the model's nonlinearities, written out from the README
# ----------------------------------------------------------------------

def _r(alpha, p):
    return 1.0 / (1.0 + np.exp(-p["beta"] * (np.asarray(alpha) - p["a"])))


def _h(lam, p):
    lam = np.asarray(lam, dtype=float)
    if p["decay_form"] == "power":
        return p["theta"] * (1.0 + lam / p["lambda1"]) ** (-p["p"])
    return p["theta"] * np.exp(-p["p"] * lam)


def _g(lam, p):
    return lam * (p["z0"] - lam)


def _peak(p) -> float:
    """Peak activity z0 - omega of the default forms with lambda_b = 0."""
    if p["lambda_b"] != 0.0:
        raise ValueError("the closed-form peak needs lambda_b = 0")
    return p["z0"] - p["omega"]


# ----------------------------------------------------------------------
# single site
# ----------------------------------------------------------------------

def activity_ceiling(run: RunOutput):
    """Activity never exceeds the peak z0 - omega."""
    cap = _peak(run.params)
    if (run.out_dir / "trajectory.txt").exists():
        top = float(run.table("trajectory.txt")[:, 1].max())
    else:
        top = float(run.summary["limsup_estimate"])
    if top > cap * (1.0 + 1e-9):
        return f"activity {top!r} above the peak {cap!r}"
    return None


def _closed_form_error(t, h, alpha, every: int) -> float:
    """Largest gap, at every other sample, between the tension and
    alpha(t0) exp(-int h), the integral by the trapezoid rule over every
    ``every``-th sample."""
    ts, hs = t[::every], h[::every]
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * (hs[1:] + hs[:-1]) * np.diff(ts))])
    predicted = alpha[0] * np.exp(-integral)
    step = 2 // every
    return float(np.max(np.abs(alpha[::2] - predicted[::step])))


def tension_closed_form(run: RunOutput):
    """With alpha_b = 0 the tension obeys alpha(t) = alpha(t_s)
    exp(-int_{t_s}^t h(lam)) between shocks.  The integral is taken from
    the written samples, so its error is second order in their spacing: the
    gap must at least halve when the spacing halves, or sit at roundoff."""
    p = run.params
    if p["alpha_b"] != 0.0:
        raise ValueError("the closed form needs alpha_b = 0")
    t, lam, alpha, flag = run.table("trajectory.txt").T
    starts = [0] + [int(i) for i in np.nonzero(flag > 0.5)[0] if i > 0]
    ends = starts[1:] + [t.size]
    h = _h(lam, p)
    for a, b in zip(starts, ends):
        if b - a < 5:
            continue
        fine = _closed_form_error(t[a:b], h[a:b], alpha[a:b], 1)
        coarse = _closed_form_error(t[a:b], h[a:b], alpha[a:b], 2)
        if fine > max(0.5 * coarse, 1e-10 * alpha[a]):
            return (f"tension off its closed form after t={t[a]:.6g}: gap "
                    f"{fine:.3g} at the written spacing, {coarse:.3g} at "
                    "twice it")
    return None


def relaxes(run: RunOutput):
    """Relaxation presets settle to the rest state (0, 0) and stay within
    eps of it from the reported time on."""
    p = run.params
    if p["alpha_b"] != 0.0 or p["lambda_b"] != 0.0:
        raise ValueError("the rest state (0, 0) needs alpha_b = lambda_b = 0")
    eps = float(run.resolved["experiment"]["eps"])
    at = run.summary.get("relaxed_at")
    if at is None:
        return "summary reports no relaxation"
    t, lam, alpha, _ = run.table("trajectory.txt").T
    after = t >= at
    if not after.any() or lam[after].max() > eps or alpha[after].max() > eps:
        return f"state leaves the eps={eps} rest neighbourhood after t={at}"
    return None


def ignites_after(t_ignite: float):
    """The burst waits for the event at ``t_ignite``: activity stays below a
    tenth of the peak before it and comes within a tenth of the peak after."""
    def ignites_after(run: RunOutput):
        peak = _peak(run.params)
        t, lam, _, _ = run.table("trajectory.txt").T
        before = lam[t < t_ignite].max()
        after = lam[t >= t_ignite].max()
        if before >= 0.1 * peak or after < 0.9 * peak:
            return (f"max activity {before:.4g} before t={t_ignite} and "
                    f"{after:.4g} after, peak {peak:.4g}")
        return None
    return ignites_after


def sustained(run: RunOutput):
    """High-frequency forcing keeps activity above 0.05 of the peak."""
    s = run.summary
    floor = 0.05 * _peak(run.params)
    if s["regime"] != "sustained" or s["liminf_estimate"] < floor:
        return (f"regime {s['regime']} with liminf {s['liminf_estimate']:.4g}"
                f" against the floor {floor:.4g}")
    return None


def _root_count(p: dict, alpha_b: float, samples: int = 30001) -> int:
    """Sign changes of the activity rate along the tension nullcline."""
    lam = np.linspace(0.0, 1.5 * p["z0"], samples)
    alpha = p["theta"] * alpha_b / _h(lam, p)
    f = -p["omega"] * (lam - p["lambda_b"]) + _r(alpha, p) * _g(lam, p)
    return int((np.sign(f[1:]) != np.sign(f[:-1])).sum())


def hysteresis_fixed_points(run: RunOutput):
    """Each swept fixed point, as ``riotdyn.model.fixed_points`` returns
    it, lies on both nullclines; the counts written per grid value match an
    independent sign scan; the scan's count changes across both fold edges."""
    model = importlib.import_module("riotdyn.model")
    base = model.ModelParams(**run.params)
    p = run.params
    table = run.table("hysteresis.txt")
    for alpha_b, count in table:
        points = model.fixed_points(replace(base, alpha_b=float(alpha_b)))
        for fp in points:
            lam, alpha = fp.state.lam, fp.state.alpha
            act = (-p["omega"] * (lam - p["lambda_b"])
                   + _r(alpha, p) * _g(lam, p))
            ten = p["theta"] * alpha_b - alpha * _h(lam, p)
            if abs(act) > 1e-9 or abs(ten) > 1e-9:
                return (f"fixed point ({lam:.6g}, {alpha:.6g}) at alpha_b="
                        f"{alpha_b:.4g} off the nullclines by {act:.2g}, "
                        f"{ten:.2g}")
        scanned = _root_count(p, float(alpha_b))
        if not int(count) == len(points) == scanned:
            return (f"at alpha_b={alpha_b:.4g}: {int(count)} written, "
                    f"{len(points)} returned, {scanned} scanned")
    s = run.summary
    if not s["fold"] or s["alpha_b1"] is None or s["alpha_b2"] is None:
        return "no fully bracketed fold at beta=6"
    for edge in (s["alpha_b1"], s["alpha_b2"]):
        if _root_count(p, edge - 1e-4) == _root_count(p, edge + 1e-4):
            return f"the fixed-point count does not change at {edge:.6g}"
    return None


# ----------------------------------------------------------------------
# continuum
# ----------------------------------------------------------------------

def _fields(run: RunOutput):
    """(times, x, lam, alpha) of a 1-D fields.txt, snapshots as rows."""
    data = run.table("fields.txt")
    n = int(run.resolved["grid"]["cells"])
    return (data[::n, 0], data[:n, 1], data[:, 2].reshape(-1, n),
            data[:, 3].reshape(-1, n))


def fields_nonnegative(run: RunOutput):
    _, _, lam, alpha = _fields(run)
    low = min(lam.min(), alpha.min())
    return None if low >= 0.0 else f"negative field value {low!r}"


def _initial_mass(spec: dict, length: float) -> float:
    if spec["kind"] == "zero":
        return 0.0
    if spec["kind"] == "uniform":
        return float(spec["value"]) * length
    raise ValueError(f"no closed-form mass for a {spec['kind']} field")


def tension_mass_at_start(run: RunOutput):
    """Tension mass of the first snapshot = initial mass + the amplitudes of
    the shocks at t = 0."""
    _, x, _, alpha = _fields(run)
    length = float(run.resolved["grid"]["length"])
    dx = length / x.size
    expected = (_initial_mass(run.resolved["initial"]["alpha_field"], length)
                + sum(float(s["amplitude"])
                      for s in run.resolved["schedule"]["shocks"]
                      if float(s["time"]) <= 0.0))
    mass = float(alpha[0].sum() * dx)
    if abs(mass - expected) > 1e-9 * max(1.0, expected):
        return f"tension mass {mass!r} at t=0, expected {expected!r}"
    return None


def activity_cap(run: RunOutput):
    """Activity stays at or below max(z0 - kappa, max lam0)."""
    p = run.params
    _, _, lam, _ = _fields(run)
    cap = max(p["z0"] - (p["omega"] - p["eta"]), float(lam[0].max()))
    top = float(lam.max())
    if top > cap * (1.0 + 1e-9):
        return f"activity {top!r} above the cap {cap!r}"
    return None


def _front_speed(times, x, lam, threshold: float) -> float:
    """Least-squares speed of the rightmost level crossing over the final
    third of the snapshots that have one."""
    dx = x[1] - x[0]
    pos = np.full(times.size, np.nan)
    for i, profile in enumerate(lam):
        above = np.nonzero(profile >= threshold)[0]
        if above.size == 0:
            continue
        j = int(above[-1])
        if j == profile.size - 1:
            pos[i] = x[-1]
            continue
        drop = profile[j] - profile[j + 1]
        frac = (profile[j] - threshold) / drop if drop > 0 else 0.0
        pos[i] = x[j] + frac * dx
    have = np.nonzero(np.isfinite(pos))[0]
    sel = have[int(math.floor(have.size * (1.0 - 1.0 / 3.0))):]
    return float(np.polyfit(times[sel], pos[sel], 1)[0])


def front_speed(run: RunOutput):
    """The invasion front moves right at a speed that agrees within 5% when
    read at 0.3 and at 0.5 of the peak, and the reported speed is the 0.5
    one."""
    peak = _peak(run.params)
    times, x, lam, _ = _fields(run)
    half = _front_speed(times, x, lam, 0.5 * peak)
    third = _front_speed(times, x, lam, 0.3 * peak)
    reported = run.summary["speed"]
    if not (half > 0.0 and abs(half - third) <= 0.05 * half):
        return f"front speeds {half:.5g} (0.5 peak) and {third:.5g} (0.3 peak)"
    if reported is None or abs(reported - half) > 1e-6 * half:
        return f"reported speed {reported} against {half:.8g} recomputed"
    return None


def steady_state_residuals(run: RunOutput):
    """The reported constant states solve r(alpha) G(lam) = kappa lam and
    theta alpha_b = (h(lam) - eta) alpha, and the rest state is unstable
    (monostable): r(alpha_1) z0 + eta > h(0) + kappa."""
    p = run.params
    kappa = p["omega"] - p["eta"]
    states = run.summary["states"]
    if len(states) < 2:
        return f"{len(states)} constant states reported"
    for alpha, lam in states:
        act = float(_r(alpha, p) * _g(lam, p) - kappa * lam)
        ten = float(p["theta"] * p["alpha_b"]
                    - (_h(lam, p) - p["eta"]) * alpha)
        if abs(act) > 1e-8 or abs(ten) > 1e-8:
            return (f"state ({alpha:.6g}, {lam:.6g}) has residuals {act:.2g}, "
                    f"{ten:.2g}")
    unstable = (float(_r(states[0][0], p)) * p["z0"] + p["eta"]
                > float(_h(0.0, p)) + kappa)
    label = run.summary["classification"]
    if label != ("monostable" if unstable else "bistable"):
        return f"classified {label}, rest-state instability is {unstable}"
    return None


def reported_peak_order(run: RunOutput):
    """The bump's peak violation fractions that the program reports in
    summary.json are below 5%."""
    s = run.summary
    p, t = s["p_violation_fraction"], s["t_violation_fraction"]
    if not (p < 0.05 and t < 0.05):
        return (f"reported peak-height violations {p:.1%}, peak-time "
                f"violations {t:.1%}")
    return None


def peak_order(run: RunOutput):
    """Peak height falls and peak time rises with distance from the deposit.

    The reference point is the centre of the cell that holds the deposit,
    read from the output: the tension starts at zero, so it is the cell with
    the largest tension at t = 0.  Cells a whole number k of cells away form
    shell k (a mirror pair, or one cell past a wall).  Between consecutive
    shells the lowest peak of the nearer one must be at least the highest of
    the farther one, to roundoff, and the latest peak time of the nearer one
    at most the earliest of the farther one plus a sample interval, since
    peak times are read at the samples.  Fewer than 5% of the shell pairs may
    break either order."""
    times, x, lam, alpha = _fields(run)
    if run.resolved["initial"]["alpha_field"]["kind"] != "zero":
        raise ValueError("the deposit cell is read off a zero initial tension")
    dx = x[1] - x[0]
    shell = np.rint(np.abs(x - x[int(np.argmax(alpha[0]))]) / dx).astype(int)
    peaks = lam.max(axis=0)
    peak_times = times[lam.argmax(axis=0)]
    shells = range(int(shell.max()) + 1)
    low = np.array([peaks[shell == k].min() for k in shells])
    high = np.array([peaks[shell == k].max() for k in shells])
    first = np.array([peak_times[shell == k].min() for k in shells])
    last = np.array([peak_times[shell == k].max() for k in shells])
    pairs = max(len(shells) - 1, 1)
    rises = (high[1:] - low[:-1] > 1e-9 * peaks.max()).sum() / pairs
    sample = float(np.median(np.diff(times)))
    earlier = (first[1:] - last[:-1] < -sample).sum() / pairs
    if rises >= 0.05 or earlier >= 0.05:
        return (f"peak height rises with distance in {rises:.1%} of shell "
                f"pairs, peak time falls in {earlier:.1%}")
    return None


def mirror_symmetric(run: RunOutput):
    """A centred shock on a symmetric field keeps both fields symmetric."""
    _, _, lam, alpha = _fields(run)
    for name, u in (("activity", lam), ("tension", alpha)):
        gap = float(np.abs(u - u[:, ::-1]).max())
        if gap > 1e-9 * float(np.abs(u).max()):
            return f"{name} differs from its mirror image by {gap:.3g}"
    return None


# ----------------------------------------------------------------------
# network
# ----------------------------------------------------------------------

def scan_regimes(run: RunOutput):
    """Criterion 7's regimes: contained / local / nonlocal at A = 2 / 6 / 10,
    monotone, with the spread bracket in [2, 6] and the nonlocal one in
    [6, 10]."""
    s = run.summary
    rows = (run.out_dir / "threshold_scan.txt").read_text().split("\n")[1:]
    written = [tuple(r.split()) for r in rows if r]
    expected = [("2", "contained"), ("6", "local"), ("10", "nonlocal")]
    if [(f"{float(a):g}", r) for a, r in written] != expected:
        return f"written regimes {written}"
    if s["regimes"] != [r for _, r in expected] or not s["monotonic"]:
        return f"summary regimes {s['regimes']}, monotonic {s['monotonic']}"
    for name, (lo, hi) in (("spread_bracket", (2.0, 6.0)),
                           ("nonlocal_bracket", (6.0, 10.0))):
        b = s[name]
        if b is None or not lo <= b[0] < b[1] <= hi:
            return f"{name} {b} outside [{lo}, {hi}]"
    return None


def _network(run: RunOutput):
    """(lam, alpha) of network.txt as (samples, nodes) arrays."""
    data = run.table("network.txt")
    net = run.resolved["network"]
    n = int(net["rows"]) * int(net["cols"])
    return data[:, 2].reshape(-1, n), data[:, 3].reshape(-1, n)


def network_nonnegative(run: RunOutput):
    lam, alpha = _network(run)
    low = min(lam.min(), alpha.min())
    return None if low >= 0.0 else f"negative node state {low!r}"


def hub_tension_at_start(run: RunOutput):
    """The hub's tension at t = 0 is alpha0 plus the shock amplitude."""
    _, alpha = _network(run)
    hub = int(run.resolved["network"]["hub"])
    expected = float(run.resolved["initial"]["alpha0"]) + sum(
        float(s["amplitude"]) for s in run.resolved["schedule"]["shocks"]
        if float(s["time"]) <= 0.0 and int(s["site"]) == hub)
    got = float(alpha[0, hub])
    if abs(got - expected) > 1e-12 * max(1.0, expected):
        return f"hub tension {got!r} at t=0, expected {expected!r}"
    return None


def transpose_symmetric(run: RunOutput):
    """On a square grid with the hub on the diagonal, the transposition
    (r, c) -> (c, r) fixes the graph and the shock, so it fixes the fields
    (to 1e-9 of their largest value; exact today)."""
    net = run.resolved["network"]
    rows, cols = int(net["rows"]), int(net["cols"])
    if rows != cols or int(net["hub"]) % (cols + 1) != 0:
        raise ValueError("transposition symmetry needs a diagonal hub")
    perm = np.array([c * cols + r for r in range(rows) for c in range(cols)])
    for name, u in zip(("activity", "tension"), _network(run)):
        gap = float(np.abs(u - u[:, perm]).max())
        if gap > 1e-9 * float(np.abs(u).max()):
            return f"{name} breaks the transposition symmetry by {gap:.3g}"
    return None


def network_row_count(run: RunOutput):
    """network.txt has one row per node per recorded sample: the start, every
    output_stride-th step and the last step."""
    num = run.resolved["numerics"]
    net = run.resolved["network"]
    n = int(net["rows"]) * int(net["cols"])
    steps = max(1, int(math.ceil(float(num["t_end"]) / float(num["dt"])
                                 - 1e-9)))
    stride = int(num["output_stride"])
    samples = 1 + steps // stride + (1 if steps % stride else 0)
    data = run.table("network.txt")
    times = np.unique(data[:, 0])
    if data.shape[0] != samples * n or times.size != samples:
        return (f"{data.shape[0]} rows at {times.size} times, expected "
                f"{samples} samples x {n} nodes")
    return None
