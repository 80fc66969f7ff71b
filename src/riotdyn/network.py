"""Coupled dynamics on a node network.

Activity diffuses along a geographic adjacency V through a normalized graph
Laplacian, while tension receives a normalized averaging inflow along a
social adjacency C (not a Laplacian: the inflow is not balanced by an
outflow term).  Per node s:

    d(lam_s)/dt   = (eta/d_V(s)) sum_j v_sj (lam_j - lam_s)
                    - omega (lam_s - lambda_b) + r(alpha_s) G(lam_s)
    d(alpha_s)/dt = (eta_a/d_C(s)) sum_j c_sj alpha_j
                    - h(lam_s) alpha_s + theta alpha_b

with eta_a = params.eta_alpha or eta.  V and C are kept as edge lists, and
no n x n array is built on the run path.  An optional multiplicative
Brownian noise sigma lam dX enters the activity equation only, stepped with
Euler-Maruyama.  Shocks are per-node tension jumps applied at exact times.

Spread analyses: per-node activation times, the contained/local/nonlocal
classification, the amplitude scan bracketing the two spreading thresholds,
and the two-center delayed-reignition experiment.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ._core import Stack, drive_arrays, group_events, rk4, write_table
from .model import (ModelParams, peak_activity, required_peak_activity,
                    self_reinforcement_arr, tension_decay_rate,
                    tension_decay_rate_arr, transition_rate_arr)
from .shocks import ExplicitSchedule, Shock, ShockSchedule, check_node_site

__all__ = [
    "Graph",
    "NetworkState",
    "NetworkTrajectory",
    "SpreadReport",
    "ThresholdScan",
    "DelayReport",
    "grid_graph",
    "graph_from_edge_lists",
    "network_rhs",
    "integrate_network",
    "activation_times",
    "classify_spread",
    "double_threshold_scan",
    "delay_experiment",
    "save_network_trajectory",
]

ACTIVATION_FRACTION = 0.2   # default threshold_fraction for activation


@dataclass(frozen=True)
class Graph:
    """Node set with geographic adjacency V and social adjacency C (a pair
    (s, j) of C: node s listens to node j), kept as (rows, cols) edge lists
    sorted row-major: the order of ``np.nonzero`` on the dense matrix, in
    which every per-node sum adds its terms.  Ids must be integers in
    [0, n), with no self-loops or repeats, and V must be symmetric (else
    ValueError).
    """

    n: int
    edges_geo: tuple[np.ndarray, np.ndarray]
    edges_social: tuple[np.ndarray, np.ndarray]
    positions: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.n
        for name in ("edges_geo", "edges_social"):
            rows, cols = (np.asarray(e) for e in getattr(self, name))
            if (rows.ndim != 1 or rows.shape != cols.shape or rows.size
                    and {rows.dtype.kind, cols.dtype.kind} - set("iu")):
                raise ValueError(f"{name} must be two 1-D integer arrays")
            order = np.argsort(rows * n + cols)
            rows, cols = (e[order].astype(np.intp) for e in (rows, cols))
            bad = ((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
                   | (rows == cols)
                   | np.r_[False, np.diff(rows * n + cols) == 0])
            if bad.any():
                i = bad.argmax()
                raise ValueError(f"{name} pair ({rows[i]}, {cols[i]}) is a "
                                 f"self-loop, a repeat or outside [0, {n})")
            object.__setattr__(self, name, (rows, cols))
        rows, cols = self.edges_geo
        if not np.array_equal(np.sort(cols * n + rows), rows * n + cols):
            raise ValueError("edges_geo must be symmetric")

    @cached_property
    def degrees_geo(self) -> np.ndarray:
        return np.bincount(self.edges_geo[0], minlength=self.n)

    @cached_property
    def degrees_social(self) -> np.ndarray:
        return np.bincount(self.edges_social[0], minlength=self.n)

    @cached_property
    def indptr_geo(self) -> np.ndarray:
        # CSR: the V-neighbours of s are edges_geo[1][indptr[s]:indptr[s+1]]
        return np.concatenate(([0], np.cumsum(self.degrees_geo)))

    def distances_from(self, node: int) -> np.ndarray:
        """BFS hop distances over V; unreachable nodes get +inf."""
        check_node_site(node, self.n, "seed node")
        indptr, cols = self.indptr_geo.tolist(), self.edges_geo[1].tolist()
        dist, queue = np.full(self.n, np.inf), [node]
        dist[node] = 0
        for s in queue:                 # appended to while it is read
            for j in cols[indptr[s]:indptr[s + 1]]:
                if dist[j] == np.inf:
                    dist[j] = dist[s] + 1
                    queue.append(j)
        return dist


@dataclass(frozen=True)
class NetworkState:
    """Per-node activity and tension vectors."""

    lam: np.ndarray
    alpha: np.ndarray

    def __post_init__(self) -> None:
        if self.lam.shape != self.alpha.shape:
            raise ValueError("lam and alpha must have matching shapes")
        if not (np.isfinite(self.lam).all() and np.isfinite(self.alpha).all()):
            raise ValueError("state entries must be finite")
        if (self.lam < 0).any() or (self.alpha < 0).any():
            raise ValueError("state entries must be nonnegative")


def grid_graph(rows: int, cols: int, social="copy_of_V") -> Graph:
    """Square grid of rows x cols nodes with 4-neighbor geographic edges.

    ``social`` selects the social adjacency:
      - "copy_of_V": C = V
      - ("hub", i): every node listens to node i; the hub itself listens to
        every other node so that no node is socially isolated
      - ("two_hubs", i, j): every node listens to both hubs; each hub
        listens to the other

    Node ids are row-major: node = r * cols + c, at position (r, c).
    """
    n = rows * cols
    if n < 2:
        raise ValueError("grid needs at least 2 nodes")
    nodes = np.arange(n)
    right = nodes[nodes % cols + 1 < cols]     # has a neighbour at s + 1
    down = nodes[:n - cols]                    # has a neighbour at s + cols
    geo = np.c_[np.r_[right, down], np.r_[right + 1, down + cols]]
    spec = tuple(social) if isinstance(social, (tuple, list)) else (social,)
    form = (spec[0] if spec and isinstance(spec[0], str) else None, len(spec))
    if form == ("copy_of_V", 1):
        listen = None
    elif form in (("hub", 2), ("two_hubs", 3)):
        hubs = [int(h) for h in spec[1:]]
        if not all(0 <= h < n for h in hubs):
            raise IndexError(f"hubs {hubs} out of range for {n} nodes")
        if len(set(hubs)) < len(hubs):
            raise ValueError("the two hubs must be distinct")
        # every node listens to each hub; a lone hub listens to everyone
        listen = np.concatenate([np.c_[nodes, np.full(n, h)] for h in hubs])
        if spec[0] == "hub":
            listen = np.concatenate((listen, listen[:, ::-1]))
    else:
        raise ValueError(f"unknown social spec {social!r}")
    return _from_pairs(n, geo, listen,
                       np.column_stack(np.divmod(nodes, cols)).astype(float))


def _from_pairs(n: int, geo, social, positions=None) -> Graph:
    """Graph of (m, 2) arrays of node ids in [0, n), geo mirrored (social
    None copies it), both without self-loops or repeats."""
    geo = np.concatenate((geo, geo[:, ::-1]))
    return Graph(n, *(np.divmod(np.unique(p[p[:, 0] != p[:, 1]] @ [n, 1]), n)
                      for p in (geo, geo if social is None else social)),
                 positions)


def graph_from_edge_lists(n: int, geo_edges, social_edges=None) -> Graph:
    """Build a graph from "i j" edge pairs; geographic edges are symmetrized,
    social edges are directed (s listens to j for a pair "s j").  Self-loops
    are dropped and repeats merged; without social edges C copies V.  A node
    id that is not an integer in [0, n) raises ValueError naming its pair.
    """
    def pairs(edges):
        edges = [tuple(p) for p in edges]
        for pair in edges:
            for node in pair:
                check_node_site(node, n, f"edge {pair}: node")
        return np.array(edges, dtype=np.intp).reshape(len(edges), 2)
    return _from_pairs(n, pairs(geo_edges),
                       None if social_edges is None else pairs(social_edges))


def _read_edge_list(path) -> list[tuple[int, int]]:
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected one 'i j' pair, got {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    return edges


def graph_from_edge_files(n: int, geo_path, social_path=None) -> Graph:
    """Load a graph from edge-list text files, one "i j" pair per line.

    Blank lines and '#' comments are ignored.  Without a social file the
    social adjacency copies the geographic one.
    """
    geo = _read_edge_list(geo_path)
    social = _read_edge_list(social_path) if social_path is not None else None
    return graph_from_edge_lists(n, geo, social)


def _validate_coupling(graph: Graph, params: ModelParams) -> None:
    # omega > eta guarantees eventual decay, but the bundled double-threshold
    # experiment runs exactly at omega == eta, so this is advisory here
    # (continuum runs still require kappa > 0 strictly).
    if params.eta > 0.0 and params.omega <= params.eta:
        warnings.warn(
            f"activity coupling eta={params.eta:.4g} is not dominated by the "
            f"decay omega={params.omega:.4g}; activity need not decay",
            stacklevel=5)
    if params.eta > 0.0 and (graph.degrees_geo < 1).any():
        bad = np.nonzero(graph.degrees_geo < 1)[0]
        raise ValueError(
            f"geographically isolated nodes {bad.tolist()} with activity "
            "coupling enabled")
    eta_a = params.eta if params.eta_alpha is None else params.eta_alpha
    if eta_a > 0.0 and (graph.degrees_social < 1).any():
        bad = np.nonzero(graph.degrees_social < 1)[0]
        raise ValueError(
            f"socially isolated nodes {bad.tolist()} with tension coupling "
            "enabled")


def network_rhs(state: NetworkState, graph: Graph,
                params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-node time derivatives of (activity, tension)."""
    return _make_rhs(graph, params)(state.lam, state.alpha)


def _make_rhs(graph: Graph, params: ModelParams, members: int = 1):
    """The RHS as a function of (lam, alpha); what depends only on the graph
    and the params is computed once here, not per call.

    The states may hold ``members`` states end to end, shape (members*n,).
    Member b's edges are offset by b*n, so one bincount per coupling serves
    every member and sums each bin in the order of a one-member call.
    """
    n = members * graph.n
    offsets = graph.n * np.arange(members)[:, None]
    geo_rows, geo_cols = ((e + offsets).ravel() for e in graph.edges_geo)
    social_rows, social_cols = ((e + offsets).ravel()
                                for e in graph.edges_social)
    degrees = np.tile(graph.degrees_geo, members)
    geo_weight = params.eta / np.maximum(degrees, 1)
    eta_a = params.eta if params.eta_alpha is None else params.eta_alpha
    social_weight = eta_a / np.tile(np.maximum(graph.degrees_social, 1),
                                    members)
    inflow = params.theta * params.alpha_b

    def rhs(lam, alpha):
        lap = (np.bincount(geo_rows, weights=lam[geo_cols], minlength=n)
               - degrees * lam)
        dlam = (geo_weight * lap
                - params.omega * (lam - params.lambda_b)
                + transition_rate_arr(alpha, params)
                * self_reinforcement_arr(lam, params))
        social = np.bincount(social_rows, weights=alpha[social_cols],
                             minlength=n)
        dalpha = (social_weight * social
                  - tension_decay_rate_arr(lam, params) * alpha
                  + inflow)
        return dlam, dalpha
    return rhs


@dataclass(frozen=True)
class NetworkTrajectory:
    """Recorded (times, per-node activity, per-node tension) plus shock marks."""

    times: np.ndarray          # (T,)
    lam: np.ndarray            # (T, n)
    alpha: np.ndarray          # (T, n)
    shock_marks: np.ndarray
    params: ModelParams
    graph: Graph
    clamp_count: int = 0


def integrate_network(graph: Graph,
                      params: ModelParams,
                      schedule: ShockSchedule = None,
                      initial: NetworkState | tuple[float, float] = (0.0, 0.0),
                      t_end: float = 50.0,
                      dt: float = 1e-3,
                      noise: str = "none",
                      noise_seed: int = 0,
                      seed: int | None = None,
                      record_stride: int = 1) -> NetworkTrajectory:
    """Integrate the network dynamics under a shock schedule.

    noise="none" steps the deterministic part with RK4; noise="brownian"
    uses Euler-Maruyama with the multiplicative increment
    sigma * lam * sqrt(dt) * xi, xi i.i.d. standard normal per node and
    step, drawn from a generator seeded with ``noise_seed`` (bitwise
    reproducible).  ``initial`` may be a NetworkState or a (lam0, alpha0)
    pair of scalars broadcast to all nodes.  A shock whose site is not a
    node id raises ValueError before the first step.
    """
    return _integrate_members(graph, params, [schedule], initial, t_end, dt,
                              noise, noise_seed, seed, record_stride)[0]


def _integrate_members(graph: Graph, params: ModelParams, schedules,
                       initial=(0.0, 0.0), t_end: float = 50.0,
                       dt: float = 1e-3, noise: str = "none",
                       noise_seed: int = 0, seed: int | None = None,
                       record_stride: int = 1) -> list[NetworkTrajectory]:
    """:func:`integrate_network` for several schedules on one graph at once:
    one trajectory per schedule, the B members' states laid end to end.

    All members' shocks must fall on the same times (else ValueError), so
    each member takes the steps of its own run and returns that run's
    trajectory bit for bit.  Clamps are counted per member; a non-finite
    entry in any member raises BlowUpError.  Noisy runs take one member.
    """
    records = Stack()
    marks, clamps = _drive_members(graph, params, schedules, records.add,
                                   initial, t_end, dt, noise, noise_seed,
                                   seed, record_stride)
    times, lams, alphas = records.arrays()
    lams, alphas = (x.reshape(len(times), len(schedules), -1)
                    for x in (lams, alphas))
    return [NetworkTrajectory(times, lams[:, b], alphas[:, b], marks, params,
                              graph, clamps[b]) for b in range(len(schedules))]


def _drive_members(graph: Graph, params: ModelParams, schedules, record,
                   initial, t_end: float, dt: float, noise: str = "none",
                   noise_seed: int = 0, seed: int | None = None,
                   record_stride: int = 1):
    """The stepping of :func:`_integrate_members`: each record goes to
    ``record(t, (lam, alpha))``, the members' states end to end, and is not
    kept.  Returns the shock marks and the per-member clamp counts."""
    if noise not in ("none", "brownian"):
        raise ValueError(f"noise must be none or brownian, got {noise!r}")
    _validate_coupling(graph, params)
    lam_star = peak_activity(params)
    eta_a = params.eta if params.eta_alpha is None else params.eta_alpha
    if (lam_star is not None and eta_a > 0.0
            and tension_decay_rate(lam_star, params) <= eta_a):
        warnings.warn(
            "tension decay at peak activity does not dominate the social "
            f"inflow (h(peak)={tension_decay_rate(lam_star, params):.4g} <= "
            f"eta_alpha={eta_a:.4g}); tension mass can grow on long runs",
            stacklevel=4)

    per_member = [group_events(s, t_end, seed) for s in schedules]
    if len({tuple(t for t, _ in member) for member in per_member}) > 1:
        raise ValueError("the members' shocks must fall on the same times")
    # one event per shared time, holding each member's shocks
    events = [(group[0][0], [shocks for _, shocks in group])
              for group in zip(*per_member)]
    for s in (s for _, groups in events for g in groups for s in g):
        check_node_site(s.site, graph.n)

    members = len(schedules)
    lam, alpha = (np.tile(np.full(graph.n, x, dtype=float), members)
                  for x in ((initial.lam, initial.alpha)
                            if isinstance(initial, NetworkState) else initial))
    rhs = _make_rhs(graph, params, members)
    if noise == "brownian":
        rng = np.random.default_rng(noise_seed)
        sigma = params.sigma

        def move(lam, alpha, h):
            dl, da = rhs(lam, alpha)
            xi = rng.standard_normal(graph.n)
            return (lam + h * dl + sigma * lam * math.sqrt(h) * xi,
                    alpha + h * da)
    else:
        move = partial(rk4, rhs)

    def jump(state, groups):
        alpha = state[1].copy()
        for row, shocks in zip(alpha.reshape(members, -1), groups):
            for s in shocks:
                row[s.site] += s.amplitude
        return state[0], alpha

    return drive_arrays(move, jump, (lam, alpha), events, t_end, dt,
                        record_stride, record, members)


def _activation_level(params: ModelParams, threshold_fraction: float) -> float:
    """The activity at which a node counts as activated."""
    if not 0.0 < threshold_fraction < 1.0:
        raise ValueError("threshold_fraction must be in (0, 1)")
    return threshold_fraction * required_peak_activity(params)


def activation_times(traj: NetworkTrajectory,
                     threshold_fraction: float = ACTIVATION_FRACTION
                     ) -> np.ndarray:
    """First time each node's activity reaches threshold_fraction * peak;
    +inf for nodes that never do."""
    hit = traj.lam >= _activation_level(traj.params, threshold_fraction)
    out = np.full(traj.graph.n, np.inf)
    any_hit = hit.any(axis=0)
    out[any_hit] = traj.times[hit.argmax(axis=0)[any_hit]]
    return out


class _FirstPassages:
    """The record times and, per entry of the activity, the first record
    time at which it reaches ``level``: the :func:`activation_times` of
    every member, without the trajectory.  ``add`` is the recorder."""

    def __init__(self, level: float, size: int) -> None:
        self.level = level
        self.times: list[float] = []
        self.first = np.full(size, np.inf)

    def add(self, t: float, state) -> None:
        self.times.append(t)
        np.minimum(self.first, np.where(state[0] >= self.level, t, np.inf),
                   out=self.first)


@dataclass(frozen=True)
class SpreadReport:
    """Classification of how activation spread from a seed node."""

    regime: str                      # "contained" | "local" | "nonlocal"
    activation: np.ndarray           # per-node first-passage times
    distances: np.ndarray            # V-graph hop distances from the seed
    n_activated: int
    jump_nodes: tuple[int, ...]      # activated without an earlier V-neighbor
    order_violations: int            # farther node active earlier than closer


def classify_spread(traj: NetworkTrajectory, graph: Graph, seed_node: int,
                    threshold_fraction: float = ACTIVATION_FRACTION,
                    tol: float | None = None) -> SpreadReport:
    """Classify a run as contained, locally spreading, or nonlocal.

    Activation times are the recorded sample times of ``activation_times``.
    A V-neighbor is *previously activated* when its activation sample is
    earlier than the node's own, i.e. at least one sample earlier; a
    neighbor that crosses the threshold in the same sample does not count.
    A node is *strictly closer* to the seed than another when it is fewer
    V-hops away and, if the graph has node positions, also nearer in the
    plane by at least one step (the shortest V-edge length).  Hop balls on
    a lattice are diamonds while fronts in the plane are round; asking for
    both keeps either shape, and any shape in between, from reading as out
    of order, and the one-step margin treats nodes within one step of the
    same Euclidean distance as one ring of the front, which a boundary or
    the lattice may order either way.

    contained: only the seed's immediate geographic neighborhood (hop
    distance <= 1) ever activates, including the no-activation case.
    local: the activated set grows like contiguous geographic balls: every
    activated node other than the seed has a previously-activated
    V-neighbor, and no node activates ``tol`` or more before a strictly
    closer node.
    nonlocal: some node jumps -- it activates with no previously-activated
    V-neighbor, ahead of or apart from the front, as every node inside a
    block that ignites at once does -- or some node activates ``tol`` or
    more before a strictly closer node (an order violation).

    ``tol`` is the slack of the order check only; it defaults to twice the
    recorded sample interval.
    """
    return _spread_report(activation_times(traj, threshold_fraction),
                          traj.times, graph, seed_node, tol)


def _spread_report(act: np.ndarray, times, graph: Graph, seed_node: int,
                   tol: float | None = None) -> SpreadReport:
    """The rules of :func:`classify_spread`, on per-node activation times
    ``act`` read at the record ``times``."""
    if tol is None:
        diffs = np.diff(times)
        tol = 2.0 * float(np.median(diffs)) if diffs.size else 0.0
    dist = graph.distances_from(seed_node)
    activated = np.isfinite(act)
    n_act = int(activated.sum())

    if n_act == 0 or bool((dist[activated] <= 1).all()):
        return SpreadReport("contained", act, dist, n_act, (), 0)

    # per node, the V-neighbours that activated in an earlier sample
    rows, cols = graph.edges_geo
    earlier = np.bincount(rows[act[cols] < act[rows]], minlength=graph.n)
    jumps = activated & (earlier == 0) & (np.arange(graph.n) != seed_node)
    jump_nodes = np.nonzero(jumps)[0].tolist()

    # order check, one hop ring at a time against the strictly closer nodes
    # (the nearest activated ring has none)
    if graph.positions is None:
        plane, step = dist, 1.0
    else:
        pos = graph.positions
        plane = np.linalg.norm(pos - pos[seed_node], axis=1)
        upper = rows < cols
        step = float(np.linalg.norm(pos[rows[upper]] - pos[cols[upper]],
                                    axis=1).min(initial=np.inf))
    reached = activated & np.isfinite(dist)
    order_violations = 0
    for d in np.unique(dist[reached])[1:]:
        ring = np.nonzero(reached & (dist == d))[0]
        inner = np.nonzero(reached & (dist < d))[0]
        inner = inner[np.argsort(plane[inner], kind="stable")]
        latest = np.maximum.accumulate(act[inner])
        k = np.searchsorted(plane[inner], plane[ring] - step, side="right")
        closer_latest = np.where(k > 0, latest[k - 1], -np.inf)
        order_violations += int((act[ring] <= closer_latest - tol).sum())

    if jump_nodes or order_violations:
        return SpreadReport("nonlocal", act, dist, n_act, tuple(jump_nodes),
                            order_violations)
    return SpreadReport("local", act, dist, n_act, (), 0)


_REGIME_ORDER = {"contained": 0, "local": 1, "nonlocal": 2}


@dataclass(frozen=True)
class ThresholdScan:
    """Brackets for the two spreading thresholds along an amplitude grid.

    ``spread_bracket`` bounds the contained-to-spreading amplitude,
    ``nonlocal_bracket`` the local-to-nonlocal one; either is None when the
    grid never crossed that boundary.  The thresholds are reported as
    brackets, never as sharp values.
    """

    amplitudes: tuple[float, ...]
    regimes: tuple[str, ...]
    spread_bracket: tuple[float, float] | None
    nonlocal_bracket: tuple[float, float] | None
    monotonic: bool
    flags: tuple[str, ...]


def double_threshold_scan(graph: Graph, params: ModelParams, A_grid,
                          seed_node: int,
                          initial=(0.01, 0.0),
                          t_end: float = 50.0,
                          dt: float = 1e-3,
                          threshold_fraction: float = ACTIVATION_FRACTION,
                          record_stride: int = 20,
                          refine_rounds: int = 3) -> ThresholdScan:
    """Classify the spread for each amplitude and bracket the two thresholds.

    Grid brackets are narrowed by ``refine_rounds`` rounds of bisection.
    Every amplitude the bisection can visit runs in one batch with the
    grid (see :func:`_bisection_points`), keeping only activation times;
    the bisection then reads its labels from that batch.  Classification-
    order violations along the grid are reported, not asserted.
    """
    A_grid = [float(a) for a in A_grid]
    if any(b <= a for a, b in zip(A_grid, A_grid[1:])):
        raise ValueError("A_grid must be strictly increasing")
    amplitudes = _bisection_points(A_grid, refine_rounds)
    regime_of = dict(zip(amplitudes, _scan_regimes(
        graph, params, amplitudes, seed_node, initial, t_end, dt,
        threshold_fraction, record_stride)))

    regimes = [regime_of[a] for a in A_grid]
    levels = [_REGIME_ORDER[r] for r in regimes]
    monotonic = all(b >= a for a, b in zip(levels, levels[1:]))
    flags = []
    if not monotonic:
        flags.append("classification not monotone along the grid")

    def grid_bracket(level: int) -> tuple[float, float] | None:
        below = [i for i, l in enumerate(levels) if l < level]
        at_or_above = [i for i, l in enumerate(levels) if l >= level]
        if not below or not at_or_above:
            return None
        lo_i = max(i for i in below if any(j > i for j in at_or_above))
        hi_i = min(j for j in at_or_above if j > lo_i)
        return A_grid[lo_i], A_grid[hi_i]

    brackets = {level: grid_bracket(level) for level in (1, 2)}
    for level, bracket in brackets.items():
        for _ in range(refine_rounds if bracket else 0):
            lo, hi = bracket
            mid = 0.5 * (lo + hi)
            bracket = ((lo, mid) if _REGIME_ORDER[regime_of[mid]] >= level
                       else (mid, hi))
        brackets[level] = bracket
    spread_bracket, nonlocal_bracket = brackets[1], brackets[2]
    if all(r == "contained" for r in regimes):
        flags.append("no spreading observed")
    elif spread_bracket is None or nonlocal_bracket is None:
        flags.append("fewer than three regimes observed; partial result")
    return ThresholdScan(tuple(A_grid), tuple(regimes), spread_bracket,
                         nonlocal_bracket, monotonic, tuple(flags))


def _bisection_points(A_grid: list[float], rounds: int) -> list[float]:
    """The grid and every midpoint that ``rounds`` rounds of bisection can
    visit: a bracket is always a pair of adjacent grid points, so these
    are the dyadic points of depth ``rounds`` inside each grid interval,
    made by the bisection's own ``0.5 * (lo + hi)``.  That is
    (m-1)(2^rounds - 1) + m amplitudes for m grid points, so the batch
    doubles with every round."""
    def inside(lo: float, hi: float, depth: int) -> list[float]:
        if depth <= 0:
            return []
        mid = 0.5 * (lo + hi)
        return inside(lo, mid, depth - 1) + [mid] + inside(mid, hi, depth - 1)
    return list(dict.fromkeys(
        A_grid + [x for lo, hi in zip(A_grid, A_grid[1:])
                  for x in inside(lo, hi, rounds)]))


def _scan_regimes(graph: Graph, params: ModelParams, amplitudes, seed_node,
                  initial, t_end: float, dt: float,
                  threshold_fraction: float, record_stride: int) -> list[str]:
    """The spread regime of one shock at ``seed_node`` and t=0 for each
    amplitude, from one batched run that keeps only first passages; each
    equals ``classify_spread`` on that amplitude's own run."""
    if not amplitudes:
        return []
    passages = _FirstPassages(_activation_level(params, threshold_fraction),
                              len(amplitudes) * graph.n)
    _drive_members(
        graph, params,
        [ExplicitSchedule([Shock(0.0, a, seed_node)]) for a in amplitudes],
        passages.add, initial, t_end, dt, record_stride=record_stride)
    times = np.asarray(passages.times)
    return [_spread_report(act, times, graph, seed_node).regime
            for act in passages.first.reshape(len(amplitudes), -1)]


@dataclass(frozen=True)
class DelayReport:
    """One-shock versus two-shock comparison on a two-hub network."""

    activated_single: int
    activated_double: int
    total_activity_single: float         # integral of sum-lambda, full run
    total_activity_double: float
    post_t2_activity_single: float       # same integral restricted to t > t2
    post_t2_activity_double: float
    dominates_after_t2: bool


def delay_experiment(graph: Graph, params: ModelParams,
                     a1: float, p_node: int,
                     a2: float, m_node: int, t2: float,
                     initial=(0.01, 0.0),
                     t_end: float = 60.0,
                     dt: float = 1e-3,
                     threshold_fraction: float = ACTIVATION_FRACTION,
                     record_stride: int = 20) -> DelayReport:
    """Compare a single event at node P with the same event plus a later,
    weaker event at node M.

    Reports activated-node counts and the time integral of total activity
    for both scenarios; with a2=0 the scenarios are identical by
    construction.
    """
    single = ExplicitSchedule([Shock(0.0, a1, p_node)])
    shocks = [Shock(0.0, a1, p_node)]
    if a2 > 0.0:
        shocks.append(Shock(t2, a2, m_node))
    double = ExplicitSchedule(shocks)

    def run(schedule):
        traj = integrate_network(graph, params, schedule, initial, t_end,
                                 dt=dt, record_stride=record_stride)
        act = activation_times(traj, threshold_fraction)
        total = traj.lam.sum(axis=1)
        full = float(np.trapezoid(total, traj.times))
        post_mask = traj.times >= t2
        post = float(np.trapezoid(total[post_mask], traj.times[post_mask]))
        return int(np.isfinite(act).sum()), full, post

    n1, full1, post1 = run(single)
    n2, full2, post2 = run(double)
    return DelayReport(n1, n2, full1, full2, post1, post2, post2 > post1)


def save_network_trajectory(traj: NetworkTrajectory, path) -> None:
    """Write (t, node, lambda, alpha) rows, nodes fastest-varying, and
    their schema sidecar."""
    shape = traj.lam.shape
    write_table(path, ("t", "node", "lambda", "alpha"),
                ("%.17g", "%d", "%.17g", "%.17g"),
                (np.broadcast_to(traj.times[:, None], shape),
                 np.broadcast_to(np.arange(traj.graph.n), shape),
                 traj.lam, traj.alpha),
                "per-node trajectory, nodes fastest-varying")
