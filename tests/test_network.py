"""Network dynamics: graph construction, RHS, integration, spread analyses."""
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riotdyn import (AmplitudeLaw, ExplicitSchedule, Graph, ModelParams,
                     NetworkState, NetworkTrajectory, NoExcitedStateError,
                     PoissonSchedule, Shock, SiteState, activation_times,
                     activity_rate, classify_spread, delay_experiment,
                     double_threshold_scan, graph_from_edge_lists, grid_graph,
                     integrate_network, integrate_site, network,
                     network_rhs, save_network_trajectory, tension_rate)
from riotdyn.model import (self_reinforcement_arr, tension_decay_rate_arr,
                           transition_rate_arr)
from riotdyn.network import (_REGIME_ORDER, ThresholdScan, _activation_level,
                             _drive_members, _FirstPassages,
                             _integrate_members)

from conftest import BASE, SLOW


def dense(n, edges):
    """The n x n 0/1 adjacency matrix of a (rows, cols) edge list."""
    m = np.zeros((n, n), dtype=np.int8)
    m[edges] = 1
    return m


class TestGridGraph:
    def test_two_by_two_enumeration(self):
        g = grid_graph(2, 2)
        V = dense(g.n, g.edges_geo)
        assert V.sum() == 8              # 4 undirected edges
        np.testing.assert_array_equal(dense(g.n, g.edges_social), V)

    def test_hub_social_degrees(self):
        g = grid_graph(10, 10, ("hub", 55))
        d = g.degrees_social
        assert all(d[s] == 1 for s in range(100) if s != 55)
        assert d[55] == 99

    def test_two_hubs_everyone_listens_to_both(self):
        g = grid_graph(10, 10, ("two_hubs", 22, 77))
        C = dense(g.n, g.edges_social)
        for s in range(100):
            if s not in (22, 77):
                assert C[s, 22] == 1 and C[s, 77] == 1
        assert C[22, 77] == 1 and C[77, 22] == 1

    def test_hub_out_of_range(self):
        with pytest.raises(IndexError):
            grid_graph(3, 3, ("hub", 9))

    @pytest.mark.parametrize("social", [
        "star", ("hub",), ("hub", 1, 2), ("two_hubs", 1), ("copy_of_V", 1),
        5, np.ones((4, 4), dtype=np.int8), np.ones((1, 4))])
    def test_unknown_social_spec_rejected(self, social):
        # the form is checked before any hub id goes through int(), so a
        # 0/1 matrix gets the same ValueError as any other unknown spec
        with pytest.raises(ValueError, match="unknown social spec"):
            grid_graph(2, 2, social)

    def test_validation_rejects_diagonal(self):
        loops = ([0, 1], [0, 1])
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, loops, loops)

    def test_validation_rejects_asymmetric_geography(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, ([0], [1]), ([], []))

    @pytest.mark.parametrize("edges, pair", [
        (([0, 1], [1, 3]), "(1, 3)"), (([0, -1], [1, 0]), "(-1, 0)"),
        (([0, 1, 0], [1, 0, 1]), "(0, 1)")])
    def test_validation_names_the_bad_pair(self, edges, pair):
        # two ids outside [0, 3), a repeat
        with pytest.raises(ValueError) as err:
            Graph(3, edges, edges)
        assert str(err.value).startswith(f"edges_geo pair {pair} is a")

    @pytest.mark.parametrize("edges", [([0.0, 1.0], [1.0, 0.0]),
                                       ([0, 1], [1]), ([[0, 1]], [[1, 0]])])
    def test_validation_rejects_non_integer_arrays(self, edges):
        with pytest.raises(ValueError, match="1-D integer arrays"):
            Graph(3, edges, edges)

    def test_edges_stored_sorted_row_major(self):
        g = Graph(3, ([2, 1, 0, 1], [1, 0, 1, 2]), ([2, 0], [0, 2]))
        assert [e.tolist() for e in g.edges_geo] == [[0, 1, 1, 2],
                                                     [1, 0, 2, 1]]
        assert [e.tolist() for e in g.edges_social] == [[0, 2], [2, 0]]
        assert g.indptr_geo.tolist() == [0, 1, 3, 4]

    def test_stores_edge_lists_only(self):
        # no dense V or C, stored or built
        assert [f.name for f in fields(Graph)] == [
            "n", "edges_geo", "edges_social", "positions"]
        g = grid_graph(3, 3, ("hub", 4))
        assert g.edges_social[0].size == 16
        assert not hasattr(g, "V") and not hasattr(g, "C")

    def test_bfs_distances(self):
        g = grid_graph(3, 3)
        d = g.distances_from(0)
        assert d[0] == 0 and d[1] == 1 and d[4] == 2 and d[8] == 4

    @pytest.mark.parametrize("node", [-1, 9])
    def test_bfs_seed_must_be_a_node(self, node):
        # -1 would otherwise give the distances from node 8
        with pytest.raises(ValueError, match="node id"):
            grid_graph(3, 3).distances_from(node)

    def test_classify_spread_seed_must_be_a_node(self):
        g = grid_graph(1, 6)
        traj = synthetic_trajectory(g, [3.0, 2.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="node id"):
            classify_spread(traj, g, -1)


def dense_grid(rows, cols, social):
    """V and C of a grid by the rules of the ``grid_graph`` docstring."""
    n = rows * cols
    V = np.zeros((n, n), dtype=np.int8)
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            if c + 1 < cols:
                V[s, s + 1] = V[s + 1, s] = 1
            if r + 1 < rows:
                V[s, s + cols] = V[s + cols, s] = 1
    if social == "copy_of_V":
        return V, V.copy()
    C = np.zeros((n, n), dtype=np.int8)
    for hub in social[1:]:
        C[:, hub] = 1
    if social[0] == "hub":
        C[social[1], :] = 1
    np.fill_diagonal(C, 0)
    return V, C


def dense_edge_lists(n, geo, social):
    """V and C of ``graph_from_edge_lists`` by its docstring's rules."""
    V = np.zeros((n, n), dtype=np.int8)
    for i, j in geo:
        V[i, j] = V[j, i] = 1
    C = V.copy()
    if social is not None:
        C[:] = 0
        for i, j in social:
            C[i, j] = 1
    np.fill_diagonal(V, 0)
    np.fill_diagonal(C, 0)
    return V, C


@st.composite
def grid_specs(draw):
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(2, 9))
    nodes = st.integers(0, rows * cols - 1)
    kind = draw(st.sampled_from(["copy_of_V", "hub", "two_hubs"]))
    if kind == "copy_of_V":
        return rows, cols, kind
    h1 = draw(nodes)
    if kind == "hub":
        return rows, cols, (kind, h1)
    return rows, cols, (kind, h1, draw(nodes.filter(lambda h: h != h1)))


@st.composite
def edge_list_specs(draw):
    """Pairs with self-loops and repeats, in shuffled order."""
    n = draw(st.integers(2, 12))
    pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                     max_size=40)

    def shuffled_with_repeats(base):
        repeats = (draw(st.lists(st.sampled_from(base), max_size=10))
                   if base else [])
        return draw(st.permutations(base + repeats))

    geo = shuffled_with_repeats(draw(pairs))
    social = draw(st.none() | pairs)
    return n, geo, None if social is None else shuffled_with_repeats(social)


class TestEdgeRepresentation:
    """A graph keeps only its edge lists, in the row-major order of
    ``np.nonzero`` on the dense adjacency: the order in which every
    per-node sum over them adds its terms."""

    @staticmethod
    def check(graph, V, C):
        for edges, dense in ((graph.edges_geo, V), (graph.edges_social, C)):
            for got, want in zip(edges, np.nonzero(dense)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(graph.degrees_geo, V.sum(axis=1))
        np.testing.assert_array_equal(graph.degrees_social, C.sum(axis=1))

    @settings(max_examples=60, deadline=None)
    @given(grid_specs())
    def test_grid_graph_edges_are_nonzero_of_the_dense_rules(self, spec):
        rows, cols, social = spec
        self.check(grid_graph(rows, cols, social),
                   *dense_grid(rows, cols, social))

    @settings(max_examples=60, deadline=None)
    @given(edge_list_specs())
    def test_edge_lists_merge_into_nonzero_of_the_dense_rules(self, spec):
        n, geo, social = spec
        self.check(graph_from_edge_lists(n, geo, social),
                   *dense_edge_lists(n, geo, social))

    @pytest.mark.parametrize("pair", [(0, -1), (0, 3), (0, 1.5), (0, "1")])
    def test_edge_list_rejects_a_node_id_outside_the_graph(self, pair):
        # (0, -1) would otherwise link nodes 0 and 2
        with pytest.raises(ValueError, match=r"edge \(0, .*\): node .* "
                                             r"is not a node id in \[0, 3\)"):
            graph_from_edge_lists(3, [(0, 1), pair])
        with pytest.raises(ValueError, match="node id"):
            graph_from_edge_lists(3, [(0, 1)], [(1, 2), pair])

    def test_hundred_by_hundred_grid_runs_in_bounded_memory(self):
        # 10^4 nodes: dense n x n int8 V and C alone would be 200 MB
        tracemalloc.start()
        try:
            g = grid_graph(100, 100, ("hub", 5050))
            traj = integrate_network(
                g, SPREAD, ExplicitSchedule([Shock(0.0, 10.0, 5050)]),
                (0.01, 0.0), t_end=10.0, dt=0.01, record_stride=250)
            rep = classify_spread(traj, g, 5050)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.times.size == 5                     # 1,000 RK4 steps
        assert rep.n_activated >= 1
        assert peak < 64 << 20


class TestNetworkRhs:
    def test_uniform_state_kills_laplacian(self):
        p = replace(BASE, eta=0.2)
        g = grid_graph(4, 4)
        lam = np.full(16, 0.7)
        alpha = np.full(16, 1.3)
        dlam, dalpha = network_rhs(NetworkState(lam, alpha), g, p)
        from riotdyn import activity_rate
        expected = activity_rate(0.7, 1.3, p)
        np.testing.assert_allclose(dlam, expected, atol=1e-14)
        # the social averaging contributes +eta * mean tension per node
        from riotdyn import tension_rate
        np.testing.assert_allclose(
            dalpha, tension_rate(0.7, 1.3, p) + 0.2 * 1.3, atol=1e-14)

    def test_zero_state_is_stationary(self):
        g = grid_graph(3, 3)
        dlam, dalpha = network_rhs(
            NetworkState(np.zeros(9), np.zeros(9)), g, replace(BASE, eta=0.1))
        assert np.all(dlam == 0.0) and np.all(dalpha == 0.0)

    def test_two_node_hand_expansion(self):
        p = ModelParams(omega=0.3, eta=0.2, z0=2.0)
        g = grid_graph(1, 2)
        lam = np.array([1.0, 0.0])
        dlam, _ = network_rhs(NetworkState(lam, np.zeros(2)), g, p)
        from riotdyn import self_reinforcement, transition_rate
        reaction = transition_rate(0.0, p) * self_reinforcement(1.0, p)
        assert dlam[0] == pytest.approx(0.2 * (0.0 - 1.0) - 0.3 * 1.0
                                        + reaction, rel=1e-12)

    def test_separate_tension_coupling_strength(self):
        p = replace(BASE, eta=0.2, eta_alpha=0.0)
        g = grid_graph(2, 2)
        alpha = np.array([1.0, 2.0, 3.0, 4.0])
        _, dalpha = network_rhs(NetworkState(np.zeros(4), alpha), g, p)
        from riotdyn import tension_rate
        expected = [tension_rate(0.0, a, p) for a in alpha]
        np.testing.assert_allclose(dalpha, expected, atol=1e-14)


def dense_rhs(lam, alpha, graph, params):
    """The network RHS with dense float operators built from V and C, as
    written in the module docstring.  Returns the derivatives and, per
    node, the summed magnitude of the terms that make them up."""
    V, C = (dense(graph.n, e).astype(float)
            for e in (graph.edges_geo, graph.edges_social))
    deg_v, deg_c = V.sum(axis=1), C.sum(axis=1)
    eta_a = params.eta if params.eta_alpha is None else params.eta_alpha
    geo = params.eta / np.maximum(deg_v, 1) * (V @ lam - deg_v * lam)
    relax = params.omega * (lam - params.lambda_b)
    growth = transition_rate_arr(alpha, params) * self_reinforcement_arr(
        lam, params)
    social = eta_a / np.maximum(deg_c, 1) * (C @ alpha)
    decay = tension_decay_rate_arr(lam, params) * alpha
    inflow = params.theta * params.alpha_b
    dlam = geo - relax + growth
    dalpha = social - decay + inflow
    lam_scale = (params.eta / np.maximum(deg_v, 1) * (V @ lam + deg_v * lam)
                 + np.abs(relax) + np.abs(growth))
    alpha_scale = np.abs(social) + np.abs(decay) + abs(inflow)
    return dlam, dalpha, lam_scale, alpha_scale


@st.composite
def rhs_cases(draw, graphs):
    graph, params = draw(graphs)
    values = st.floats(min_value=0.0, max_value=20.0)
    lam = np.array(draw(st.lists(values, min_size=graph.n,
                                 max_size=graph.n)))
    alpha = np.array(draw(st.lists(values, min_size=graph.n,
                                   max_size=graph.n)))
    return graph, params, lam, alpha


couplings = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def random_graphs(draw):
    """Random symmetric V and random directed C."""
    n = draw(st.integers(min_value=2, max_value=12))
    bits = st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    upper = np.triu(np.array(draw(bits), dtype=np.int8).reshape(n, n), 1)
    C = np.array(draw(bits), dtype=np.int8).reshape(n, n)
    np.fill_diagonal(C, 0)
    params = replace(BASE, eta=draw(couplings),
                     eta_alpha=draw(st.none() | couplings))
    return Graph(n, np.nonzero(upper + upper.T), np.nonzero(C)), params


@st.composite
def hub_graphs(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=2, max_value=6))
    nodes = st.integers(min_value=0, max_value=rows * cols - 1)
    h1 = draw(nodes)
    if draw(st.booleans()):
        social = ("hub", h1)
    else:
        social = ("two_hubs", h1, draw(nodes.filter(lambda h: h != h1)))
    params = replace(BASE, eta=draw(couplings),
                     eta_alpha=draw(st.none() | couplings))
    return grid_graph(rows, cols, social), params


@st.composite
def isolated_node_graphs(draw):
    """A path with one more node that has no geographic or social edge."""
    n = draw(st.integers(min_value=3, max_value=10))
    path = [(i, i + 1) for i in range(n - 2)]
    return (graph_from_edge_lists(n, path, path),
            replace(BASE, eta=0.0, eta_alpha=0.0))


class TestEdgeListRhs:
    """``network_rhs`` sums over cached edge lists; the reference multiplies
    by dense float copies of V and C.  The two add the same products in a
    different order, so they agree to 1e-12 of the summed magnitude of each
    derivative's terms."""

    @staticmethod
    def check(case):
        graph, params, lam, alpha = case
        dlam, dalpha = network_rhs(NetworkState(lam, alpha), graph, params)
        ref_lam, ref_alpha, lam_scale, alpha_scale = dense_rhs(
            lam, alpha, graph, params)
        assert np.all(np.abs(dlam - ref_lam) <= 1e-12 * lam_scale)
        assert np.all(np.abs(dalpha - ref_alpha) <= 1e-12 * alpha_scale)

    @settings(max_examples=60, deadline=None)
    @given(rhs_cases(random_graphs()))
    def test_random_directed_social_graph(self, case):
        self.check(case)

    @settings(max_examples=60, deadline=None)
    @given(rhs_cases(hub_graphs()))
    def test_hub_and_two_hubs(self, case):
        self.check(case)

    @settings(max_examples=30, deadline=None)
    @given(rhs_cases(isolated_node_graphs()))
    def test_isolated_node_without_coupling(self, case):
        self.check(case)
        graph, params, lam, alpha = case
        dlam, dalpha = network_rhs(NetworkState(lam, alpha), graph, params)
        last = graph.n - 1
        assert dlam[last] == pytest.approx(
            activity_rate(lam[last], alpha[last], params), rel=1e-12,
            abs=1e-12)
        assert dalpha[last] == pytest.approx(
            tension_rate(lam[last], alpha[last], params), rel=1e-12,
            abs=1e-12)

    def test_first_call_allocates_no_dense_operator(self):
        # dense float copies of V and C on 900 nodes would be 13 MB, and
        # the dense int8 V and C of the build 1.6 MB
        state = NetworkState(np.full(900, 0.5), np.full(900, 1.5))
        for step in ("build", "rhs"):
            tracemalloc.start()
            try:
                if step == "build":
                    g = grid_graph(30, 30, ("hub", 465))
                else:
                    network_rhs(state, g,
                                replace(BASE, eta=0.2, eta_alpha=0.13))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, step


class TestIntegrateNetwork:
    def test_degenerates_to_single_site(self):
        p = replace(BASE, eta=0.0)
        g = grid_graph(1, 2)
        sched = ExplicitSchedule([Shock(0.0, 4.0, 0), Shock(0.0, 4.0, 1)])
        net = integrate_network(g, p, sched, (0.01, 0.0), t_end=20.0, dt=1e-3)
        site = integrate_site(p, ExplicitSchedule([Shock(0.0, 4.0)]),
                              SiteState(0.01, 0.0), t_end=20.0, dt=1e-3)
        assert np.max(np.abs(net.lam[:, 0] - site.lam)) < 1e-10
        assert np.max(np.abs(net.alpha[:, 0] - site.alpha)) < 1e-10

    def test_seeded_noise_bit_reproducible(self):
        p = replace(SLOW, eta=0.05, sigma=0.05)
        g = grid_graph(3, 3)
        sched = ExplicitSchedule([Shock(0.0, 5.0, 4)])
        a = integrate_network(g, p, sched, (0.1, 2.0), t_end=3.0, dt=0.01,
                              noise="brownian", noise_seed=7)
        b = integrate_network(g, p, sched, (0.1, 2.0), t_end=3.0, dt=0.01,
                              noise="brownian", noise_seed=7)
        np.testing.assert_array_equal(a.lam, b.lam)
        np.testing.assert_array_equal(a.alpha, b.alpha)

    def test_noise_mean_tracks_deterministic(self):
        # weak multiplicative noise: ensemble mean within 5% at a fixed time
        p = replace(SLOW, eta=0.05, sigma=0.05)
        g = grid_graph(3, 3)
        sched = ExplicitSchedule([Shock(0.0, 5.0, s) for s in range(9)])
        det = integrate_network(g, p, sched, (0.1, 2.0), t_end=10.0, dt=0.01)
        i_det = np.searchsorted(det.times, 8.0)
        means = []
        for seed in range(200):
            traj = integrate_network(g, p, sched, (0.1, 2.0), t_end=10.0,
                                     dt=0.01, noise="brownian",
                                     noise_seed=seed, record_stride=100)
            j = np.searchsorted(traj.times, 8.0)
            means.append(traj.lam[j].mean())
        gap = abs(np.mean(means) - det.lam[i_det].mean())
        assert gap / det.lam[i_det].mean() < 0.05

    def test_euler_maruyama_strong_order_one_half(self):
        # with no coupling (eta = 0) and no reaction (a = 1000 puts
        # r(alpha) at about e^-700) every node is a geometric Brownian
        # motion dX = -omega X dt + sigma X dW, solved exactly by
        # X(T) = X0 exp((-omega - sigma^2/2) T + sigma W(T)).  W is rebuilt
        # from the run's noise_seed as the integrator draws it: one
        # standard normal per node and step.  Euler-Maruyama has strong
        # order 1/2 (Higham, SIAM Review 43, 2001), so dividing dt by 4
        # halves the mean error: the band [1.7, 2.4] holds orders
        # 0.38-0.63, and the 400 independent nodes of a run keep the
        # Monte Carlo spread of a ratio near +-0.15
        p = ModelParams(omega=0.2, a=1000.0, sigma=0.5)
        g = grid_graph(20, 20)

        def mean_error(dt, seed):
            traj = integrate_network(g, p, None, (1.0, 0.0), t_end=1.0,
                                     dt=dt, noise="brownian",
                                     noise_seed=seed, record_stride=10 ** 9)
            xi = np.random.default_rng(seed).standard_normal(
                (round(1.0 / dt), g.n))
            w = np.sqrt(dt) * xi.sum(axis=0)
            exact = np.exp(-p.omega - 0.5 * p.sigma ** 2 + p.sigma * w)
            return np.abs(traj.lam[-1] - exact).mean()

        errors = [mean_error(dt, seed)
                  for seed, dt in enumerate((1 / 16, 1 / 64, 1 / 256))]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(1.7 <= r <= 2.4 for r in ratios), (errors, ratios)

    def test_nonnegative_states(self):
        p = replace(BASE, eta=0.1)
        g = grid_graph(3, 3)
        traj = integrate_network(g, p,
                                 ExplicitSchedule([Shock(0.0, 10.0, 4)]),
                                 (0.01, 0.0), t_end=20.0, dt=1e-3,
                                 record_stride=10)
        assert traj.lam.min() >= 0.0 and traj.alpha.min() >= 0.0

    def test_isolated_node_rejected_with_coupling(self):
        edge = ([0, 1], [1, 0])               # node 2 has no edge
        g = Graph(3, edge, edge)
        with pytest.raises(ValueError, match="isolated"):
            integrate_network(g, replace(BASE, eta=0.1), None, (0.0, 0.0),
                              t_end=1.0)

    def test_network_shock_needs_site(self):
        g = grid_graph(2, 2)
        with pytest.raises(ValueError, match="site"):
            integrate_network(g, BASE, ExplicitSchedule([Shock(0.0, 1.0)]),
                              (0.0, 0.0), t_end=1.0)

    @pytest.mark.parametrize("site", [500, -1])
    def test_shock_site_out_of_range_rejected(self, site):
        # -1 would otherwise index the last node; checked before any step,
        # so a shock late in the run fails at once
        g = grid_graph(3, 3)
        with pytest.raises(ValueError, match="node id"):
            integrate_network(g, BASE,
                              ExplicitSchedule([Shock(0.5, 1.0, site)]),
                              (0.0, 0.0), t_end=1.0, dt=1e-3)


# the constants of acceptance criterion 7
SPREAD = ModelParams(omega=0.2, theta=0.3, z0=10.0, beta=1.0, a=5.1, p=0.7,
                     eta=0.2, eta_alpha=0.13)


@st.composite
def member_batches(draw):
    """A hub or two-hub grid of up to 6x6 nodes, an initial state, a record
    stride and 1-6 schedules whose shocks all fall at t=0 and at one later
    time, with drawn amplitudes and sites."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    n = rows * cols
    hubs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2,
                         unique=True))
    graph = grid_graph(rows, cols, ("hub" if len(hubs) == 1 else "two_hubs",
                                    *hubs))
    later = draw(st.floats(0.05, 1.95))
    shocks = st.lists(st.tuples(st.floats(0.01, 15.0),
                                st.integers(0, n - 1)), min_size=1, max_size=2)
    schedules = [
        ExplicitSchedule([Shock(t, a, site) for t in (0.0, later)
                          for a, site in draw(shocks)])
        for _ in range(draw(st.integers(1, 6)))]
    uniform = st.floats(0.0, 2.0)
    initial = draw(st.tuples(uniform, uniform) | st.builds(
        NetworkState, *(st.lists(uniform, min_size=n, max_size=n)
                        .map(np.array) for _ in range(2))))
    return graph, schedules, initial, draw(st.integers(1, 5))


class TestIntegrateMembers:
    @given(case=member_batches())
    @settings(max_examples=25)
    def test_batch_equals_serial_runs_bit_for_bit(self, case):
        graph, schedules, initial, stride = case
        batch = _integrate_members(graph, SPREAD, schedules, initial,
                                   t_end=2.0, dt=0.01, record_stride=stride)
        assert len(batch) == len(schedules)
        for traj, schedule in zip(batch, schedules):
            serial = integrate_network(graph, SPREAD, schedule, initial,
                                       t_end=2.0, dt=0.01,
                                       record_stride=stride)
            for field in ("times", "lam", "alpha", "shock_marks"):
                got, want = getattr(traj, field), getattr(serial, field)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), field
            assert traj.clamp_count == serial.clamp_count

    @pytest.mark.parametrize("times", [(0.0, 0.5), (0.0, (0.0, 0.5)),
                                       ((0.0, 0.5), (0.0, 0.6))])
    def test_shock_times_must_be_shared(self, times):
        schedules = [ExplicitSchedule([Shock(t, 1.0, 0) for t in
                                       np.atleast_1d(ts)]) for ts in times]
        with pytest.raises(ValueError, match="same times"):
            _integrate_members(grid_graph(2, 2), SPREAD, schedules,
                               t_end=1.0, dt=0.1)


class TestActivationTimes:
    def test_seed_activates_after_strong_shock(self):
        p = replace(BASE, eta=0.05, theta=0.12, lambda_b=0.001)
        g = grid_graph(3, 3)
        traj = integrate_network(g, p,
                                 ExplicitSchedule([Shock(0.0, 10.0, 4)]),
                                 (0.01, 0.0), t_end=20.0, dt=1e-3,
                                 record_stride=10)
        act = activation_times(traj, 0.2)
        assert np.isfinite(act[4])

    def test_zero_run_never_activates(self):
        g = grid_graph(2, 2)
        traj = integrate_network(g, BASE, None, (0.0, 0.0), t_end=2.0,
                                 dt=1e-2)
        act = activation_times(traj, 0.2)
        assert np.all(np.isinf(act))

    def test_threshold_fraction_validated(self):
        g = grid_graph(2, 2)
        traj = integrate_network(g, BASE, None, (0.0, 0.0), t_end=1.0,
                                 dt=1e-2)
        with pytest.raises(ValueError):
            activation_times(traj, 1.5)

    @pytest.mark.parametrize("stride", [1, 7, 50])
    def test_first_passages_recorded_equal_activation_times(self, stride):
        # two members: A=9 activates nodes before and after the second
        # shock, A=4 only the node that the second shock hits; that shock
        # falls off the step grid, so the stride counter crosses a segment
        # end
        params = replace(SPREAD, eta_alpha=0.2)
        g = grid_graph(6, 6, ("hub", 21))
        schedules = [ExplicitSchedule([Shock(0.0, a, 21),
                                       Shock(4.013, 6.0, 0)])
                     for a in (9.0, 4.0)]
        run = dict(t_end=10.0, dt=0.02)
        passages = _FirstPassages(_activation_level(params, 0.2), 2 * g.n)
        _drive_members(g, params, schedules, passages.add, (0.01, 0.0),
                       record_stride=stride, **run)
        for act, schedule in zip(passages.first.reshape(2, -1), schedules):
            traj = integrate_network(g, params, schedule, (0.01, 0.0),
                                     record_stride=stride, **run)
            want = activation_times(traj, 0.2)
            assert (want > 4.013).any() and np.isfinite(want).any()
            assert act.tobytes() == want.tobytes()
            assert np.asarray(passages.times).tobytes() == traj.times.tobytes()

    def test_scan_keeps_the_activation_errors(self):
        g = grid_graph(2, 2)
        with pytest.raises(ValueError, match="threshold_fraction"):
            double_threshold_scan(g, BASE, [1.0], 0, t_end=1.0, dt=0.1,
                                  threshold_fraction=1.5)
        with pytest.raises(NoExcitedStateError):
            double_threshold_scan(g, replace(BASE, z0=0.3), [1.0], 0,
                                  t_end=1.0, dt=0.1)


def synthetic_trajectory(graph, act_times, horizon=20.0, lam_high=1.5):
    """A hand-built trajectory whose nodes cross 0.2*peak at given times."""
    times = np.linspace(0.0, horizon, 201)
    lam = np.zeros((times.size, graph.n))
    for s, t_act in enumerate(act_times):
        if np.isfinite(t_act):
            lam[times >= t_act, s] = lam_high
    return NetworkTrajectory(times, lam, np.zeros_like(lam),
                             np.array([], dtype=int), BASE, graph)


class TestClassifySpread:
    def setup_method(self):
        self.g = grid_graph(1, 6)   # path 0-1-2-3-4-5

    def test_no_activation_is_contained(self):
        traj = synthetic_trajectory(self.g, [np.inf] * 6)
        assert classify_spread(traj, self.g, 2).regime == "contained"

    def test_seed_and_neighbors_is_contained(self):
        traj = synthetic_trajectory(
            self.g, [np.inf, 2.0, 1.0, 2.0, np.inf, np.inf])
        assert classify_spread(traj, self.g, 2).regime == "contained"

    def test_ordered_ball_growth_is_local(self):
        traj = synthetic_trajectory(self.g, [3.0, 2.0, 1.0, 2.0, 3.0, 4.0])
        rep = classify_spread(traj, self.g, 2)
        assert rep.regime == "local"
        assert rep.jump_nodes == ()

    def test_jump_activation_is_nonlocal(self):
        # node 5 fires with no previously-activated neighbor
        traj = synthetic_trajectory(
            self.g, [np.inf, 2.0, 1.0, 2.0, np.inf, 3.0])
        rep = classify_spread(traj, self.g, 2)
        assert rep.regime == "nonlocal"
        assert 5 in rep.jump_nodes

    def test_far_before_near_is_nonlocal(self):
        # distance-3 node fires well before a distance-1 node
        traj = synthetic_trajectory(self.g, [8.0, 6.0, 1.0, 2.0, 3.0, 4.0])
        rep = classify_spread(traj, self.g, 2)
        assert rep.regime == "nonlocal"
        assert rep.order_violations > 0

    def test_round_front_in_the_plane_is_local(self):
        # times proportional to Euclidean distance: diagonal nodes are more
        # hops away than axis nodes they precede, which is not disorder
        g = grid_graph(9, 9)
        r = np.linalg.norm(g.positions - g.positions[40], axis=1)
        traj = synthetic_trajectory(g, 1.0 + 2.0 * r)
        rep = classify_spread(traj, g, 40)
        assert rep.regime == "local"
        assert rep.order_violations == 0
        assert rep.jump_nodes == ()

    def test_block_igniting_together_is_nonlocal(self):
        # a 2x2 block ignites at once, apart from the seed's neighborhood;
        # its nodes' only activated neighbors fire in the same sample
        g = grid_graph(9, 9)
        act = np.full(81, np.inf)
        act[40] = 1.0
        act[[31, 39, 41, 49]] = 2.0
        block = [60, 61, 69, 70]
        act[block] = 4.0
        rep = classify_spread(synthetic_trajectory(g, act), g, 40)
        assert rep.regime == "nonlocal"
        assert set(block) <= set(rep.jump_nodes)


class TestDoubleThresholdScan:
    # tension relays along the geographic chain: contained -> local
    RELAY = ModelParams(omega=0.4, theta=0.3, p=0.7, beta=3.0, a=1.0, z0=2.0,
                        eta=0.35)

    def test_contained_to_local_bracket(self):
        g = grid_graph(1, 9)
        scan = double_threshold_scan(g, self.RELAY, [0.3, 2.0, 6.0], 4,
                                     (0.01, 0.0), t_end=30.0, dt=2e-3,
                                     record_stride=20, refine_rounds=1)
        assert scan.regimes == ("contained", "local", "local")
        lo, hi = scan.spread_bracket
        assert 0.3 <= lo < hi <= 2.0
        assert scan.nonlocal_bracket is None
        assert any("partial" in f for f in scan.flags)
        assert scan.monotonic

    def test_empty_grid_observes_no_spreading(self):
        scan = double_threshold_scan(grid_graph(3, 3), self.RELAY, [], 4,
                                     t_end=1.0, dt=0.1)
        assert scan == ThresholdScan((), (), None, None, True,
                                     ("no spreading observed",))

    # a 6x6 hub grid whose stronger tension inflow gives all three regimes
    # within t=15
    HUB_PARAMS = replace(SPREAD, eta_alpha=0.2)
    HUB_RUN = dict(t_end=15.0, dt=0.02, record_stride=5)

    def serial_regime(self, amplitude):
        g = grid_graph(6, 6, ("hub", 21))
        traj = integrate_network(
            g, self.HUB_PARAMS, ExplicitSchedule([Shock(0.0, amplitude, 21)]),
            (0.01, 0.0), **self.HUB_RUN)
        return classify_spread(traj, g, 21).regime

    def serial_scan(self, grid, rounds=3):
        """The scan as one serial run per amplitude: the grid, then one
        bisection round at a time of the first bracket of each level."""
        regimes = [self.serial_regime(a) for a in grid]
        levels = [_REGIME_ORDER[r] for r in regimes]

        def bracket(level):
            pairs = [i for i in range(len(grid) - 1)
                     if levels[i] < level
                     and any(l >= level for l in levels[i + 1:])]
            if not pairs:
                return None
            lo_i = pairs[-1]
            hi_i = next(j for j in range(lo_i + 1, len(grid))
                        if levels[j] >= level)
            lo, hi = grid[lo_i], grid[hi_i]
            for _ in range(rounds):
                mid = 0.5 * (lo + hi)
                if _REGIME_ORDER[self.serial_regime(mid)] >= level:
                    hi = mid
                else:
                    lo = mid
            return lo, hi

        monotonic = levels == sorted(levels)
        spread, nonlocal_ = bracket(1), bracket(2)
        flags = [] if monotonic else [
            "classification not monotone along the grid"]
        if set(regimes) == {"contained"}:
            flags.append("no spreading observed")
        elif spread is None or nonlocal_ is None:
            flags.append("fewer than three regimes observed; partial result")
        return ThresholdScan(tuple(grid), tuple(regimes), spread, nonlocal_,
                             monotonic, tuple(flags))

    def test_batched_scan_equals_serial_bisection(self, monkeypatch):
        g, grid = grid_graph(6, 6, ("hub", 21)), [2.0, 6.0, 14.0]
        batches = []
        scan_regimes = network._scan_regimes

        def spy(graph, params, amplitudes, *args):
            regimes = scan_regimes(graph, params, amplitudes, *args)
            batches.append(dict(zip(amplitudes, regimes)))
            return regimes

        monkeypatch.setattr(network, "_scan_regimes", spy)
        serial = self.serial_scan(grid)
        assert serial.regimes == ("contained", "local", "nonlocal")
        assert serial.monotonic and serial.flags == ()
        assert double_threshold_scan(g, self.HUB_PARAMS, grid, 21,
                                     (0.01, 0.0), refine_rounds=3,
                                     **self.HUB_RUN) == serial
        # one batch: the grid and the 7 dyadic points of each interval,
        # each labelled as its own serial run labels it
        [batch] = batches
        assert len(batch) == 17
        assert batch == {a: self.serial_regime(a) for a in batch}

    @pytest.mark.parametrize("grid, regimes", [
        # nonlocal, then local: both brackets open on the first interval
        ([2.0, 6.5, 6.75], ("contained", "nonlocal", "local")),
        # nothing below local: only the nonlocal bracket opens
        ([6.0, 14.0], ("local", "nonlocal"))])
    def test_uneven_grids_equal_serial_bisection(self, grid, regimes):
        serial = self.serial_scan(grid)
        assert serial.regimes == regimes
        scan = double_threshold_scan(grid_graph(6, 6, ("hub", 21)),
                                     self.HUB_PARAMS, grid, 21, (0.01, 0.0),
                                     refine_rounds=3, **self.HUB_RUN)
        assert scan == serial

    def test_all_quiet_flags_no_spreading(self):
        g = grid_graph(1, 9)
        scan = double_threshold_scan(g, self.RELAY, [0.05, 0.1], 4,
                                     (0.01, 0.0), t_end=10.0, dt=2e-3,
                                     record_stride=20, refine_rounds=1)
        assert all(r == "contained" for r in scan.regimes)
        assert "no spreading observed" in scan.flags

    def test_grid_must_increase(self):
        g = grid_graph(1, 9)
        with pytest.raises(ValueError):
            double_threshold_scan(g, self.RELAY, [2.0, 1.0], 4)


class TestDelayExperiment:
    DELAY = ModelParams(omega=0.4, theta=0.12, p=0.7, beta=3.0, a=1.0,
                        z0=2.0, eta=0.02, lambda_b=0.001)

    def test_zero_second_amplitude_is_identity(self):
        g = grid_graph(4, 4, ("two_hubs", 0, 15))
        rep = delay_experiment(g, self.DELAY, 5.0, 0, 0.0, 15, 5.0,
                               (0.01, 0.0), t_end=15.0, dt=2e-3,
                               record_stride=20)
        assert rep.total_activity_single == rep.total_activity_double
        assert rep.post_t2_activity_single == rep.post_t2_activity_double
        assert not rep.dominates_after_t2

    def test_second_event_adds_activity(self):
        g = grid_graph(4, 4, ("two_hubs", 0, 15))
        rep = delay_experiment(g, self.DELAY, 5.0, 0, 2.0, 15, 10.0,
                               (0.01, 0.0), t_end=40.0, dt=2e-3,
                               record_stride=20)
        assert rep.dominates_after_t2
        assert rep.activated_double >= rep.activated_single


class TestSerialization:
    def test_rows_and_header(self, tmp_path):
        g = grid_graph(1, 2)
        traj = integrate_network(g, BASE, None, (0.1, 0.2), t_end=1.0,
                                 dt=0.5)
        path = tmp_path / "net.txt"
        save_network_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t node lambda alpha"
        assert len(lines) == 1 + traj.times.size * 2


class TestEdgeListFiles:
    def test_load_geo_and_social(self, tmp_path):
        from riotdyn import graph_from_edge_files
        geo = tmp_path / "geo.txt"
        geo.write_text("0 1\n1 2\n# comment\n\n2 3\n")
        social = tmp_path / "social.txt"
        social.write_text("1 0\n2 0\n3 0\n")
        g = graph_from_edge_files(4, geo, social)
        assert dense(g.n, g.edges_geo).sum() == 6   # three undirected edges
        assert g.degrees_social.tolist() == [0, 1, 1, 1]

    def test_social_defaults_to_geography(self, tmp_path):
        from riotdyn import graph_from_edge_files
        geo = tmp_path / "geo.txt"
        geo.write_text("0 1\n")
        g = graph_from_edge_files(2, geo)
        np.testing.assert_array_equal(dense(g.n, g.edges_social),
                                      dense(g.n, g.edges_geo))

    def test_malformed_line_reports_position(self, tmp_path):
        from riotdyn import graph_from_edge_files
        geo = tmp_path / "geo.txt"
        geo.write_text("0 1\n0 1 2\n")
        with pytest.raises(ValueError, match=":2"):
            graph_from_edge_files(3, geo)

    @pytest.mark.parametrize("line, pair", [("0 -1", "(0, -1)"),
                                            ("0 3", "(0, 3)")])
    def test_node_id_outside_the_graph_names_the_pair(self, tmp_path, line,
                                                      pair):
        # "0 -1" would otherwise become the edge 0-2
        from riotdyn import graph_from_edge_files
        geo, social = tmp_path / "geo.txt", tmp_path / "social.txt"
        geo.write_text("0 1\n" + line + "\n")
        social.write_text(line + "\n")
        message = re.escape(f"edge {pair}: node")
        with pytest.raises(ValueError, match=message):
            graph_from_edge_files(3, geo)
        geo.write_text("0 1\n1 2\n")
        with pytest.raises(ValueError, match=message):
            graph_from_edge_files(3, geo, social)
