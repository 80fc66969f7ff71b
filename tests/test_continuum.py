"""Continuum solver: stencils, kernels, integration, and the analyses."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riotdyn import continuum
from riotdyn import (ExplicitSchedule, FieldState, FieldTrajectory,
                     ModelParams, NonlocalSpec, PdeParams, Shock, SpatialGrid,
                     cfl_time_step, find_bistability_boundary, integrate_pde,
                     kernel_matrix, laplacian, load_field_trajectory,
                     mass_diagnostics, peak_activity, pde_rhs_local,
                     pde_rhs_nonlocal, peak_statistics, save_field_trajectory,
                     steady_states, track_front)
from riotdyn.model import (self_reinforcement_arr, tension_decay_rate_arr,
                           transition_rate_arr)

# regime-classification family (the bistable/monostable front presets)
REGIME = ModelParams(omega=0.2, theta=0.05, eta=0.01, p=0.5, z0=10.0,
                     beta=3.0, alpha_b=2.0, a=5.0)
# mass-decay family
MASS = ModelParams(omega=0.2, theta=0.3, eta=0.01, p=0.7, z0=10.0, beta=3.0,
                   a=2.0)


def grid1d(length=20.0, cells=400):
    return SpatialGrid((length,), (cells,))


class TestSpatialGrid:
    def test_minimum_cells(self):
        with pytest.raises(ValueError):
            SpatialGrid((10.0,), (4,))

    def test_uniform_cell_size_across_axes(self):
        with pytest.raises(ValueError):
            SpatialGrid((10.0, 5.0), (20, 20))
        g = SpatialGrid((10.0, 5.0), (20, 10))
        assert g.dx == 0.5
        assert g.shape == (10, 20)

    def test_cell_index(self):
        g = grid1d(20.0, 400)
        assert g.cell_index(0.0) == (0,)
        assert g.cell_index(19.999) == (399,)
        assert g.cell_index(25.0) == (399,)   # clamped into the domain


def padded_laplacian(u, dx):
    """The edge-padded form of the Laplacian, whose bits the slice stencil
    keeps."""
    p = np.pad(u, 1, mode="edge")
    if u.ndim == 1:
        lap = p[:-2] + p[2:] - 2.0 * u
    else:
        lap = (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]
               - 4.0 * u)
    return lap / (dx * dx)


def reference_kernel_matrix(grid, spec):
    """The kernel matrix built from whole-array temporaries, whose bits the
    in-place build keeps."""
    x = grid.centers()
    dist = np.abs(x[:, None] - x[None, :])
    kind, scale = spec.kernel
    if kind == "tophat":
        K = (dist <= scale).astype(float) * grid.dx
    else:
        K = np.exp(-0.5 * (dist / scale) ** 2) * grid.dx
    if spec.normalize:
        K = K / K.sum(axis=1)[:, None]
    return K


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestLaplacian:
    @settings(max_examples=100)
    @given(st.one_of(st.tuples(st.integers(8, 64)),
                     st.tuples(st.integers(8, 64), st.integers(8, 64)))
           .flatmap(lambda shape: arrays(float, shape,
                                         elements=st.floats(1e-5, 1e5))),
           st.floats(0.01, 2.0))
    def test_slice_stencil_keeps_the_padded_bits(self, u, dx):
        assert_same_bytes(laplacian(u, dx), padded_laplacian(u, dx))

    def test_uniform_field_is_flat(self):
        assert np.all(laplacian(np.full(32, 3.7), 0.1) == 0.0)
        assert np.all(laplacian(np.full((8, 8), 1.2), 0.1) == 0.0)

    def test_interior_spike_stencil(self):
        u = np.zeros(9)
        u[4] = 1.0
        lap = laplacian(u, 1.0)
        assert lap[4] == -2.0
        assert lap[3] == 1.0 and lap[5] == 1.0

    def test_zero_flux_conserves_mass(self):
        rng = np.random.default_rng(0)
        u = rng.random(64)
        assert abs(laplacian(u, 0.37).sum()) < 1e-12 / 0.37 ** 2
        u2 = rng.random((16, 16))
        assert abs(laplacian(u2, 0.5).sum()) < 1e-10


class TestKernelMatrix:
    def test_tophat_below_cell_size_is_self_averaging(self):
        g = grid1d(8.0, 8)
        spec = NonlocalSpec(0.5, ("tophat", 0.3))   # radius < dx = 1
        K = kernel_matrix(g, spec)
        np.testing.assert_allclose(K, np.eye(8))

    def test_symmetric_kernel_symmetric_matrix(self):
        g = grid1d(8.0, 8)
        K = kernel_matrix(g, NonlocalSpec(0.5, ("gaussian", 1.0),
                                          normalize=False))
        np.testing.assert_allclose(K, K.T)

    def test_normalized_rows_sum_to_one(self):
        g = grid1d(20.0, 64)
        K = kernel_matrix(g, NonlocalSpec(0.5, ("tophat", 2.0)))
        np.testing.assert_allclose(K.sum(axis=1), 1.0)

    @given(st.integers(8, 80), st.floats(0.1, 50.0),
           st.sampled_from(["tophat", "gaussian"]), st.floats(0.01, 10.0),
           st.booleans())
    def test_in_place_build_keeps_the_bits(self, cells, length, kind, scale,
                                           normalize):
        g = grid1d(length, cells)
        spec = NonlocalSpec(0.5, (kind, scale), normalize)
        assert_same_bytes(kernel_matrix(g, spec),
                          reference_kernel_matrix(g, spec))

    @pytest.mark.parametrize("kernel", [("tophat", 1.0), ("gaussian", 0.8)])
    def test_one_matrix_of_memory(self, kernel):
        # the 401-cell nonlocal run's kernel is built in its own n x n
        # buffer; a second full-size temporary would break the bound
        n = 401
        g = grid1d(20.0, n)
        tracemalloc.start()
        try:
            kernel_matrix(g, NonlocalSpec(0.2, kernel))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n * 8

    @pytest.mark.parametrize("kernel", [
        np.ones((8, 8)), ("box", 1.0), ("tophat", 0.0), ("gaussian", -1.0),
        ("tophat", math.inf), ("gaussian", math.nan), ("tophat", "1.0"),
        ("tophat",)])
    def test_spec_rejects_a_bad_kernel_when_built(self, kernel):
        with pytest.raises(ValueError, match="kernel must be"):
            NonlocalSpec(0.5, kernel)


class TestRhs:
    def test_uniform_fields_have_no_diffusion(self):
        g = grid1d()
        pp = PdeParams(model=MASS, D=1.0)
        state = FieldState(np.full(400, 2.0), np.full(400, 1.0))
        dlam, dalpha = pde_rhs_local(state, g, pp)
        assert np.ptp(dlam) < 1e-12 and np.ptp(dalpha) < 1e-12

    def test_tension_reaction_matches_k1(self):
        # at lam=0, alpha=1, alpha_b=0: reaction is -(theta - eta) = -k1
        g = grid1d()
        p = replace(MASS, theta=0.3, eta=0.01)
        pp = PdeParams(model=p, D=1.0)
        state = FieldState(np.zeros(400), np.ones(400))
        _, dalpha = pde_rhs_local(state, g, pp)
        np.testing.assert_allclose(dalpha, -0.29, atol=1e-14)

    def test_nonlocal_uniform_convolution_variant(self):
        # normalized symmetric kernel on a constant field: coupling
        # minus identity vanishes, leaving the literal double decay
        g = grid1d(20.0, 64)
        spec = NonlocalSpec(0.5, ("gaussian", 1.0), variant="convolution")
        pp = PdeParams(model=MASS, D=1.0, nonlocal_spec=spec)
        state = FieldState(np.zeros(64), np.full(64, 3.0))
        _, dalpha = pde_rhs_nonlocal(state, g, pp)
        expected = -(MASS.theta + 0.5) * 3.0
        np.testing.assert_allclose(dalpha, expected, atol=1e-12)

    def test_nonlocal_drop_duplicate_decay_flag(self):
        g = grid1d(20.0, 64)
        spec = NonlocalSpec(0.5, ("gaussian", 1.0), variant="convolution",
                            drop_duplicate_decay=True)
        pp = PdeParams(model=MASS, D=1.0, nonlocal_spec=spec)
        state = FieldState(np.zeros(64), np.full(64, 3.0))
        _, dalpha = pde_rhs_nonlocal(state, g, pp)
        np.testing.assert_allclose(dalpha, -MASS.theta * 3.0, atol=1e-12)

    def test_nonlocal_averaging_inflow(self):
        g = grid1d(20.0, 64)
        spec = NonlocalSpec(0.5, ("tophat", 2.0), variant="averaging")
        pp = PdeParams(model=MASS, D=1.0, nonlocal_spec=spec)
        state = FieldState(np.zeros(64), np.full(64, 3.0))
        _, dalpha = pde_rhs_nonlocal(state, g, pp)
        np.testing.assert_allclose(dalpha, (0.5 - MASS.theta) * 3.0,
                                   atol=1e-12)


def reference_rhs_local(state, grid, pp):
    """Reference local RHS, evaluated term by term in the order the
    recorded output bytes depend on."""
    m = pp.model
    lam, alpha = state.lam, state.alpha
    dlam = (pp.D * laplacian(lam, grid.dx)
            + transition_rate_arr(alpha, m) * self_reinforcement_arr(lam, m)
            - m.kappa * lam)
    dalpha = (pp.D * laplacian(alpha, grid.dx)
              - (tension_decay_rate_arr(lam, m) - m.eta) * alpha
              + m.theta * m.alpha_b)
    return dlam, dalpha


def reference_rhs_nonlocal(state, grid, pp, K):
    """Reference nonlocal RHS, evaluated term by term in the order the
    recorded output bytes depend on."""
    spec = pp.nonlocal_spec
    m = pp.model
    lam, alpha = state.lam, state.alpha
    dlam = (pp.D * laplacian(lam, grid.dx)
            - m.kappa * lam
            + transition_rate_arr(alpha, m) * self_reinforcement_arr(lam, m)
            + m.omega * m.lambda_b)
    coupled = K @ alpha
    if spec.variant == "averaging":
        dalpha = (spec.eta_bar * coupled
                  - tension_decay_rate_arr(lam, m) * alpha
                  + m.theta * m.alpha_b)
    else:
        decay = tension_decay_rate_arr(lam, m)
        if not spec.drop_duplicate_decay:
            decay = decay + spec.eta_bar
        dalpha = (spec.eta_bar * (coupled - alpha) - decay * alpha
                  + m.theta * m.alpha_b)
    return dlam, dalpha


RHS_MODELS = (MASS, REGIME,
              ModelParams(omega=0.2, theta=0.05, eta=0.198, p=0.7, z0=10.0,
                          beta=1.0, a=100.0),
              ModelParams(omega=0.9, theta=0.7, eta=0.1, z0=2.0,
                          lambda_b=0.03, alpha_b=0.4, decay_form="exponential"))
FIELD_VALUES = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def rhs_cases(draw, dimension):
    """A grid, PDE params and a nonnegative state on it."""
    dx = draw(st.sampled_from([0.05, 0.25, 1.0]))
    cells = tuple(draw(st.integers(8, 40 if dimension == 1 else 12))
                  for _ in range(dimension))
    grid = SpatialGrid(tuple(n * dx for n in cells), cells)
    spec = None
    if dimension == 1 and draw(st.booleans()):
        kind = draw(st.sampled_from(["tophat", "gaussian"]))
        spec = NonlocalSpec(
            draw(st.floats(0.01, 2.0)), (kind, draw(st.floats(0.01, 5.0))),
            draw(st.booleans()),
            draw(st.sampled_from(["averaging", "convolution"])),
            draw(st.booleans()))
    pp = PdeParams(draw(st.sampled_from(RHS_MODELS)),
                   draw(st.sampled_from([0.1, 0.37, 1.0])), spec)
    lam, alpha = (draw(arrays(float, grid.shape, elements=FIELD_VALUES))
                  for _ in range(2))
    return grid, pp, FieldState(lam, alpha)


class TestRhsBuiltOnce:
    @settings(max_examples=80)
    @given(st.one_of(rhs_cases(1), rhs_cases(2)))
    def test_local_rhs_keeps_its_bits(self, case):
        # a nonlocal spec in the params is ignored
        grid, pp, state = case
        for got, want in zip(pde_rhs_local(state, grid, pp),
                             reference_rhs_local(state, grid, pp)):
            np.testing.assert_array_equal(got, want, strict=True)

    @settings(max_examples=80)
    @given(rhs_cases(1))
    def test_nonlocal_rhs_keeps_its_bits(self, case):
        grid, pp, state = case
        if pp.nonlocal_spec is None:
            pp = replace(pp, nonlocal_spec=NonlocalSpec(0.3))
        K = kernel_matrix(grid, pp.nonlocal_spec)
        want = reference_rhs_nonlocal(state, grid, pp, K)
        for rhs in (pde_rhs_nonlocal(state, grid, pp),
                    pde_rhs_nonlocal(state, grid, pp, K)):
            for got, expected in zip(rhs, want):
                np.testing.assert_array_equal(got, expected, strict=True)

    @pytest.mark.parametrize("spec", [None, NonlocalSpec(0.2, ("gaussian",
                                                               1.0))])
    def test_field_states_do_not_grow_with_the_steps(self, monkeypatch,
                                                     spec):
        built = []
        check = FieldState.__post_init__

        def counted(state):
            built.append(state)
            check(state)

        monkeypatch.setattr(FieldState, "__post_init__", counted)
        g = grid1d(8.0, 32)
        pp = PdeParams(model=MASS, D=0.1, nonlocal_spec=spec)
        init = FieldState(np.full(32, 0.5), np.full(32, 1.0))
        counts = []
        for t_end in (0.1, 1.0):
            built.clear()
            integrate_pde(pp, g, ExplicitSchedule([Shock(0.05, 2.0, 3.0)]),
                          init, t_end=t_end, dt=0.01)
            counts.append(len(built))
        assert counts == [0, 0]
        integrate_pde(pp, g, None, None, t_end=0.1, dt=0.01)
        assert len(built) == 1       # the zero initial fields


class TestPdeParams:
    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError, match="kappa"):
            PdeParams(model=replace(MASS, eta=0.3), D=1.0)

    def test_cfl_bound(self):
        g = grid1d(20.0, 400)   # dx = 0.05
        pp = PdeParams(model=MASS, D=0.1)
        assert cfl_time_step(g, pp) == pytest.approx(0.4 * 0.05 ** 2 / 0.2)

    def test_integrate_rejects_large_dt(self):
        g = grid1d()
        pp = PdeParams(model=MASS, D=1.0)
        with pytest.raises(ValueError, match="stability bound"):
            integrate_pde(pp, g, None, None, t_end=1.0, dt=1.0)


class TestIntegratePde:
    def test_zero_data_stays_zero(self):
        g = grid1d(20.0, 64)
        pp = PdeParams(model=MASS, D=1.0)
        traj = integrate_pde(pp, g, None, None, t_end=1.0)
        assert np.all(traj.lam == 0.0) and np.all(traj.alpha == 0.0)

    def test_shock_deposits_exact_mass(self):
        g = grid1d(20.0, 400)
        pp = PdeParams(model=MASS, D=0.1)
        traj = integrate_pde(pp, g, ExplicitSchedule([Shock(0.0, 5.0, 10.0)]),
                             None, t_end=0.05, dt=5e-3)
        mass0 = traj.alpha[0].sum() * g.dx
        assert mass0 == pytest.approx(5.0, rel=1e-12)

    def test_gaussian_deposit_same_mass(self):
        g = grid1d(20.0, 400)
        pp = PdeParams(model=MASS, D=0.1, deposit="gaussian",
                       deposit_width=0.5)
        traj = integrate_pde(pp, g, ExplicitSchedule([Shock(0.0, 5.0, 10.0)]),
                             None, t_end=0.05, dt=5e-3)
        assert traj.alpha[0].sum() * g.dx == pytest.approx(5.0, rel=1e-12)

    def test_frozen_activity_gives_exact_exponential(self):
        # zero activity stays zero (G(0) = 0, lambda_b = 0), so h == theta
        # and the tension mass decays exactly like A exp(-k1 t)
        g = grid1d(20.0, 400)
        pp = PdeParams(model=MASS, D=0.1)
        traj = integrate_pde(pp, g, ExplicitSchedule([Shock(0.0, 5.0, 10.0)]),
                             None, t_end=20.0, dt=5e-3, record_stride=100)
        assert np.all(traj.lam == 0.0)
        mass = traj.alpha.sum(axis=1) * g.dx
        expected = 5.0 * np.exp(-(MASS.theta - MASS.eta) * traj.times)
        assert np.max(np.abs(mass - expected) / expected) < 1e-6

    def test_snapshot_shapes_and_shock_record(self):
        g = grid1d(20.0, 64)
        pp = PdeParams(model=MASS, D=1.0)
        traj = integrate_pde(pp, g, ExplicitSchedule([Shock(1.0, 2.0, 3.0)]),
                             None, t_end=2.0, record_stride=10)
        assert traj.lam.shape == (traj.times.size, 64)
        k = int(traj.shock_marks[0])
        assert traj.times[k] == pytest.approx(1.0)

    def test_2d_field_write_round_trip(self, tmp_path):
        g = SpatialGrid((5.0, 4.0), (10, 8))       # nx=10, ny=8, dx=0.5
        pp = PdeParams(model=MASS, D=0.5)
        traj = integrate_pde(
            pp, g, ExplicitSchedule([Shock(0.0, 3.0, (1.2, 3.1))]),
            None, t_end=0.2, dt=0.02, record_stride=4)
        path = tmp_path / "fields.txt"
        save_field_trajectory(traj, path)
        assert path.read_text().splitlines()[0] == "t x y lambda alpha"
        data = np.loadtxt(path, skiprows=1)
        T, ny, nx = traj.lam.shape
        assert data.shape == (T * ny * nx, 5)
        rows = data.reshape(T, ny, nx, 5)
        # y is the outer and x the inner loop within each snapshot
        np.testing.assert_array_equal(
            rows[..., 0],
            np.broadcast_to(traj.times[:, None, None], (T, ny, nx)))
        np.testing.assert_array_equal(rows[0, 0, :, 1], g.centers(0))
        np.testing.assert_array_equal(rows[0, :, 0, 2], g.centers(1))
        # %.17g round-trips float64 exactly
        np.testing.assert_array_equal(rows[..., 3], traj.lam)
        np.testing.assert_array_equal(rows[..., 4], traj.alpha)
        # the one deposit cell at t=0 is row iy=6, column ix=2
        assert np.argwhere(rows[0, ..., 4]).tolist() == [[6, 2]]

    @pytest.mark.parametrize("grid", [SpatialGrid((5.0, 4.0), (10, 8)),
                                      SpatialGrid((5.0,), (10,))],
                             ids=["2d", "1d"])
    def test_field_load_round_trip(self, tmp_path, grid):
        pp = PdeParams(model=MASS, D=0.5)
        site = 1.2 if grid.dimension == 1 else (1.2, 3.1)
        shocks = (Shock(0.0, 3.0, site),)
        traj = integrate_pde(pp, grid, ExplicitSchedule(list(shocks)), None,
                             t_end=0.2, dt=0.02, record_stride=4)
        path = tmp_path / "fields.txt"
        save_field_trajectory(traj, path)
        loaded = load_field_trajectory(path, grid, pp, shocks)
        for name in ("times", "lam", "alpha"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(traj, name), strict=True)
        assert loaded.shocks == shocks and loaded.grid == grid


class TestMassDiagnostics:
    def test_rates_and_envelope(self):
        g = grid1d(20.0, 400)
        pp = PdeParams(model=MASS, D=0.1)
        init = FieldState(np.full(400, 2.0), np.zeros(400))
        traj = integrate_pde(pp, g, ExplicitSchedule([Shock(0.0, 5.0, 10.0)]),
                             init, t_end=60.0, dt=5e-3, record_stride=100)
        rep = mass_diagnostics(traj)
        assert rep.k1 == pytest.approx(0.29, abs=1e-12)
        assert rep.k2 == pytest.approx(
            0.3 / (1.0 + 9.8) ** 0.7 - 0.01, abs=1e-12)
        assert rep.hypothesis_ok
        assert rep.k2 < rep.fitted_rate < rep.k1
        assert rep.rate_within_bounds
        inside = ((rep.alpha_mass >= rep.lower_envelope * 0.98)
                  & (rep.alpha_mass <= rep.upper_envelope * 1.02))
        assert inside.all()

    def test_zero_fields_zero_mass(self):
        g = grid1d(20.0, 64)
        pp = PdeParams(model=MASS, D=1.0)
        traj = integrate_pde(pp, g, None, None, t_end=1.0)
        rep = mass_diagnostics(traj)
        assert np.all(rep.lam_mass == 0.0) and np.all(rep.alpha_mass == 0.0)

    def test_activity_mass_extinction(self):
        # once the tension has decayed the activity mass falls below
        # eps = 1e-3 |domain| peak and stays there for the rest of the run
        g = grid1d(20.0, 400)
        pp = PdeParams(model=MASS, D=0.1)
        init = FieldState(np.full(400, 2.0), np.zeros(400))
        traj = integrate_pde(pp, g, ExplicitSchedule([Shock(0.0, 5.0, 10.0)]),
                             init, t_end=80.0, dt=5e-3, record_stride=100)
        rep = mass_diagnostics(traj)
        eps = 1e-3 * 20.0 * peak_activity(MASS)
        below = np.nonzero(rep.lam_mass < eps)[0]
        assert below.size > 0
        assert np.all(rep.lam_mass[below[0]:] < eps)
        assert traj.clamp_count == 0

    def test_hypothesis_violation_flagged(self):
        # eta above h(peak): the decay hypothesis fails, bounds skipped
        g = grid1d(20.0, 64)
        p = ModelParams(omega=0.2, theta=0.05, eta=0.198, p=0.7, z0=10.0,
                        beta=1.0, a=100.0)
        pp = PdeParams(model=p, D=0.1)
        traj = integrate_pde(pp, g, ExplicitSchedule([Shock(0.0, 5.0, 10.0)]),
                             None, t_end=2.0, record_stride=10)
        rep = mass_diagnostics(traj)
        assert not rep.hypothesis_ok
        assert rep.rate_within_bounds is None


class TestSteadyStates:
    def test_bistable_at_high_critical_tension(self):
        rep = steady_states(REGIME)
        assert rep.classification == "bistable"
        assert len(rep.states) == 3
        assert rep.states[0] == (pytest.approx(2.5), 0.0)

    def test_monostable_at_low_critical_tension(self):
        rep = steady_states(replace(REGIME, a=1.0))
        assert rep.classification == "monostable"

    def test_trivial_rest_state_without_base_tension(self):
        rep = steady_states(replace(REGIME, alpha_b=0.0))
        assert rep.states[0] == (0.0, 0.0)

    def test_positivity_failure_raises(self):
        with pytest.raises(ValueError, match="positivity"):
            steady_states(replace(REGIME, eta=0.06))  # eta >= theta = h(0)

    def test_bistability_boundary_bisection(self):
        a_star = find_bistability_boundary(REGIME, 1.0, 5.0, tol=1e-3)
        assert 1.0 < a_star < 5.0
        assert steady_states(replace(REGIME, a=a_star + 0.01)
                             ).classification == "bistable"
        assert steady_states(replace(REGIME, a=a_star - 0.01)
                             ).classification == "monostable"


class TestTrackFront:
    def test_stationary_field_speed_zero(self):
        g = grid1d(20.0, 64)
        pp = PdeParams(model=REGIME, D=1.0)
        times = np.linspace(0.0, 10.0, 21)
        lam = np.tile(np.full(64, 9.0), (21, 1))
        traj = FieldTrajectory(times, lam, np.zeros_like(lam),
                               np.array([], dtype=int), (), g, pp)
        rep = track_front(traj)
        assert rep.speed == pytest.approx(0.0, abs=1e-12)

    def test_manufactured_translating_profile(self):
        g = SpatialGrid((40.0,), (800,))   # dx = 0.05
        pp = PdeParams(model=replace(REGIME, alpha_b=0.0), D=1.0)
        times = np.linspace(0.0, 10.0, 51)
        x = g.centers()
        lam = 9.8 / (1.0 + np.exp((x[None, :] - 5.0 - times[:, None]) / 0.5))
        traj = FieldTrajectory(times, lam, np.zeros_like(lam),
                               np.array([], dtype=int), (), g, pp)
        rep = track_front(traj)
        assert abs(rep.speed - 1.0) < 0.01

    def test_no_front_no_estimate(self):
        g = grid1d(20.0, 64)
        pp = PdeParams(model=REGIME, D=1.0)
        traj = integrate_pde(pp, g, None, None, t_end=1.0)
        rep = track_front(traj)
        assert rep.speed is None


class TestPeakStatistics:
    def test_uniform_run_is_trivially_monotone(self):
        g = grid1d(20.0, 64)
        pp = PdeParams(model=MASS, D=1.0)
        init = FieldState(np.full(64, 2.0), np.zeros(64))
        traj = integrate_pde(pp, g, None, init, t_end=1.0, record_stride=10)
        rep = peak_statistics(traj, 10.0)
        assert rep.p_violation_fraction == 0.0
        assert rep.t_violation_fraction == 0.0

    def test_spreading_bump_centered_at_trigger(self):
        p = ModelParams(omega=0.2, theta=0.05, eta=0.198, p=0.7, z0=10.0,
                        beta=1.0, a=100.0)
        g = grid1d(20.0, 400)
        pp = PdeParams(model=p, D=0.1)
        init = FieldState(np.full(400, 2.0), np.zeros(400))
        traj = integrate_pde(pp, g,
                             ExplicitSchedule([Shock(0.0, 100.0, 5.0)]),
                             init, t_end=10.0, dt=5e-3, record_stride=100)
        x = g.centers()
        mid = traj.lam[len(traj.times) // 2]
        assert abs(x[mid.argmax()] - 5.0) < 0.5       # centered at the shock
        ignited_mid = (mid > 5.0).sum()
        ignited_end = (traj.lam[-1] > 5.0).sum()
        assert ignited_end > ignited_mid > 0           # and spreading


class TestNonlocalIntegration:
    def test_tiny_tophat_matches_self_coupling(self, monkeypatch):
        # below the cell size the kernel matrix is the identity, so the
        # nonlocal run coincides with the self-coupling limit exactly
        g = grid1d(16.0, 32)
        pp = PdeParams(model=MASS, D=0.5, nonlocal_spec=NonlocalSpec(
            0.05, ("tophat", 0.2)))                          # radius < dx
        init = FieldState(np.full(32, 0.5), np.full(32, 1.0))
        base = integrate_pde(pp, g, None, init, t_end=2.0, record_stride=10)
        monkeypatch.setattr(continuum, "kernel_matrix",
                            lambda grid, spec: np.eye(32))
        ident = integrate_pde(pp, g, None, init, t_end=2.0, record_stride=10)
        np.testing.assert_allclose(base.alpha, ident.alpha, atol=1e-12)

    def test_wider_kernel_departs_from_self_coupling(self):
        g = grid1d(16.0, 32)
        rng = np.random.default_rng(3)
        init = FieldState(np.zeros(32), rng.random(32))
        fields = {}
        for radius in (0.2, 2.0):
            pp = PdeParams(model=MASS, D=0.5,
                           nonlocal_spec=NonlocalSpec(0.05,
                                                      ("tophat", radius)))
            fields[radius] = integrate_pde(pp, g, None, init, t_end=2.0,
                                           record_stride=10).alpha[-1]
        assert np.max(np.abs(fields[0.2] - fields[2.0])) > 1e-4

    def test_convolution_tends_to_the_local_run_as_the_kernel_narrows(self):
        # eta_bar (J*alpha - alpha) -> eta_bar (w^2/2) alpha'' for a
        # normalized Gaussian of width w (Andreu-Vaillo, Mazon, Rossi and
        # Toledo-Melero, Nonlocal Diffusion Problems, AMS 2010).  With
        # eta = lambda_b = 0, the single-decay convolution variant at
        # eta_bar = 2D/w^2 differs from the local system only in that
        # term, so the tension converges to the local run at second order
        # in w: halving w divides the error by about four
        params = replace(MASS, eta=0.0)
        g = grid1d(20.0, 400)
        init = FieldState(np.full(400, 2.0), np.zeros(400))
        run = dict(schedule=ExplicitSchedule([Shock(0.0, 5.0, 10.0)]),
                   initial=init, t_end=6.0, dt=0.004, record_stride=10 ** 9)
        deposit = dict(D=0.1, deposit="gaussian", deposit_width=0.5)
        local = integrate_pde(PdeParams(model=params, **deposit), g, **run)
        errors = []
        for w in (0.4, 0.2, 0.1):
            spec = NonlocalSpec(2.0 * 0.1 / w ** 2, ("gaussian", w),
                                normalize=True, variant="convolution",
                                drop_duplicate_decay=True)
            traj = integrate_pde(PdeParams(model=params, nonlocal_spec=spec,
                                           **deposit), g, **run)
            errors.append(np.max(np.abs(traj.alpha[-1] - local.alpha[-1])))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(3.0 <= r <= 5.0 for r in ratios), (errors, ratios)


class TestSpatialConvergence:
    def test_second_order_in_dx(self, mesh_halving_runs):
        # smooth (gaussian) deposit keeps the problem resolution-independent
        (g1, u1), (g2, u2), (g4, u4) = mesh_halving_runs
        x1 = g1.centers()
        d1 = np.max(np.abs(u1 - np.interp(x1, g2.centers(), u2)))
        d2 = np.max(np.abs(np.interp(x1, g2.centers(), u2)
                           - np.interp(x1, g4.centers(), u4)))
        assert 3.0 <= d1 / d2 <= 5.0
