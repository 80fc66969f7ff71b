"""Shared fixtures: the phase-plane workhorse parameter set and a few
expensive trajectories reused across test modules."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import settings

from riotdyn import (ExplicitSchedule, FieldState, ModelParams, PdeParams,
                     Shock, SiteState, SpatialGrid, integrate_pde,
                     integrate_site)

# every property test draws the same examples on every run; tests that set
# their own max_examples keep it
settings.register_profile("riotdyn", derandomize=True, deadline=None,
                          database=None, max_examples=50)
settings.load_profile("riotdyn")

# the single-site analysis set: omega=0.4, theta=0.7, p=0.7, beta=3, a=1, z0=2
BASE = ModelParams()

SLOW = ModelParams(omega=0.2, theta=0.1, p=1.0, beta=10.0, a=6.0, z0=10.0)


@pytest.fixture(autouse=True)
def _quiet_model_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*excitability.*")
        warnings.filterwarnings("ignore", message=".*tension decay.*")
        warnings.filterwarnings("ignore", message=".*activity coupling.*")
        yield


@pytest.fixture(scope="session")
def strong_shock_run():
    """A=30 burst on the workhorse set, dense records."""
    return integrate_site(BASE, ExplicitSchedule([Shock(0.0, 30.0)]),
                          SiteState(0.01, 0.0), t_end=80.0, dt=1e-3,
                          record_stride=1)


@pytest.fixture(scope="session")
def slow_burst_run():
    """The slow-relaxation preset: burst, plateau, monotone decay."""
    return integrate_site(SLOW, ExplicitSchedule([Shock(0.0, 5.0)]),
                          SiteState(0.1, 2.0), t_end=160.0, dt=1e-3,
                          record_stride=10)


@pytest.fixture(scope="session")
def mesh_halving_runs():
    """The PDE runs behind the mesh-halving checks: 100, 200 and 400 cells
    on [0, 20], a resolution-independent (gaussian) deposit, dt=2e-4 to
    t=6.  A list of (grid, final activity) pairs, coarsest first."""
    params = ModelParams(omega=0.2, theta=0.05, eta=0.198, p=0.7, z0=10.0,
                         beta=1.0, a=100.0)
    pp = PdeParams(model=params, D=0.1, deposit="gaussian",
                   deposit_width=0.5)
    runs = []
    for cells in (100, 200, 400):
        g = SpatialGrid((20.0,), (cells,))
        init = FieldState(np.exp(-10.0 * g.centers()), np.zeros(cells))
        traj = integrate_pde(pp, g, ExplicitSchedule([Shock(0.0, 50.0, 0.0)]),
                             init, t_end=6.0, dt=2e-4, record_stride=10 ** 9)
        runs.append((g, traj.lam[-1]))
    return runs
