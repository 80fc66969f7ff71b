"""The program names the benchmark's tracer relies on.

``bench/tracing.py`` wraps public functions by name and times the RHS
functions by calling them directly; a rename or a new signature would leave
its per-layer metrics reading 0 without failing any run.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from riotdyn import (ExplicitSchedule, FieldState, ModelParams, NonlocalSpec,
                     PdeParams, Shock, SpatialGrid, grid_graph,
                     integrate_network, integrate_pde)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_functions_of_their_layer(tracing):
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"riotdyn.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for name in tracing.KEEP_RESULTS:
        layer, fname = name.split(".")
        assert fname in tracing.TRACED[layer]


def test_rhs_timings_call_the_rhs_functions(tracing):
    # the trajectories the traced integrators would keep, one per model
    params = ModelParams(eta=0.1)
    net = integrate_network(grid_graph(3, 3), params,
                            ExplicitSchedule([Shock(0.0, 2.0, 4)]),
                            (0.1, 0.0), 0.5, dt=0.1)
    grid = SpatialGrid((8.0,), (16,))
    init = FieldState(np.full(16, 0.5), np.full(16, 1.0))
    pdes = [integrate_pde(PdeParams(params, 0.1, spec), grid, None, init,
                          0.5, dt=0.1)
            for spec in (None, NonlocalSpec(0.2, ("gaussian", 1.0)))]
    tracer = tracing.Tracer()
    tracer.results["network.integrate_network"].append(net)
    tracer.results["continuum.integrate_pde"].extend(pdes)
    timings = tracing.rhs_timings(tracer)
    for key in ("network.rhs_us", "continuum.laplacian_us",
                "continuum.rhs_local_us", "continuum.rhs_nonlocal_us"):
        assert timings[key] > 0.0, key
