"""The stepping loop and the table writer shared by the site, network and
continuum integrators."""
import json
import math

import numpy as np
import pytest

from riotdyn import (BlowUpError, ExplicitSchedule, FieldState, ModelParams,
                     PdeParams, Shock, SiteState, SpatialGrid, grid_graph,
                     integrate_network, integrate_pde, integrate_site)
from riotdyn import single_site
from riotdyn._core import Stack, drive_arrays, write_table

from conftest import BASE

DT, T_END, STRIDE = 0.1, 1.0, 3
# one shock at t=0, two coincident ones off the dt grid, one at t_end
SHOCKS = ((0.0, 2.0), (0.37, 1.0), (0.37, 0.5), (T_END, 0.25))
GROUPS = {0.0: 2.0, 0.37: 1.5, T_END: 0.25}
# segment [0, 0.37] takes steps 1-4 and [0.37, 1] steps 5-11; every third
# step is kept, and so are the two shock times and the final time
EXPECTED_TIMES = [0.0, 0.3, 0.37, 0.57, 0.87, 1.0]
EXPECTED_MARKS = [0, 2, 5]

GRID = SpatialGrid((4.0,), (8,))
PDE = PdeParams(model=BASE, D=0.1)
NET = ModelParams(eta=0.1)


def run(model, t_end, shocks, dt=DT):
    """Integrate ``model`` to ``t_end`` under ``shocks``; return the times,
    the shock marks, and per record the activity and the tension total."""
    if model == "site":
        traj = integrate_site(
            BASE, ExplicitSchedule([Shock(t, a) for t, a in shocks]),
            SiteState(0.3, 0.5), t_end, dt=dt, record_stride=STRIDE)
        totals = traj.alpha
    elif model == "network":
        traj = integrate_network(
            grid_graph(2, 2), NET,
            ExplicitSchedule([Shock(t, a, 1) for t, a in shocks]),
            (0.3, 0.5), t_end, dt=dt, record_stride=STRIDE)
        totals = traj.alpha.sum(axis=1)
    else:
        initial = FieldState(np.full(GRID.shape, 0.3),
                             np.full(GRID.shape, 0.5))
        traj = integrate_pde(
            PDE, GRID, ExplicitSchedule([Shock(t, a, 1.3) for t, a in shocks]),
            initial, t_end, dt=dt, record_stride=STRIDE)
        totals = traj.alpha.sum(axis=1) * GRID.cell_measure
    return traj.times, traj.shock_marks, traj.lam, totals


@pytest.mark.parametrize("model", ["site", "network", "pde"])
def test_shock_stops_and_stride_recording(model):
    times, marks, lam, totals = run(model, T_END, SHOCKS)
    site_times, site_marks, _, _ = run("site", T_END, SHOCKS)
    np.testing.assert_array_equal(times, site_times)
    np.testing.assert_array_equal(marks, site_marks)
    assert times.tolist() == pytest.approx(EXPECTED_TIMES, abs=1e-12)
    assert marks.tolist() == EXPECTED_MARKS
    # every shock time is hit exactly, not merely within a step
    assert [times[i] for i in marks] == list(GROUPS)
    # the record at each mark is post-jump: a run stopped at the same time
    # without that group ends on the pre-jump state
    initial_total = {"site": 0.5, "network": 2.0, "pde": 0.5 * 4.0}[model]
    assert totals[0] == pytest.approx(initial_total + GROUPS[0.0], abs=1e-12)
    for i, t in zip(marks[1:], list(GROUPS)[1:]):
        _, _, lam_pre, totals_pre = run(
            model, t, [(ts, a) for ts, a in SHOCKS if ts < t])
        np.testing.assert_array_equal(lam[i], lam_pre[-1])
        assert totals[i] - totals_pre[-1] == pytest.approx(GROUPS[t],
                                                           abs=1e-12)


@pytest.mark.parametrize("model", ["site", "network", "pde"])
@pytest.mark.parametrize("t_end, dt", [
    (T_END, 0.0), (T_END, -0.1), (T_END, math.inf), (T_END, math.nan),
    (0.0, DT), (math.inf, DT), (math.nan, DT)])
def test_step_and_horizon_must_be_finite_and_positive(model, t_end, dt):
    # an infinite dt would take one step per segment, a NaN one fail in int();
    # so would a NaN t_end, and an infinite one overflow it
    with pytest.raises(ValueError, match=r"dt|horizon"):
        run(model, t_end, SHOCKS[:1], dt)


def test_table_writes_rows_and_its_sidecar(tmp_path):
    path = tmp_path / "t.txt"
    write_table(path, ("t", "n"), ("%.17g", "%d"),
                (np.array([0.1, 2.0]), np.array([3, 4])), "what it holds")
    assert path.read_text() == "t n\n0.10000000000000001 3\n2 4\n"
    sidecar = tmp_path / "t.txt.schema.json"
    assert sidecar.read_text() == (
        '{\n  "schema_version": 1,\n  "columns": [\n    "t",\n    "n"\n'
        '  ],\n  "description": "what it holds"\n}\n')
    write_table(str(path), ["t"], ["%s"], [["a"]], "again")
    assert json.loads(sidecar.read_text())["columns"] == ["t"]


def test_clamps_counted_per_row():
    # each move takes row b down by b, and tension row b down by 2b, so
    # after it row 0 stays nonnegative and rows 1 and 2 each clamp three
    # entries per step
    drops = np.repeat(np.arange(3.0), 3)

    def move(lam, alpha, h):
        return lam - drops, alpha - 2 * drops

    state = (np.zeros(9), np.zeros(9))
    _, per_row = drive_arrays(move, None, state, [], 1.0, 0.5, 1, Stack().add,
                              rows=3)
    assert per_row == [0, 12, 12]
    _, total = drive_arrays(move, None, state, [], 1.0, 0.5, 1, Stack().add)
    assert total == [24] and isinstance(total[0], int)


def test_non_finite_row_stops_the_run():
    def move(lam, alpha, h):
        lam = lam.copy()
        lam[3] = np.inf
        return lam, alpha.copy()

    state = (np.zeros(4), np.zeros(4))
    with pytest.raises(BlowUpError):
        drive_arrays(move, None, state, [], 1.0, 0.5, 1, Stack().add, rows=2)


@pytest.mark.parametrize("field", [0, 1])
def test_step_to_minus_infinity_stops_the_run(field):
    # the finite check comes before the clamp, which would turn -inf into 0
    def move(lam, alpha, h):
        out = [lam.copy(), alpha.copy()]
        out[field][2] = -np.inf
        return tuple(out)

    state = (np.zeros(4), np.zeros(4))
    with pytest.raises(BlowUpError):
        drive_arrays(move, None, state, [], 1.0, 0.5, 1, Stack().add)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", [0, 1])
def test_any_non_finite_entry_stops_the_run_before_a_clamp(field, bad):
    # the other field goes negative at the same step: nothing is clamped
    # or counted before the abort
    seen = []

    def move(lam, alpha, h):
        out = [lam - 1.0, alpha - 1.0]
        out[field][5] = bad
        seen.append(out)
        return tuple(out)

    state = (np.zeros(8), np.zeros(8))
    with pytest.raises(BlowUpError) as info:
        drive_arrays(move, None, state, [], 1.0, 0.5, 1, Stack().add)
    assert info.value.time == 0.5
    other = seen[-1][1 - field]
    assert (other == -1.0).all()


def test_negative_zero_is_neither_counted_nor_changed():
    def move(lam, alpha, h):
        return np.full_like(lam, -0.0), alpha * 1.0

    state = (np.ones(6), np.full(6, -0.0))
    records = Stack()
    _, clamps = drive_arrays(move, None, state, [], 1.0, 0.5, 1, records.add,
                             rows=3)
    _, lams, alphas = records.arrays()
    assert clamps == [0, 0, 0]
    assert np.signbit(lams[1:]).all() and (lams[1:] == 0.0).all()
    assert np.signbit(alphas).all()


def test_clamps_counted_per_row_only_below_the_roundoff_floor():
    # row 0 dips by roundoff, row 1 by a true negative, row 2 not at all;
    # all three rows of both fields end clamped to zero
    dips = np.repeat([-1e-13, -1.0, 0.0], 2)

    def move(lam, alpha, h):
        return lam * 0.0 + dips, alpha * 0.0 + 2 * dips

    state = (np.ones(6), np.ones(6))
    records = Stack()
    _, clamps = drive_arrays(move, None, state, [], 1.5, 0.5, 1, records.add,
                             rows=3)
    _, lams, alphas = records.arrays()
    assert clamps == [0, 12, 0]
    assert (lams[1:] == 0.0).all() and (alphas[1:] == 0.0).all()
    assert not np.signbit(lams[1:, :4]).any()


def test_site_step_to_minus_infinity_stops_the_run(monkeypatch):
    monkeypatch.setattr(single_site, "_make_rhs",
                        lambda params: lambda lam, alpha: (-np.inf, 0.0))
    with pytest.raises(BlowUpError):
        integrate_site(BASE, None, SiteState(0.3, 0.5), T_END, dt=DT)
