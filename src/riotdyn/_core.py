"""What the site, network and continuum integrators share: shock grouping,
RK4 on array pairs, the event-driven stepping loop and the columnar writer.
The models differ only in their right-hand sides and in how a shock enters
the tension, which they hand to :func:`drive` as a step and a jump.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import BlowUpError
from .shocks import Shock, ShockSchedule, realize

NEGATIVITY_CLAMP = 1e-12   # roundoff below this magnitude is clamped silently
WRITE_CHUNK_ROWS = 1024
TABLE_SCHEMA_VERSION = 1   # of the .schema.json sidecar of every table


def group_events(schedule: ShockSchedule, horizon: float,
                 seed: int | None) -> list[tuple[float, list[Shock]]]:
    """Realized shocks grouped by time, [(t, [Shock, ...]), ...]; shocks at
    equal times share one group, in schedule order."""
    grouped: list[tuple[float, list[Shock]]] = []
    for s in realize(schedule, horizon, seed):
        if grouped and s.time == grouped[-1][0]:
            grouped[-1][1].append(s)
        else:
            grouped.append((s.time, [s]))
    return grouped


def rk4(rhs, lam, alpha, h):
    """One classical RK4 step of ``rhs(lam, alpha) -> (dlam, dalpha)``."""
    d1l, d1a = rhs(lam, alpha)
    d2l, d2a = rhs(lam + 0.5 * h * d1l, alpha + 0.5 * h * d1a)
    d3l, d3a = rhs(lam + 0.5 * h * d2l, alpha + 0.5 * h * d2a)
    d4l, d4a = rhs(lam + h * d3l, alpha + h * d3a)
    return (lam + h * (d1l + 2 * d2l + 2 * d3l + d4l) / 6.0,
            alpha + h * (d1a + 2 * d2a + 2 * d3a + d4a) / 6.0)


def drive(step, jump, state, events, t_end: float, dt: float, stride: int):
    """Integrate an (activity, tension) ``state`` from t=0 to ``t_end``,
    stopping exactly at every shock time.

    ``step(state, t, h)`` advances by ``h`` to time ``t``, raising
    BlowUpError(t) on a non-finite state and then clamping negative roundoff;
    ``jump(state, shocks)`` returns the post-jump state without mutating its
    input.  ``events`` come from :func:`group_events` on [0, t_end].  Steps
    are ``dt`` long (finite and > 0, else ValueError) except the last of
    each segment, which ends on the event time; the jump is applied there
    and the post-jump state recorded.  A group at t=0 is applied before the
    initial record; one at ``t_end`` ends the run.  Every ``stride``-th step
    is recorded, and so are the event times and ``t_end``.

    Returns arrays (times, lam, alpha, marks): the records, stacked along
    the first axis, and the indices into ``times`` of the post-jump ones.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if stride < 1:
        raise ValueError("record_stride must be >= 1")
    marks: list[int] = []
    if events and events[0][0] <= 0.0:
        state = jump(state, events[0][1])
        marks.append(0)
        events = events[1:]
    times = [0.0]
    lams = [state[0]]
    alphas = [state[1]]

    if not events or events[-1][0] < t_end:
        events = events + [(t_end, None)]
    step_index = 0
    t_cur = 0.0
    for t_b, shocks in events:
        seg_start = t_cur
        n_steps = max(1, int(math.ceil((t_b - seg_start) / dt - 1e-9)))
        for k in range(1, n_steps + 1):
            t_next = t_b if k == n_steps else seg_start + k * dt
            state = step(state, t_next, t_next - t_cur)
            t_cur = t_next
            step_index += 1
            if k == n_steps:
                if shocks:
                    state = jump(state, shocks)
                    marks.append(len(times))
            elif step_index % stride:
                continue
            times.append(t_cur)
            lams.append(state[0])
            alphas.append(state[1])
    return (np.asarray(times), np.asarray(lams), np.asarray(alphas),
            np.asarray(marks, dtype=int))


def drive_arrays(move, jump, state, events, t_end: float, dt: float,
                 stride: int, rows: int = 1):
    """:func:`drive` for a pair of arrays advanced by ``move(lam, alpha, h)``.

    After each move an entry that is NaN or inf (seen in an array's min or
    max) raises BlowUpError, the array models' only finite check, with
    numpy's overflow warnings silenced; then negative entries are clamped to
    zero.  Returns drive's four arrays and a list with, for each of ``rows``
    equal row blocks, the number of entries clamped below -NEGATIVITY_CLAMP.
    """
    clamps = np.zeros(rows, dtype=int)

    def step(state, t, h):
        pair = move(state[0], state[1], h)
        lows = [a.min() for a in pair]
        if not all(map(math.isfinite, lows + [a.max() for a in pair])):
            raise BlowUpError(t)
        for a, low in zip(pair, lows):
            if low < 0.0:
                clamps[:] += (a < -NEGATIVITY_CLAMP).reshape(rows, -1).sum(1)
                np.maximum(a, 0.0, out=a)
        return pair

    with np.errstate(over="ignore", invalid="ignore"):
        records = drive(step, jump, state, events, t_end, dt, stride)
    return records + (clamps.tolist(),)


def write_table(path, header, formats, columns, description: str) -> None:
    """Write ``header`` and then one space-separated row per element, and
    the sidecar ``<path>.schema.json`` naming the columns and ``description``.

    ``columns`` are arrays of one common shape whose leading axis indexes
    records; rows follow C order over that shape, so the last axis varies
    fastest (broadcast views are fine and cost no memory).  ``formats`` are
    %-style, one per column; ``%.17g`` writes a float64 exactly.  Rows are
    formatted a bounded number of records at a time.
    """
    cols = [np.asarray(c) for c in columns]
    per_record = math.prod(cols[0].shape[1:])
    chunk = max(1, WRITE_CHUNK_ROWS // per_record)
    row = " ".join(formats) + "\n"
    with open(path, "w") as fh:
        fh.write(" ".join(header) + "\n")
        for i in range(0, len(cols[0]), chunk):
            block = [c[i:i + chunk].ravel().tolist() for c in cols]
            fh.writelines(row % r for r in zip(*block))
    with open(f"{path}.schema.json", "w") as fh:
        fh.write(json.dumps({"schema_version": TABLE_SCHEMA_VERSION,
                             "columns": list(header),
                             "description": description}, indent=2) + "\n")
