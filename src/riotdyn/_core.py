"""What the site, network and continuum integrators share: shock grouping,
RK4 in place on one stacked array state, the event-driven stepping loop, the
clamp rule, the recorder that stacks its records, and the columnar writer.
The models differ only in their right-hand sides and in how a shock enters
the tension, which they hand to :func:`drive` as a step and a jump.
"""
from __future__ import annotations

import json
import math
import warnings

import numpy as np

from .errors import BlowUpError
from .shocks import Shock, ShockSchedule, realize

NEGATIVITY_CLAMP = 1e-12   # roundoff below this magnitude is clamped silently
CLAMP_WARN_COUNT = 1_000_000   # a run that counts more clamps than this warns
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


def rk4(f, shape):
    """The classical RK4 step of ``f(y, out)``, which writes dy/dt at ``y``
    into ``out``, as ``move(y, h)`` for states of ``shape``.

    The stage state and k1..k4 are buffers made here once and reused by
    every step; each step returns a new array, so a recorder may keep it.
    """
    k1, k2, k3, k4, z = (np.empty(shape) for _ in range(5))

    def move(y, h):
        f(y, k1)
        np.multiply(k1, 0.5 * h, out=z)
        f(np.add(y, z, out=z), k2)
        np.multiply(k2, 0.5 * h, out=z)
        f(np.add(y, z, out=z), k3)
        np.multiply(k3, h, out=z)
        f(np.add(y, z, out=z), k4)
        # y + h * (((k1 + 2 k2) + 2 k3) + k4) / 6, in that association
        np.multiply(k2, 2.0, out=k2)
        np.add(k1, k2, out=k1)
        np.multiply(k3, 2.0, out=k3)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(k1, h, out=k1)
        np.divide(k1, 6.0, out=k1)
        return np.add(y, k1)
    return move


def rhs_pair(f, lam, alpha) -> tuple[np.ndarray, np.ndarray]:
    """``f(y, out)`` at the state (lam, alpha), as (dlam, dalpha)."""
    y = np.array((lam, alpha), dtype=float)
    out = np.empty_like(y)
    f(y, out)
    return out[0], out[1]


def warn_clamps(count: int, stacklevel: int = 2) -> None:
    """Warn when one run counted more than CLAMP_WARN_COUNT clamps."""
    if count > CLAMP_WARN_COUNT:
        warnings.warn(
            f"integration clamped {count} negative values; results may be "
            "dominated by roundoff", stacklevel=stacklevel + 1)


class Stack:
    """Every record of a run: ``add`` is the recorder to hand to
    :func:`drive`, and ``arrays()`` then stacks the times and the two state
    components along a first axis."""

    def __init__(self) -> None:
        self.times: list = []
        self.lam: list = []
        self.alpha: list = []

    def add(self, t: float, state) -> None:
        self.times.append(t)
        self.lam.append(state[0])
        self.alpha.append(state[1])

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.asarray(self.times), np.asarray(self.lam),
                np.asarray(self.alpha))


def drive(step, jump, state, events, t_end: float, dt: float, stride: int,
          record) -> np.ndarray:
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
    is recorded, and so are the event times and ``t_end``: each record goes
    to ``record(t, state)`` (``Stack().add`` keeps them all), and is not
    kept here.

    Returns the indices, in record order, of the post-jump records.
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
    record(0.0, state)
    n_records = 1

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
                    marks.append(n_records)
            elif step_index % stride:
                continue
            record(t_cur, state)
            n_records += 1
    return np.asarray(marks, dtype=int)


def drive_arrays(move, jump, y, events, t_end: float, dt: float,
                 stride: int, record, rows: int = 1):
    """:func:`drive` for a state ``y`` of shape (2, ...), activity in row 0
    and tension in row 1, advanced by ``move(y, h)`` to a new array.

    After each move an entry that is NaN or inf (seen in the state's min or
    max) raises BlowUpError, the array models' only finite check, with
    numpy's overflow warnings silenced.  Then each of the two rows whose own
    min is below zero has its negative entries clamped to zero; a row
    without one keeps its -0.0 entries.  Returns drive's marks and a list
    with, for each of ``rows`` equal blocks of a row (the members of a
    batch), the number of entries of both rows clamped below
    -NEGATIVITY_CLAMP; a block whose count passes CLAMP_WARN_COUNT warns.
    """
    clamps = np.zeros(rows, dtype=int)

    def step(y, t, h):
        y = move(y, h)
        low = y.min()
        if not (math.isfinite(low) and math.isfinite(y.max())):
            raise BlowUpError(t)
        if low < 0.0:
            for row in y:
                if row.min() < 0.0:
                    clamps[:] += (row < -NEGATIVITY_CLAMP).reshape(
                        rows, -1).sum(1)
                    np.maximum(row, 0.0, out=row)
        return y

    with np.errstate(over="ignore", invalid="ignore"):
        marks = drive(step, jump, y, events, t_end, dt, stride, record)
    warn_clamps(int(clamps.max()), 3)
    return marks, clamps.tolist()


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
