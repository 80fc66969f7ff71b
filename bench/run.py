"""riotdyn benchmark: one workload per invocation, in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; riotdyn is imported from ``src/`` there.
Set-up (riotdyn's import, config parse and validation, graph construction)
is timed in batches: one before the first integration and one after every
round.  A round runs each of the workload's operations once through
``riotdyn.cli.run`` and checks each output with ``checks.py``.  The first
round always runs; another starts only if one as long as the last still ends
within ``--seconds`` of the start.  With ``--trace 0`` the
end-to-end metrics are reported; with ``--trace 1`` spans around the calls
into each layer give the per-layer metrics instead (see README.md).  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

# imported before riotdyn, so that set-up times riotdyn's own import only
import numpy  # noqa: F401
import yaml  # noqa: F401

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# set-ups per batch; one set-up takes about 0.07 s
SETUP_REPEATS = 11


def _purge_riotdyn() -> None:
    for name in [n for n in sys.modules
                 if n == "riotdyn" or n.startswith("riotdyn.")]:
        del sys.modules[name]


def _social(net: dict):
    """The social spec ``cli.run`` builds from a network section.

    A copy of the mapping in ``cli._run_network``, which has no public
    helper for it; keep the two in step."""
    if net["social"] == "hub":
        return ("hub", int(net["hub"]))
    if net["social"] == "two_hubs":
        return ("two_hubs", int(net["hubs"][0]), int(net["hubs"][1]))
    return net["social"]


def set_up(workload: workloads.Workload):
    """Import riotdyn afresh, parse every config, build every graph.

    Returns the cli module, the parsed configs and the three timings.
    """
    _purge_riotdyn()
    t0 = time.perf_counter()
    cli = importlib.import_module("riotdyn.cli")
    t1 = time.perf_counter()
    cfgs = [cli.parse_config(op.config) for op in workload.operations]
    t2 = time.perf_counter()
    network = sys.modules["riotdyn.network"]
    for cfg in cfgs:
        if cfg.model == "network":
            net = cfg.resolved["network"]
            network.grid_graph(int(net["rows"]), int(net["cols"]),
                               _social(net))
    t3 = time.perf_counter()
    return cli, cfgs, {"import": t1 - t0, "parse": t2 - t1,
                       "graph": t3 - t2}


def time_set_ups(workload: workloads.Workload, count: int) -> list[dict]:
    """Timings of ``count`` set-ups.  The riotdyn modules loaded before the
    batch are put back after it, so the rounds keep the modules (and, when
    traced, the wrappers) they started with, and the fresh copies can be
    freed."""
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "riotdyn" or name.startswith("riotdyn.")}
    timings = [set_up(workload)[2] for _ in range(count)]
    _purge_riotdyn()
    sys.modules.update(saved)
    return timings


@dataclass
class Round:
    """What one round did: wall time of its cli.run calls, work counted
    from inputs and outputs, failed operations and wrong results."""

    wall: float = 0.0
    steps: dict = field(default_factory=lambda: dict.fromkeys(
        ("site", "network", "pde_local", "pde_nonlocal"), 0))
    rows: dict = field(default_factory=lambda: dict.fromkeys(
        ("site", "network", "pde"), 0))
    failed: int = 0
    wrong: list = field(default_factory=list)


def run_operation(cli, op: workloads.Operation, cfg, out: Path, rnd: Round,
                  tracer: tracing.Tracer | None = None) -> None:
    """Run one operation, time it, check its output and count its work."""
    start = time.perf_counter()
    try:
        cli.run(cfg, out)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        rnd.wall += time.perf_counter() - start
        rnd.failed += 1
        print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return
    rnd.wall += time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    try:
        run = checks.RunOutput(cfg.resolved, out)
        problems = {}
        for check in op.checks:
            try:
                msg = check(run)
            except Exception as exc:  # noqa: BLE001 - unreadable output
                msg = f"check raised {type(exc).__name__}: {exc}"
            if msg is not None:
                problems[check.__name__] = msg
        rnd.steps[cfg.model] += workloads.count_steps(cfg.resolved,
                                                      run.summary, out)
        rnd.rows["pde" if cfg.model.startswith("pde") else cfg.model] += (
            workloads.saved_rows(cfg.model, out))
    finally:
        if tracer is not None:
            tracer.active = True
    if problems and set(problems) == {op.known_fault}:
        rnd.failed += 1
    elif problems:
        rnd.wrong.extend(f"{op.name}: {k}: {v}" for k, v in problems.items())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool, out_root: Path) -> dict:
    workload = workloads.build(name, seed, small)
    begin = time.perf_counter()
    cli, cfgs, first = set_up(workload)
    timings = [first] + time_set_ups(workload, SETUP_REPEATS - 1)
    # what the harness holds before any integration: numpy, yaml, riotdyn
    print("bench: resident memory before the first round "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f}"
          " MB", file=sys.stderr)

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    rounds: list[Round] = []
    last = 0.0
    try:
        while not rounds or time.perf_counter() - begin + last <= seconds:
            started = time.perf_counter()
            if tracer is not None:
                tracer.start_round(len(rounds))
            rnd = Round()
            for op, cfg in zip(workload.operations, cfgs):
                run_operation(cli, op, cfg, out_root / op.name, rnd, tracer)
            rounds.append(rnd)
            # fresh, unwrapped modules: these set-ups record no spans
            timings += time_set_ups(workload, SETUP_REPEATS)
            last = time.perf_counter() - started
        if tracer is not None:
            tracer.active = False
            rhs = tracing.rhs_timings(tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    walls = [r.wall for r in rounds]
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(
                sum(t.values()) for t in timings),
            "wall_s": statistics.median(walls),
            "steps_per_s": statistics.median(
                sum(r.steps.values()) / r.wall for r in rounds),
            # ru_maxrss is in KiB on Linux; one workload per process
            "peak_mem_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        per_round = [tracing.round_metrics(tracer.round_totals(i),
                                           {"steps": r.steps, "rows": r.rows},
                                           rhs)
                     for i, r in enumerate(rounds)]
        metrics = {key: statistics.median(m[key] for m in per_round)
                   for key in per_round[0]}
        metrics["cli.parse_s"] = statistics.median(t["parse"] for t in timings)
        uses_graph = any(cfg.model == "network" for cfg in cfgs)
        metrics["network.graph_build_s"] = (
            statistics.median(t["graph"] for t in timings)
            if uses_graph else 0.0)
        metrics["traced_wall_s"] = statistics.median(walls)
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if trace else "end_to_end"]}
    wrong = [w for r in rounds for w in r.wrong]
    for line in wrong:
        print(f"wrong result: {line}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": len(rounds) * len(workload.operations),
        "failed": sum(r.failed for r in rounds),
        "metrics": {key: {"value": float(metrics[key]), "unit": units[key]}
                    for key in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shortened network workloads, for the "
                             "benchmark's own tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "riotdyn" / "__init__.py").is_file():
        print(f"bench: no riotdyn package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the model's advisory warnings (excitability, coupling) are not output
    warnings.simplefilter("ignore")

    out_root = ROOT / "bench" / "out" / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.small, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted {result['attempted']} "
          f"failed {result['failed']} correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
