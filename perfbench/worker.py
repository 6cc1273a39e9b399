"""The working process of the batch workloads (table4, budget_curve).

Started fresh for every run by ``run.py``.  It sets up (imports, WLD
and stack build), prints ``READY``, runs the timed phase through
``repro.api`` and prints one JSON line with the op latencies, its CPU
and memory use and the outputs for the checks.  ``--probe`` stops after
``READY``: it only measures set-up.  ``--traced`` wraps the program's
layers from the start and also writes the spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Dict, List, Tuple

import inputs

_now = time.perf_counter_ns


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Stamped:
    """A sweep's make_problem that stamps each call.

    api.sweep calls make_problem once to warm its cache, then once per
    point as the point starts, so the stamps split the sweep into its
    points.  The tracer, when given, tags spans with the point's op id.
    """

    def __init__(self, make, tracer, first_op: int) -> None:
        self.make = make
        self.tracer = tracer
        self.first_op = first_op
        self.stamps: List[int] = []

    def __call__(self, value):
        self.stamps.append(_now())
        if self.tracer is not None:
            self.tracer.set_op(self.first_op + max(0, len(self.stamps) - 2))
        return self.make(value)


def _sweep(api, node: str, knob: str, size, tracer, first_op: int, **options):
    values = inputs.TABLE4_VALUES[knob]
    make = Stamped(inputs.Knob(node, size.table4_gates, knob), tracer, first_op)
    start = _now()
    result = api.sweep(
        knob,
        values,
        make,
        bunch_size=size.table4_bunch,
        repeater_units=size.table4_units,
        **options,
    )
    end = _now()
    if len(make.stamps) != len(values) + 1:
        raise RuntimeError(
            f"sweep {node} {knob}: {len(make.stamps)} make_problem calls "
            f"for {len(values)} points"
        )
    bounds = [start] + make.stamps[2:] + [end]
    return result, list(zip(bounds, bounds[1:]))


def _sweep_output(node: str, knob: str, gates: int, result) -> Dict[str, object]:
    return {
        "node": node,
        "knob": knob,
        "gates": gates,
        "values": [p.value for p in result.points],
        "rank": [p.result.rank for p in result.points],
        "total_wires": [p.result.total_wires for p in result.points],
        "fits": [p.result.fits for p in result.points],
    }


def rounds(seconds: float, fixed: int):
    """Round numbers of one timed phase: ``fixed`` rounds when given,
    else as many whole rounds as fit in --seconds, and at least one."""
    deadline = _now() + seconds * 1e9
    count = 0
    while True:
        begun = _now()
        yield count
        count += 1
        if fixed:
            if count >= fixed:
                return
        elif _now() + (_now() - begun) > deadline:
            return


def run_table4(api, args, size, tracer) -> Dict[str, object]:
    """Whole rounds of the eight Table 4 sweeps."""
    ops: List[Tuple[int, int]] = []
    outputs: List[Dict[str, object]] = []
    failed = 0
    for round_no in rounds(args.seconds, args.rounds):
        for node, knob in inputs.table4_columns():
            result, intervals = _sweep(api, node, knob, size, tracer, len(ops))
            ops.extend(intervals)
            failed += len(result.failures)
            if round_no == 0:
                outputs.append(_sweep_output(node, knob, size.table4_gates, result))
    return {"ops": ops, "failed": failed, "outputs": outputs}


def run_pool_leg(api, size, sequential: List[Dict[str, object]]) -> Dict[str, object]:
    """Table 4's 130 nm columns once on a two-worker pool."""
    t = os.times()
    children_before = t.children_user + t.children_system
    start = _now()
    points = 0
    mismatches = []
    by_column = {(s["node"], s["knob"]): s for s in sequential}
    for knob in "KMCR":
        result = api.sweep(
            knob,
            inputs.TABLE4_VALUES[knob],
            inputs.Knob("130nm", size.table4_gates, knob),
            bunch_size=size.table4_bunch,
            repeater_units=size.table4_units,
            jobs=2,
            pool_mode="warm",
        )
        points += len(result.points)
        pooled = _sweep_output("130nm", knob, size.table4_gates, result)
        reference = by_column[("130nm", knob)]
        if any(pooled[k] != reference[k] for k in ("values", "rank", "total_wires", "fits")):
            mismatches.append(knob)
    wall = (_now() - start) / 1e9
    t = os.times()
    _stop_resource_tracker()
    return {
        "points_per_s": points / wall,
        "worker_cpu_s": t.children_user + t.children_system - children_before,
        "mismatches": mismatches,
    }


def _stop_resource_tracker() -> None:
    """End and reap the resource tracker that the pool's shared-memory
    segments started, so that no process of the run outlives it."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _curve_problems(args, size):
    designs = inputs.curve_designs(args.seed)
    problems = [
        inputs.Knob("130nm", size.curve_gates, knob)(value) for knob, value in designs
    ]
    return designs, problems


def run_budget_curve(api, args, size, tracer, problems) -> Dict[str, object]:
    """Whole rounds of one curve per design, in the seeded order."""
    ops: List[Tuple[int, int]] = []
    curves: Dict[int, Tuple[int, ...]] = {}
    differ = set()
    for _ in rounds(args.seconds, args.rounds):
        for index, problem in enumerate(problems):
            if tracer is not None:
                tracer.set_op(len(ops))
            start = _now()
            curve, _ = api.budget_curve(
                problem, bunch_size=size.curve_bunch, repeater_units=size.curve_units
            )
            ops.append((start, _now()))
            if curves.setdefault(index, curve.ranks) != curve.ranks:
                differ.add(index)
    return {"ops": ops, "failed": 0, "curves": curves, "differ": differ}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("table4", "budget_curve"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int, default=0, help="fixed round count")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--pool", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    size = inputs.TOY if args.toy else inputs.FULL

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_batch(tracer)
    from repro import api

    if args.workload == "table4":
        for node in inputs.TABLE4_NODES:
            api.baseline_problem(node, size.table4_gates)
    else:
        designs, problems = _curve_problems(args, size)
    print("READY", flush=True)
    if args.probe:
        return 0

    before = os.times()
    if args.workload == "table4":
        result = run_table4(api, args, size, tracer)
    else:
        result = run_budget_curve(api, args, size, tracer, problems)
    after = os.times()
    if tracer is not None:
        # the layers' work up to here; the checks below are not timed
        tracing.dump(tracer, args.spans)
    ops = result["ops"]
    report: Dict[str, object] = {
        "ops": ops,
        "failed": result["failed"],
        "wall_s": (ops[-1][1] - ops[0][0]) / 1e9,
        "cpu_self_s": (after.user + after.system) - (before.user + before.system),
        "cpu_children_s": (after.children_user + after.children_system)
        - (before.children_user + before.children_system),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if args.workload == "table4":
        report["sweeps"] = result["outputs"]
        if args.pool:
            report["pool"] = run_pool_leg(api, size, result["outputs"])
    else:
        report["designs"] = [
            {
                "knob": designs[i][0],
                "value": designs[i][1],
                "ranks": list(ranks),
                "repeats_differ": i in result["differ"],
                "reference_rank": api.compute_rank(
                    problems[i],
                    bunch_size=size.curve_bunch,
                    repeater_units=size.curve_units,
                ).rank,
            }
            for i, ranks in sorted(result["curves"].items())
        ]
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
