"""Compare two benchmark result files, metric by metric.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

The files are JSON lines as ``run.py --out`` (or ``series.py``) writes
them.  For each workload and end-to-end metric it prints each side's
median and quartiles and a verdict against the bound in BENCHMARK.json:

* ``worse``: AFTER's median is worse than BEFORE's by more than the bound;
* ``better``: AFTER's median is better than BEFORE's by more than
  BEFORE's own spread (the distance between its quartiles);
* ``unresolved``: the spread of either side is wider than the bound, so
  the runs cannot tell a change of that size from noise; it is
  ``better`` or ``worse`` only if every AFTER run beats, or loses to,
  every BEFORE run;
* ``same``: none of these.

It also prints the share of failed operations on each side and the
number of runs each side had labelled starved.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_results(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, over the untraced runs of a file."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for record in _records(path):
        for metric, entry in record["metrics"].items():
            out.setdefault((record["workload"], metric), []).append(entry["value"])
    return out


def _records(path: str):
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    yield record


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (statistics.quantiles, n=4) and spread."""
    if len(values) < 2:
        value = values[0]
        return {"median": value, "q1": value, "q3": value, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def verdict(before: Sequence[float], after: Sequence[float], bound: float, higher_is_better: bool) -> str:
    sign = -1.0 if higher_is_better else 1.0
    b, a = summarize(before), summarize(after)
    change = sign * (a["median"] - b["median"]) / b["median"]  # > 0: worse
    if higher_is_better:
        all_better, all_worse = min(after) > max(before), max(after) < min(before)
    else:
        all_better, all_worse = max(after) < min(before), min(after) > max(before)
    if max(a["spread"], b["spread"]) > bound:
        if all_better:
            return "better"
        if all_worse and change > bound:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > b["spread"]:
        return "better"
    return "same"


def _failed_share(path: str) -> Dict[str, Tuple[int, int, int]]:
    out: Dict[str, Tuple[int, int, int]] = {}
    for record in _records(path):
        failed, attempted, starved = out.get(record["workload"], (0, 0, 0))
        out[record["workload"]] = (
            failed + record["failed"],
            attempted + record["attempted"],
            starved + bool(record.get("host", {}).get("starved")),
        )
    return out


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    before, after = (load_results(path) for path in argv)
    print(
        f"{'workload':14s} {'metric':13s} {'before median [q1, q3]':>36s} "
        f"{'after median [q1, q3]':>36s} {'change':>7s} {'bound':>5s}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in before or key not in after:
                continue
            b, a = summarize(before[key]), summarize(after[key])
            change = (a["median"] - b["median"]) / b["median"]
            print(
                f"{workload:14s} {metric['name']:13s} "
                f"{b['median']:12.6g} [{b['q1']:.6g}, {b['q3']:.6g}]".ljust(66)
                + f" {a['median']:12.6g} [{a['q1']:.6g}, {a['q3']:.6g}]".ljust(37)
                + f" {change:+7.1%} {metric['bound']:5.2f}  "
                + verdict(before[key], after[key], metric["bound"], metric["better"] == "higher")
            )
    for label, path in zip(("before", "after"), argv):
        for workload, (failed, attempted, starved) in sorted(_failed_share(path).items()):
            print(f"{label}: {workload}: {failed}/{attempted} operations failed, {starved} runs starved")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
