"""Run the benchmark over several seeds and report its spread.

    python3 perfbench/series.py --seeds 1-10 --out perfbench/out/set-a.jsonl

Runs ``run.py`` untraced for BENCHMARK.json's ``run_seconds`` once per
(seed, workload) over every workload, seeds outermost so slow
drift of the host spreads over every workload, appends each result to
``--out`` and prints, per workload and end-to-end metric, the median,
the quartiles and the spread (distance between the quartiles as a
share of the median) next to the metric's bound and a third of it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from compare import load_results, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    workloads = [w["name"] for w in spec["workloads"]]
    for seed in _seeds(args.seeds):
        for workload in workloads:
            command = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
                "--out", args.out,
            ]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return 1
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = load_results(args.out)
    print(f"{'workload':14s} {'metric':14s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound/3':>7s}")
    for (workload, metric), values in sorted(results.items()):
        if metric not in bounds:
            continue
        s = summarize(values)
        print(
            f"{workload:14s} {metric:14s} {len(values):3d} {s['median']:12.6g} {s['q1']:12.6g} "
            f"{s['q3']:12.6g} {s['spread']:7.3f} {bounds[metric] / 3:7.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
