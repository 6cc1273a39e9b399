"""Quick self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

* Runs every workload at toy size, untraced and traced, with its
  checks; each run must pass them with no failed operation, print
  exactly the metric names of BENCHMARK.json, and a traced run must
  write a trace that the program's own checker,
  ``repro.obs.validate_trace``, accepts.
* Feeds each check a deliberately wrong rank; each must fail.
* Runs the benchmark in a directory holding only BENCHMARK.json and
  the benchmark's files; it must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FAILURES = []

sys.path.insert(0, os.path.join(ROOT, "src"))
from repro.obs import validate_trace  # noqa: E402


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def run(workload: str, trace: int, cwd: str = ROOT):
    command = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--toy",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def toy_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{label}: exits 0")
            if done.returncode != 0:
                print(done.stderr[-2000:])
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0, f"{label}: checks pass, no failed op")
            names = [m["name"] for m in spec[kind]]
            expect(list(result["metrics"]) == names, f"{label}: metric names match BENCHMARK.json")
            if trace:
                path = os.path.join(HERE, "out", f"trace-{workload}-seed7.json")
                with open(path) as handle:
                    trace = json.load(handle)
                problems = validate_trace(trace)
                expect(not problems, f"{label}: trace passes repro.obs.validate_trace {problems[:3]}")
                expect(
                    any(e["ph"] == "X" and e["name"] != "op" for e in trace["traceEvents"]),
                    f"{label}: trace holds layer spans",
                )


def _table4_sweeps():
    """A Table 4 in the paper's shape: 130 nm, 1M gates."""
    total = 2_985_000
    sweeps = []
    for knob in "KMCR":
        values = list(inputs.TABLE4_VALUES[knob])
        if knob == "C":
            normalized = [0.38 if v < 1.1e9 else 0.3097 if v < 1.6e9 else 0.2356 for v in values]
        else:
            normalized = [0.1 + 0.01 * i for i in range(len(values))]
        sweeps.append(
            {
                "node": "130nm", "knob": knob, "gates": inputs.TABLE4_GATES,
                "values": values,
                "rank": [round(n * total) for n in normalized],
                "total_wires": [total] * len(values),
                "fits": [True] * len(values),
            }
        )
    return sweeps


def wrong_ranks() -> None:
    sweeps = _table4_sweeps()
    expect(not checks.check_table4(sweeps), "table4 check passes on a paper-shaped table")
    for knob, index, factor, what in (
        ("C", 7, 1.01, "C plateau off the paper's value"),
        ("K", 5, 0.9, "K column not monotone"),
        ("R", 0, 0.0, "rank 0"),
        ("M", 3, 10.0, "rank above total wires"),
    ):
        bad = json.loads(json.dumps(sweeps))
        column = next(s for s in bad if s["knob"] == knob)
        column["rank"][index] = round(column["rank"][index] * factor)
        expect(bool(checks.check_table4(bad)), f"table4 check fails on a wrong rank: {what}")

    design = {"knob": "K", "value": 3.0, "ranks": [0, 5, 9, 9, 12], "repeats_differ": False, "reference_rank": 12}
    expect(not checks.check_curves([design]), "curve check passes on a right curve")
    expect(bool(checks.check_curves([{**design, "reference_rank": 13}])), "curve check fails on a wrong full-budget rank")
    expect(bool(checks.check_curves([{**design, "ranks": [0, 5, 4, 9, 12]}])), "curve check fails on a decreasing curve")

    body = json.dumps({"fingerprint": "abc", "rank": 42}).encode()
    replies = [
        {"op": 0, "design": 0, "status": 200, "body": body},
        {"op": 1, "design": 0, "status": 200, "body": body},
    ]
    references = {0: {"fingerprint": "abc", "rank": 42}}
    expect(not checks.check_replies(replies, references), "reply check passes on right replies")
    wrong = json.dumps({"fingerprint": "abc", "rank": 41}).encode()
    expect(
        bool(checks.check_replies([{**replies[0], "body": wrong}], references)),
        "reply check fails on a wrong rank",
    )
    expect(
        bool(checks.check_replies([replies[0], {**replies[1], "body": wrong}], references)),
        "reply check fails on a replay that differs",
    )


def bare_directory() -> None:
    """Without the program's source the benchmark must fail."""
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run("table4", 0, cwd=bare)
        printed_result = any(line.startswith("{\"correct\"") for line in done.stdout.splitlines())
        expect(done.returncode != 0 and not printed_result, "fails without the program, printing no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    wrong_ranks()
    bare_directory()
    toy_runs()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
