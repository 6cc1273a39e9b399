"""Reference figures for README.md (a few minutes).

    python3 perfbench/reference.py

* One 1M-gate 130 nm budget curve at 128 and at 512 cells, against
  one rank solve of the same design (bunch 10000).
* The memo hit and miss latencies of ``ia-rank serve``: twenty new
  1M-gate designs and two replays of each, over one connection, with
  the server and the load generator on one CPU as in ``service_mixed``.
"""

from __future__ import annotations

import statistics
import sys
import time

import inputs
import run


def curve_figures() -> None:
    sys.path.insert(0, run.SRC)
    from repro import api

    problem = api.baseline_problem("130nm", 1_000_000)
    start = time.perf_counter()
    api.compute_rank(problem, bunch_size=10_000, repeater_units=512)
    solve_s = time.perf_counter() - start
    print(f"one solve, 512 cells: {solve_s:.3f} s")
    for cells in (128, 512):
        start = time.perf_counter()
        api.budget_curve(problem, bunch_size=10_000, repeater_units=cells)
        elapsed = time.perf_counter() - start
        print(f"budget curve, {cells} cells: {elapsed:.2f} s ({elapsed / solve_s:.0f}x one solve)")


def memo_figures() -> None:
    requests = inputs.service_requests(1, inputs.TABLE4_GATES)
    designs = {}
    for design, payload in requests:
        designs.setdefault(design, payload)
        if len(designs) == 20:
            break
    sequence = [(d, p) for d, p in designs.items()]
    sequence += sequence + sequence
    with run._one_cpu():
        proc, port, setup = run._start_server()
        try:
            ops, replies = run._send(port, sequence, 0, len(sequence))
        finally:
            run._stop(proc)
            proc.stdout.close()
    latencies = [(b - a) / 1e9 for a, b in ops]
    misses, hits = latencies[:20], latencies[20:]
    print(f"server set-up: {setup:.3f} s")
    print(f"memo miss: median {statistics.median(misses) * 1e3:.1f} ms over {len(misses)}")
    print(f"memo hit: median {statistics.median(hits) * 1e3:.2f} ms over {len(hits)}")


if __name__ == "__main__":
    memo_figures()
    curve_figures()
