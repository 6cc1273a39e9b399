"""One benchmark run of the rank engine.

    python3 perfbench/run.py --workload table4 --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``table4`` sweeps the paper's Table 4
columns through ``repro.api.sweep``; ``budget_curve`` runs
``repro.api.budget_curve`` on Table 4's design points in a seeded order;
``service_mixed`` sends a closed loop of ``/v1/rank`` requests, two
thirds of them replays, over one keep-alive connection to
``ia-rank serve``.

Every run starts fresh processes with one working process.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the workload once untraced and once with the program's layers
wrapped (``tracing.py``), prints the per-layer metrics and writes a
Chrome trace to ``perfbench/out/``.  Outputs are checked outside the
timed phase (``checks.py``).  The last line of standard output is the
JSON result; ``--out FILE`` also appends it, with the host record, to
a results file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import checks
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("table4", "budget_curve", "service_mixed")
#: Fresh set-ups per run; setup_s is their median.  Half of the extra
#: set-ups run before the timed phase and half after it, so a slow
#: spell of the host weighs on a few of them, not on all.
SETUPS = 15
#: Fixed work of a traced leg: whole rounds of a batch workload, and
#: service requests (whole blocks of three).
TRACED_ROUNDS = {"table4": 1, "budget_curve": 2}
TRACED_REQUESTS = 150
#: A working process whose CPU time is below this share of its wall
#: time was starved by the host.
STARVED_BELOW = 0.75
CHILD_TIMEOUT_S = 170

_now = time.perf_counter_ns


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _proc_stat() -> Dict[str, float]:
    """Host-wide iowait and steal seconds so far, from /proc/stat."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()[1:]
    tick = os.sysconf("SC_CLK_TCK")
    return {"iowait_s": int(fields[4]) / tick, "steal_s": int(fields[7]) / tick}


def _pid_cpu(pid: int) -> Tuple[float, float]:
    """(self, children) CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    tick = os.sysconf("SC_CLK_TCK")
    utime, stime, cutime, cstime = (int(f) for f in fields[11:15])
    return (utime + stime) / tick, (cutime + cstime) / tick


def _pid_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def _quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _host(wall_s: float, cpu_self_s: float, cpu_children_s: float, stat0, stat1, extra_cpu_s: float = 0.0):
    busy = cpu_self_s + cpu_children_s + extra_cpu_s
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "wall_s": wall_s,
        "cpu_self_s": cpu_self_s,
        "cpu_children_s": cpu_children_s,
        "loadgen_cpu_s": extra_cpu_s,
        "iowait_s": stat1["iowait_s"] - stat0["iowait_s"],
        "steal_s": stat1["steal_s"] - stat0["steal_s"],
        "starved": busy < STARVED_BELOW * wall_s,
    }


def _end_to_end(
    setups: Sequence[float], n: int, latencies: Sequence[float], wall_s: float, cpu_s: float, rss_mb: float
):
    """``n`` ops done; ``latencies`` the op latencies the quantiles read."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / wall_s, "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_p90_s": (_quantile(latencies, 0.9), "s"),
        "cpu_s_per_op": (cpu_s / n, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


# ---------------------------------------------------------------------------
# batch workloads: worker.py is the working process


def _start_worker(args, *flags: str) -> Tuple[subprocess.Popen, float]:
    """Start worker.py; returns it and its set-up time (start to READY)."""
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *flags,
    ]
    if args.toy:
        command.append("--toy")
    start = _now()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    line = proc.stdout.readline()
    if line.strip() != "READY":
        _stop(proc)
        raise BenchError(f"worker did not set up: {line!r}")
    return proc, (_now() - start) / 1e9


def _finish_worker(proc: subprocess.Popen) -> Dict[str, object]:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _batch_leg(args, flags: Sequence[str] = (), probes: int = 0):
    setups = _worker_probes(args, probes // 2)
    proc, setup = _start_worker(args, *flags)
    setups.append(setup)
    try:
        stat0 = _proc_stat()
        report = _finish_worker(proc)
        stat1 = _proc_stat()
    finally:
        _stop(proc)
        proc.stdout.close()
    report["setups"] = setups + _worker_probes(args, probes - probes // 2)
    report["host"] = _host(
        report["wall_s"], report["cpu_self_s"], report["cpu_children_s"], stat0, stat1
    )
    return report


def _worker_probes(args, count: int) -> List[float]:
    """Set-up times of ``count`` workers that stop after set-up."""
    setups = []
    for _ in range(count):
        proc, setup = _start_worker(args, "--probe")
        setups.append(setup)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            _stop(proc)
        proc.stdout.close()
    return setups


def _design_medians(latencies: Sequence[float], designs: int) -> List[float]:
    """budget_curve's latency of each design: the median of its curves
    over the run's whole rounds.  A spell of host steal then slows one
    curve of a design, not the design's figure."""
    return [statistics.median(latencies[i::designs]) for i in range(designs)]


def _batch_checks(args, report) -> List[str]:
    if args.workload == "table4":
        failures = checks.check_table4(report["sweeps"])
        pool = report.get("pool")
        if pool is not None and pool["mismatches"]:
            failures.append(f"pool results differ from sequential: {pool['mismatches']}")
        return failures
    return checks.check_curves(report["designs"])


def run_batch(args) -> Tuple[bool, int, int, Dict[str, Tuple[float, str]], Dict[str, object]]:
    if not args.trace:
        report = _batch_leg(args, probes=0 if args.toy else SETUPS - 1)
        failures = _batch_checks(args, report)
        latencies = [(b - a) / 1e9 for a, b in report["ops"]]
        metrics = _end_to_end(
            report["setups"],
            len(latencies),
            _design_medians(latencies, len(report["designs"])) if "designs" in report else latencies,
            report["wall_s"],
            report["cpu_self_s"] + report["cpu_children_s"],
            report["peak_rss_mb"],
        )
        return _outcome(failures, len(latencies), report["failed"], metrics, report["host"])

    plain = _batch_leg(args, ["--pool"] if args.workload == "table4" else [])
    rounds = str(TRACED_ROUNDS[args.workload])
    traced = _batch_leg(args, ["--traced", "--spans", _spans_path(args), "--rounds", rounds])
    failures = _batch_checks(args, plain) + _batch_checks(args, traced)
    pool = plain.get("pool") or {"points_per_s": 0.0, "worker_cpu_s": 0.0}
    return _traced_outcome(args, failures, plain, traced, pool, f"worker {args.workload}", None)


def _spans_path(args) -> str:
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")


def _traced_outcome(args, failures, plain, traced, pool, label: str, ops_pid: Optional[int]):
    """Per-layer metrics of a traced run, and its Chrome trace file.

    ``ops_pid`` is the process that timed the ops (None: the traced one).
    """
    pid, spans, counts = tracing.load(_spans_path(args))
    os.remove(_spans_path(args))
    ops = [tuple(op) for op in traced["ops"]]
    layers = tracing.layer_metrics(spans, counts, ops)
    _trace_summary(layers, plain, traced, spans)
    layers["pool.points_per_s"] = pool["points_per_s"]
    layers["pool.worker_cpu_s"] = pool["worker_cpu_s"]
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tracing.write_chrome_trace(path, [(label, pid, spans)], ops, ops_pid or pid)
    print(f"trace written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return _outcome(
        failures,
        len(plain["ops"]) + len(ops),
        plain["failed"] + traced["failed"],
        _with_units(layers),
        traced["host"],
    )


def _trace_summary(layers: Dict[str, float], plain: Mapping, traced: Mapping, spans: Sequence) -> None:
    """The traced leg's throughput against the untraced leg's, and the
    wrappers' own cost: spans recorded times the cost of one wrapper
    call, as a share of the traced ops' wall time."""
    untraced_rate = len(plain["ops"]) / plain["wall_s"]
    traced_rate = len(traced["ops"]) / traced["wall_s"]
    layers["trace.ops"] = float(len(traced["ops"]))
    layers["trace.ops_per_s"] = traced_rate
    layers["trace.untraced_ops_per_s"] = untraced_rate
    layers["trace.overhead"] = 1.0 - traced_rate / untraced_rate
    ops_wall_ns = sum(b - a for a, b in traced["ops"])
    layers["trace.span_cost_share"] = len(spans) * tracing.span_cost_ns() / ops_wall_ns


# ---------------------------------------------------------------------------
# service_mixed: `ia-rank serve` is the working process


_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


def _start_server(spans_path: str = "") -> Tuple[subprocess.Popen, int, float]:
    """Start the server; returns it, its port and its set-up time
    (process start until /v1/healthz answers)."""
    if spans_path:
        command = [sys.executable, os.path.join(HERE, "serve_traced.py"), spans_path]
    else:
        command = [sys.executable, "-m", "repro.cli", "serve"]
    command += ["--port", "0"]
    start = _now()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        match = _LISTENING.search(line)
        if match is None:
            raise BenchError(f"server did not start: {line!r}")
        port = int(match.group(2))
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise BenchError(f"healthz answered {response.status}")
    except BaseException:
        _stop(proc)
        proc.stdout.close()
        raise
    return proc, port, (_now() - start) / 1e9


def _stop(proc: subprocess.Popen) -> None:
    """End a child process and wait for it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _send(port: int, requests, seconds: float, limit: int):
    """The closed loop: one connection, next request after each reply."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=CHILD_TIMEOUT_S)
    replies = []
    ops: List[Tuple[int, int]] = []
    deadline = _now() + int(seconds * 1e9)
    try:
        for op, (design, payload) in enumerate(requests[:limit]):
            # stop only at a block's start, so a third of ops are misses
            if seconds and op % inputs.SERVICE_BLOCK == 0 and _now() >= deadline:
                break
            body = json.dumps(payload, sort_keys=True).encode()
            start = _now()
            connection.request("POST", "/v1/rank", body=body, headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            data = response.read()
            ops.append((start, _now()))
            replies.append({"op": op, "design": design, "status": response.status, "body": data})
    finally:
        connection.close()
    return ops, replies


def _server_probes(count: int) -> List[float]:
    """Set-up times of ``count`` servers stopped once they answer."""
    setups = []
    for _ in range(count):
        proc, _, setup = _start_server()
        setups.append(setup)
        _stop(proc)
        proc.stdout.close()
    return setups


def _service_leg(requests, seconds: float, limit: int, probes: int = 0, spans_path: str = ""):
    setups = _server_probes(probes // 2)
    proc, port, setup = _start_server(spans_path)
    setups.append(setup)
    try:
        stat0 = _proc_stat()
        cpu0 = _pid_cpu(proc.pid)
        loadgen0 = os.times()
        ops, replies = _send(port, requests, seconds, limit)
        loadgen1 = os.times()
        cpu1 = _pid_cpu(proc.pid)
        stat1 = _proc_stat()
        rss = _pid_peak_rss_mb(proc.pid)
    finally:
        _stop(proc)
        proc.stdout.close()
    if proc.returncode not in (0, -signal.SIGTERM):
        raise BenchError(f"server exited with {proc.returncode}")
    setups += _server_probes(probes - probes // 2)
    wall = (ops[-1][1] - ops[0][0]) / 1e9
    self_s, children_s = cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]
    loadgen = (loadgen1.user + loadgen1.system) - (loadgen0.user + loadgen0.system)
    return {
        "ops": ops,
        "replies": replies,
        "failed": sum(reply["status"] != 200 for reply in replies),
        "setups": setups,
        "wall_s": wall,
        "cpu_s": self_s + children_s,
        "peak_rss_mb": rss,
        "host": _host(wall, self_s, children_s, stat0, stat1, loadgen),
    }


def _service_references(requests, replies) -> Dict[int, Dict[str, object]]:
    """The reference rank and fingerprint of every design replied to,
    computed after the timed phase by two ``inputs.py`` processes, each
    given every other design."""
    designs = sorted({r["design"] for r in replies})
    payloads = dict(requests)
    shares = [designs[0::2], designs[1::2]]
    command = [sys.executable, os.path.join(HERE, "inputs.py")]
    procs: List[subprocess.Popen] = []
    try:
        for share in shares:
            proc = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT
            )
            procs.append(proc)
            proc.stdin.write(json.dumps([payloads[d] for d in share]))
            proc.stdin.close()
        references: Dict[int, Dict[str, object]] = {}
        for proc, share in zip(procs, shares):
            out = proc.stdout.read()
            if proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
                raise BenchError(f"reference process exited with {proc.returncode}")
            references.update(zip(share, json.loads(out)))
        return references
    finally:
        for proc in procs:
            _stop(proc)
            proc.stdout.close()


@contextlib.contextmanager
def _one_cpu():
    """Run this process, and the processes it starts, on one CPU.

    The server and the load generator then hand each request to each
    other on a CPU that stays busy.  Spread over two CPUs, every hand-off
    wakes an idle virtual CPU, and a host short of CPU delays each wake:
    a memo hit, under a millisecond, then reads two to three times
    slower in a run where the host steals a tenth of the CPU time.
    """
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(usable)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, usable)


def run_service(args):
    size = inputs.TOY if args.toy else inputs.FULL
    requests = inputs.service_requests(args.seed, size.service_gates)
    if not args.trace:
        with _one_cpu():
            leg = _service_leg(
                requests, args.seconds, len(requests), probes=0 if args.toy else SETUPS - 1
            )
        failures = checks.check_replies(leg["replies"], _service_references(requests, leg["replies"]))
        latencies = [(b - a) / 1e9 for a, b in leg["ops"]]
        metrics = _end_to_end(
            leg["setups"], len(latencies), latencies, leg["wall_s"], leg["cpu_s"], leg["peak_rss_mb"]
        )
        return _outcome(failures, len(latencies), leg["failed"], metrics, leg["host"])

    with _one_cpu():
        plain = _service_leg(requests, args.seconds, len(requests))
        traced = _service_leg(requests, 0, TRACED_REQUESTS, spans_path=_spans_path(args))
    references = _service_references(requests, plain["replies"] + traced["replies"])
    failures = checks.check_replies(plain["replies"], references) + checks.check_replies(
        traced["replies"], references
    )
    pool = {"points_per_s": 0.0, "worker_cpu_s": 0.0}
    return _traced_outcome(args, failures, plain, traced, pool, "ia-rank serve", os.getpid())


# ---------------------------------------------------------------------------


def _with_units(layers: Mapping[str, float]) -> Dict[str, Tuple[float, str]]:
    """The per-layer values, in BENCHMARK.json's order, with its units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: (float(layers[m["name"]]), m["unit"]) for m in spec["per_layer"]}


def _outcome(failures, attempted, failed, metrics, host):
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return not failures, attempted, failed, metrics, host


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="", help="append the result to this JSON-lines file")
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an error, so every child is stopped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's source is missing ({SRC})", file=sys.stderr)
        return 2

    try:
        if args.workload == "service_mixed":
            correct, attempted, failed, metrics, host = run_service(args)
        else:
            correct, attempted, failed, metrics, host = run_batch(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(json.dumps({"host": host}))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host, **result}
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
