"""Layer spans for the traced run, recorded from outside the program.

:func:`install_batch` and :func:`install_service` replace the public
functions of each layer with timing wrappers.  A wrapper records one
span (name, start, end, parent span, op id) in memory; the spans are
turned into per-layer metrics by :func:`layer_metrics` and written out
as Chrome trace JSON by :func:`write_chrome_trace` when the run ends.

The wrappers rebind every module attribute of the ``repro`` package
that holds the original function, so calls through names imported with
``from x import f`` are traced too; modules imported later bind the
wrapper.  The executor wrapper assumes the
service's thread executor (its default with one worker).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

_now = time.perf_counter_ns

#: A recorded span: (id, name, start ns, end ns, parent id, op id, thread id).
Span = Tuple[int, str, int, int, int, Optional[int], int]


class Tracer:
    """In-memory span and counter store shared by the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        # (current span id, current op id) of this thread / asyncio task
        self._ctx: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(0, None)
        )

    def set_op(self, op: Optional[int]) -> None:
        """Tag the spans that follow, in this context, with op id ``op``."""
        parent, _ = self._ctx.get()
        self._ctx.set((parent, op))

    def context(self) -> Tuple[int, Optional[int]]:
        return self._ctx.get()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def record(self, name: str, start: int, end: int, parent: int, op: Optional[int]) -> None:
        self.spans.append((next(self._ids), name, start, end, parent, op, threading.get_ident()))

    def run_under(self, parent: int, op: Optional[int], fn: Callable, *args):
        """Call ``fn`` with spans parented to ``parent`` and tagged ``op``."""
        token = self._ctx.set((parent, op))
        try:
            return fn(*args)
        finally:
            self._ctx.reset(token)

    def timed(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``after(tracer, args, result)`` runs on success, to count work.
        """
        ctx = self._ctx
        ids = self._ids
        spans = self.spans

        def enter():
            sid = next(ids)
            parent, op = ctx.get()
            return sid, parent, op, ctx.set((sid, op)), _now()

        def leave(sid, parent, op, token, start):
            end = _now()
            ctx.reset(token)
            spans.append((sid, name, start, end, parent, op, threading.get_ident()))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                state = enter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    leave(*state)
                if after is not None:
                    after(self, args, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(*state)
            if after is not None:
                after(self, args, result)
            return result

        return traced


def rebind(module, attr: str, replacement_for: Callable[[Callable], Callable]) -> None:
    """Replace ``module.attr`` wherever the ``repro`` package holds it."""
    original = getattr(module, attr)
    replacement = replacement_for(original)
    for name, mod in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def rebind_method(cls, attr: str, replacement_for: Callable[[Callable], Callable]) -> None:
    """Replace method ``attr`` of ``cls`` (plain or classmethod)."""
    raw = inspect.getattr_static(cls, attr)
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(replacement_for(raw.__func__)))
    else:
        setattr(cls, attr, replacement_for(raw))


# ---------------------------------------------------------------------------
# layer installs


def _add_stats(prefix: str, **fields: str):
    """Count the result's solver stats: metric suffix -> stats field."""

    def after(tracer: Tracer, args: tuple, result) -> None:
        stats = result.stats
        for metric, attr in fields.items():
            tracer.count(f"{prefix}{metric}", getattr(stats, attr))

    return after


def _precompute_wrapper(tracer: Tracer, name: str):
    """Trace a PrecomputeCache stage, counting its lookups once.

    ``tables`` calls ``coarsened`` on a miss; only the outermost call
    counts, as the change of the cache's own hit/miss counters.
    """
    depth = threading.local()

    def make(fn):
        timed = tracer.timed(fn, name)

        @functools.wraps(fn)
        def traced(cache, *args, **kwargs):
            level = getattr(depth, "n", 0)
            if level:
                return timed(cache, *args, **kwargs)
            before = cache.stats()
            depth.n = 1
            try:
                result = timed(cache, *args, **kwargs)
            finally:
                depth.n = 0
            after = cache.stats()
            for kind in ("hits", "misses"):
                delta = sum(after[kind].values()) - sum(before[kind].values())
                tracer.count(f"precompute.{kind}", delta)
            return result

        return traced

    return make


def install_batch(tracer: Tracer) -> None:
    """Wrap the layers a batch workload runs through: wld, arch,
    assign, core.precompute, core.dp, core.curve and analysis.sweep."""
    import repro.api  # noqa: F401  (binds the names rebound below)
    import repro.analysis.sweep as sweep
    import repro.arch.builder as builder
    import repro.assign.tables as tables
    import repro.core.curve as curve
    import repro.core.dp as dp
    import repro.core.precompute as precompute
    import repro.wld.coarsen as coarsen
    import repro.wld.davis as davis

    def coarse_groups(t: Tracer, args: tuple, result) -> None:
        t.count("wld.coarse_groups", result[0].num_groups)

    def journal(t: Tracer, args: tuple, result) -> None:
        records = result.journal.records if result.journal is not None else ()
        t.count("runner.points", len(records))
        t.count("runner.attempts", sum(len(r.attempts) for r in records))

    rebind(davis, "davis_wld", lambda f: tracer.timed(f, "wld.davis"))
    rebind(coarsen, "coarsen", lambda f: tracer.timed(f, "wld.coarsen", coarse_groups))
    rebind(builder, "build_architecture", lambda f: tracer.timed(f, "arch.build"))
    rebind(tables, "build_tables", lambda f: tracer.timed(f, "assign.tables"))
    for stage in ("tables", "coarsened"):
        rebind_method(
            precompute.PrecomputeCache,
            stage,
            _precompute_wrapper(tracer, f"precompute.{stage}"),
        )
    dp_stats = _add_stats(
        "core.dp_", transitions="transitions", rows="rows", pack_checks="pack_checks"
    )
    curve_stats = _add_stats(
        "core.curve_",
        states="states_explored",
        transitions="transitions",
        pack_checks="pack_checks",
    )
    rebind(dp, "solve_rank_dp", lambda f: tracer.timed(f, "core.dp", dp_stats))
    rebind(curve, "solve_budget_rank_curve", lambda f: tracer.timed(f, "core.curve", curve_stats))
    rebind(sweep, "run_sweep", lambda f: tracer.timed(f, "analysis.sweep", journal))


def install_service(tracer: Tracer) -> None:
    """Wrap the batch layers plus schema, service.http, service.memo,
    service.app and service.executor."""
    import repro.schema as schema
    import repro.service.app as app
    import repro.service.executor as executor
    import repro.service.http as http
    import repro.service.memo as memo

    install_batch(tracer)

    def memo_outcome(t: Tracer, args: tuple, result) -> None:
        t.count("memo.hits" if result is not None else "memo.misses")

    rebind_method(schema.RankRequest, "from_wire", lambda f: tracer.timed(f, "schema.parse"))
    rebind_method(
        schema.RankRequest, "fingerprint", lambda f: tracer.timed(f, "schema.fingerprint")
    )
    rebind(schema, "canonical_json_bytes", lambda f: tracer.timed(f, "schema.serialize"))
    rebind(http, "read_request", lambda f: tracer.timed(f, "http.read"))
    rebind(http, "render_response", lambda f: tracer.timed(f, "http.render"))
    rebind_method(memo.ResultCache, "get", lambda f: tracer.timed(f, "memo.get", memo_outcome))
    rebind_method(app.RankApp, "dispatch", lambda f: _dispatch_wrapper(tracer, f))
    rebind_method(executor.SolveExecutor, "submit", lambda f: _submit_wrapper(tracer, f))


def _dispatch_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """Trace RankApp.dispatch; each POST /v1/rank is the next op."""
    ops = itertools.count()
    timed = tracer.timed(fn, "service.dispatch")

    @functools.wraps(fn)
    async def traced(app, request):
        if request.method == "POST" and request.path == "/v1/rank":
            tracer.set_op(next(ops))
        else:
            tracer.set_op(None)
        return await timed(app, request)

    return traced


def _submit_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """Trace SolveExecutor.submit: the job's queue wait and its solve,
    both as children of the submitting span."""

    @functools.wraps(fn)
    def traced(executor, job, *args):
        parent, op = tracer.context()
        submitted = _now()
        tracer.count("executor.jobs")

        def run(*job_args):
            tracer.record("executor.queue_wait", submitted, _now(), parent, op)
            return tracer.run_under(parent, op, tracer.timed(job, "executor.solve"), *job_args)

        return fn(executor, run, *args)

    return traced


# ---------------------------------------------------------------------------
# metrics and output


def _union(intervals: Iterable[Tuple[int, int]]) -> int:
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _clip(pairs: Iterable[Tuple[int, int]], lo: int, hi: int) -> List[Tuple[int, int]]:
    """The parts of the (start, end) intervals inside [lo, hi]."""
    return [(max(a, lo), min(b, hi)) for a, b in pairs if b > lo and a < hi]


def _intervals(spans: Iterable[Span]) -> List[Tuple[int, int]]:
    return [(s[2], s[3]) for s in spans]


#: Per-layer time metric -> the span whose durations it sums.
_SPAN_TIMES = {
    "wld.davis_s": "wld.davis",
    "wld.coarsen_s": "wld.coarsen",
    "arch.build_s": "arch.build",
    "assign.tables_s": "assign.tables",
    "core.dp_s": "core.dp",
    "core.curve_s": "core.curve",
    "schema.parse_s": "schema.parse",
    "schema.fingerprint_s": "schema.fingerprint",
    "schema.serialize_s": "schema.serialize",
    "http.render_s": "http.render",
    "service.dispatch_s": "service.dispatch",
    "executor.queue_wait_s": "executor.queue_wait",
    "executor.solve_s": "executor.solve",
}
_SPAN_CALLS = {
    "wld.davis_calls": "wld.davis",
    "wld.coarsen_calls": "wld.coarsen",
    "arch.build_calls": "arch.build",
    "assign.tables_calls": "assign.tables",
    "core.dp_calls": "core.dp",
    "core.curve_calls": "core.curve",
}
_COUNTS = (
    "core.dp_transitions",
    "core.dp_rows",
    "core.dp_pack_checks",
    "core.curve_states",
    "core.curve_transitions",
    "core.curve_pack_checks",
    "runner.points",
    "runner.attempts",
    "precompute.hits",
    "precompute.misses",
    "memo.hits",
    "memo.misses",
    "executor.jobs",
)
#: Spans that enclose a whole op; coverage counts only spans below them.
_ENTRY_SPANS = ("analysis.sweep", "service.dispatch")


def _self_time(spans: Sequence[Span], name: str) -> float:
    """Seconds inside ``name`` spans not covered by their child spans."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    total = 0
    for s in spans:
        if s[1] == name:
            total += (s[3] - s[2]) - _union(_clip(children.get(s[0], ()), s[2], s[3]))
    return total / 1e9


def layer_metrics(
    spans: Sequence[Span],
    counts: Mapping[str, float],
    ops: Sequence[Tuple[int, int]],
) -> Dict[str, float]:
    """Per-layer values of one traced run.

    ``ops`` are the (start ns, end ns) intervals of the timed ops, in op
    order, as the caller measured them: sweep points, curves or client
    requests.  Times are seconds summed over the traced run.
    """
    out: Dict[str, float] = {}
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    for metric, name in _SPAN_TIMES.items():
        out[metric] = sum(s[3] - s[2] for s in by_name.get(name, ())) / 1e9
    for metric, name in _SPAN_CALLS.items():
        out[metric] = float(len(by_name.get(name, ())))
    for name in _COUNTS:
        out[name] = float(counts.get(name, 0))
    coarsen_calls = out["wld.coarsen_calls"]
    out["wld.coarse_groups"] = (
        counts.get("wld.coarse_groups", 0) / coarsen_calls if coarsen_calls else 0.0
    )
    for layer in ("precompute", "memo"):
        lookups = out[f"{layer}.hits"] + out[f"{layer}.misses"]
        out[f"{layer}.hit_ratio"] = out[f"{layer}.hits"] / lookups if lookups else 0.0
    out["runner.self_s"] = _self_time(spans, "analysis.sweep")
    out["service.self_s"] = _self_time(spans, "service.dispatch")

    # The server's read of a request counts from when the client sent
    # it; before that the server is only waiting for the next request.
    reads = _intervals(by_name.get("http.read", ()))
    out["http.read_s"] = sum(b - a for lo, hi in ops for a, b in _clip(reads, lo, hi)) / 1e9

    dispatch_by_op = {s[5]: s[3] - s[2] for s in by_name.get("service.dispatch", ()) if s[5] is not None}
    out["service.transport_s"] = (
        sum((hi - lo) - dispatch_by_op[op] for op, (lo, hi) in enumerate(ops) if op in dispatch_by_op)
        / 1e9
    )

    inner = _intervals(s for s in spans if s[1] not in _ENTRY_SPANS)
    covered = sum(_union(_clip(inner, lo, hi)) for lo, hi in ops)
    wall = sum(hi - lo for lo, hi in ops)
    out["trace.coverage"] = covered / wall if wall else 0.0
    return out


def span_cost_ns(calls: int = 20_000) -> float:
    """Measured cost of one wrapper call in ns: a traced no-op against
    the bare no-op, best of three loops each."""

    def noop() -> None:
        return None

    traced = Tracer().timed(noop, "noop")

    def loop(fn: Callable) -> int:
        start = _now()
        for _ in range(calls):
            fn()
        return _now() - start

    bare = min(loop(noop) for _ in range(3))
    return max(0.0, (min(loop(traced) for _ in range(3)) - bare) / calls)


def write_chrome_trace(
    path: str,
    processes: Sequence[Tuple[str, int, Sequence[Span]]],
    ops: Sequence[Tuple[int, int]],
    ops_pid: int,
) -> None:
    """Write spans as Chrome trace-event JSON (Perfetto, chrome://tracing).

    ``processes`` are ``(label, pid, spans)``; ``ops`` become ``op``
    spans on the process that timed them.
    """
    events: List[dict] = []
    for label, pid, spans in processes:
        events.append(
            {"name": "process_name", "ph": "M", "ts": 0, "pid": pid, "tid": 0, "args": {"name": label}}
        )
        for sid, name, start, end, parent, op, tid in spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": start / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": pid,
                    # viewers take 32-bit thread ids
                    "tid": tid % 2**31,
                    "args": {"id": sid, "parent": parent, "op": op},
                }
            )
    for op, (start, end) in enumerate(ops):
        events.append(
            {
                "name": "op",
                "cat": "op",
                "ph": "X",
                "ts": start / 1e3,
                "dur": (end - start) / 1e3,
                "pid": ops_pid,
                "tid": 0,
                "args": {"op": op},
            }
        )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def dump(tracer: Tracer, path: str) -> None:
    """Save a tracer's spans and counts for the orchestrating process."""
    with open(path, "w") as handle:
        json.dump({"pid": os.getpid(), "spans": tracer.spans, "counts": tracer.counts}, handle)


def load(path: str) -> Tuple[int, List[Span], Dict[str, float]]:
    with open(path) as handle:
        data = json.load(handle)
    return data["pid"], [tuple(s) for s in data["spans"]], data["counts"]
