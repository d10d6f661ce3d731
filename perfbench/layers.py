"""Per-layer spans recorded from outside the program.

Nothing under ``src/`` is edited.  :func:`install` replaces each public
entry point of a serving layer with a wrapper at the place its caller
looks the name up (``repro.server.server.send_frame``,
``repro.sql.binder.parse``, ``SmartArray.decode_chunks`` on the class,
...).  A wrapper does nothing but call through until
:meth:`Recorder.start` enables recording.

A span is ``[id, name, start, end, parent, request, extra]``.  Spans nest
per thread; work handed to other threads inherits its parent explicitly:
``WorkerPool.run`` passes the pool span to its workers, and
``execute_distributed`` registers its shard plans so the shard
``execute`` calls on the per-node threads find their parent.  Every span
of one request carries the request's id.  Spans stay in memory until
the run ends.

While recording, the program's own :mod:`repro.obs` tracer is enabled
too, so its ``server.query``/``query.plan``/``query.execute``/
``cluster.execute`` spans and their counter deltas are collected and
written out beside these.

Self time is a span's duration minus the part of its interval covered
by its children.  :func:`attribute` splits a request's interval
exactly, giving each instant to the deepest span open at that instant,
so the parts of one request sum to its duration.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span record field positions.
ID, NAME, START, END, PARENT, REQ, EXTRA = range(7)


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self.obs_spans: List[dict] = []
        self.counter_delta: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._plan_parent: Dict[int, Tuple[int, object]] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._registry_before: Optional[Dict[str, float]] = None

    # -- recording state ---------------------------------------------------

    def start(self) -> None:
        """Record spans and enable the :mod:`repro.obs` tracer."""
        from repro.obs.registry import registry
        from repro.obs.trace import TRACER

        self._registry_before = registry().snapshot()
        TRACER.pop_finished()
        TRACER.enable(capture_counters=True)
        self.enabled = True

    def stop(self) -> None:
        """Stop recording; keep the obs spans and the counter deltas."""
        from repro.obs.registry import registry
        from repro.obs.trace import TRACER

        if not self.enabled:
            return
        self.enabled = False
        TRACER.disable()
        for root in TRACER.pop_finished():
            _flatten_obs(root, None, self.obs_spans)
        if self._registry_before is not None:
            self.counter_delta = registry().delta(self._registry_before)

    def dump(self) -> Dict[str, object]:
        """Everything recorded, for writing out when the run ends."""
        return {"spans": self.spans, "obs_spans": self.obs_spans,
                "counter_delta": self.counter_delta}

    def record_setup(self, enabled: bool) -> None:
        """Record spans (only) while the benchmark builds its tables."""
        self.enabled = enabled

    # -- span plumbing -----------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin_op(self, req: object, kind: str) -> Optional[list]:
        """Open the root span ``bench.op`` of one in-process op of class
        ``kind`` (``None`` while not recording)."""
        if not self.enabled:
            return None
        self._tls.req = req
        span = self.open("bench.op")
        span[EXTRA]["kind"] = kind
        return span

    def end_op(self, span: Optional[list]) -> None:
        if span is not None:
            self.close(span)
            self._tls.req = None

    def open(self, name: str, inherit: Optional[Tuple[int, object]] = None
             ) -> list:
        stack = self._stack()
        if stack:
            parent, req = stack[-1][ID], stack[-1][REQ]
        elif inherit is not None:
            parent, req = inherit
        else:
            parent = getattr(self._tls, "parent", None)
            req = getattr(self._tls, "req", None)
        span = [next(self._ids), name, time.perf_counter(), None, parent,
                req, {}]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        stack = self._stack()
        if span in stack:
            del stack[stack.index(span):]

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper))

    def wrap(self, owner: object, attr: str, name: str,
             note: Optional[Callable] = None,
             inherit: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``note(span, args, result)`` adds facts to the span's extra;
        ``inherit(args)`` names the parent of a call made on a thread
        that has no open span.
        """
        original = getattr(owner, attr)
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return original(*args, **kwargs)
            span = rec.open(name, inherit(args) if inherit else None)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.close(span)
            if note is not None:
                note(span, args, result)
            return result

        self._patch(owner, attr, wrapper)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> "Recorder":
        """Wrap the public entry points of every measured layer."""
        import repro.cluster.executor as cluster_executor
        import repro.query.executor as query_executor
        import repro.query.planner as planner
        import repro.server.server as server
        import repro.sql.binder as binder
        from repro.core.smart_array import SmartArray
        from repro.core.table import SmartTable
        from repro.runtime.workers import WorkerPool

        def note_plan(span, args, plan):
            span[EXTRA].update(chunks_total=plan.chunks_total,
                               chunks_pruned=plan.chunks_pruned,
                               mode=plan.mode)

        def note_decode(span, args, _result):
            span[EXTRA].update(bits=args[0].bits, chunks=args[2])

        def note_scatter(span, args, _result):
            span[EXTRA]["rows"] = len(args[1])

        def shard_parent(args):
            return self._plan_parent.get(id(args[0]))

        # server: one request span from recv_frame returning to
        # send_frame returning, on the session thread.
        recv_frame, send_frame = server.recv_frame, server.send_frame
        tls = self._tls

        def traced_recv(sock):
            request = recv_frame(sock)
            if (self.enabled and isinstance(request, dict)
                    and request.get("op") == "sql"):
                tls.req = request.get("id")
                tls.request_span = self.open("server.request")
            return request

        def traced_send(sock, frame):
            request_span = getattr(tls, "request_span", None)
            if request_span is None:
                return send_frame(sock, frame)
            span = self.open("server.send_frame")
            try:
                nbytes = send_frame(sock, frame)
                span[EXTRA]["bytes"] = nbytes
                return nbytes
            finally:
                self.close(span)
                self.close(request_span)
                tls.request_span = None
                tls.req = None

        self._patch(server, "recv_frame", traced_recv)
        self._patch(server, "send_frame", traced_send)
        self.wrap(server, "compile_sql", "sql.compile")
        self.wrap(binder, "parse", "sql.parse")
        self.wrap(binder, "bind", "sql.bind")

        # query: planning and execution, single-node and per shard.
        self.wrap(planner, "plan_query", "query.plan", note=note_plan)
        self.wrap(cluster_executor, "plan_query", "query.plan",
                  note=note_plan)
        self.wrap(query_executor, "execute", "query.execute")
        self.wrap(cluster_executor, "execute", "query.execute",
                  inherit=shard_parent)

        # cluster: plan once, fan out, merge.
        self.wrap(cluster_executor, "plan_distributed", "cluster.plan",
                  note=note_plan)
        execute_distributed = cluster_executor.execute_distributed

        def traced_execute_distributed(dplan, *args, **kwargs):
            if not self.enabled:
                return execute_distributed(dplan, *args, **kwargs)
            span = self.open("cluster.execute")
            keys = [id(p) for p in dplan.shard_plans.values()]
            for key in keys:
                self._plan_parent[key] = (span[ID], span[REQ])
            try:
                return execute_distributed(dplan, *args, **kwargs)
            finally:
                self.close(span)
                for key in keys:
                    self._plan_parent.pop(key, None)

        self._patch(cluster_executor, "execute_distributed",
                    traced_execute_distributed)

        # runtime: the pool starts one thread per worker on every call.
        pool_run = WorkerPool.run

        def traced_pool_run(pool, work):
            if not self.enabled:
                return pool_run(pool, work)
            span = self.open("runtime.pool_run")
            span[EXTRA]["threads"] = (
                pool.n_workers if pool.mode == "threads" else 0
            )
            parent = (span[ID], span[REQ])

            def traced_work(ctx):
                tls.parent, tls.req = parent
                try:
                    work(ctx)
                finally:
                    tls.parent = None

            try:
                return pool_run(pool, traced_work)
            finally:
                self.close(span)

        self._patch(WorkerPool, "run", traced_pool_run)

        # core: decode, bulk writes, zone-map builds.
        self.wrap(SmartArray, "decode_chunks", "core.decode",
                  note=note_decode)
        self.wrap(SmartArray, "scatter_many", "core.scatter",
                  note=note_scatter)
        self.wrap(SmartTable, "build_zone_map", "core.zonemap_build")
        return self


def _flatten_obs(span, parent: Optional[int], out: List[dict]) -> None:
    index = len(out)
    out.append({
        "name": span.name, "start": span.start_s, "end": span.end_s,
        "parent": parent, "labels": dict(span.labels),
        "counters": dict(span.counters),
    })
    for child in span.children:
        _flatten_obs(child, index, out)


# -- analysis ---------------------------------------------------------------

def union_length(intervals: Iterable[Tuple[float, float]], lo: float,
                 hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    """Finished spans indexed by id, parent and request."""

    def __init__(self, spans: Iterable[list]) -> None:
        self.spans = [s for s in spans if s[END] is not None]
        self.by_id = {s[ID]: s for s in self.spans}
        self.children: Dict[int, List[list]] = defaultdict(list)
        self.by_req: Dict[object, List[list]] = defaultdict(list)
        for s in self.spans:
            if s[PARENT] is not None:
                self.children[s[PARENT]].append(s)
            self.by_req[s[REQ]].append(s)

    def named(self, name: str) -> List[list]:
        return [s for s in self.spans if s[NAME] == name]

    def duration(self, span: list) -> float:
        return span[END] - span[START]

    def self_time(self, span: list) -> float:
        kids = [(c[START], c[END]) for c in self.children[span[ID]]]
        return self.duration(span) - union_length(kids, span[START],
                                                  span[END])

    def descendants(self, span: list) -> List[Tuple[list, int]]:
        out, todo = [], [(span, 0)]
        while todo:
            s, depth = todo.pop()
            out.append((s, depth))
            todo.extend((c, depth + 1) for c in self.children[s[ID]])
        return out

    def attribute(self, root: list) -> Dict[str, float]:
        """Split ``root``'s interval among the spans under it.

        Each instant goes to the deepest span open at that instant (the
        earliest-started among equals), so the parts sum exactly to the
        root's duration even when worker threads overlap.
        """
        nodes = [(s, d) for s, d in self.descendants(root)]
        cuts = sorted({root[START], root[END]} | {
            t for s, _ in nodes for t in (s[START], s[END])
            if root[START] < t < root[END]
        })
        parts: Dict[str, float] = defaultdict(float)
        for a, b in zip(cuts, cuts[1:]):
            best = None
            for s, depth in nodes:
                if s[START] <= a and s[END] >= b:
                    key = (depth, -s[START])
                    if best is None or key > best[0]:
                        best = (key, s)
            parts[best[1][NAME]] += b - a
        return dict(parts)


def per_op(tree: SpanTree, roots: List[list], name: str,
           fn: Callable[[list], float] = None) -> List[float]:
    """For each op with spans named ``name``, the total of ``fn`` over
    them (``fn`` defaults to the duration)."""
    fn = fn or tree.duration
    totals = []
    for root in roots:
        spans = [s for s in tree.by_req[root[REQ]] if s[NAME] == name]
        if spans:
            totals.append(sum(fn(s) for s in spans))
    return totals


def top_plan_spans(tree: SpanTree, req: object) -> List[list]:
    """An op's planning spans that are not nested inside another plan
    span (``plan_query`` for one table, ``plan_distributed`` for a
    sharded one)."""
    plans = [s for s in tree.by_req[req]
             if s[NAME] in ("query.plan", "cluster.plan")]
    ids = {s[ID] for s in plans}
    return [s for s in plans if s[PARENT] not in ids]
