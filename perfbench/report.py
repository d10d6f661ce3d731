"""Per-layer metrics from recorded spans, and the printed report."""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from .common import median, ms
from .layers import EXTRA, ID, NAME, REQ, SpanTree, per_op, top_plan_spans

#: Column widths whose decode speed and NumPy floor are reported.
WIDTHS = (7, 13, 20, 32, 33, 63)

Metric = Tuple[float, str]


def _median_ms(tree: SpanTree, spans) -> float:
    return ms(median(tree.duration(s) for s in spans))


def layer_metrics(spans: List[list], root_name: str,
                  counter_delta: Dict[str, float],
                  floors_ms: Optional[Dict[int, float]] = None,
                  residual_ms: Optional[List[float]] = None,
                  overhead_ratio: float = 0.0,
                  width_kinds: Optional[str] = None) -> Dict[str, Metric]:
    """Every per-layer metric; a layer the workload bypasses reads 0.

    ``root_name`` names each op's root span.  Times are per-op medians;
    rates are totals over totals; ``*_per_op``/``*_per_query`` are
    totals over op or query counts.  With ``width_kinds``, the
    per-width decode rates count only ops whose kind starts with it,
    so each width is measured on the same kind of scan.
    """
    zonemap = SpanTree(s for s in spans if s[NAME] == "core.zonemap_build")
    tree = SpanTree(s for s in spans if s[REQ] is not None)
    roots = tree.named(root_name)
    n_ops = max(1, len(roots))
    out: Dict[str, Metric] = {}

    # server
    requests = tree.named("server.request")
    sends = tree.named("server.send_frame")
    out["server.request_ms"] = (_median_ms(tree, requests), "ms")
    out["server.send_frame_ms"] = (_median_ms(tree, sends), "ms")
    out["server.response_bytes"] = (
        median(s[EXTRA].get("bytes", 0) for s in sends), "bytes")
    out["server.dispatch_self_ms"] = (
        ms(median(tree.self_time(s) for s in requests)), "ms")
    out["server.residual_ms"] = (median(residual_ms or []), "ms")

    # sql
    out["sql.parse_ms"] = (_median_ms(tree, tree.named("sql.parse")), "ms")
    out["sql.bind_ms"] = (_median_ms(tree, tree.named("sql.bind")), "ms")

    # query
    top_plans = [top_plan_spans(tree, r[REQ]) for r in roots]
    out["query.plan_ms"] = (ms(median(
        sum(tree.duration(s) for s in plans)
        for plans in top_plans if plans)), "ms")
    flat = [s for plans in top_plans for s in plans]
    total = sum(s[EXTRA].get("chunks_total", 0) for s in flat)
    pruned = sum(s[EXTRA].get("chunks_pruned", 0) for s in flat)
    out["query.prune_ratio"] = (pruned / total if total else 0.0, "ratio")
    executes = tree.named("query.execute")
    out["query.execute_self_ms"] = (
        ms(median(tree.self_time(s) for s in executes)), "ms")
    plans = tree.named("query.plan")
    compiled = sum(1 for s in plans if s[EXTRA].get("mode") == "compiled")
    out["query.compiled_share"] = (
        compiled / len(plans) if plans else 0.0, "ratio")

    # runtime
    pool_runs = tree.named("runtime.pool_run")
    out["runtime.pool_run_ms"] = (_median_ms(tree, pool_runs), "ms")
    out["runtime.threads_started_per_op"] = (
        sum(s[EXTRA].get("threads", 0) for s in pool_runs) / n_ops,
        "threads/op")

    # core
    out["core.decode_ms"] = (ms(median(
        per_op(tree, roots, "core.decode"))), "ms")
    out["core.decoded_chunks_per_op"] = (median(per_op(
        tree, roots, "core.decode", lambda s: s[EXTRA].get("chunks", 0))),
        "chunks/op")
    decodes = tree.named("core.decode")
    if width_kinds is not None:
        kept = {r[REQ] for r in roots
                if r[EXTRA].get("kind", "").startswith(width_kinds)}
        decodes = [s for s in decodes if s[REQ] in kept]
    for width in WIDTHS:
        at = [s for s in decodes if s[EXTRA].get("bits") == width]
        secs = sum(tree.duration(s) for s in at)
        elems = 64 * sum(s[EXTRA]["chunks"] for s in at)
        out[f"core.decode_Melem_per_s.w{width}"] = (
            elems / secs / 1e6 if secs else 0.0, "Melem/s")
    for width in WIDTHS:
        out[f"core.numpy_floor_ms.w{width}"] = (
            (floors_ms or {}).get(width, 0.0), "ms")
    scatters = tree.named("core.scatter")
    out["core.scatter_ms"] = (_median_ms(tree, scatters), "ms")
    secs = sum(tree.duration(s) for s in scatters)
    out["core.scatter_Mrows_per_s"] = (
        sum(s[EXTRA]["rows"] for s in scatters) / secs / 1e6
        if secs else 0.0, "Mrows/s")
    out["core.zonemap_build_ms"] = (
        _median_ms(zonemap, zonemap.spans), "ms")

    # cluster
    dist = tree.named("cluster.execute")
    out["cluster.execute_ms"] = (_median_ms(tree, dist), "ms")
    out["cluster.merge_self_ms"] = (
        ms(median(tree.self_time(s) for s in dist)), "ms")
    out["cluster.shard_max_ms"] = (ms(median(
        max((tree.duration(c) for c in tree.children[s[ID]]), default=0.0)
        for s in dist)), "ms")
    n_dist = max(1, len(dist))
    shipped = sum(v for k, v in counter_delta.items()
                  if k.startswith("cluster.bytes_shipped"))
    rpcs = sum(v for k, v in counter_delta.items()
               if k.startswith("cluster.rpcs"))
    out["cluster.bytes_shipped_per_query"] = (
        shipped / n_dist if dist else 0.0, "bytes/query")
    out["cluster.rpcs_per_query"] = (
        rpcs / n_dist if dist else 0.0, "rpcs/query")

    out["obs.trace_overhead_ratio"] = (overhead_ratio, "ratio")
    return out


#: Breakdown rows, in the order a request passes through the layers.
BREAKDOWN_ORDER = (
    "server.request", "sql.compile", "sql.parse", "sql.bind",
    "cluster.plan", "query.plan", "cluster.execute", "query.execute",
    "runtime.pool_run", "core.decode", "server.send_frame",
)


def breakdown_lines(spans: List[list], client_ms: Dict[str, float]
                    ) -> List[str]:
    """The median request's time, split by layer, plus the residual.

    The request whose client-observed latency is the median of all
    traced requests is split with :meth:`SpanTree.attribute`; the
    parts and ``server.residual`` sum to that client latency.
    """
    tree = SpanTree(s for s in spans if s[REQ] is not None)
    roots = {r[REQ]: r for r in tree.named("server.request")}
    traced = sorted((lat, req) for req, lat in client_ms.items()
                    if req in roots)
    if not traced:
        return ["(no traced requests)"]
    client, req = traced[len(traced) // 2]
    root = roots[req]
    parts = {k: ms(v) for k, v in tree.attribute(root).items()}
    residual = client - ms(tree.duration(root))
    lines = [f"median request {req}: client-observed {client:.3f} ms "
             f"(of {len(traced)} traced requests)",
             f"  {'layer (self time)':<24} {'ms':>9} {'share':>7}"]
    names = [n for n in BREAKDOWN_ORDER if n in parts]
    names += sorted(set(parts) - set(names))
    for name in names:
        lines.append(f"  {name:<24} {parts[name]:>9.3f} "
                     f"{parts[name] / client:>7.1%}")
    lines.append(f"  {'server.residual':<24} {residual:>9.3f} "
                 f"{residual / client:>7.1%}")
    total = sum(parts.values()) + residual
    lines.append(f"  {'sum':<24} {total:>9.3f} {total / client:>7.1%}")
    return lines


def metric_lines(title: str, metrics: Dict[str, tuple]) -> List[str]:
    lines = [title]
    for name, entry in metrics.items():
        value, unit = entry[0], entry[1]
        note = f"  ({entry[2]})" if len(entry) > 2 else ""
        lines.append(f"  {name:<34} {value:>14.6g} {unit}{note}")
    return lines


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, tuple], names: Sequence[str]) -> str:
    """The last stdout line: exactly the declared metrics."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in names
        },
    })
