"""``scan-wide``: wide scans and bulk writes through the library, in process.

Topology.  One thread in the load process calls ``Query(...).run()`` at
library defaults: serial execution (no worker pool) and ``codegen``
auto, so aggregates compile and ``GROUP BY`` interprets.  The table has
2M rows: value columns ``c7``, ``c13``, ``c20``, ``c32``, ``c33`` and
``c63`` (uniform, so no zone map can prune) and a 4-bit key ``g``.
``c20`` is replicated on both sockets and takes the writes.  A 2-node
range-sharded twin holds ``c32`` (the shard key) and ``c20`` as built.

Each rotation runs, with literals and rows drawn fresh for every op:

* ``write``: ``scatter_many`` of 16,384 distinct random rows into
  ``c20``, which rewrites the packed words of both replicas;
* per width ``w``: ``SUM(cw) WHERE cw >= mid``, ``mid`` within 1% of
  ``2**(w-1)``, so about half the rows match (compiled); the ``c20``
  sum reads the words the write just changed;
* ``GROUP BY g`` of ``SUM(c20) WHERE c13 >= lo``, ``lo < 64``, which
  keeps over 99% of the rows (interpreted);
* ``SUM(c20) WHERE c20 >= mid`` on the sharded twin, which fans out to
  both nodes and prunes nothing.

A NumPy mirror of ``c20`` takes every write, and every read is checked
against it.  Every width sum is checked against its NumPy floor, the
same expression over the uncompressed column; that check is timed and
gives ``floor_ratio`` and ``core.numpy_floor_ms.w*``.

Stressed: decode, predicate and reduce do nearly all the work; the
general widths sit beside the word-divisor width 32, which is the
control for a change to the general-width decode kernel.  The write
beside the reads makes a decode speed-up that reshapes the packed
layout or caches decoded words, and makes ``bitpack.scatter`` or the
per-replica writes dearer, show in ``write_rows_per_s``.  Bypassed:
server, SQL, and the worker pool (serial execution), so for a pool
change this workload should show no change.
"""

from __future__ import annotations

import time

import numpy as np

from repro.query import Query, col

from .common import Outcomes, Planted, WorkloadResult, check_equal, \
    latency_metrics, masked_sum_floor, median, ms, overhead_ratio, \
    peak_rss_mb, quiet_part, repeated_setup, run_phases, write_record
from .layers import Recorder
from .report import WIDTHS
from .tables import STREAM_REQUESTS, STREAM_WIDE, halves, rng_for, \
    stored_bytes_ratio

ROWS = 2_000_000
KEY_VALUES = 16
#: The replicated column that takes the writes, its width, and rows
#: per write.
WRITTEN, WRITTEN_BITS = "c20", 20
BATCH = 16_384
PARAMS = {"rows": ROWS, "widths": list(WIDTHS), "key_bits": 4,
          "execution": "serial, codegen auto", "sharded_nodes": 2,
          "sharded_columns": ["c32", "c20"], "replicated": [WRITTEN],
          "write_batch": BATCH}


def _data(seed: int):
    rng = rng_for(seed, STREAM_WIDE)
    data = {f"c{w}": rng.integers(0, 1 << w, ROWS, dtype=np.uint64)
            for w in WIDTHS}
    # The shard key: fixed shard widths for every seed (see halves()).
    data["c32"] = rng.permutation(halves(rng, 32, ROWS))
    data["g"] = rng.integers(0, KEY_VALUES, ROWS, dtype=np.uint64)
    return data


def _build(data):
    from repro.cluster import ShardedTable, cluster_of
    from repro.core.table import SmartTable

    plain = SmartTable.from_arrays(
        {k: v for k, v in data.items() if k != WRITTEN})
    written = SmartTable.from_arrays({WRITTEN: data[WRITTEN]},
                                     replicated=True)
    columns = {name: t[name] for t in (plain, written)
               for name in t.column_names}
    table = SmartTable({name: columns[name] for name in data})
    sharded = ShardedTable.from_arrays(
        {"c32": data["c32"], "c20": data["c20"]}, key="c32",
        cluster=cluster_of(2), mode="range")
    return table, sharded


def _half(rng, width: int) -> int:
    """A literal within 1% of ``2**(width-1)``."""
    mid = 1 << (width - 1)
    jitter = max(1, mid // 100)
    return mid + int(rng.integers(-jitter, jitter + 1))


class _Rotation:
    """The ops of the workload, each timed and checked."""

    def __init__(self, data, table, sharded, rng, planted, recorder):
        # ``data`` stays as built, for the sharded twin; the mirror takes
        # the writes to ``table``.
        self.data = data
        self.mirror = dict(data, **{WRITTEN: data[WRITTEN].copy()})
        self.table = table
        self.sharded = sharded
        self.rng = rng
        self.planted = planted
        self.recorder = recorder
        self.floor_s = {w: [] for w in WIDTHS}
        self.engine_s = {w: [] for w in WIDTHS}
        self.n = 0

    def _op(self, outcomes, kind, query, expected_fn, rows=0):
        self.n += 1
        span = self.recorder.begin_op(f"op{self.n}", kind)
        try:
            t0 = time.perf_counter()
            got = query()
            seconds = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            self.recorder.end_op(span)
            outcomes.fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        self.recorder.end_op(span)
        check_equal(outcomes, kind, seconds, self.planted(got),
                    expected_fn(), rows)
        return seconds

    def _write(self, outcomes: Outcomes) -> None:
        rows = self.rng.choice(ROWS, BATCH, replace=False)
        values = self.rng.integers(0, 1 << WRITTEN_BITS, BATCH,
                                   dtype=np.uint64)
        self.n += 1
        span = self.recorder.begin_op(f"op{self.n}", "write")
        try:
            t0 = time.perf_counter()
            self.table[WRITTEN].scatter_many(rows, values)
            seconds = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            outcomes.fail("write", f"{type(exc).__name__}: {exc}")
        else:
            outcomes.ok("write", seconds, BATCH)
        finally:
            self.recorder.end_op(span)
        # The mirror takes the write whatever happened, so a lost write
        # shows in the next reads.
        self.mirror[WRITTEN][rows] = values

    def run(self, outcomes: Outcomes) -> None:
        self._write(outcomes)
        for w in WIDTHS:
            name, mid = f"c{w}", _half(self.rng, w)
            values = self.mirror[name]

            def floor():
                t0 = time.perf_counter()
                expected = masked_sum_floor(values, values >= mid, w)
                self.floor_s[w].append(time.perf_counter() - t0)
                return expected

            seconds = self._op(
                outcomes, f"scan.w{w}",
                lambda: Query(self.table).where(col(name) >= mid)
                .sum(name).run().scalar(),
                floor, ROWS)
            if seconds is not None:
                self.engine_s[w].append(seconds)

        lo = int(self.rng.integers(0, 64))
        self._op(outcomes, "groupby",
                 lambda: {k: v["sum(c20)"] for k, v in
                          Query(self.table).where(col("c13") >= lo)
                          .group_by("g").sum("c20").run()
                          .groups.items()},
                 lambda: self._groups(lo))

        mid = _half(self.rng, 20)
        values = self.data["c20"]
        self._op(outcomes, "sharded",
                 lambda: Query(self.sharded).where(col("c20") >= mid)
                 .sum("c20").run().scalar(),
                 lambda: masked_sum_floor(values, values >= mid, 20))

    def _groups(self, lo: int):
        mask = self.mirror["c13"] >= lo
        keys = self.mirror["g"][mask]
        # Exact in float64: a group sum stays below 2**21 * 2**20.
        sums = np.bincount(keys, weights=self.mirror["c20"][mask],
                           minlength=KEY_VALUES)
        counts = np.bincount(keys, minlength=KEY_VALUES)
        return {int(k): int(sums[k]) for k in range(KEY_VALUES)
                if counts[k]}


def run(seed: int, seconds: float, traced: bool, plant_every: int = 0):
    data = _data(seed)
    recorder = Recorder()
    if traced:
        recorder.install()
        recorder.record_setup(True)
    (table, sharded), setup_s = repeated_setup(lambda: _build(data))
    recorder.record_setup(False)
    rotation = _Rotation(data, table, sharded,
                         rng_for(seed, STREAM_REQUESTS), Planted(plant_every),
                         recorder)

    def reset():
        for w in WIDTHS:
            rotation.floor_s[w].clear()
            rotation.engine_s[w].clear()

    measured, host, untraced, total = run_phases(
        rotation.run, seconds, recorder, reset)
    quiet, quiet_s, steal_note = quiet_part(measured, host)

    lat = quiet.latencies
    width_kinds = [f"scan.w{w}" for w in WIDTHS]
    width_ops = [v for kind in width_kinds for v in lat.get(kind, [])]
    engine = sum(median(rotation.engine_s[w]) for w in WIDTHS)
    floor = sum(median(rotation.floor_s[w]) for w in WIDTHS)
    e2e = {"setup_s": (median(setup_s), "s",
                       f"median of {len(setup_s)} set-ups")}
    e2e.update(latency_metrics(quiet, quiet_s))
    e2e.update({
        "sharded_p50_ms": (ms(median(lat.get("sharded", []))), "ms"),
        "scan_p50_ms": (ms(median(width_ops)), "ms",
                        "the six width sums"),
        "groupby_p50_ms": (ms(median(lat.get("groupby", []))), "ms"),
        "scan_rows_per_s": (quiet.row_rate(width_kinds), "rows/s"),
        "floor_ratio": (engine / floor if floor else 0.0, "ratio",
                        "sum of per-width medians, engine over floor"),
        "write_rows_per_s": (quiet.row_rate(["write"]), "rows/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "stored_bytes_ratio": (stored_bytes_ratio([table, sharded]),
                               "ratio"),
    })
    result = WorkloadResult(outcomes=total, e2e=e2e, params=PARAMS,
                            lines=[steal_note])
    if traced:
        from .report import layer_metrics

        result.layers = layer_metrics(
            recorder.spans, "bench.op", recorder.counter_delta,
            floors_ms={w: ms(median(rotation.floor_s[w])) for w in WIDTHS},
            width_kinds="scan.w",
            overhead_ratio=overhead_ratio(measured, untraced))
        path = write_record(f"scan-wide-seed{seed}-spans.json",
                            recorder.dump())
        result.lines.append(
            f"spans: {len(recorder.spans)} recorded, "
            f"{len(recorder.obs_spans)} from the obs tracer, in {path.name}")
    result.lines += _width_table(rotation, result.layers)
    return result


def _width_table(rotation: _Rotation, layers):
    """Per width: engine and floor medians, their ratio and, when
    traced, the decode rate."""
    lines = ["per-width SUM(cw) WHERE cw >= mid, medians"
             + (" (traced half)" if layers else ""),
             f"  {'width':>5} {'engine ms':>10} {'floor ms':>9} "
             f"{'ratio':>6}" + (f" {'decode Melem/s':>15}" if layers else "")]
    for w in WIDTHS:
        e = ms(median(rotation.engine_s[w]))
        f = ms(median(rotation.floor_s[w]))
        line = f"  {w:>5} {e:>10.2f} {f:>9.2f} {(e / f if f else 0.0):>6.2f}"
        if layers:
            line += f" {layers[f'core.decode_Melem_per_s.w{w}'][0]:>15.1f}"
        lines.append(line)
    return lines
