"""``serve-mix``: the SQL server as a dashboard sees it.

Topology.  The server runs in its own process at its defaults
(``SmartArrayServer(catalog, port=0)``: four pool workers, 30 s
deadline).  Its catalog holds the 1M-row ``events`` table and its
2-node range-sharded twin ``events_sharded``.  One load process opens
two connections, one thread each, and runs them closed-loop: a thread
sends its next statement only after the previous reply arrived and was
checked, the way a dashboard panel refreshes.  Two connections match
the two cores of the reference box (``nproc``), so load never exceeds
one in-flight statement per core; closed loop means a slower server
receives fewer requests instead of an unbounded queue, which keeps
run-to-run spread low and still contends the session threads, the pool
and the GIL between two requests.

Mix.  Each statement draws its class with weights 4:3:2:1 and fresh
literals, so no two statements share text:

``selective`` (4)  ``SUM(amount)`` over a random 1% ``ts`` window
``rows``      (3)  ``SELECT ts, amount ... WHERE ts >= c LIMIT 100``
``sharded``   (2)  the 1% ``SUM`` on ``events_sharded``
``scan``      (1)  ``SUM(amount)`` over a random 50% ``ts`` window

Nine in ten statements touch at most 1% of the rows, so the fixed
per-request layers dominate: frames, parse/bind, plan, pool dispatch,
encode and the cluster merge.  The one-in-ten scan keeps decode in the
picture and holds the GIL long enough to delay the other connection.

Set-up.  ``setup_s`` is the median of three set-ups (catalog build,
zone maps, sharding, server start), each in a server process of its
own; the last of them serves the load.  The serving process thus holds
one catalog's worth of memory, and its peak RSS does not depend on
how much of an earlier set-up was still alive.

Checks.  Every reply is compared with a NumPy mirror of the table:
prefix sums for the ``SUM`` windows and row slices for ``rows``.  No
NumPy floor is timed here: in the load process it would compete with
the connections, and after the load it samples another second of a
noisy host than the scans did.

Bypassed: nothing the server uses; ``numa``/``perfmodel``/``graph``/
``interop`` (modelled figures) and ``live``/``adapt`` are never called.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from typing import Dict

import numpy as np

from .common import HostWindows, Outcomes, Planted, ROOT, OUT_DIR, \
    SETUP_REPS, check_equal, latency_metrics, median, ms, overhead_ratio, \
    quiet_part
from .tables import EVENTS_ROWS, STREAM_REQUESTS, TS_SPAN, events_data, \
    rng_for

CONNECTIONS = 2
KINDS = ("selective", "rows", "sharded", "scan")
WEIGHTS = (4, 3, 2, 1)
SELECTIVE_WINDOW = TS_SPAN // 100
SCAN_WINDOW = TS_SPAN // 2
ROWS_LIMIT = 100
#: Un-timed load before measuring, so lazy set-up and caches settle.
WARMUP_S = 1.0
#: Seconds to wait for the server process to answer a command.
SERVER_TIMEOUT_S = 60.0

PARAMS = {
    "rows": EVENTS_ROWS, "connections": CONNECTIONS, "loop": "closed",
    "weights": dict(zip(KINDS, WEIGHTS)), "server": "defaults (4 workers)",
    "sharded_nodes": 2, "limit": ROWS_LIMIT,
}


class _Oracle:
    """Expected answers from a NumPy mirror of the served table."""

    def __init__(self, data: Dict[str, np.ndarray]) -> None:
        self.ts = data["ts"]
        self.amount = data["amount"]
        # Exact in uint64: at most 2**20 rows of values below 2**20.
        self.prefix = np.concatenate(
            [[0], np.cumsum(self.amount, dtype=np.uint64)])

    def window(self, lo: int, hi: int):
        i, j = np.searchsorted(self.ts, [lo, hi], side="left")
        return int(i), int(j)

    def window_sum(self, lo: int, hi: int) -> int:
        i, j = self.window(lo, hi)
        return int(self.prefix[j]) - int(self.prefix[i])

    def statement(self, kind: str, rng: np.random.Generator):
        """``(sql, expected answer, rows the predicate covers)``."""
        if kind == "rows":
            c = int(rng.integers(0, TS_SPAN))
            i, _ = self.window(c, c)
            j = min(i + ROWS_LIMIT, self.ts.size)
            sql = (f"SELECT ts, amount FROM events WHERE ts >= {c} "
                   f"LIMIT {ROWS_LIMIT}")
            expected = (list(range(i, j)), self.ts[i:j].tolist(),
                        self.amount[i:j].tolist())
            return sql, expected, j - i
        width = SCAN_WINDOW if kind == "scan" else SELECTIVE_WINDOW
        lo = int(rng.integers(0, TS_SPAN - width))
        hi = lo + width
        table = "events_sharded" if kind == "sharded" else "events"
        sql = (f"SELECT SUM(amount) FROM {table} "
               f"WHERE ts >= {lo} AND ts < {hi}")
        i, j = self.window(lo, hi)
        return sql, self.window_sum(lo, hi), j - i


def _answer(kind: str, result):
    if kind == "rows":
        return (result.rows.tolist(), result.columns["ts"].tolist(),
                result.columns["amount"].tolist())
    return result.scalar()


class _Connection(threading.Thread):
    """One closed-loop connection for one phase of the run."""

    def __init__(self, index: int, conn, port: int, oracle: _Oracle,
                 rng: np.random.Generator, stop_at: float,
                 planted: Planted, phase: str) -> None:
        super().__init__(name=f"serve-mix-conn{index}", daemon=True)
        self.index = index
        self.conn = conn
        self.port = port
        self.oracle = oracle
        self.rng = rng
        self.stop_at = stop_at
        self.planted = planted
        self.phase = phase
        self.outcomes = Outcomes()
        self.client_ms: Dict[str, float] = {}

    def run(self) -> None:
        from repro.server.client import ServerError

        cum = np.cumsum(WEIGHTS) / sum(WEIGHTS)
        n = 0
        while time.perf_counter() < self.stop_at:
            kind = KINDS[int(np.searchsorted(cum, self.rng.random(),
                                             side="right"))]
            sql, expected, covered = self.oracle.statement(kind, self.rng)
            n += 1
            qid = f"{self.phase}{self.index}-{n}"
            t0 = time.perf_counter()
            try:
                result = self.conn.sql(sql, query_id=qid)
                got = _answer(kind, result)
            except ServerError as exc:
                self.outcomes.fail(kind, f"error frame: {exc}")
                continue
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                self.outcomes.fail(kind, f"{type(exc).__name__}: {exc}")
                self._reconnect()
                continue
            seconds = time.perf_counter() - t0
            check_equal(self.outcomes, kind, seconds, self.planted(got),
                        expected, covered)
            self.client_ms[qid] = ms(seconds)

    def _reconnect(self) -> None:
        from repro.server.client import connect

        self.conn.close()
        try:
            self.conn = connect(port=self.port)
        except OSError:
            time.sleep(0.05)


class _ServerProcess:
    """The server child: start, command, stop, always reaped."""

    def __init__(self, seed: int, traced: bool, out_name: str,
                 setup_only: bool = False) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server_proc",
             "--seed", str(seed), "--trace", str(int(traced)),
             "--out", out_name] + (["--setup-only"] if setup_only else []),
            cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put("")

    def reply(self) -> dict:
        try:
            line = self.lines.get(timeout=SERVER_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("server process stopped answering") from None
        if not line:
            raise RuntimeError(
                f"server process exited (code {self.proc.poll()})")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=SERVER_TIMEOUT_S)
        self.reader.join(timeout=SERVER_TIMEOUT_S)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def _setup_once(seed: int) -> float:
    """Time one set-up in a server process that exits right after it."""
    server = _ServerProcess(seed, False, "unused", setup_only=True)
    try:
        return server.reply()["setup_s"]
    finally:
        server.close()


def _phase(conns, port, oracle, rngs, seconds, planted, phase):
    host = HostWindows()
    stop_at = host.samples[0][0] + seconds
    threads = [
        _Connection(i, conn, port, oracle, rngs[i], stop_at, planted, phase)
        for i, conn in enumerate(conns)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    host.stop()
    for i, t in enumerate(threads):
        conns[i] = t.conn
    return threads, host


def run(seed: int, seconds: float, traced: bool, plant_every: int = 0):
    from repro.server.client import connect

    from .common import WorkloadResult

    data = events_data(seed)
    oracle = _Oracle(data)
    rngs = [rng_for(seed, STREAM_REQUESTS, i) for i in range(CONNECTIONS)]
    planted = Planted(plant_every)
    out_name = f"serve-mix-seed{seed}-spans.json"
    setup_s = [_setup_once(seed) for _ in range(SETUP_REPS - 1)]
    server = _ServerProcess(seed, traced, out_name)
    try:
        ready = server.reply()
        setup_s.append(ready["setup_s"])
        port = ready["port"]
        conns = [connect(port=port) for _ in range(CONNECTIONS)]
        phases = {"warmup": _phase(conns, port, oracle, rngs, WARMUP_S,
                                   planted, "w")}
        if traced:
            phases["untraced"] = _phase(conns, port, oracle, rngs, seconds / 2,
                                        planted, "u")
            server.command("trace on")
            phases["traced"] = _phase(conns, port, oracle, rngs, seconds / 2,
                                      planted, "t")
            server.command("trace off")
        else:
            phases["run"] = _phase(conns, port, oracle, rngs, seconds, planted,
                                   "r")
        for conn in conns:
            conn.close()
        done = server.command("stop")
    finally:
        server.close()

    threads, host = phases["traced" if traced else "run"]
    outcomes = Outcomes()
    for phase_threads, _ in phases.values():
        for t in phase_threads:
            outcomes.merge(t.outcomes)
    measured = Outcomes()
    for t in threads:
        measured.merge(t.outcomes)
    quiet, quiet_s, steal_note = quiet_part(measured, host)

    lat = quiet.latencies
    e2e = {"setup_s": (median(setup_s), "s",
                       f"median of {len(setup_s)} set-ups, "
                       f"one per server process")}
    e2e.update(latency_metrics(quiet, quiet_s))
    e2e.update({
        "selective_p50_ms": (ms(median(lat.get("selective", []))), "ms"),
        "rows_p50_ms": (ms(median(lat.get("rows", []))), "ms"),
        "sharded_p50_ms": (ms(median(lat.get("sharded", []))), "ms"),
        "scan_p50_ms": (ms(median(lat.get("scan", []))), "ms"),
        "scan_rows_per_s": (quiet.row_rate(["scan"]), "rows/s"),
        "peak_rss_mb": (done["peak_rss_mb"], "MiB", "server process"),
        "stored_bytes_ratio": (ready["stored_bytes_ratio"], "ratio"),
    })

    result = WorkloadResult(outcomes=outcomes, e2e=e2e, params=PARAMS,
                            lines=[steal_note])
    if traced:
        from .report import breakdown_lines, layer_metrics

        record = json.loads((OUT_DIR / out_name).read_text())
        spans = record["spans"]
        client_ms = {k: v for t in threads for k, v in t.client_ms.items()}
        request_ms = {s[5]: ms(s[3] - s[2]) for s in spans
                      if s[1] == "server.request" and s[3] is not None}
        residual = [client_ms[req] - request_ms[req]
                    for req in request_ms if req in client_ms]
        untraced = Outcomes()
        for t in phases["untraced"][0]:
            untraced.merge(t.outcomes)
        result.layers = layer_metrics(
            spans, "server.request", record["counter_delta"],
            residual_ms=residual,
            overhead_ratio=overhead_ratio(measured, untraced),
        )
        result.lines += breakdown_lines(spans, client_ms)
        result.lines.append(
            f"spans: {len(spans)} recorded, {len(record['obs_spans'])} "
            f"from the obs tracer, in {out_name}")
    return result
