"""Shared pieces of the benchmark: the NumPy floor, outcome accounting,
percentiles and provenance.

Nothing here imports ``repro``: the oracle and the statistics must not
share code with the engine they judge.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Root of the checkout (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave their trace files and full result records.
OUT_DIR = ROOT / ".bench_out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: ``latency_tail_ms`` is the highest percentile, at most p99, that
#: still has at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
TAIL_MAX_PERCENTILE = 99

_U64 = 1 << 64
_LO32 = np.uint64(0xFFFFFFFF)


# -- the NumPy floor --------------------------------------------------------

def exact_sum(values: np.ndarray, bits: int) -> int:
    """Exact sum of ``values`` (uint64, each below ``2**bits``).

    When ``len(values) * (2**bits - 1) < 2**64`` no partial sum can
    wrap, so one uint64 reduction is exact.  Otherwise the 32-bit halves
    are summed separately: each half is below ``2**32`` and there are
    fewer than ``2**32`` elements, so neither reduction can wrap.
    """
    if values.size * ((1 << bits) - 1) < _U64:
        return int(values.sum(dtype=np.uint64))
    hi = int((values >> np.uint64(32)).sum(dtype=np.uint64))
    lo = int((values & _LO32).sum(dtype=np.uint64))
    return (hi << 32) + lo


def masked_sum_floor(values: np.ndarray, mask: np.ndarray,
                     bits: int) -> int:
    """``SUM(values) WHERE mask`` over uncompressed arrays."""
    return exact_sum(values[mask], bits)


# -- outcome accounting -----------------------------------------------------

class Outcomes:
    """Every attempted op: its class, latency and whether it was right.

    A wrong answer, an error frame and an exception all count as a
    failed op; nothing aborts the run.  Failed ops keep their latency
    out of the latency lists (a failure has missed any latency limit).
    """

    def __init__(self) -> None:
        #: ``(kind, seconds, ended_at, rows)`` per passed op; ``rows``
        #: is what the op scanned or wrote, for the row rates.
        self.ops: List[Tuple[str, float, float, int]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def ok(self, kind: str, seconds: float, rows: int = 0) -> None:
        self.attempted += 1
        self.ops.append((kind, seconds, time.perf_counter(), rows))

    def fail(self, kind: str, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{kind}: {message}")

    def merge(self, other: "Outcomes") -> None:
        self.ops.extend(other.ops)
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[:5 - len(self.failures)])

    def within(self, spans: List[Tuple[float, float]]) -> "Outcomes":
        """The passed ops that ended inside one of ``spans``; the counts
        of attempted and failed ops stay those of the whole run."""
        part = Outcomes()
        part.ops = [op for op in self.ops
                    if any(a <= op[2] < b for a, b in spans)]
        part.attempted, part.failed = self.attempted, self.failed
        part.failures = list(self.failures)
        return part

    @property
    def latencies(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for kind, seconds, _, _ in self.ops:
            out.setdefault(kind, []).append(seconds)
        return out

    def all_latencies(self) -> List[float]:
        return [op[1] for op in self.ops]

    def row_rate(self, kinds) -> float:
        """Rows over seconds, summed over the passed ops of ``kinds``."""
        ops = [op for op in self.ops if op[0] in kinds]
        seconds = sum(op[1] for op in ops)
        return sum(op[3] for op in ops) / seconds if seconds else 0.0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check_equal(outcomes: Outcomes, kind: str, seconds: float,
                got, expected, rows: int = 0) -> None:
    """Record one op as passed or failed by comparing with the oracle."""
    if got == expected:
        outcomes.ok(kind, seconds, rows)
    else:
        outcomes.fail(kind, f"got {got!r}, expected {expected!r}")


class Planted:
    """Corrupts every ``every``-th answer before it is checked.

    ``every=0`` (the default everywhere) never corrupts; the self-test
    uses it to show that a wrong answer reaches ``error_rate``.
    """

    def __init__(self, every: int = 0) -> None:
        self.every = every
        self._n = 0

    def __call__(self, value):
        self._n += 1
        if self.every and self._n % self.every == 0:
            return ("planted-wrong-answer", value)
        return value


# -- statistics -------------------------------------------------------------

def ms(seconds: float) -> float:
    return seconds * 1e3


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values: List[float]) -> Tuple[float, float, int, int]:
    """``(percentile, value, n, beyond)`` for the highest percentile, at most
    :data:`TAIL_MAX_PERCENTILE`, with at least :data:`TAIL_MIN_BEYOND`
    samples beyond it (the median when there are too few samples).

    Below about 1,000 samples this is the ``TAIL_MIN_BEYOND + 1``-th
    largest sample.  Above, it is the p99: the few slowest ops of a run
    are the ones a host stall happened to hit, and a tail made of them
    moved by a third between runs of the same code.
    """
    n = len(values)
    if n <= 2 * TAIL_MIN_BEYOND:
        return 50.0, median(values), n, n // 2
    beyond = max(TAIL_MIN_BEYOND,
                 -(-n * (100 - TAIL_MAX_PERCENTILE) // 100))
    value = sorted(values)[n - beyond - 1]
    return 100.0 * (n - beyond - 1) / (n - 1), value, n, beyond


def latency_metrics(outcomes: Outcomes, elapsed_s: float) -> Dict[str, tuple]:
    """The four metrics every workload reports over its passed ops, which
    took ``elapsed_s``; ``error_rate`` counts every op of the run."""
    lat = outcomes.all_latencies()
    pct, tail_s, n, beyond = tail(lat)
    note = f"p{pct:.2f} of {n} ops, {beyond} beyond"
    if beyond > TAIL_MIN_BEYOND:
        note += (f"; with {TAIL_MIN_BEYOND} beyond: "
                 f"{ms(sorted(lat)[n - TAIL_MIN_BEYOND - 1]):.6g} ms")
    return {
        "ops_per_s": (len(outcomes.ops) / elapsed_s, "1/s"),
        "latency_p50_ms": (ms(median(lat)), "ms"),
        "latency_tail_ms": (ms(tail_s), "ms", note),
        "error_rate": (outcomes.error_rate, "ratio"),
    }


def overhead_ratio(traced: Outcomes, untraced: Outcomes) -> float:
    """Traced over untraced median latency, from the two halves of a
    traced run."""
    base = median(untraced.all_latencies())
    return median(traced.all_latencies()) / base if base else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up -----------------------------------------------------------------

def repeated_setup(build: Callable[[], object],
                   reps: int = SETUP_REPS) -> Tuple[object, List[float]]:
    """Run ``build`` ``reps`` times, keep the last result, and return it
    with every build's wall time.  Earlier results are dropped before
    the next build starts, so peak memory stays that of one set-up."""
    times: List[float] = []
    result = None
    for _ in range(reps):
        result = None
        gc.collect()
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return result, times


# -- host steal -------------------------------------------------------------

#: A measured phase is cut into windows this long, ...
WINDOW_S = 5.0
#: ... and a window counts when the hypervisor stole at most this share
#: of the machine's CPU time in it.  When fewer than half the windows
#: are that quiet, the least-stolen half counts.
STEAL_MAX = 0.05


def host_cpu_times() -> Optional[Tuple[int, int]]:
    """``(steal, total)`` CPU time of the machine in clock ticks, from
    the first line of ``/proc/stat``; ``None`` where there is none."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    ticks = [int(v) for v in fields[1:]]
    return ticks[7], sum(ticks)


class HostWindows:
    """The CPU time the hypervisor stole in each window of a phase.

    On a shared virtual machine the host takes the CPUs away for tens
    of seconds at a time; in a 20-second run in which it stole 23% of
    the CPU time, serve-mix completed 44% fewer requests than in one
    in which it stole 1%.  A thread that
    sleeps between window boundaries reads the machine's counters at
    each boundary.
    """

    def __init__(self, window_s: float = WINDOW_S) -> None:
        self.window_s = window_s
        self.samples = [(time.perf_counter(), host_cpu_times())]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="host-windows")
        self._thread.start()

    def _run(self) -> None:
        start, k = self.samples[0][0], 1
        while not self._stop.wait(
                max(0.0, start + k * self.window_s - time.perf_counter())):
            self.samples.append((time.perf_counter(), host_cpu_times()))
            k += 1

    def stop(self) -> float:
        """End the phase; returns its length in seconds."""
        self._stop.set()
        self._thread.join()
        self.samples.append((time.perf_counter(), host_cpu_times()))
        return self.samples[-1][0] - self.samples[0][0]

    def windows(self) -> List[Tuple[float, float, float]]:
        """``(start, end, stolen share)`` per window; a last window
        shorter than half the others joins the one before it."""
        samples = list(self.samples)
        if len(samples) > 2 and \
                samples[-1][0] - samples[-2][0] < self.window_s / 2:
            del samples[-2]
        out = []
        for (t0, c0), (t1, c1) in zip(samples, samples[1:]):
            share = 0.0
            if c0 and c1 and c1[1] > c0[1]:
                share = (c1[0] - c0[0]) / (c1[1] - c0[1])
            out.append((t0, t1, share))
        return out

    def kept(self) -> List[Tuple[float, float, float]]:
        windows = self.windows()
        quiet = [w for w in windows if w[2] <= STEAL_MAX]
        if 2 * len(quiet) < len(windows):
            quiet = sorted(windows, key=lambda w: w[2])[
                :(len(windows) + 1) // 2]
        return sorted(quiet)


def quiet_part(outcomes: Outcomes, host: HostWindows
               ) -> Tuple[Outcomes, float, str]:
    """The ops that ended in the windows that count, those windows'
    length in seconds, and a line saying what was left out."""
    windows, kept = host.windows(), host.kept()
    seconds = sum(b - a for a, b, _ in kept)
    quiet = sum(1 for w in windows if w[2] <= STEAL_MAX)
    rule = (f"with at most {100 * STEAL_MAX:g}% stolen"
            if 2 * quiet >= len(windows) else
            f"least stolen (only {quiet} had at most "
            f"{100 * STEAL_MAX:g}% stolen)")
    note = (f"host steal per {host.window_s:g} s window: "
            + " ".join(f"{100 * w[2]:.1f}%" for w in windows)
            + f"; metrics over the {len(kept)} of {len(windows)} windows "
            + rule + f", {seconds:.1f} s")
    return outcomes.within([(a, b) for a, b, _ in kept]), seconds, note


# -- phases -----------------------------------------------------------------

#: Un-timed steps before measuring, so lazy set-up and caches settle.
WARMUP_STEPS = 2


def run_phases(step: Callable[[Outcomes], None], seconds: float,
               recorder, reset: Callable[[], None]):
    """Warm up, then call ``step`` until ``seconds`` have passed.

    With the recorder installed (a traced run) the first half runs
    untraced and the second half traced.  ``reset`` clears the
    workload's own accumulators between phases.  Returns ``(measured,
    host, untraced, total)``: the measured phase's outcomes and its
    :class:`HostWindows`, the untraced half (``None`` when not traced)
    and every op of the run.
    """
    def phase(length: float):
        outcomes = Outcomes()
        host = HostWindows()
        t0 = host.samples[0][0]
        while time.perf_counter() < t0 + length:
            step(outcomes)
        host.stop()
        return outcomes, host

    total = Outcomes()
    for _ in range(WARMUP_STEPS):
        step(total)
    reset()
    untraced = None
    if recorder.installed:
        untraced, _ = phase(seconds / 2)
        total.merge(untraced)
        reset()
        recorder.start()
        measured, host = phase(seconds / 2)
        recorder.stop()
        recorder.uninstall()
    else:
        measured, host = phase(seconds)
    total.merge(measured)
    return measured, host, untraced, total


# -- provenance -------------------------------------------------------------

def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(workload: str, seed: int, seconds: float, traced: bool,
               params: Dict[str, object]) -> Dict[str, object]:
    """Everything needed to compare this result with a later one."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": (bool(status) if status is not None else None),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "traced": traced,
        "params": params,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def write_record(name: str, record: Dict[str, object]) -> Path:
    """Save a full result record under :data:`OUT_DIR`."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(record, indent=1, default=str))
    return path


@dataclass
class WorkloadResult:
    """What a workload hands the report: its ops, metrics and notes."""

    outcomes: Outcomes
    e2e: Dict[str, tuple]
    params: Dict[str, object]
    layers: Optional[Dict[str, tuple]] = None
    lines: List[str] = field(default_factory=list)
