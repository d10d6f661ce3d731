"""Self-test of the benchmark's own checks.

::

    python3 perfbench/selftest.py

1. The NumPy floor is exact: :func:`exact_sum` matches Python's
   unbounded sum at every width, including sums past ``2**64``.
2. Correctness is counted, not assumed: each workload runs briefly with
   every 7th answer corrupted before the check, and must report
   ``correct: false`` with ``failed > 0`` and keep running to the end.
3. The host-steal filter keeps the right windows: those with at most
   ``STEAL_MAX`` stolen, or the least-stolen half when fewer are that
   quiet, and only the ops that ended in them.
4. Without a library there is nothing to measure: a copy of just
   ``BENCHMARK.json`` and ``perfbench/`` must exit non-zero and print
   no result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import OUT_DIR, ROOT, HostWindows, Outcomes, \
    exact_sum, quiet_part  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

PLANT_EVERY = 7
SECONDS = 3


def check_floor() -> None:
    rng = np.random.default_rng(0)
    for bits in (1, 7, 13, 20, 32, 33, 52, 63, 64):
        for n in (0, 1, 1000, 300_000):
            hi = (1 << bits) - 1
            values = rng.integers(0, hi, n, dtype=np.uint64, endpoint=True)
            if n:
                values[0] = hi  # the largest value takes part
            want = sum(int(v) for v in values)
            got = exact_sum(values, bits)
            if got != want:
                raise SystemExit(f"exact_sum wrong at {bits} bits, "
                                 f"n={n}: {got} != {want}")
    print("floor: exact_sum matches Python sums at 1..64 bits")


def _windows(stolen_per_window):
    """A stopped :class:`HostWindows` with 1-second windows of 100 ticks
    each, the given ticks stolen, and a 0.2 s tail after the last."""
    host = HostWindows(window_s=1.0)
    host.stop()
    samples, steal, total = [(0.0, (0, 0))], 0, 0
    for i, stolen in enumerate(stolen_per_window):
        steal, total = steal + stolen, total + 100
        samples.append((i + 1.0, (steal, total)))
    samples.append((len(stolen_per_window) + 0.2, (steal, total + 20)))
    host.samples = samples
    return host


def check_windows() -> None:
    # The 0.2 s tail joins the last window, which stays under 5%.
    host = _windows([1, 30, 0, 2, 40, 0])
    kept = [(a, b) for a, b, _ in host.kept()]
    if kept != [(0.0, 1.0), (2.0, 3.0), (3.0, 4.0), (5.0, 6.2)]:
        raise SystemExit(f"quiet windows wrong: {kept}")
    host = _windows([1, 30, 20, 2, 40, 10])
    kept = [(a, b) for a, b, _ in host.kept()]
    if kept != [(0.0, 1.0), (3.0, 4.0), (5.0, 6.2)]:
        raise SystemExit(f"least-stolen half wrong: {kept}")
    outcomes = Outcomes()
    outcomes.ops = [("a", 0.1, end, 0) for end in (0.5, 1.5, 3.5, 6.1)]
    outcomes.attempted = 5
    outcomes.failed = 1
    part, seconds, _ = quiet_part(outcomes, host)
    if [op[2] for op in part.ops] != [0.5, 3.5, 6.1] \
            or abs(seconds - 3.2) > 1e-9 or part.attempted != 5 \
            or part.failed != 1:
        raise SystemExit(f"quiet_part wrong: {part.ops}, {seconds}")
    print("windows: steal filter keeps the quiet windows and their ops")


def _run(args, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def check_planted() -> None:
    for workload in WORKLOADS:
        done = _run(["--workload", workload, "--seed", "5",
                     "--seconds", str(SECONDS),
                     "--plant-wrong-every", str(PLANT_EVERY)], ROOT)
        if done.returncode != 0:
            raise SystemExit(f"{workload}: exit {done.returncode}\n"
                             f"{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rate = result["failed"] / result["attempted"]
        if result["correct"] or not result["failed"]:
            raise SystemExit(f"{workload}: planted wrong answers were "
                             f"not counted: {result}")
        print(f"planted: {workload} counted {result['failed']} of "
              f"{result['attempted']} ops as wrong "
              f"(error_rate {rate:.3f})")


def check_no_library() -> None:
    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(["--workload", WORKLOADS[0]], bare)
        if done.returncode == 0 or done.stdout.strip():
            raise SystemExit("without src/ the benchmark must fail "
                             f"silently on stdout: {done}")
        print(f"bare: exit {done.returncode} without a library")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_floor()
    check_windows()
    check_no_library()
    check_planted()
    print("selftest: ok")
