"""Run-to-run spread of the end-to-end metrics, and drift between sets.

::

    python3 perfbench/spread.py --workload serve-mix --seeds 1-10
    python3 perfbench/spread.py --workload serve-mix --seeds 11-20 \\
        --against .bench_out/spread-serve-mix-1-10.json

Runs ``perfbench/run.py`` once per seed (untraced) and, per metric,
prints the median, the quartiles from ``statistics.quantiles(n=4)`` and
their distance as a share of the median.  A spread must stay within
the metric's bound in ``BENCHMARK.json`` (``setup_s`` excepted) and
should stay below a third of it.  With ``--against``, the median of
this set must also be no worse than the other set's by more than the
bound; use a second set of held-out seeds to check that.  Saves the
set under ``.bench_out/`` and exits non-zero if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--against")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in _seeds(args.seeds):
        result = _run(args.workload, seed, seconds)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    name = f"spread-{args.workload}-{args.seeds}.json"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(runs))

    other = (json.loads(Path(args.against).read_text())
             if args.against else None)
    ok = all(r["correct"] for r in runs)
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}"
          + (f" {'drift':>7}" if other else ""))
    for metric in spec["end_to_end"]:
        key, bound = metric["name"], metric["bound"]
        values = [r["metrics"][key]["value"] for r in runs]
        med, q1, q3, spread = summarize(values)
        flag = ""
        if key != "setup_s" and spread > bound:
            flag, ok = " SPREAD>BOUND", False
        elif key != "setup_s" and spread > bound / 3:
            flag = " spread>bound/3"
        line = (f"{key:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                f"{spread:>7.1%} {bound:>6.2f}")
        if other:
            base = statistics.median(
                r["metrics"][key]["value"] for r in other)
            worse = (med - base) / base if metric["better"] == "lower" \
                else (base - med) / base
            line += f" {worse:>+7.1%}"
            if worse > bound:
                flag, ok = flag + " DRIFT>BOUND", False
        print(line + flag)
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
