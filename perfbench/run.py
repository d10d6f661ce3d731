"""Run one benchmark workload and print its metrics.

::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same topology with layer spans recorded and prints the per-layer
metrics (its first half runs untraced, to measure the tracing
overhead).  Metric names and units come from ``BENCHMARK.json``.  The
report goes to stdout; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, with provenance, is saved under ``.bench_out/``.

The benchmark builds and runs the library from ``src/`` of the
checkout it sits in, and exits with code 2 when there is none.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("serve-mix", "scan-wide")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--plant-wrong-every", type=int, default=0, metavar="N",
        help="corrupt every N-th answer before it is checked "
             "(self-test of the correctness accounting)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}; "
              f"nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import scan_wide, serve_mix
    from perfbench.common import provenance, write_record
    from perfbench.report import metric_lines, result_line

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    module = {"serve-mix": serve_mix, "scan-wide": scan_wide}[args.workload]
    traced = bool(args.trace)
    result = module.run(args.seed, args.seconds, traced,
                        plant_every=args.plant_wrong_every)

    prov = provenance(args.workload, args.seed, args.seconds, traced,
                      result.params)
    outcomes = result.outcomes
    lines = [f"perfbench {args.workload} (seed {args.seed}, "
             f"{args.seconds:g} s, {'traced' if traced else 'untraced'})",
             "provenance " + json.dumps(prov)]
    lines += metric_lines("end-to-end:", result.e2e)
    if result.layers is not None:
        lines += metric_lines("per-layer:", result.layers)
    lines += result.lines
    lines += [f"failure: {f}" for f in outcomes.failures]

    declared = spec["per_layer" if traced else "end_to_end"]
    metrics = result.layers if traced else result.e2e
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"perfbench: {args.workload} measured no {missing}",
              file=sys.stderr)
        return 1
    correct = outcomes.failed == 0 and outcomes.attempted > 0
    write_record(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"provenance": prov, "correct": correct,
         "attempted": outcomes.attempted, "failed": outcomes.failed,
         "failures": outcomes.failures,
         "end_to_end": result.e2e, "per_layer": result.layers,
         "notes": result.lines})
    print("\n".join(lines))
    print(result_line(correct, outcomes.attempted, outcomes.failed,
                      metrics, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
