"""Repository benchmark: SQL serving, wide scans and writes beside reads.

Run one workload with ``python3 perfbench/run.py --workload <name>``;
see ``perfbench/README.md`` for what each workload measures and why.
"""
