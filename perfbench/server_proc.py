"""The serve-mix server process.

Builds the ``events`` catalog from the seed, starts
``SmartArrayServer(catalog, port=0)`` at its defaults, prints one JSON
line with the port and the set-up time, then obeys commands read one per
line from stdin:

``trace on`` / ``trace off``
    Start / stop recording layer spans (only with ``--trace 1``).
``stop``
    Drain and shut the server down, write the spans to ``--out``, print
    one JSON line with the peak RSS, and exit.

With ``--setup-only`` it prints the set-up time, shuts the server down
and exits.  Each process sets up once, so the serving process's peak
RSS is that of one catalog, whatever the number of timed set-ups.

Run by ``perfbench/serve_mix.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from .common import peak_rss_mb, write_record
from .tables import events_data, events_sharded, events_table, \
    stored_bytes_ratio


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.server import Catalog, SmartArrayServer

    recorder = None
    if args.trace:
        from .layers import Recorder

        recorder = Recorder().install()

    data = events_data(args.seed)
    gc.collect()
    if recorder is not None:
        recorder.record_setup(True)
    t0 = time.perf_counter()
    catalog = Catalog()
    catalog.register("events", events_table(data))
    catalog.register("events_sharded", events_sharded(data))
    server = SmartArrayServer(catalog, port=0).start()
    setup_s = time.perf_counter() - t0
    if recorder is not None:
        recorder.record_setup(False)
    del data
    gc.collect()
    if args.setup_only:
        server.shutdown()
        _emit({"setup_s": setup_s})
        return 0
    _emit({
        "port": server.port,
        "setup_s": setup_s,
        "stored_bytes_ratio": stored_bytes_ratio(
            catalog.tables().values()),
    })

    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        if recorder is not None and command == "trace on":
            recorder.start()
        elif recorder is not None and command == "trace off":
            recorder.stop()
        _emit({"ack": command})

    server.shutdown(drain=True)
    if recorder is not None:
        recorder.stop()
        recorder.uninstall()
        write_record(args.out, recorder.dump())
    _emit({"peak_rss_mb": peak_rss_mb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
