"""Seeded inputs and the tables built from them.

Every input comes from ``numpy.random.default_rng([seed, stream])``:
the same seed gives the same tables and the same request literals,
and each workload draws from its own stream.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

#: Rows of the ``events`` table (serve-mix).
EVENTS_ROWS = 1_000_000
#: ``ts`` spans ``[0, 2**32)``: 32 bits, stored sorted (clustered).
TS_SPAN = 1 << 32
#: Payload widths: ``region`` 4 bits, ``amount`` 20 bits.
REGION_VALUES = 16
AMOUNT_BITS = 20

#: Input streams, one per use, so workloads never share draws.
STREAM_EVENTS, STREAM_WIDE, STREAM_REQUESTS = 1, 2, 3


def rng_for(seed: int, stream: int, sub: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, sub])


def halves(rng: np.random.Generator, bits: int, n: int) -> np.ndarray:
    """``n`` values uniform over ``bits`` bits, exactly half of them
    below ``2**(bits-1)``.

    Range-sharding such a column in two cuts it at the top-bit
    boundary, so the lower shard always needs ``bits - 1`` bits and
    the upper one ``bits``.  With a plain uniform draw the cut lands
    on either side of ``2**(bits-1)`` depending on the seed, and the
    lower shard's width (and decode speed) would change with it.
    """
    half = 1 << (bits - 1)
    return np.concatenate([
        rng.integers(0, half, n // 2, dtype=np.uint64),
        rng.integers(half, 2 * half, n - n // 2, dtype=np.uint64),
    ])


def events_data(seed: int, rows: int = EVENTS_ROWS) -> Dict[str, np.ndarray]:
    """``ts`` (sorted, uniform over 32 bits), ``region``, ``amount``."""
    rng = rng_for(seed, STREAM_EVENTS)
    return {
        "ts": np.sort(halves(rng, 32, rows)),
        "region": rng.integers(0, REGION_VALUES, rows, dtype=np.uint64),
        "amount": rng.integers(0, 1 << AMOUNT_BITS, rows, dtype=np.uint64),
    }


def events_table(data: Dict[str, np.ndarray]):
    """1M-row ``events``: bit-packed, replicated on both sockets, with a
    zone map on the clustered ``ts`` column."""
    from repro.core.table import SmartTable

    table = SmartTable.from_arrays(data, replicated=True)
    table.build_zone_map("ts")
    return table


def events_sharded(data: Dict[str, np.ndarray]):
    """The same rows range-sharded on ``ts`` across two simulated nodes,
    ``amount`` replicated per node; each shard builds its ``ts`` zone
    map."""
    from repro.cluster import ShardedTable, cluster_of

    return ShardedTable.from_arrays(
        data, key="ts", cluster=cluster_of(2), mode="range",
        replicate=("amount",),
    )


def stored_bytes_ratio(tables) -> float:
    """``physical_bytes()`` over ``rows x columns x 8`` for all tables
    together (replicas included, so replication shows)."""
    physical = sum(t.physical_bytes() for t in tables)
    raw = sum(t.n_rows * len(t.column_names) * 8 for t in tables)
    return physical / raw
