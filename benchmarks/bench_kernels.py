"""Micro-benchmarks of the functional kernels (not a paper figure).

Times the real NumPy-backed kernels: pack/unpack/gather/scatter across
widths, iterator traversal styles, and replica selection — the pieces
every figure's functional path is built from.  Useful for tracking
regressions in the Python implementation itself.

Run as a script it prints two tables.  The per-width decode table
gives Melem/s of :func:`repro.core.bitpack_fast.unpack_chunk_range` at
every width 1..64, for runs of 64 chunks (one superchunk, the
interpreted morsel) and 1024 chunks (the compiled and ``GROUP BY``
morsel).  The masked-fold table times one 65,536-row ``SUM ... WHERE``
span fold both ways: compacting the matches (``v[mask].sum()`` with a
``mask.sum()`` count) against folding under the mask
(``np.multiply(v, mask)`` then ``.sum()``, ``np.count_nonzero``), at
1%, 50% and 99% selectivity with matches at random rows or in one
contiguous run::

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import time

import numpy as np
import pytest

from repro.core import SmartArrayIterator, allocate, bitpack
from repro.core.bitpack_fast import unpack_chunk_range
from repro.numa import NumaAllocator, machine_2x8_haswell

try:
    from .common import emit
except ImportError:  # run as a script
    from common import emit

N = 500_000


@pytest.fixture(scope="module")
def values():
    rng = np.random.default_rng(0)
    return rng.integers(0, 2**31, size=N, dtype=np.uint64)


@pytest.mark.parametrize("bits", [10, 32, 33, 64])
def test_pack_array(benchmark, values, bits):
    data = values & np.uint64((1 << bits) - 1)
    words = benchmark(lambda: bitpack.pack_array(data, bits))
    assert words.dtype == np.uint64


@pytest.mark.parametrize("bits", [10, 32, 33, 64])
def test_unpack_array(benchmark, values, bits):
    data = values & np.uint64((1 << bits) - 1)
    words = bitpack.pack_array(data, bits)
    out = benchmark(lambda: bitpack.unpack_array(words, N, bits))
    assert out[123] == data[123]


@pytest.mark.parametrize("bits", [33, 64])
def test_random_gather(benchmark, values, bits):
    data = values & np.uint64((1 << bits) - 1)
    words = bitpack.pack_array(data, bits)
    rng = np.random.default_rng(1)
    idx = rng.integers(0, N, size=100_000)
    out = benchmark(lambda: bitpack.gather(words, idx, bits))
    assert out.size == idx.size


@pytest.mark.parametrize("bits", [33, 64])
def test_scatter(benchmark, values, bits):
    data = values & np.uint64((1 << bits) - 1)
    words = bitpack.pack_array(data, bits)
    idx = np.arange(0, N, 7, dtype=np.int64)
    new = data[idx] ^ np.uint64(1)
    benchmark(lambda: bitpack.scatter(words, idx, new & np.uint64((1 << bits) - 1), bits))


def test_scalar_iterator_scan(benchmark):
    allocator = NumaAllocator(machine_2x8_haswell())
    sa = allocate(10_000, bits=33, values=np.arange(10_000),
                  allocator=allocator)

    def scan():
        it = SmartArrayIterator.allocate(sa, 0)
        total = 0
        for _ in range(sa.length):
            total += it.get()
            it.next()
        return total

    assert benchmark(scan) == sum(range(10_000))


@pytest.mark.parametrize("bits", [8, 16, 32])
def test_blocked_unpack_fast_path(benchmark, values, bits):
    """Divisor-width blocked unpack (the SIMD-analogue fast path)."""
    from repro.core.bitpack_fast import unpack_words_blocked

    data = values & np.uint64((1 << bits) - 1)
    words = bitpack.pack_array(data, bits)
    out = benchmark(lambda: unpack_words_blocked(words, N, bits))
    assert out[99] == data[99]


def test_selection_scan_compressed(benchmark):
    """Range predicate over a 10-bit column via chunk spans."""
    from repro.core.scan_ops import count_in_range

    allocator = NumaAllocator(machine_2x8_haswell())
    rng = np.random.default_rng(9)
    data = rng.integers(0, 1000, size=100_000, dtype=np.uint64)
    sa = allocate(data.size, bits=10, values=data, allocator=allocator)
    count = benchmark(lambda: count_in_range(sa, 100, 200))
    assert count == int(((data >= 100) & (data < 200)).sum())


def test_chunk_unpack_scalar(benchmark):
    words = bitpack.pack_array(np.arange(64, dtype=np.uint64), 33)
    out = np.empty(64, dtype=np.uint64)
    benchmark(lambda: bitpack.unpack_chunk_scalar(words, 0, 33, out=out))
    assert out[63] == 63


def test_replicated_fill(benchmark, values):
    allocator = NumaAllocator(machine_2x8_haswell())
    sa = allocate(N, bits=31, replicated=True, allocator=allocator)
    data = values & np.uint64((1 << 31) - 1)
    benchmark(lambda: sa.fill(data))
    assert sa.get(5, replica=1) == int(data[5])


#: Chunk-run lengths of the decode table.
DECODE_RUNS = (64, 1024)


@pytest.mark.parametrize("bits", [7, 20, 33, 63])
@pytest.mark.parametrize("run", DECODE_RUNS)
def test_chunk_range_decode(benchmark, bits, run):
    """General-width decode of one chunk run into a reused buffer."""
    words = _decode_words(bits, run)
    out = np.empty(run * bitpack.CHUNK_ELEMENTS, dtype=np.uint64)
    benchmark(lambda: unpack_chunk_range(words, 0, run, bits, out=out))
    assert out[5] == bitpack.get_scalar(words, 5, bits)


def _decode_words(bits: int, run: int) -> np.ndarray:
    rng = np.random.default_rng(bits)
    return rng.integers(0, 2**64, run * bits, dtype=np.uint64,
                        endpoint=False)


def decode_rate(bits: int, run: int, budget_s: float = 0.05) -> float:
    """Best-of Melem/s of one ``run``-chunk decode at ``bits`` wide."""
    words = _decode_words(bits, run)
    out = np.empty(run * bitpack.CHUNK_ELEMENTS, dtype=np.uint64)
    best = float("inf")
    deadline = time.perf_counter() + budget_s
    while True:
        t0 = time.perf_counter()
        unpack_chunk_range(words, 0, run, bits, out=out)
        t1 = time.perf_counter()
        best = min(best, t1 - t0)
        if t1 >= deadline:
            break
    return out.size / best / 1e6


def decode_table() -> str:
    lines = [f"{'width':>5} " + " ".join(
        f"{f'{run}-chunk Melem/s':>19}" for run in DECODE_RUNS)]
    for bits in range(1, 65):
        lines.append(f"{bits:>5} " + " ".join(
            f"{decode_rate(bits, run):>19.1f}" for run in DECODE_RUNS))
    return "\n".join(lines)


#: Rows per masked-fold span (one compiled morsel) and selectivities.
FOLD_ROWS = 65_536
FOLD_SELECTIVITIES = (0.01, 0.5, 0.99)


def _fold_inputs(selectivity: float, layout: str):
    """A 20-bit span and a mask matching ``selectivity`` of its rows,
    at random positions or as one contiguous run."""
    rng = np.random.default_rng(int(selectivity * 100))
    values = rng.integers(0, 1 << 20, FOLD_ROWS, dtype=np.uint64)
    if layout == "random":
        return values, rng.random(FOLD_ROWS) < selectivity
    matches = int(selectivity * FOLD_ROWS)
    start = int(rng.integers(0, FOLD_ROWS - matches + 1))
    mask = np.zeros(FOLD_ROWS, dtype=bool)
    mask[start:start + matches] = True
    return values, mask


def _compact_fold(values, mask):
    return int(mask.sum()), int(values[mask].sum(dtype=np.uint64))


def _product_fold(values, mask, out):
    np.multiply(values, mask, out=out)
    return int(np.count_nonzero(mask)), int(out.sum(dtype=np.uint64))


@pytest.mark.parametrize("selectivity", FOLD_SELECTIVITIES)
def test_masked_fold(benchmark, selectivity):
    """Fold one span under its mask (no compaction)."""
    values, mask = _fold_inputs(selectivity, "random")
    out = np.empty_like(values)
    got = benchmark(lambda: _product_fold(values, mask, out))
    assert got == _compact_fold(values, mask)


def _best_us(fn, budget_s: float = 0.05) -> float:
    best = float("inf")
    deadline = time.perf_counter() + budget_s
    while True:
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        best = min(best, t1 - t0)
        if t1 >= deadline:
            return best * 1e6


def fold_table() -> str:
    lines = [f"{'layout':>10} {'selectivity':>11} {'compact us':>11} "
             f"{'product us':>11} {'speed-up':>9}"]
    for layout in ("random", "clustered"):
        for selectivity in FOLD_SELECTIVITIES:
            values, mask = _fold_inputs(selectivity, layout)
            out = np.empty_like(values)
            assert (_product_fold(values, mask, out)
                    == _compact_fold(values, mask))
            compact = _best_us(lambda: _compact_fold(values, mask))
            product = _best_us(lambda: _product_fold(values, mask, out))
            lines.append(f"{layout:>10} {selectivity:>11.0%} "
                         f"{compact:>11.1f} {product:>11.1f} "
                         f"{compact / product:>8.1f}x")
    return "\n".join(lines)


def main() -> None:
    emit("Chunk-run decode per width, then masked folds of one "
         "65,536-row 20-bit span\n(best of 50 ms each)",
         decode_table() + "\n\n" + fold_table(), "kernels.txt")


if __name__ == "__main__":
    main()
