"""Bit-identity of the table-driven decode and the vectorised chunk runs.

The general-width decode is one gather step driven by per-width slot
tables, cut into steps of ``RUN_CHUNKS`` chunks; the pack is a
``reduceat`` over the same tables.  Both are checked against the scalar
reference kernels (paper Functions 1-3) at every width, over arbitrary
word patterns as well as packed values.  ``_chunk_runs`` is checked
against the chunk-by-chunk loop it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bitpack
from repro.core.bitpack_fast import (
    RUN_CHUNKS,
    pack_words_blocked,
    unpack_chunk_range,
    unpack_words_blocked,
)
from repro.core.errors import ValueOverflowError
from repro.core.zonemap import _chunk_runs

WIDTHS = range(1, 65)
#: Run lengths in chunks: one chunk, just under and at one superchunk,
#: and a whole compiled morsel.
RUNS = (1, 63, 64, 1024)
#: Chunks of random words behind the longest run at the largest offset.
WORD_CHUNKS = 1024 + 5


def _random_words(bits: int) -> np.ndarray:
    """Arbitrary 64-bit patterns, so every slot's spill bits are live."""
    rng = np.random.default_rng(bits)
    return rng.integers(0, 2**64, WORD_CHUNKS * bits, dtype=np.uint64,
                        endpoint=False)


def _values(bits: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if bits == 64:
        return rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    return rng.integers(0, 1 << bits, n, dtype=np.uint64)


def _scalar_chunks(words, first, count, bits) -> np.ndarray:
    """Paper Function 3, chunk by chunk."""
    return np.concatenate([
        bitpack.unpack_chunk_scalar(words, c, bits)
        for c in range(first, first + count)
    ])


@pytest.mark.parametrize("bits", WIDTHS)
def test_chunk_range_matches_scalar_reference(bits):
    words = _random_words(bits)
    # One buffer, reused by every call (as the scan loop reuses it).
    out = np.empty(RUN_CHUNKS * bitpack.CHUNK_ELEMENTS + 64, dtype=np.uint64)
    for run in RUNS:
        for chunk in (0, 5):
            got = unpack_chunk_range(words, chunk, run, bits, out=out)
            assert got.size == run * bitpack.CHUNK_ELEMENTS
            assert np.shares_memory(got, out)
            if run <= 64:
                expected = _scalar_chunks(words, chunk, run, bits)
            else:
                # Function 3 on the run's first, middle and last chunks;
                # the vectorised Function 1 (bitpack.gather) on the rest.
                for c in (0, run // 2, run - 1):
                    np.testing.assert_array_equal(
                        got[c * 64:(c + 1) * 64],
                        bitpack.unpack_chunk_scalar(words, chunk + c, bits),
                    )
                start = chunk * bitpack.CHUNK_ELEMENTS
                expected = bitpack.gather(
                    words, np.arange(start, start + got.size), bits)
            np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("bits", WIDTHS)
def test_whole_decode_with_trailing_partial_chunk(bits):
    # More than one RUN_CHUNKS step, ending in a partial chunk.
    n = (RUN_CHUNKS + 3) * bitpack.CHUNK_ELEMENTS + 17
    values = _values(bits, n, seed=bits + 100)
    words = bitpack.pack_array(values, bits)
    assert words.size == bitpack.words_for(n, bits)
    got = unpack_words_blocked(words, n, bits)
    np.testing.assert_array_equal(got, values)
    last = bitpack.chunks_for(n) - 1
    np.testing.assert_array_equal(
        got[last * 64:],
        bitpack.unpack_chunk_scalar(words, last, bits)[:n - last * 64],
    )
    np.testing.assert_array_equal(bitpack.unpack_array(words, n, bits),
                                  values)


@pytest.mark.parametrize("bits", WIDTHS)
def test_pack_matches_function_2(bits):
    n = 3 * bitpack.CHUNK_ELEMENTS + 5
    values = _values(bits, n, seed=bits + 200)
    expected = np.zeros(bitpack.words_for(n, bits), dtype=np.uint64)
    for i, v in enumerate(values.tolist()):
        bitpack.init_scalar([expected], i, v, bits)
    np.testing.assert_array_equal(bitpack.pack_array(values, bits), expected)
    np.testing.assert_array_equal(pack_words_blocked(values, bits), expected)


@pytest.mark.parametrize("bits", [1, 7, 32, 33, 63])
def test_pack_keeps_overflow_error(bits):
    values = np.zeros(300, dtype=np.uint64)
    values[257] = 1 << bits
    with pytest.raises(ValueOverflowError):
        bitpack.pack_array(values, bits)
    with pytest.raises(ValueOverflowError):
        pack_words_blocked(values, bits)


def test_empty_decode_and_pack():
    for bits in (1, 13, 64):
        assert unpack_words_blocked(np.zeros(0, np.uint64), 0, bits).size == 0
        assert unpack_chunk_range(np.zeros(0, np.uint64), 0, 0, bits).size == 0
        assert bitpack.pack_array(np.zeros(0, np.uint64), bits).size == 0


# ---------------------------------------------------------------------------
# _chunk_runs
# ---------------------------------------------------------------------------


def _reference_chunk_runs(chunks, max_run):
    """The chunk-by-chunk loop ``_chunk_runs`` replaced."""
    i = 0
    n = len(chunks)
    while i < n:
        j = i + 1
        while j < n and j - i < max_run and chunks[j] == chunks[j - 1] + 1:
            j += 1
        yield int(chunks[i]), j - i
        i = j


def _runs(chunks, max_run):
    return list(_chunk_runs(np.asarray(chunks, dtype=np.int64), max_run))


@settings(max_examples=200, deadline=None)
@given(
    chunks=st.lists(st.integers(0, 400), max_size=200, unique=True)
    .map(sorted),
    max_run=st.integers(1, 80),
)
def test_chunk_runs_match_reference_loop(chunks, max_run):
    assert _runs(chunks, max_run) == list(
        _reference_chunk_runs(chunks, max_run))


def test_chunk_runs_edges():
    assert _runs([], 4) == []
    assert _runs([7], 1) == [(7, 1)]
    # A gap breaks a run; max_run caps one.
    assert _runs([0, 1, 2, 5, 6], 64) == [(0, 3), (5, 2)]
    assert _runs(range(8), 8) == [(0, 8)]
    assert _runs(range(9), 8) == [(0, 8), (8, 1)]
    assert _runs(range(16), 8) == [(0, 8), (8, 8)]
    assert _runs(range(3), 1) == [(0, 1), (1, 1), (2, 1)]
    # Runs come back as plain ints, whatever the index dtype.
    runs = list(_chunk_runs(np.arange(3, dtype=np.uint64), 2))
    assert runs == [(0, 2), (2, 1)]
    assert all(type(a) is int and type(b) is int for a, b in runs)
