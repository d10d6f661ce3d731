"""Blocked (SIMD-analogue) bulk pack/unpack kernels for *all* bit widths.

The paper's related work applies SIMD to bit-compressed scans (Willhalm
et al., Polychroniou & Ross — section 8).  NumPy's vectorized ufuncs are
this repo's SIMD analogue, and the paper's chunk alignment property
(section 4.2) makes a word-parallel decode possible for every width,
not just the widths that divide 64:

* **Divisor widths** (1, 2, 4, 8, 16, 32, 64): every storage word holds
  a whole number of elements at fixed offsets, so a full unpack is
  ``64/bits`` shift+mask passes over the *word array* — no per-element
  index arithmetic, no gather, no spill handling.
* **General widths**: every 64-element chunk occupies exactly ``bits``
  words, so reshaping the word buffer to ``(n_chunks, bits)`` gives
  each of the 64 chunk slots a *fixed* word, shift and spill word.
  These index maps are derived once per width from the layout
  (:func:`_gather_tables`, as LLAMA derives its mappings), and a decode
  is one gather step: ``((grid[:, w] >> s) | (grid[:, w2] << hs)) &
  mask``, in steps of :data:`RUN_CHUNKS` chunks to bound temporaries.

:func:`unpack_array_fast` is the single bulk-decode entry point;
:func:`unpack_chunk_range` is the superchunk kernel the scan engine
decodes through (a run of whole chunks into a reusable buffer).  The
gather path remains only for true random access.  Tests assert
bit-identical results against the scalar reference kernels (paper
Functions 1-3) for every width 1..64.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import bitpack

#: Widths with whole elements per word: 64/bits passes suffice.
DIVISOR_WIDTHS = (1, 2, 4, 8, 16, 32, 64)

#: Chunks per gather or pack step.  Each step allocates two
#: ``RUN_CHUNKS x 64`` temporaries (512 KiB each), so decoding or
#: packing a whole column never allocates a second column-sized buffer.
RUN_CHUNKS = 1024


def is_divisor_width(bits: int) -> bool:
    return bits in DIVISOR_WIDTHS


@lru_cache(maxsize=bitpack.WORD_BITS)
def _gather_tables(bits: int):
    """Per-slot index maps of a 64-element chunk at ``bits`` wide.

    Returns ``(word, shift, spill_word, spill_shift)``: slot ``k``
    starts at bit ``(k * bits) % 64`` of chunk word ``(k * bits) // 64``.
    A slot that straddles a word boundary takes its high bits from the
    next word, which is in the same chunk as a chunk is exactly ``bits``
    words, shifted left by ``64 - shift``.  A slot that does not spill
    reads its own word shifted left by 63, which leaves only bit 63,
    above every mask narrower than 64 bits.
    """
    word, shift = np.divmod(np.arange(bitpack.CHUNK_ELEMENTS) * bits, 64)
    spills = shift + bits > 64
    tables = (word, shift.astype(np.uint64), word + spills,
              np.where(spills, 64 - shift, 63).astype(np.uint64))
    for table in tables:  # cached and shared by every caller
        table.flags.writeable = False
    return tables


def _unpack_divisor_into(words: np.ndarray, out: np.ndarray,
                         bits: int) -> None:
    """Decode at a divisor width: one shift+mask pass per word slot."""
    mask = np.uint64((1 << bits) - 1)
    out_grid = out.reshape(-1, bitpack.WORD_BITS // bits)
    for k in range(out_grid.shape[1]):
        out_grid[:, k] = (words >> np.uint64(k * bits)) & mask


def _unpack_general_into(words: np.ndarray, out: np.ndarray,
                         bits: int) -> None:
    """Decode at a general width: one gather step over the word grid."""
    word, shift, spill_word, spill_shift = _gather_tables(bits)
    grid = words.reshape(-1, bits)
    out_grid = out.reshape(-1, bitpack.CHUNK_ELEMENTS)
    np.right_shift(grid[:, word], shift, out=out_grid)
    spill = grid[:, spill_word]
    spill <<= spill_shift
    out_grid |= spill
    out_grid &= np.uint64((1 << bits) - 1)


def unpack_chunk_range(words: np.ndarray, chunk: int, n_chunks: int,
                       bits: int, out=None) -> np.ndarray:
    """Decode whole chunks ``[chunk, chunk + n_chunks)`` in one pass.

    Returns a flat ``uint64`` array of ``n_chunks * 64`` elements
    (written into ``out`` when supplied, which lets the superchunk scan
    loop reuse one buffer per step).  Elements past the array's logical
    length in a trailing partial chunk decode to whatever padding the
    word buffer holds; callers slice to the valid length.  Runs longer
    than :data:`RUN_CHUNKS` decode in steps of that many chunks.
    """
    bits = bitpack.check_bits(bits)
    if chunk < 0 or n_chunks < 0:
        raise ValueError("chunk and n_chunks must be non-negative")
    n_elements = n_chunks * bitpack.CHUNK_ELEMENTS
    if out is None:
        out = np.empty(n_elements, dtype=np.uint64)
    elif out.size < n_elements:
        raise ValueError(
            f"out buffer holds {out.size} elements, need {n_elements}"
        )
    flat = out[:n_elements]
    view = words[chunk * bits:(chunk + n_chunks) * bits]
    if view.size < n_chunks * bits:
        raise ValueError(
            f"word buffer too small for chunks [{chunk}, {chunk + n_chunks})"
        )
    if bits == bitpack.WORD_BITS:
        flat[:] = view
        return flat
    kernel = (_unpack_divisor_into if is_divisor_width(bits)
              else _unpack_general_into)
    for first in range(0, n_chunks, RUN_CHUNKS):
        last = min(first + RUN_CHUNKS, n_chunks)
        kernel(view[first * bits:last * bits],
               flat[first * bitpack.CHUNK_ELEMENTS:
                    last * bitpack.CHUNK_ELEMENTS], bits)
    return flat


def unpack_words_blocked(words: np.ndarray, length: int,
                         bits: int) -> np.ndarray:
    """Unpack the first ``length`` elements, any width 1..64, straight
    into the returned buffer.  ``words`` must cover whole chunks, as
    :func:`repro.core.bitpack.words_for` sizes them."""
    return unpack_chunk_range(words, 0, bitpack.chunks_for(length),
                              bits)[:length]


#: The single bulk-decode entry point: blocked for every width.
unpack_array_fast = unpack_words_blocked


def pack_words_blocked(values: np.ndarray, bits: int) -> np.ndarray:
    """The inverse kernel: pack ``values`` at any width, bit-identical
    to paper Function 2 writes on a zeroed buffer.

    Per step of :data:`RUN_CHUNKS` chunks, every slot is shifted into
    place at once, each word's slots (a contiguous range) are OR-reduced
    with ``reduceat``, and spilled high parts are ORed into the next
    word.  Raises ``ValueOverflowError`` if a value does not fit.
    """
    bits = bitpack.check_bits(bits)
    values = np.ascontiguousarray(values, dtype=np.uint64)
    n = values.size
    words = np.zeros(bitpack.words_for(n, bits), dtype=np.uint64)
    if n == 0:
        return words
    if bits < bitpack.WORD_BITS and int(values.max()) >> bits:
        bad = values[(values >> np.uint64(bits)) != 0][0]
        raise bitpack.ValueOverflowError(int(bad), bits)
    if bits == bitpack.WORD_BITS:
        words[:n] = values
        return words
    word, shift, spill_word, spill_shift = _gather_tables(bits)
    starts = np.flatnonzero(np.diff(word, prepend=-1))
    spills = np.flatnonzero(spill_word != word)
    word_grid = words.reshape(-1, bits)
    step = RUN_CHUNKS * bitpack.CHUNK_ELEMENTS
    for first in range(0, n, step):
        run = values[first:first + step]
        if run.size % bitpack.CHUNK_ELEMENTS:
            run = np.concatenate((run, np.zeros(
                -run.size % bitpack.CHUNK_ELEMENTS, dtype=np.uint64)))
        value_grid = run.reshape(-1, bitpack.CHUNK_ELEMENTS)
        grid = word_grid[first // bitpack.CHUNK_ELEMENTS:][:len(value_grid)]
        np.bitwise_or.reduceat(value_grid << shift, starts, axis=1,
                               out=grid)
        grid[:, spill_word[spills]] |= (
            value_grid[:, spills] >> spill_shift[spills]
        )
    return words
