"""Zone maps: per-chunk min/max metadata for chunk-skipping scans.

A classic column-store companion to compression: store each 64-element
chunk's min and max (themselves in bit-compressed smart arrays), and
range scans skip every chunk whose zone cannot intersect the predicate
— no unpack, no decode.  The smart-array chunk (paper section 4.2) is
the natural zone granule because the blocked decode already works
chunk-at-a-time.

Construction and the surviving-chunk scans both run on the bulk-span
engine: :meth:`ZoneMap.build` decodes a superchunk (64 chunks) per
blocked-kernel call and reduces ``min``/``max`` over a ``(n_chunks,
64)`` view, and the range scans decode *runs* of consecutive candidate
chunks in one call each instead of chunk-by-chunk.

The skipping is observable, not just asserted: scans go through the
array's access statistics (``chunk_unpacks`` counts logical chunks
decoded regardless of batching), so tests verify that a selective
predicate decodes only the surviving chunks.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from . import bitpack
from .allocate import allocate
from .map_api import SUPERCHUNK_ELEMENTS, check_superchunk
from .scan_ops import _range_mask, clamp_u64_range
from .smart_array import SmartArray
from ..obs.registry import registry as _obs_registry
from ..obs.trace import trace


def _chunk_runs(chunks: np.ndarray, max_run: int) -> List[Tuple[int, int]]:
    """Group sorted chunk indices into ``(first, count)`` runs of
    consecutive chunks, each at most ``max_run`` (>= 1) long.  Python
    walks only the runs, never the chunks."""
    if chunks.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(chunks) != 1) + 1
    starts = np.concatenate(([0], breaks))
    lengths = np.diff(np.append(starts, chunks.size))
    return [
        (first + offset, min(max_run, length - offset))
        for first, length in zip(chunks[starts].tolist(), lengths.tolist())
        for offset in range(0, length, max_run)
    ]


class ZoneMap:
    """Per-chunk min/max index over a smart array's contents."""

    def __init__(self, array: SmartArray, mins: SmartArray,
                 maxs: SmartArray) -> None:
        self.array = array
        self.mins = mins
        self.maxs = maxs
        #: Storage-generation epoch of ``array`` when the map was built.
        #: A live migration bumps the epoch; cached maps from an older
        #: epoch are dropped by ``SmartTable.zone_map`` (the zone
        #: *contents* survive a value-preserving migration, but the
        #: epoch is the cheap, conservative invalidation signal).
        self.built_epoch = getattr(array, "generation_epoch", 0)

    @classmethod
    def build(cls, array: SmartArray, allocator=None,
              superchunk=None) -> "ZoneMap":
        """Scan ``array`` once and record each chunk's min/max.

        The zone arrays use the same bit width as the data (zone values
        are data values), so the index costs ``2/64`` of the column.
        The scan decodes ``superchunk // 64`` chunks per blocked-kernel
        call and reduces over a ``(chunks, 64)`` view — no per-chunk
        Python loop.
        """
        n_chunks = bitpack.chunks_for(array.length)
        with trace("zonemap.build", array=array.stats.array_label,
                   chunks=n_chunks):
            return cls._build(array, n_chunks, allocator, superchunk)

    @classmethod
    def _build(cls, array: SmartArray, n_chunks: int, allocator,
               superchunk) -> "ZoneMap":
        chunks_per_step = check_superchunk(superchunk) // bitpack.CHUNK_ELEMENTS
        mins = np.zeros(max(1, n_chunks), dtype=np.uint64)
        maxs = np.zeros(max(1, n_chunks), dtype=np.uint64)
        buf = np.empty(chunks_per_step * bitpack.CHUNK_ELEMENTS,
                       dtype=np.uint64)
        for first in range(0, n_chunks, chunks_per_step):
            n = min(chunks_per_step, n_chunks - first)
            decoded = array.decode_chunks(first, n, out=buf)
            grid = decoded[:n * bitpack.CHUNK_ELEMENTS].reshape(
                n, bitpack.CHUNK_ELEMENTS
            )
            mins[first:first + n] = grid.min(axis=1)
            maxs[first:first + n] = grid.max(axis=1)
        # A trailing partial chunk decodes padding slots too; its zone
        # must come from the real elements only.
        tail = array.length % bitpack.CHUNK_ELEMENTS
        if n_chunks and tail:
            last = buf[
                (n_chunks - 1 - first) * bitpack.CHUNK_ELEMENTS:
            ][:tail]
            mins[n_chunks - 1] = last.min()
            maxs[n_chunks - 1] = last.max()
        # Zone values are *data* values, so the zone arrays use the
        # data's value width.  For bitpack generations that is
        # ``array.bits``; for encoded generations ``bits`` is the
        # narrow payload width (codes/deltas) and packing a zone max
        # into it would overflow — use the decoded-value width instead.
        zbits = array.bits
        if getattr(array.generation, "codec", "bitpack") != "bitpack":
            zbits = (bitpack.max_bits_needed(maxs[:n_chunks])
                     if n_chunks else 1)
        zmins = allocate(n_chunks, bits=zbits, allocator=allocator)
        zmaxs = allocate(n_chunks, bits=zbits, allocator=allocator)
        if n_chunks:
            zmins.fill(mins[:n_chunks])
            zmaxs.fill(maxs[:n_chunks])
        return cls(array, zmins, zmaxs)

    @property
    def n_chunks(self) -> int:
        return self.mins.length

    def candidate_chunks(self, lo: int, hi: int) -> np.ndarray:
        """Chunks whose [min, max] zone intersects ``[lo, hi)``.

        Bounds clamp to the ``uint64`` domain exactly like the scan
        operators (:func:`repro.core.scan_ops.clamp_u64_range`), so a
        ``hi`` at or above ``2**64`` keeps every chunk with
        ``max >= lo`` instead of overflowing.
        """
        bounds = clamp_u64_range(lo, hi)
        if bounds is None or self.n_chunks == 0:
            return np.empty(0, dtype=np.int64)
        lo64, hi64 = bounds
        mins = self.mins.to_numpy()
        maxs = self.maxs.to_numpy()
        mask = maxs >= lo64
        if hi64 is not None:
            mask &= mins < hi64
        candidates = np.nonzero(mask)[0].astype(np.int64)
        # Observable skipping: every pruning decision lands in the
        # registry, labelled by the array it spared from decoding.
        reg = _obs_registry()
        label = self.array.stats.array_label
        reg.counter("zonemap.chunks_candidate",
                    array=label).add(candidates.size)
        reg.counter("zonemap.chunks_pruned",
                    array=label).add(self.n_chunks - candidates.size)
        return candidates

    def count_in_range(self, lo: int, hi: int, socket: int = 0,
                       superchunk=None) -> int:
        """COUNT(*) WHERE lo <= v < hi, decoding only candidate chunks.

        Chunks entirely inside the range are counted without decoding
        at all (their zone proves every element matches); the rest are
        decoded in consecutive runs through the blocked kernel.
        """
        with trace("zonemap.count_in_range",
                   array=self.array.stats.array_label, socket=socket):
            return self._count_in_range(lo, hi, socket, superchunk)

    def _count_in_range(self, lo: int, hi: int, socket: int,
                        superchunk) -> int:
        candidates = self.candidate_chunks(lo, hi)
        if candidates.size == 0:
            return 0
        mins = self.mins.to_numpy()
        maxs = self.maxs.to_numpy()
        lo64, hi64 = clamp_u64_range(lo, hi)
        covered = mins[candidates] >= lo64
        if hi64 is not None:
            covered &= maxs[candidates] < hi64
        starts = candidates[covered] * bitpack.CHUNK_ELEMENTS
        total = int(np.minimum(self.array.length - starts,
                               bitpack.CHUNK_ELEMENTS).sum())
        max_run = check_superchunk(superchunk) // bitpack.CHUNK_ELEMENTS
        replica = self.array.get_replica(socket)
        buf = np.empty(max_run * bitpack.CHUNK_ELEMENTS, dtype=np.uint64)
        for first, n in _chunk_runs(candidates[~covered], max_run):
            decoded = self.array.decode_chunks(first, n, replica=replica,
                                               out=buf)
            start = first * bitpack.CHUNK_ELEMENTS
            end = min(self.array.length, start + n * bitpack.CHUNK_ELEMENTS)
            span = decoded[:end - start]
            total += int(_range_mask(span, lo64, hi64).sum())
        return total

    def select_in_range(self, lo: int, hi: int, socket: int = 0,
                        superchunk=None) -> np.ndarray:
        """Matching indices, decoding candidate-chunk runs only."""
        with trace("zonemap.select_in_range",
                   array=self.array.stats.array_label, socket=socket):
            return self._select_in_range(lo, hi, socket, superchunk)

    def _select_in_range(self, lo: int, hi: int, socket: int,
                         superchunk) -> np.ndarray:
        candidates = self.candidate_chunks(lo, hi)
        if candidates.size == 0:
            return np.empty(0, dtype=np.int64)
        lo64, hi64 = clamp_u64_range(lo, hi)
        out: List[np.ndarray] = []
        max_run = check_superchunk(superchunk) // bitpack.CHUNK_ELEMENTS
        replica = self.array.get_replica(socket)
        buf = np.empty(max_run * bitpack.CHUNK_ELEMENTS, dtype=np.uint64)
        for first, n in _chunk_runs(candidates, max_run):
            decoded = self.array.decode_chunks(first, n, replica=replica,
                                               out=buf)
            start = first * bitpack.CHUNK_ELEMENTS
            end = min(self.array.length, start + n * bitpack.CHUNK_ELEMENTS)
            span = decoded[:end - start]
            local = np.nonzero(_range_mask(span, lo64, hi64))[0]
            if local.size:
                out.append(local + start)
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

    @property
    def storage_bytes(self) -> int:
        return self.mins.storage_bytes + self.maxs.storage_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ZoneMap chunks={self.n_chunks} over {self.array!r}>"
        )
