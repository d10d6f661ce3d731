"""Query planner: predicate pushdown, zone-map pruning, replica policy.

``plan_query`` turns a logical :class:`~repro.query.logical.Query` into
a :class:`PhysicalPlan` the morsel executor runs:

* **Predicate pushdown** — sargable comparisons (bare column vs.
  literal) are extracted from the filter tree and mapped onto zone-map
  chunk pruning.  The whole tree is analyzed, not just top-level
  conjuncts: AND intersects child candidate sets, OR unions them, and
  anything unanalyzable (NOT, ``!=``, arithmetic, column-vs-column)
  conservatively keeps every chunk, so pruning is always sound.
* **Fusion** — filters and aggregates share one scan: the plan carries
  the needed-column set (filter ∪ aggregate ∪ group-key ∪ projection)
  and the executor decodes each needed column's *candidate chunks
  exactly once* per morsel, evaluates the predicate on the decoded
  spans, and folds aggregates in the same pass — no row-index list, no
  per-operator materialization.
* **Adaptive read policy** — the planner consults the section-6
  selector (:func:`repro.adapt.select_configuration`) once per
  referenced column, feeding it the query's projected scan shape
  (post-pruning bytes and blocked-engine instruction costs from
  :mod:`repro.perfmodel.workload`).  The recommended configuration and
  whether the column's actual placement matches it are recorded in the
  plan; the executor always reads the socket-local replica
  (``get_replica(ctx.socket)``) of whatever placement the column has.

Everything the plan decides is visible through :meth:`PhysicalPlan.
explain`, including exact pruned/candidate chunk counts — the numbers
are computed from the zone maps at plan time, so tests can assert that
execution's observed ``replica_read_elements`` deltas equal
``64 * candidate_chunks`` per needed column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..adapt import (
    ArrayCharacteristics,
    MachineCapabilities,
    SelectionResult,
    WorkloadMeasurement,
    select_configuration,
)
from ..core import bitpack
from ..core.map_api import check_superchunk
from ..core.scan_ops import clamp_u64_range
from ..core.smart_array import SmartArray
from ..core.zonemap import ZoneMap
from ..numa.counters import PerfCounters
from ..obs.registry import registry as _obs_registry
from ..obs.trace import trace
from ..perfmodel.workload import blocked_scan_instructions
from .codegen import (
    CompiledKernel,
    compile_query,
    resolve_mode,
    unsupported_reason,
)
from .expr import And, Compare, Expr, Not, Or
from .logical import Query

#: Default morsel: one superchunk (64 chunks), the scan engine's decode
#: granule — every morsel boundary is a chunk boundary, so no chunk is
#: ever decoded by two morsels.
DEFAULT_MORSEL_ELEMENTS = 4096

#: Default morsel for compiled and ``GROUP BY`` plans: 16 superchunks.
#: The blocked decoder and the group fold run a fixed number of NumPy
#: steps per run, so larger runs amortize per-call overhead without
#: changing any result (aggregation is exact integer arithmetic).
#: Other plans keep one superchunk, so a row query's ``limit()`` can
#: stop early.  An explicit ``morsel=`` knob still wins.
COMPILED_MORSEL_ELEMENTS = 65536

#: Analytics tables are scanned repeatedly over their lifetime; the
#: selector's replication rules need an accesses-per-element estimate to
#: amortize replica construction against (section 6's software
#: characteristics).  Callers with one-shot tables can pass 1.0.
DEFAULT_ACCESSES_PER_ELEMENT = 8.0


@dataclass(frozen=True)
class PushedPredicate:
    """One sargable leaf the planner pushed into zone-map pruning."""

    column: str
    lo: int
    hi: int  # >= 2**64 means unbounded above
    candidate_chunks: int
    pruned_chunks: int

    def describe(self) -> str:
        hi = "inf" if self.hi >= 1 << 64 else str(self.hi)
        return (
            f"{self.column} in [{self.lo}, {hi}): "
            f"{self.candidate_chunks} candidate / "
            f"{self.pruned_chunks} pruned chunks"
        )


@dataclass(frozen=True)
class ColumnDecision:
    """Per-column physical-read decision with selector provenance."""

    name: str
    bits: int
    placement: str
    n_replicas: int
    engine: str  # always "blocked": the bulk-span scan engine
    read_policy: str
    recommended: Optional[str]  # selector's configuration, None if skipped
    matches_actual: Optional[bool]
    selection: Optional[SelectionResult] = field(repr=False, default=None)
    #: Storage-generation epoch the plan was made against.  A live
    #: migration bumps the column's epoch, so a mismatch at execution
    #: time means the plan describes a configuration that no longer
    #: exists (the executor still reads consistently — it re-resolves
    #: the active generation per morsel).
    generation: int = 0
    #: Storage layout of the generation the plan was made against
    #: (``"bitpack"`` unless the column is codec-encoded).
    codec: str = "bitpack"

    def describe(self) -> str:
        rec = ""
        if self.recommended is not None:
            verdict = "matches" if self.matches_actual else "differs"
            rec = f"; selector recommends {self.recommended} ({verdict})"
        layout = f" {self.codec}" if self.codec != "bitpack" else ""
        return (
            f"{self.name}: {self.bits}b{layout} {self.placement} (gen "
            f"{self.generation}), engine={self.engine}, "
            f"{self.read_policy}{rec}"
        )


def _candidate_mask(expr: Optional[Expr], zone_maps: Dict[str, ZoneMap],
                    n_chunks: int,
                    pushed: List[PushedPredicate]) -> Optional[np.ndarray]:
    """Per-chunk candidate mask for ``expr``; ``None`` = cannot prune.

    Sound by construction: a chunk is dropped only when the zone maps
    prove no row in it can satisfy the expression.
    """
    if expr is None or n_chunks == 0:
        return None
    if isinstance(expr, And):
        left = _candidate_mask(expr.left, zone_maps, n_chunks, pushed)
        right = _candidate_mask(expr.right, zone_maps, n_chunks, pushed)
        if left is None:
            return right
        if right is None:
            return left
        return left & right
    if isinstance(expr, Or):
        left = _candidate_mask(expr.left, zone_maps, n_chunks, pushed)
        right = _candidate_mask(expr.right, zone_maps, n_chunks, pushed)
        if left is None or right is None:
            return None  # one side unprunable -> any chunk may match
        return left | right
    if isinstance(expr, Compare):
        rng = expr.as_range()
        if rng is None:
            return None
        column, lo, hi = rng
        zm = zone_maps.get(column)
        if zm is None:
            return None
        mask = np.zeros(n_chunks, dtype=bool)
        candidates = zm.candidate_chunks(lo, hi)
        mask[candidates] = True
        pushed.append(PushedPredicate(
            column=column, lo=max(lo, 0), hi=hi,
            candidate_chunks=int(candidates.size),
            pruned_chunks=n_chunks - int(candidates.size),
        ))
        return mask
    # NOT and anything else: no pruning information.
    if isinstance(expr, Not):
        return None
    return None


def _decide_column(name: str, array: SmartArray, n_rows: int,
                   scan_elements: int, caps: MachineCapabilities,
                   accesses_per_element: float) -> ColumnDecision:
    """Consult the adaptive selector for one column's read policy."""
    placement = array.placement.describe()
    read_policy = (
        "socket-local replica reads" if array.replicated
        else "single-buffer reads"
    )
    codec = getattr(array.generation, "codec", "bitpack")
    if n_rows == 0 or scan_elements == 0:
        return ColumnDecision(
            name=name, bits=array.bits, placement=placement,
            n_replicas=array.n_replicas, engine="blocked",
            read_policy=read_policy, recommended=None, matches_actual=None,
            generation=getattr(array, "generation_epoch", 0),
            codec=codec,
        )
    chars = ArrayCharacteristics(
        length=n_rows,
        element_bits=array.bits,
        scan_engine="blocked",
    )
    # Simulated profiling counters for the query's scan shape on the
    # paper's baseline (uncompressed reads at the machine's bandwidth).
    bytes_from_memory = float(scan_elements) * 8.0
    bw = caps.bw_max_memory_gbs
    time_s = max(bytes_from_memory / (bw * 1e9), 1e-9)
    counters = PerfCounters(
        time_s=time_s,
        instructions=blocked_scan_instructions(scan_elements, 64),
        bytes_from_memory=bytes_from_memory,
        memory_bandwidth_gbs=bw,
        memory_bound=True,
        label=f"query scan of {name}",
    )
    measurement = WorkloadMeasurement(
        counters=counters,
        read_only=True,
        linear_accesses_per_element=accesses_per_element,
        accesses_per_second=scan_elements / time_s,
    )
    selection = select_configuration(caps, chars, measurement)
    config = selection.configuration
    matches = (
        config.placement.describe() == placement and config.bits == array.bits
    )
    return ColumnDecision(
        name=name, bits=array.bits, placement=placement,
        n_replicas=array.n_replicas, engine="blocked",
        read_policy=read_policy, recommended=config.describe(),
        matches_actual=matches, selection=selection,
        generation=getattr(array, "generation_epoch", 0),
        codec=codec,
    )


@dataclass
class PhysicalPlan:
    """Everything the morsel executor needs, plus the explain record."""

    query: Query
    needed_columns: Tuple[str, ...]
    morsel_elements: int
    morsels: List[Tuple[int, int]]
    candidate_mask: Optional[np.ndarray]  # per chunk; None = all candidates
    chunks_total: int
    chunks_candidate: int
    chunks_pruned: int
    morsels_pruned: int  # known at plan time from the candidate mask
    #: Indices of morsels with at least one candidate chunk (None =
    #: every morsel).  The executor only ever visits these, so a
    #: hard-pruning plan pays nothing per skipped morsel.
    active_morsels: Optional[np.ndarray]
    pushed: List[PushedPredicate]
    decisions: Dict[str, ColumnDecision]
    est_instructions: float
    #: ``"compiled"`` or ``"interpreted"`` — how the executor will
    #: evaluate predicate + aggregates (see :mod:`repro.query.codegen`).
    mode: str = "interpreted"
    #: Why the plan interprets (knob setting or unsupported shape);
    #: ``None`` when compiled.
    codegen_reason: Optional[str] = None
    #: The generated kernel (source + callable) when ``mode`` is
    #: ``"compiled"``.
    kernel: Optional[CompiledKernel] = None

    @property
    def table(self):
        return self.query.table

    @property
    def predicted_replica_read_elements(self) -> Dict[str, int]:
        """Per needed column: elements the scan engine will decode
        (padding slots of a trailing partial chunk included, matching
        ``replica_read_elements`` accounting)."""
        return {
            name: 64 * self.chunks_candidate for name in self.needed_columns
        }

    def execute(self, pool=None, distribution: str = "dynamic",
                cancel=None, timeout_s=None):
        """Run this plan; see :func:`repro.query.executor.execute`.

        Plans execute themselves so callers (``Query.run``, the SQL
        server) stay agnostic of the plan's flavour — a distributed
        plan from :mod:`repro.cluster` honours the same signature.
        """
        from .executor import execute

        return execute(self, pool=pool, distribution=distribution,
                       cancel=cancel, timeout_s=timeout_s)

    def morsel_candidates(self, start: int, stop: int) -> np.ndarray:
        """Candidate chunk indices covering rows ``[start, stop)``."""
        first = start // bitpack.CHUNK_ELEMENTS
        end = -(-stop // bitpack.CHUNK_ELEMENTS)
        if self.candidate_mask is None:
            return np.arange(first, end, dtype=np.int64)
        local = np.nonzero(self.candidate_mask[first:end])[0]
        return local.astype(np.int64) + first

    def explain(self) -> str:
        q = self.query
        lines = ["== logical plan =="]
        lines += ["  " + line for line in q.describe().splitlines()]
        lines.append("== physical plan ==")
        if self.pushed:
            lines.append("  pushed-down predicates (zone-map pruning):")
            lines += ["    " + p.describe() for p in self.pushed]
        elif q.predicate is not None:
            lines.append("  pushed-down predicates: none "
                         "(predicate not sargable or no zone maps built)")
        lines.append(
            f"  chunks: {self.chunks_total} total, "
            f"{self.chunks_candidate} candidate, {self.chunks_pruned} pruned"
        )
        lines.append(
            f"  morsels: {len(self.morsels)} x {self.morsel_elements} "
            f"elements (superchunk-aligned), "
            f"{self.morsels_pruned} fully pruned"
        )
        lines.append("  columns read (fused single pass):")
        for name in self.needed_columns:
            lines.append("    " + self.decisions[name].describe())
            lines.append(
                f"      will decode {self.chunks_candidate} chunks = "
                f"{64 * self.chunks_candidate} elements"
            )
        lines.append(
            f"  estimated scan instructions: {self.est_instructions:,.0f}"
        )
        if self.mode == "compiled":
            lines.append("  execution mode: compiled (fused kernel)")
            if self.kernel is not None:
                lines.append("  generated kernel:")
                lines += [
                    "    " + src_line
                    for src_line in self.kernel.source.rstrip().splitlines()
                ]
        else:
            reason = f" ({self.codegen_reason})" if self.codegen_reason else ""
            lines.append(f"  execution mode: interpreted{reason}")
        return "\n".join(lines)


def plan_query(
    query: Query,
    morsel: Optional[int] = None,
    prune: str = "auto",
    pool=None,
    accesses_per_element: float = DEFAULT_ACCESSES_PER_ELEMENT,
    consult_selector: bool = True,
    codegen: Optional[str] = None,
) -> PhysicalPlan:
    """Build the physical plan for ``query``.

    ``prune`` controls zone-map use: ``"auto"`` uses the table's cached
    zone maps (see :meth:`SmartTable.build_zone_map`), ``"build"``
    builds and caches any missing map for a sargable column first (one
    extra scan per column — worth it for repeated queries), ``"off"``
    disables pruning.

    ``codegen`` controls fused-kernel compilation: ``"auto"`` compiles
    every supported shape (aggregates without ``group_by``), ``"on"``
    errors when the shape cannot compile, ``"off"`` always interprets.
    ``None`` defers to :meth:`Query.codegen`, then the
    ``REPRO_QUERY_CODEGEN`` env var, then ``"auto"``.
    """
    query.validate()
    if prune not in ("auto", "build", "off"):
        raise ValueError(
            f"prune must be 'auto', 'build', or 'off', got {prune!r}"
        )
    with trace("query.plan", prune=prune):
        plan = _plan_query(query, morsel, prune, pool,
                           accesses_per_element, consult_selector, codegen)
        reg = _obs_registry()
        reg.counter("query.plans").add(1)
        reg.counter("query.plans_compiled").add(
            1 if plan.mode == "compiled" else 0
        )
        reg.counter("query.chunks_candidate").add(plan.chunks_candidate)
        reg.counter("query.chunks_pruned").add(plan.chunks_pruned)
        reg.counter("query.morsels_pruned_at_plan").add(plan.morsels_pruned)
        return plan


def _plan_query(
    query: Query,
    morsel: Optional[int],
    prune: str,
    pool,
    accesses_per_element: float,
    consult_selector: bool,
    codegen: Optional[str] = None,
) -> PhysicalPlan:
    table = query.table
    n_rows = table.n_rows

    # Compile-vs-interpret decision comes first: compiled and group-by
    # plans default to larger morsels (an explicit ``morsel=`` knob wins
    # regardless).
    requested = resolve_mode(codegen, query.codegen_mode)
    if requested == "off":
        mode, codegen_reason = "interpreted", "codegen knob off"
    else:
        codegen_reason = unsupported_reason(query)
        if codegen_reason is None:
            mode = "compiled"
        elif requested == "on":
            raise ValueError(
                f"codegen='on' but this query cannot compile: "
                f"{codegen_reason}"
            )
        else:
            mode = "interpreted"

    if morsel is None:
        morsel = (COMPILED_MORSEL_ELEMENTS
                  if mode == "compiled" or query.group_key is not None
                  else DEFAULT_MORSEL_ELEMENTS)
    morsel_elements = check_superchunk(morsel)
    n_chunks = bitpack.chunks_for(n_rows)

    # Needed columns, in first-use order: filter, group key, aggregates,
    # projection.  Each is decoded exactly once per candidate-chunk run.
    needed: List[str] = []

    def need(name: str) -> None:
        if name not in needed:
            needed.append(name)

    if query.predicate is not None:
        for name in sorted(query.predicate.columns()):
            need(name)
    if query.group_key is not None:
        need(query.group_key)
    for spec in query.aggregates:
        if spec.column is not None:
            need(spec.column)
    for name in query.projection or ():
        need(name)
    if not needed and n_rows:
        # Pure count(*) or bare limit query: scan the cheapest column.
        cheapest = min(table.column_names, key=lambda n: table[n].bits)
        if query.aggregates or query.projection is not None or \
                query.predicate is not None:
            need(cheapest)

    # Zone maps for sargable columns.
    zone_maps: Dict[str, ZoneMap] = {}
    if prune != "off" and query.predicate is not None and n_rows:
        sargable = _sargable_columns(query.predicate)
        for name in sorted(sargable):
            zm = table.zone_map(name)
            if zm is None and prune == "build":
                zm = table.build_zone_map(name)
            if zm is not None:
                zone_maps[name] = zm

    pushed: List[PushedPredicate] = []
    mask = _candidate_mask(
        query.predicate if prune != "off" else None,
        zone_maps, n_chunks, pushed,
    )
    chunks_candidate = int(mask.sum()) if mask is not None else n_chunks
    morsels = [
        (start, min(start + morsel_elements, n_rows))
        for start in range(0, n_rows, morsel_elements)
    ]

    morsels_pruned = 0
    active_morsels: Optional[np.ndarray] = None
    if mask is not None and morsels:
        # Morsels are uniform superchunk windows, so per-morsel
        # candidacy is one padded reshape — no per-morsel Python.
        per_morsel = morsel_elements // bitpack.CHUNK_ELEMENTS
        padded = np.zeros(len(morsels) * per_morsel, dtype=bool)
        padded[:n_chunks] = mask
        has_candidates = padded.reshape(len(morsels), per_morsel).any(axis=1)
        active_morsels = np.nonzero(has_candidates)[0].astype(np.int64)
        morsels_pruned = len(morsels) - int(active_morsels.size)

    # Per-column adaptive decisions, sized by the post-pruning scan.
    scan_elements = 64 * chunks_candidate
    machine = pool.machine if pool is not None else None
    if machine is None:
        from ..core.allocate import default_machine

        machine = default_machine()
    caps = MachineCapabilities(machine)
    decisions: Dict[str, ColumnDecision] = {}
    est_instructions = 0.0
    for name in needed:
        array = table[name]
        if consult_selector:
            decisions[name] = _decide_column(
                name, array, n_rows, scan_elements, caps,
                accesses_per_element,
            )
        else:
            decisions[name] = _decide_column(
                name, array, 0, 0, caps, accesses_per_element
            )
        est_instructions += blocked_scan_instructions(
            scan_elements, array.bits
        )

    kernel: Optional[CompiledKernel] = None
    if mode == "compiled":
        # Specialize the kernel's aggregate folds on the *decoded value*
        # width: for codec-encoded columns ``bits`` is the narrow
        # payload (codes/deltas) while ``decode_chunks`` hands the
        # kernel full-magnitude values — a fold sized to payload bits
        # could silently wrap its uint64 accumulator.
        kernel = compile_query(
            query,
            tuple(needed),
            {name: getattr(table[name], "value_bits", table[name].bits)
             for name in needed},
            morsel_elements,
        )

    return PhysicalPlan(
        query=query,
        needed_columns=tuple(needed),
        morsel_elements=morsel_elements,
        morsels=morsels,
        candidate_mask=mask,
        chunks_total=n_chunks,
        chunks_candidate=chunks_candidate,
        chunks_pruned=n_chunks - chunks_candidate,
        morsels_pruned=morsels_pruned,
        active_morsels=active_morsels,
        pushed=pushed,
        decisions=decisions,
        est_instructions=est_instructions,
        mode=mode,
        codegen_reason=codegen_reason,
        kernel=kernel,
    )


def _sargable_columns(expr: Expr) -> set:
    """Columns referenced by at least one sargable comparison leaf."""
    out = set()
    if isinstance(expr, (And, Or)):
        out |= _sargable_columns(expr.left)
        out |= _sargable_columns(expr.right)
    elif isinstance(expr, Compare):
        rng = expr.as_range()
        if rng is not None:
            out.add(rng[0])
    return out


def validate_range(lo: int, hi: int) -> bool:
    """True when ``[lo, hi)`` can match any storable value (shared
    clamping contract; thin wrapper kept for query-level callers)."""
    return clamp_u64_range(lo, hi) is not None
