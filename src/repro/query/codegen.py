"""Fused-kernel compilation of planned queries (string codegen -> exec).

The interpreted executor walks the expression AST once per decoded span:
every ``evaluate()`` call materializes a NumPy temporary, re-enters
``np.errstate``, and re-derives literal clamping — per AST node, per
morsel.  This module compiles a planned aggregate query into **one
generated Python function** so unpack + predicate + reduce happen in a
single pass over each candidate-chunk run:

* the predicate tree is lowered to a single NumPy mask expression with
  all literal bounds **clamped and constant-folded at compile time**
  (the exact semantics of :func:`repro.query.expr._clamped_compare` —
  everywhere-true/false comparisons simplify AND/OR/NOT away);
* each aggregate folds the whole decoded span under the mask, never a
  compacted copy: a partly matching span's sum/mean/max columns are
  multiplied by the mask in place (masked-out rows become 0) and
  ``min`` reads ``col | (mask - 1)``; a fully matching span folds as
  decoded, and the match count is ``np.count_nonzero``;
* each sum is specialized on its column's bit width: when ``bits +
  ceil_log2(morsel_elements) <= 64`` a span's sum provably fits uint64
  and one ``sum(dtype=np.uint64)`` suffices, otherwise the kernel
  splits 32-bit halves exactly like
  :func:`repro.runtime.loops._exact_sum` — results are bit-identical
  to the interpreted path in both regimes;
* decoding still goes through ``SmartArray.decode_chunks`` with the
  executor's pinned replica buffers, so the chunk-unpack / replica-read
  accounting the smartcheck harness asserts on is **identical** in both
  modes.

Compilation is sound only for shapes the kernel template covers;
:func:`unsupported_reason` names what falls back (row queries,
``group_by``, exotic Expr subclasses).  The planner consults it and
records the decision; ``codegen="on"`` turns a fallback into an error.

The generated source is kept on the :class:`CompiledKernel` (and shown
by ``explain()``) so a human can audit exactly what will run.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .expr import (
    U64_MAX,
    And,
    Arith,
    Col,
    Compare,
    Expr,
    Lit,
    Not,
    Or,
)
from .logical import Query

#: Recognized values for the compile/interpret knob (planner kwarg,
#: ``Query.codegen()``, or the ``REPRO_QUERY_CODEGEN`` env var).
CODEGEN_MODES = ("auto", "on", "off")

#: Env var consulted when neither the planner call nor the query set a
#: mode: ``REPRO_QUERY_CODEGEN=off`` forces the interpreter everywhere,
#: ``=on`` errors on any plan the kernel template cannot cover.
CODEGEN_ENV_VAR = "REPRO_QUERY_CODEGEN"

#: source -> compiled function, least recently used first; the source
#: embeds every specialization input (columns, bit-width regime, mask
#: expression), so it is the key.  Literals are folded into the mask
#: expression, so a stream of fresh literals would grow an unbounded
#: cache by one kernel per query: it keeps the newest
#: ``_KERNEL_CACHE_SIZE``.
_KERNEL_CACHE: "OrderedDict[str, Callable]" = OrderedDict()
_KERNEL_CACHE_SIZE = 256
_KERNEL_CACHE_LOCK = threading.Lock()


def resolve_mode(explicit: Optional[str], query_mode: Optional[str]) -> str:
    """Resolve the compile/interpret knob: planner kwarg beats the
    query's fluent setting beats ``REPRO_QUERY_CODEGEN`` beats auto."""
    mode = explicit or query_mode or os.environ.get(CODEGEN_ENV_VAR) or "auto"
    if mode not in CODEGEN_MODES:
        raise ValueError(
            f"codegen mode must be one of {CODEGEN_MODES}, got {mode!r} "
            f"(check the {CODEGEN_ENV_VAR} env var)"
        )
    return mode


def unsupported_reason(query: Query) -> Optional[str]:
    """Why ``query`` cannot run compiled (``None`` = it can).

    The kernel template covers fused filter+aggregate scans — the hot
    shape the paper measures.  Row materialization and group-by keep the
    interpreted fold paths: a row query's cost is copying out matched
    rows, and the group fold is already one vectorised ``bincount``
    step per span, so neither has an AST walk for codegen to remove.
    """
    if not query.aggregates:
        return "row queries (select/limit) run interpreted"
    if query.group_key is not None:
        return "group_by queries run interpreted"
    if query.predicate is not None:
        reason = _expr_unsupported(query.predicate)
        if reason is not None:
            return reason
    return None


def _expr_unsupported(expr: Expr) -> Optional[str]:
    if isinstance(expr, (And, Or)):
        return (_expr_unsupported(expr.left)
                or _expr_unsupported(expr.right))
    if isinstance(expr, Not):
        return _expr_unsupported(expr.child)
    if isinstance(expr, Compare):
        return (_value_unsupported(expr.left)
                or _value_unsupported(expr.right))
    return f"unknown boolean node {type(expr).__name__}"


def _value_unsupported(expr: Expr) -> Optional[str]:
    if isinstance(expr, (Col, Lit)):
        return None
    if isinstance(expr, Arith):
        return (_value_unsupported(expr.left)
                or _value_unsupported(expr.right))
    return f"unknown value node {type(expr).__name__}"


def _literal_u64(value: int) -> str:
    """Render one in-domain uint64 constant into kernel source.

    Every literal the generated code contains flows through here —
    comparison bounds (post-clamping) and arithmetic literals — which
    makes it the seam smartcheck's planted miscompiled-constant test
    patches to prove the differential harness catches codegen bugs.
    """
    assert 0 <= value <= U64_MAX, value
    return f"np.uint64({value})"


# -- expression lowering --------------------------------------------------

#: A lowered boolean: generated source, or a compile-time constant when
#: clamping proved the subtree everywhere-true/false.
_BoolIR = Union[str, bool]


def _emit_value(expr: Expr, names: Dict[str, str]) -> str:
    if isinstance(expr, Col):
        return names[expr.name]
    if isinstance(expr, Lit):
        # Bare out-of-domain literals only occur as clamped comparison
        # bounds, which never reach here (Arith validates its own).
        return _literal_u64(expr.value)
    if isinstance(expr, Arith):
        return (f"({_emit_value(expr.left, names)} {expr.op} "
                f"{_emit_value(expr.right, names)})")
    raise AssertionError(type(expr).__name__)  # pragma: no cover


def _emit_compare(expr: Compare, names: Dict[str, str]) -> _BoolIR:
    """Lower one comparison, folding clamped bounds to constants.

    Mirrors :func:`repro.query.expr._clamped_compare` exactly: the
    storage domain (uint64), not the column's bit width, decides
    everywhere-true/false — narrower columns still compare against any
    in-domain bound at runtime.
    """
    lit = expr._literal_side()
    if lit is None:
        return (f"({_emit_value(expr.left, names)} {expr.op} "
                f"{_emit_value(expr.right, names)})")
    value_expr, op, bound = lit
    if op in (">", "<="):
        op, bound = (">=" if op == ">" else "<"), bound + 1
    v = _emit_value(value_expr, names)
    if op == ">=":
        if bound <= 0:
            return True
        if bound > U64_MAX:
            return False
        return f"({v} >= {_literal_u64(bound)})"
    if op == "<":
        if bound <= 0:
            return False
        if bound > U64_MAX:
            return True
        return f"({v} < {_literal_u64(bound)})"
    if op == "==":
        if not 0 <= bound <= U64_MAX:
            return False
        return f"({v} == {_literal_u64(bound)})"
    assert op == "!=", op
    if not 0 <= bound <= U64_MAX:
        return True
    return f"({v} != {_literal_u64(bound)})"


def _emit_bool(expr: Expr, names: Dict[str, str]) -> _BoolIR:
    """Lower a boolean tree; constants propagate upward so a clamped
    leaf simplifies its connectives (``x & TRUE -> x`` etc.), matching
    the array algebra the interpreter would have computed."""
    if isinstance(expr, Compare):
        return _emit_compare(expr, names)
    if isinstance(expr, And):
        left = _emit_bool(expr.left, names)
        right = _emit_bool(expr.right, names)
        if left is False or right is False:
            return False
        if left is True:
            return right
        if right is True:
            return left
        return f"({left} & {right})"
    if isinstance(expr, Or):
        left = _emit_bool(expr.left, names)
        right = _emit_bool(expr.right, names)
        if left is True or right is True:
            return True
        if left is False:
            return right
        if right is False:
            return left
        return f"({left} | {right})"
    if isinstance(expr, Not):
        child = _emit_bool(expr.child, names)
        if isinstance(child, bool):
            return not child
        return f"(~{child})"
    raise AssertionError(type(expr).__name__)  # pragma: no cover


# -- aggregate lowering ---------------------------------------------------


def _emit_sum(target: str, values: str, bits: int,
              morsel_elements: int) -> str:
    """One exact span-sum statement, specialized on bit width.

    A span holds at most ``morsel_elements`` values below ``2**bits``
    (masked-out rows are zeros), so when ``bits +
    ceil_log2(morsel_elements) <= 64`` the uint64 accumulator provably
    cannot wrap; otherwise split 32-bit halves (exact for any count
    below 2**32), the `_exact_sum` recipe inlined.
    """
    if bits + morsel_elements.bit_length() <= 64:
        return f"{target} += int({values}.sum(dtype=np.uint64))"
    return (
        f"{target} += (int(({values} >> np.uint64(32))"
        f".sum(dtype=np.uint64)) << 32) + "
        f"int(({values} & np.uint64(4294967295)).sum(dtype=np.uint64))"
    )


def _emit_folds(query: Query, names: Dict[str, str],
                column_bits: Dict[str, int], morsel_elements: int,
                masked: bool) -> List[str]:
    """Unindented fold statements for one span with ``n > 0`` matches.

    Nothing is compacted.  A span that matches only in part
    (``n != span``) is folded whole under its mask: ``min`` first reads
    ``col | (mask - 1)``, all ones outside the mask; then every column
    feeding a sum, mean or max is multiplied by the mask once, in place
    in its own decode buffer, so a masked-out row adds 0 and cannot
    raise a max (``n > 0`` guarantees a matching row).  A fully
    matching span folds the decoded values as they are.
    """
    floors: List[str] = []  # columns read by min, before the product
    products: List[str] = []  # columns read by sum / mean / max
    for spec in query.aggregates:
        if spec.column is None:
            continue
        into = floors if spec.kind == "min" else products
        if spec.column not in into:
            into.append(spec.column)
    lines: List[str] = []
    if masked and (floors or products):
        lines += [f"lo_{names[column]} = {names[column]}"
                  for column in floors]
        lines.append("if n != span:")
        for column in floors:
            src = names[column]
            lines.append(f"    lo_{src} = {src} | "
                         "(mask.astype(np.uint64) - np.uint64(1))")
        for column in products:
            src = names[column]
            lines.append(f"    np.multiply({src}, mask, out={src})")
    for slot, spec in enumerate(query.aggregates):
        if spec.kind == "count":
            lines.append(f"a{slot} += n")
            continue
        src = names[spec.column]
        bits = column_bits[spec.column]
        if spec.kind == "sum":
            lines.append(_emit_sum(f"a{slot}", src, bits, morsel_elements))
        elif spec.kind == "mean":
            lines.append(_emit_sum(f"a{slot}_s", src, bits,
                                   morsel_elements))
            lines.append(f"a{slot}_c += n")
        else:  # min / max
            fold = spec.kind
            if fold == "min" and masked:
                src = f"lo_{src}"
            lines.append(f"b = int({src}.{fold}())")
            lines.append(f"a{slot} = b if a{slot} is None "
                         f"else {fold}(a{slot}, b)")
    return lines


@dataclass(frozen=True)
class CompiledKernel:
    """One generated morsel kernel plus its audit trail.

    ``fn(runs, n_rows, dec0, rep0, buf0, ...)`` consumes the morsel's
    candidate-chunk runs and per-column (decode-method, replica,
    scratch) triples in :attr:`columns` order, returning
    ``(rows_scanned, rows_matched, decoded_chunks, agg_partials)`` in
    the executor's :class:`~repro.query.stats.MorselPartial` shapes.
    """

    source: str
    fn: Callable = field(repr=False, compare=False)
    columns: Tuple[str, ...]
    #: Bit widths the aggregate folds were specialized on; the executor
    #: falls back to the interpreter for a morsel whose pinned
    #: generation no longer matches (a live migration mid-query).
    column_bits: Dict[str, int] = field(compare=False)


def compile_query(query: Query, needed_columns: Tuple[str, ...],
                  column_bits: Dict[str, int],
                  morsel_elements: int) -> CompiledKernel:
    """Lower ``query`` to a :class:`CompiledKernel`.

    Caller guarantees :func:`unsupported_reason` returned ``None``.
    ``needed_columns`` is the plan's decode order; the kernel's
    positional arguments follow it.
    """
    names = {name: f"c{i}" for i, name in enumerate(needed_columns)}
    args = "".join(
        f", dec{i}, rep{i}, buf{i}" for i in range(len(needed_columns))
    )
    lines: List[str] = [
        f"def kernel(runs, n_rows{args}):",
        "    rows_scanned = 0",
        "    rows_matched = 0",
        "    decoded_chunks = 0",
    ]

    mask: _BoolIR = True
    if query.predicate is not None:
        mask = _emit_bool(query.predicate, names)

    # Accumulator init, one slot per AggSpec (matching _new_agg_partials).
    returns: List[str] = []
    for slot, spec in enumerate(query.aggregates):
        if spec.kind == "mean":
            lines += [f"    a{slot}_s = 0", f"    a{slot}_c = 0"]
            returns.append(f"(a{slot}_s, a{slot}_c)")
        elif spec.kind in ("min", "max"):
            lines.append(f"    a{slot} = None")
            returns.append(f"a{slot}")
        else:  # sum / count
            lines.append(f"    a{slot} = 0")
            returns.append(f"a{slot}")

    lines.append("    with np.errstate(over='ignore'):")
    lines.append("        for first, count in runs:")
    lines.append("            base = first * 64")
    lines.append("            end = base + count * 64")
    lines.append("            if end > n_rows:")
    lines.append("                end = n_rows")
    lines.append("            span = end - base")
    # Decode every needed column unconditionally: identical accounting
    # to the interpreted pass (chunk_unpacks/replica_reads per column).
    for i in range(len(needed_columns)):
        lines.append(
            f"            c{i} = dec{i}(first, count, "
            f"replica=rep{i}, out=buf{i})[:span]"
        )
    lines.append("            decoded_chunks += count")
    lines.append("            rows_scanned += span")
    if mask is True:
        lines.append("            n = span")
    elif mask is False:
        lines.append("            n = 0")
    else:
        lines.append(f"            mask = {mask}")
        lines.append("            n = int(np.count_nonzero(mask))")
    lines.append("            rows_matched += n")
    lines.append("            if n == 0:")
    lines.append("                continue")

    if mask is not False:  # folds are unreachable under a false mask
        lines += [f"            {line}" for line in _emit_folds(
            query, names, column_bits, morsel_elements,
            masked=isinstance(mask, str))]

    lines.append(
        "    return rows_scanned, rows_matched, decoded_chunks, "
        "[" + ", ".join(returns) + "]"
    )
    source = "\n".join(lines) + "\n"

    with _KERNEL_CACHE_LOCK:
        fn = _KERNEL_CACHE.get(source)
        if fn is not None:
            _KERNEL_CACHE.move_to_end(source)
    if fn is None:
        namespace: Dict[str, object] = {"np": np, "min": min, "max": max}
        exec(compile(source, "<repro.query.codegen>", "exec"), namespace)
        fn = namespace["kernel"]
        with _KERNEL_CACHE_LOCK:
            _KERNEL_CACHE[source] = fn
            if len(_KERNEL_CACHE) > _KERNEL_CACHE_SIZE:
                _KERNEL_CACHE.popitem(last=False)
    return CompiledKernel(
        source=source,
        fn=fn,
        columns=tuple(needed_columns),
        column_bits=dict(column_bits),
    )
