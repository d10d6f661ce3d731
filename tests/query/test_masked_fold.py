"""Masked folds: aggregates reduce the whole span under the mask.

Neither the compiled kernel nor the interpreted fold compacts matching
rows.  A partly matching span multiplies its sum/mean/max columns by
the mask in place (masked-out rows become 0), ``min`` reads
``col | (mask - 1)``, and a fully matching span folds as decoded.  Each
case runs compiled, interpreted and against exact NumPy, with masks
chosen to hit every branch: all rows, none, half at random, one row at
either end, and only the partial tail chunk.  The group fold sends
masked-out rows to a sentinel bin past the last group.
"""

import numpy as np
import pytest

from repro.core.table import SmartTable
from repro.query import Query, col
from repro.query.executor import _fold_groups
from repro.query.logical import AggSpec

WIDTHS = (1, 7, 20, 33, 63, 64)
KINDS = ("sum", "mean", "count", "min", "max")
ROWS = 3 * 4096 + 37  # several spans at morsel=4096, a partial tail chunk
MASKS = ("all", "none", "half", "first", "last", "tail")


def _mask(kind: str, rng) -> np.ndarray:
    mask = np.zeros(ROWS, dtype=bool)
    if kind == "all":
        mask[:] = True
    elif kind == "half":
        mask = rng.random(ROWS) < 0.5
    elif kind == "first":
        mask[0] = True
    elif kind == "last":
        mask[-1] = True
    elif kind == "tail":
        mask[-(ROWS % 64):] = True
    return mask


def _selector(mask: np.ndarray) -> np.ndarray:
    """``f == 1`` selects ``mask``.  With no zone map built nothing is
    pruned, so the folds see spans without a match too."""
    return mask.astype(np.uint64)


def _values(width: int, rng) -> np.ndarray:
    top = (1 << width) - 1
    v = rng.integers(0, top, ROWS, dtype=np.uint64, endpoint=True)
    v[:3] = [top, 0, top]
    v[-3:] = [0, top, top]
    if width >= 63:
        # Near 2**64 - 1: sums take the split-halves path.
        v[64:4096:3] = top - rng.integers(0, 1000, v[64:4096:3].size,
                                          dtype=np.uint64)
    return v


def _expected(values: np.ndarray, mask: np.ndarray, kind: str):
    sel = values[mask]
    total = sum(sel.tolist())
    if kind == "count":
        return int(mask.sum())
    if sel.size == 0:
        return 0 if kind == "sum" else None
    return {"sum": total, "mean": total / sel.size,
            "min": int(sel.min()), "max": int(sel.max())}[kind]


def _run(table, kind, codegen, morsel=None):
    query = Query(table).where(col("f") == 1)
    query = query.count() if kind == "count" else getattr(query, kind)("v")
    name = "count(*)" if kind == "count" else f"{kind}(v)"
    result = query.run(codegen=codegen, morsel=morsel)
    assert result.plan.mode == ("compiled" if codegen == "on"
                                else "interpreted")
    return result.aggregates[name]


@pytest.fixture(scope="module", params=WIDTHS)
def width_case(request):
    width = request.param
    rng = np.random.default_rng(width)
    return width, _values(width, rng)


@pytest.mark.parametrize("mask_kind", MASKS)
@pytest.mark.parametrize("kind", KINDS)
def test_compiled_interpreted_numpy_agree(width_case, kind, mask_kind):
    width, values = width_case
    mask = _mask(mask_kind, np.random.default_rng([width, 7]))
    table = SmartTable.from_arrays({"v": values, "f": _selector(mask)})
    assert table["v"].bits == width
    expected = _expected(values, mask, kind)
    for morsel in (None, 4096):
        assert _run(table, kind, "on", morsel) == expected
        assert _run(table, kind, "off", morsel) == expected
    # The in-place product only touches decode buffers, never storage.
    assert np.array_equal(table["v"].to_numpy(), values)


def test_min_sees_matching_zero_and_ignores_masked_out_zeros():
    rng = np.random.default_rng(3)
    values = rng.integers(1, 1 << 20, ROWS, dtype=np.uint64)
    mask = rng.random(ROWS) < 0.5
    # Masked-out zeros everywhere: the product would make them 0.
    values[~mask & (np.arange(ROWS) % 5 == 0)] = 0
    table = SmartTable.from_arrays({"v": values, "f": _selector(mask)})
    expected = int(values[mask].min())
    assert expected > 0
    for codegen in ("on", "off"):
        assert _run(table, "min", codegen) == expected
    # A matching zero is the minimum.
    values = values.copy()
    values[np.flatnonzero(mask)[10]] = 0
    table = SmartTable.from_arrays({"v": values, "f": _selector(mask)})
    for codegen in ("on", "off"):
        assert _run(table, "min", codegen) == 0


def test_max_of_all_zero_matches_is_zero():
    rng = np.random.default_rng(4)
    values = rng.integers(1, 1 << 33, ROWS, dtype=np.uint64)
    mask = rng.random(ROWS) < 0.3
    values[mask] = 0
    table = SmartTable.from_arrays({"v": values, "f": _selector(mask)})
    for codegen in ("on", "off"):
        assert _run(table, "max", codegen) == 0
        assert _run(table, "min", codegen) == 0
        assert _run(table, "sum", codegen) == 0
        assert _run(table, "count", codegen) == int(mask.sum())


@pytest.mark.parametrize("width", [20, 64])
def test_one_column_in_several_aggregates(width):
    # ``v`` feeds min (reads the unmasked values) and sum/max/mean
    # (read the in-place product); ``k`` is both predicate and sum.
    rng = np.random.default_rng(width)
    values = _values(width, rng)
    keys = rng.integers(0, 1 << 16, ROWS, dtype=np.uint64)
    table = SmartTable.from_arrays({"k": keys, "v": values})
    mask = keys >= 1 << 15
    sel, ksel = values[mask], keys[mask]
    total = sum(sel.tolist())
    expected = {"min(v)": int(sel.min()), "sum(v)": total,
                "max(v)": int(sel.max()), "mean(v)": total / sel.size,
                "sum(k)": sum(ksel.tolist()), "min(k)": int(ksel.min()),
                "count(*)": int(mask.sum())}
    for codegen in ("on", "off"):
        got = (Query(table).where(col("k") >= 1 << 15).min("v").sum("v")
               .max("v").mean("v").sum("k").min("k").count()
               .run(codegen=codegen, morsel=4096))
        assert got.aggregates == expected


def test_compiled_sum_and_mean_kernels_never_compact():
    values = np.arange(ROWS, dtype=np.uint64)
    table = SmartTable.from_arrays({"v": values, "f": _selector(
        np.arange(ROWS) % 3 == 0)})
    for column in ("v", "f"):
        plan = (Query(table).where(col("f") == 1).sum(column)
                .mean(column).plan(codegen="on"))
        source = plan.kernel.source
        assert "[mask]" not in source
        assert "np.count_nonzero(mask)" in source
        assert source.count("np.multiply(") == 1


def test_row_query_values_survive_buffer_reuse():
    # Every other chunk is pruned, so each morsel decodes several
    # one-chunk spans into the same buffer.
    rng = np.random.default_rng(5)
    values = rng.integers(0, 1 << 40, ROWS, dtype=np.uint64)
    live = np.arange(ROWS) // 64 % 2 == 0
    for mask in (live, live & (rng.random(ROWS) < 0.5)):
        table = SmartTable.from_arrays({"v": values,
                                        "f": _selector(mask)})
        table.build_zone_map("f")
        result = (Query(table).where(col("f") == 1).select("v")
                  .run(morsel=4096))
        assert result.plan.chunks_candidate < result.plan.chunks_total
        assert np.array_equal(result.rows, np.flatnonzero(mask))
        assert result.rows.dtype == np.int64
        assert np.array_equal(result.columns["v"], values[mask])


# -- group fold: the sentinel bin -------------------------------------------

GROUP_SPECS = [AggSpec("count", None, "n"), AggSpec("sum", "v", "s"),
               AggSpec("mean", "v", "m"), AggSpec("min", "v", "lo"),
               AggSpec("max", "v", "hi")]


def _group_expected(keys, values, mask):
    out = {}
    for k in np.unique(keys[mask]).tolist():
        sel = values[mask & (keys == k)]
        total = sum(sel.tolist())
        out[k] = [sel.size, total, (total, sel.size), int(sel.min()),
                  int(sel.max())]
    return out


@pytest.mark.parametrize("key_top", [(1 << 16) - 1, (1 << 17) - 1,
                                     (1 << 64) - 1])
def test_sentinel_bin_never_leaks_into_groups(key_top):
    rng = np.random.default_rng(key_top % 1000)
    rows = 10_000
    candidates = np.array([0, 1, key_top // 2, key_top - 1, key_top],
                          dtype=np.uint64)
    keys = rng.choice(candidates, rows)
    values = rng.integers(0, 1 << 64, rows, dtype=np.uint64,
                          endpoint=False)
    mask = rng.random(rows) < 0.6
    # Key ``1`` has rows, all masked out: it must not appear.
    mask[keys == 1] = False
    # The top key matches, right beside the sentinel bin.
    mask[np.flatnonzero(keys == key_top)[:5]] = True
    groups = {}
    _fold_groups(groups, GROUP_SPECS, keys, {"v": values}, mask)
    expected = _group_expected(keys, values, mask)
    assert 1 not in groups and key_top in groups
    assert groups == expected


def test_group_fold_with_every_row_masked_out_adds_nothing():
    keys = np.arange(100, dtype=np.uint64)
    values = keys * np.uint64(3)
    groups = {}
    _fold_groups(groups, GROUP_SPECS, keys, {"v": values},
                 np.zeros(100, dtype=bool))
    assert groups == {}


@pytest.mark.parametrize("bits", [20, 40, 41, 53])
def test_single_bincount_sums_match_split_halves(bits):
    # 2**13 rows: 40 + 13 = 53 is the last width one float64 bincount
    # sums exactly; 41 and 53 take the split halves.
    rows = 1 << 13
    values = np.full(rows, (1 << bits) - 1, dtype=np.uint64)
    values[::7] -= np.uint64(5)
    keys = np.zeros(rows, dtype=np.uint64)
    keys[::2] = 9
    mask = np.ones(rows, dtype=bool)
    mask[::11] = False
    specs = [AggSpec("sum", "v", "s"), AggSpec("mean", "v", "m")]
    narrow, wide = {}, {}
    _fold_groups(narrow, specs, keys, {"v": values}, mask, {"v": bits})
    _fold_groups(wide, specs, keys, {"v": values}, mask)
    assert narrow == wide
    for k in (0, 9):
        sel = values[mask & (keys == k)]
        assert narrow[k][0] == sum(sel.tolist())


@pytest.mark.parametrize("key_bits", [16, 17, 64])
def test_group_by_query_with_predicate_matches_numpy(key_bits):
    rng = np.random.default_rng(key_bits)
    rows = 3 * 4096 + 37
    top = (1 << key_bits) - 1
    keys = rng.choice(np.array([0, 5, top // 3, top], dtype=np.uint64),
                      rows)
    values = rng.integers(0, 1 << 20, rows, dtype=np.uint64)
    filt = rng.integers(0, 100, rows, dtype=np.uint64)
    # Group ``5`` has rows, none of which pass the filter.
    filt[keys == 5] = 0
    table = SmartTable.from_arrays({"k": keys, "v": values, "f": filt})
    mask = filt >= 40
    result = (Query(table).where(col("f") >= 40).group_by("k").sum("v")
              .min("v").count().run(morsel=4096))
    expected = {}
    for k in np.unique(keys[mask]).tolist():
        sel = values[mask & (keys == k)]
        expected[k] = {"sum(v)": sum(sel.tolist()), "min(v)": int(sel.min()),
                       "count(*)": sel.size}
    assert 5 not in result.groups
    assert result.groups == expected
