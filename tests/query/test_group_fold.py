"""The vectorised group fold against compiled aggregates and NumPy.

``GROUP BY`` runs interpreted: keys narrower than 2**16 index the
per-group arrays directly, wider keys go through ``np.unique``; sums
and means add the 32-bit halves with float64 ``bincount`` weights over
slices of at most ``_FOLD_SLICE_ROWS`` rows; min and max use
``ufunc.at``.  Each group's result is compared with the compiled
kernel's aggregate over a ``key == k`` predicate and with exact NumPy.
"""

import numpy as np
import pytest

from repro.core.table import SmartTable
from repro.query import Query, col
from repro.query.executor import _FOLD_SLICE_ROWS, _fold_groups
from repro.query.logical import AggSpec

KINDS = ("sum", "count", "mean", "min", "max")
KEY_WIDTHS = (1, 4, 16, 17, 33, 64)
ROWS = 20_000 + 37  # a trailing partial chunk


def _key_values(width: int) -> np.ndarray:
    """A few distinct keys spanning the width, top value included."""
    top = (1 << width) - 1
    return np.unique(np.array([0, top, top // 3, top // 2 + 1, top // 7],
                              dtype=np.uint64))


def _aggregate(query, kind):
    if kind == "count":
        return query.count()
    return getattr(query, kind)("v")


def _expected(keys, values, kind):
    out = {}
    for k in np.unique(keys).tolist():
        sel = values[keys == k]
        exact = sum(sel.tolist())
        out[k] = {"sum": exact, "count": sel.size, "mean": exact / sel.size,
                  "min": int(sel.min()), "max": int(sel.max())}[kind]
    return out


@pytest.fixture(scope="module", params=KEY_WIDTHS)
def dataset(request):
    width = request.param
    rng = np.random.default_rng(width)
    keys = rng.choice(_key_values(width), ROWS)
    values = rng.integers(0, 2**64, ROWS, dtype=np.uint64, endpoint=False)
    values[:50] = 2**64 - 1
    filt = rng.integers(0, 100, ROWS, dtype=np.uint64)
    table = SmartTable.from_arrays({"k": keys, "v": values, "f": filt})
    return table, keys, values, filt


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("where", [None, 30])
def test_group_fold_matches_compiled_and_numpy(dataset, kind, where):
    table, keys, values, filt = dataset
    name = f"{kind}(v)" if kind != "count" else "count(*)"
    query = Query(table)
    if where is not None:
        query = query.where(col("f") >= where)
        mask = filt >= np.uint64(where)
        keys, values = keys[mask], values[mask]
    expected = _expected(keys, values, kind)

    # The builder mutates in place: ``query`` is now the GROUP BY.
    _aggregate(query.group_by("k"), kind)
    plan = query.plan()
    assert plan.mode == "interpreted"
    grouped = plan.execute().groups
    small = query.run(morsel=4096).groups
    assert {k: g[name] for k, g in grouped.items()} == expected
    assert {k: g[name] for k, g in small.items()} == expected

    for k in expected:
        pred = col("k") == k
        if where is not None:
            pred = pred & (col("f") >= where)
        compiled = _aggregate(Query(table).where(pred), kind).plan(
            codegen="on")
        assert compiled.mode == "compiled"
        assert compiled.execute().aggregates[name] == grouped[k][name]


def test_one_key_near_max_values_stays_exact():
    rows = 65_536
    rng = np.random.default_rng(1)
    values = (np.uint64(2**64 - 1)
              - rng.integers(0, 1000, rows, dtype=np.uint64))
    keys = np.full(rows, 5, dtype=np.uint64)
    table = SmartTable.from_arrays({"k": keys, "v": values})
    result = (Query(table).group_by("k").sum("v").mean("v").count()
              .min("v").max("v").run())
    exact = sum(values.tolist())
    assert list(result.groups) == [5]
    group = result.groups[5]
    assert group["sum(v)"] == exact
    assert group["mean(v)"] == exact / rows
    assert group["count(*)"] == rows
    assert group["min(v)"] == int(values.min())
    assert group["max(v)"] == int(values.max())


def test_fold_slices_keep_float64_halves_exact():
    # Past 2**21 rows one group's high halves would exceed 2**53 in one
    # bincount; slicing keeps every float64 partial exact.
    assert _FOLD_SLICE_ROWS * (2**32 - 1) < 2**53
    rows = _FOLD_SLICE_ROWS + 5
    values = np.full(rows, 2**64 - 1, dtype=np.uint64)
    values[::3] -= np.uint64(12345)
    keys = np.zeros(rows, dtype=np.uint64)
    specs = [AggSpec("sum", "v", "s"), AggSpec("mean", "v", "m")]
    groups = {}
    _fold_groups(groups, specs, keys, {"k": keys, "v": values}, None)
    exact = sum(values.tolist())
    assert groups == {0: [exact, (exact, rows)]}
