"""The compiled-kernel cache stays bounded under fresh literals.

Literals are folded into the generated source, which is the cache key,
so every new literal compiles a new kernel.  The cache keeps only the
most recently used ``_KERNEL_CACHE_SIZE`` of them.
"""

import numpy as np

from repro.core.table import SmartTable
from repro.query import Query, col
from repro.query import codegen


def test_cache_is_bounded_and_keeps_recently_used_kernels():
    t = SmartTable.from_arrays(
        {"k": np.arange(1000, dtype=np.uint64)}, replicated=True)
    hot = Query(t).where(col("k") >= 1).sum("k").plan(codegen="on").kernel
    for lit in range(2, codegen._KERNEL_CACHE_SIZE + 50):
        plan = Query(t).where(col("k") >= lit).sum("k").plan(codegen="on")
        assert plan.execute().scalar() == sum(range(lit, 1000))
        # Touching the hot kernel keeps it from being evicted.
        again = Query(t).where(col("k") >= 1).sum("k").plan(codegen="on")
        assert again.kernel.fn is hot.fn
    assert len(codegen._KERNEL_CACHE) <= codegen._KERNEL_CACHE_SIZE
    assert hot.source in codegen._KERNEL_CACHE
    assert plan.kernel.source in codegen._KERNEL_CACHE
