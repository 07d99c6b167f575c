"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """Measure the peak bytes that ``fn()`` allocates, on its second call.

    The first call absorbs one-off allocations (imports, caches, interned
    objects), so the traced call sees only what ``fn`` allocates every time.
    """

    def measure(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
