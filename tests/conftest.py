import tracemalloc

import pytest


def _traced_peak(call, warm=False):
    """(call(), its tracemalloc peak in bytes); warm calls it once first, so
    that what the first call builds (caches, tables) lies outside the trace."""
    if warm:
        call()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
