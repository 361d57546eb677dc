# coinlab first: importing it pins BLAS to one thread, which only takes
# effect if NumPy has not been loaded yet
import coinlab  # noqa: F401, I001

import tracemalloc

import pytest


def _traced_peak(fn):
    # fn() and the peak of the memory traced while it ran; NumPy reports its
    # array buffers to tracemalloc
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls ``fn()`` under tracemalloc and returns its
    result and the peak traced bytes, for the memory budget tests."""
    return _traced_peak
