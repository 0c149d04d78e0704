"""Shared test helpers."""

import tracemalloc
from contextlib import contextmanager

import pytest


class TracedMemory:
    """Bytes traced by ``tracemalloc`` over a block (:func:`traced_memory`).

    ``base`` is the traced size when the block starts, ``peak`` the largest
    traced size over the block (set when it ends) and :meth:`now` the traced
    size at the moment, for probes run inside the block.
    """

    base = peak = 0

    @staticmethod
    def now() -> int:
        return tracemalloc.get_traced_memory()[0]


@contextmanager
def _traced_memory():
    mem = TracedMemory()
    tracemalloc.start()
    try:
        mem.base = mem.now()
        yield mem
        mem.peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_memory():
    """Context manager that traces the Python and numpy allocations of its
    block and yields a :class:`TracedMemory`."""
    return _traced_memory
