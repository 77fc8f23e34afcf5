"""Fixtures shared by the test modules."""

import tracemalloc

import pytest

import effchan.linalg as linalg


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every thread pool the worker rule starts, in order."""
    started = []

    class CountingPool(linalg.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(linalg, "ThreadPoolExecutor", CountingPool)
    return started


@pytest.fixture
def traced_peak():
    """peak(fn, *args): the most bytes tracemalloc saw allocated, above the start, in fn(*args)."""
    def peak(fn, *args):
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
    return peak
