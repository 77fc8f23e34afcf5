"""Fixtures shared by the test modules."""

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
