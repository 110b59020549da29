import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """One entry per ``os.fork`` call, with the process free to run on
    two CPUs whatever this machine has, so that ``estimate`` may start
    its worker."""
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(None) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return calls
