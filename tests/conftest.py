"""Fixtures of the tests that run work in parts (batch and hunt)."""

import os

import pytest

import k3linsys.parts as parts

SCHED_GETAFFINITY, SCHED_SETAFFINITY = os.sched_getaffinity, os.sched_setaffinity


@pytest.fixture
def forks(monkeypatch):
    """The forks this process makes, on a fake affinity mask of three CPUs
    and no CPU quota.  Afterwards no child is left, and this process is
    back on its own mask, which the work in parts may have swapped for the
    fake one."""
    mask = SCHED_GETAFFINITY(0)
    monkeypatch.setattr(parts, "CPU_QUOTA_FILES", ())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    made, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    yield made
    SCHED_SETAFFINITY(0, mask)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def pins(monkeypatch):
    """The masks this process passes to sched_setaffinity, which still
    sets them; a forked part's own calls stay in its copy."""
    calls = []

    def record(pid, cpus):
        calls.append(set(cpus))
        SCHED_SETAFFINITY(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", record)
    return calls
