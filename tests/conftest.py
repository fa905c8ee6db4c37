"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def _no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped.

    ``time_series`` forks, and must kill and reap every child before it
    returns or raises; a leaked child would otherwise go unseen.
    Unreaped children are reaped here, so the next test starts clean.
    """
    yield
    left = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            left.append("a running child")
            break
        left.append(f"unreaped child {pid}")
    if left:
        pytest.fail(f"test left {', '.join(left)} behind")


@pytest.fixture
def set_cpus(monkeypatch):
    """``set_cpus(count)`` makes the fork helper see ``count`` CPUs.

    The fork check is passed too: this process may hold native threads (a
    BLAS pool once numpy is loaded), which make the real one refuse.
    """
    from countertwist import evolution

    def set_count(count):
        monkeypatch.setattr(evolution, "_cpu_count", lambda: count)
        monkeypatch.setattr(evolution, "_may_fork", lambda: True)

    return set_count


@pytest.fixture
def forks(monkeypatch):
    """Wrap os.fork; the list holds one entry per fork made."""
    made, fork = [], os.fork

    def counted():
        made.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made
