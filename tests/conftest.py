"""Markers that a test module cannot carry itself, and checks on child processes and threads."""

import os
import threading

import pytest


def pytest_collection_modifyitems(items):
    # each test of test_bench_digests.py runs a full benchmark invocation
    for item in items:
        if item.path.name == "test_bench_digests.py":
            item.add_marker(pytest.mark.slow)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or not reaped."""
    yield
    left = []
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            left.append("one still running")
            break
        left.append(f"pid {pid} exited with status {status} and was not reaped")
    if left:
        pytest.fail("the test left child processes: " + "; ".join(left))


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves a Python thread alive: ``numerics._fork_map``
    forks only while the calling thread is the only one.

    A thread the test started gets a second to finish, as a cancelled timer needs.
    """
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    for thread in left:
        thread.join(timeout=1.0)
    alive = [t.name for t in left if t.is_alive()]
    if alive:
        pytest.fail("the test left threads alive: " + ", ".join(alive))


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count that ``numerics._fork_map`` reads; 1 keeps it in-process."""
    def set_count(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_count


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes that this process forks during the test."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids
