"""Suite-wide checks."""

import os

import pytest

from dwrseg.cli import blas_threads, set_blas_threads
from dwrseg.engine import ops


def pytest_sessionstart(session):
    """Run the whole session at one BLAS thread, the count at which the
    README states its bitwise claims and the one `cli.main` sets, so no
    test's thread count depends on which tests ran before it."""
    set_blas_threads(1)


def pytest_report_collectionfinish(config):
    """The thread counts and heap policy every test of this run starts under.

    Printed after collection rather than as pytest_report_header, which
    pytest leaves out under -q.
    """
    in_force = "in force" if ops.MALLOPT and set(ops.MALLOPT.values()) == {1} else "not applied"
    return [f"dwrseg: BLAS threads {blas_threads() or 'unknown'} (set for the session), "
            f"band workers {ops.workers()}, allocator policy {in_force} {dict(ops.MALLOPT)}"]


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped.

    A non-blocking wait on any child raises ChildProcessError only when this
    process has none; otherwise it returns (0, 0) for a child still running,
    or reaps one that has ended and returns its pid.
    """
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"ended unreaped (pid {pid}, status {status})"
    pytest.fail(f"the test left a child process behind: {state}")
