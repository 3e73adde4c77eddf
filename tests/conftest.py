"""Suite-wide checks."""

import os

import pytest


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
