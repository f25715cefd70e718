"""Suite-wide fixtures."""

import multiprocessing
import os

import pytest


@pytest.fixture(autouse=True)
def no_process_outlives_the_test():
    """Fail a test that leaves a child process running or unreaped: every
    pool that ``train``, ``train_many`` or ``run_verification`` starts must be
    shut down before they return or raise."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running after the test: {left}"
    # active_children sees only multiprocessing's children, not a plain fork.
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    state = "running" if pid == 0 else f"unreaped (pid {pid}, wait status {status})"
    pytest.fail(f"a child process is still {state} after the test")
