"""Suite-wide fixtures."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_outlives_the_test():
    """Fail a test that leaves a child process running: every pool that
    ``train``, ``train_many`` or ``run_verification`` starts must be shut
    down before they return or raise."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running after the test: {left}"
