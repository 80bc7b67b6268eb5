"""Shared fixtures."""

import time

import pytest

from jointnet import run_battery


@pytest.fixture(scope="session")
def reference_battery():
    """The gradcheck battery at seed 0 and tolerance 1e-4, run once per
    session: (results, wall seconds of the run)."""
    start = time.monotonic()
    results = run_battery(seed=0, tolerance=1e-4)
    return results, time.monotonic() - start
