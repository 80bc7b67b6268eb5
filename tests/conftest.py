"""Shared fixtures."""

import time

import pytest
from hypothesis import settings

from jointnet import run_battery

# Property tests draw the same examples on every run, and a slow example
# is not a failure: the suite stays deterministic.
settings.register_profile("jointnet", derandomize=True, max_examples=150,
                          deadline=None, database=None)
settings.load_profile("jointnet")


@pytest.fixture(scope="session")
def reference_battery():
    """The gradcheck battery at seed 0, run once per session: (results,
    wall seconds of the run)."""
    start = time.monotonic()
    results = run_battery(seed=0)
    return results, time.monotonic() - start
