"""Shared fixtures."""
import os

import pytest

# for tests that need work spread over two CPUs
TWO_CPUS = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")


@pytest.fixture
def cpus():
    """``cpus(k)`` pins this process to its first k CPUs, and so sets how many
    workers ``map_members`` uses; the mask is restored after the test."""
    mask = os.sched_getaffinity(0)
    yield lambda k: os.sched_setaffinity(0, sorted(mask)[:k])
    os.sched_setaffinity(0, mask)
