"""Shared fixtures and helpers."""
import os
from pathlib import Path

import pytest

from drtricks.models import MLP, load_checkpoint, save_checkpoint

# for tests that need work spread over two CPUs
TWO_CPUS = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")


@pytest.fixture
def cpus():
    """``cpus(k)`` pins this process to its first k CPUs, and so sets how many
    workers ``map_members`` uses; the mask is restored after the test."""
    mask = os.sched_getaffinity(0)
    yield lambda k: os.sched_setaffinity(0, sorted(mask)[:k])
    os.sched_setaffinity(0, mask)


def overflowing_model(path: Path, width: int) -> MLP:
    """A scalar model over ``width`` features, read back from a checkpoint at
    ``path`` whose theta is a fresh model's scaled by 1e170. Every parameter
    is finite, so the checkpoint loads, but the forward pass overflows: a fit
    with a huge learning rate can end there without a non-finite loss."""
    m = MLP([width, 32, 1], "scalar")
    m.theta *= 1e170
    save_checkpoint(path, m)
    return load_checkpoint(path)
