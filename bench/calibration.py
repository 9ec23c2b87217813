"""Machine-speed calibration for the benchmark's timings.

The shared 2-vCPU machine the baseline was taken on changes speed by up to
about 40 % over minutes, which swamps any regression bound. Every timed
stretch of work is therefore bracketed by a fixed calibration kernel, and
a time ``t`` is reported as ``t * REF_S / ref``: seconds at the speed at
which the kernel takes ``REF_S``, where ``ref`` is the mean kernel time
measured just before and just after the work. The kernel is benchmark code
and never changes with drtricks, so a faster program still reads faster.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the baseline machine (2-vCPU Intel Xeon VM,
# Python 3.11, NumPy 2.4); the unit the reported seconds are expressed in.
REF_S = 0.025

_V = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
_W = np.linspace(-1.0, 1.0, 12).reshape(4, 3)


def _chunk(reps: int = 130) -> float:
    """Fixed NumPy work shaped like the segmenter: box sums, a 4x3 matmul,
    a sigmoid and an elementwise gradient on 64x64 arrays."""
    start = time.perf_counter()
    for _ in range(reps):
        c = np.cumsum(np.cumsum(_V, axis=0), axis=1)
        f = np.stack([_V, c / c.max(), np.roll(_V, 1, 0), np.roll(_V, 1, 1)],
                     axis=-1).reshape(-1, 4)
        p = 1.0 / (1.0 + np.exp(-(f @ _W)))
        g = (p - 0.5) / (p * (1.0 - p) + 1e-7)
        float((f.T @ g).sum())
    return time.perf_counter() - start


def reference_s(chunks: int = 9) -> float:
    """Median time of one kernel chunk now (about 0.2 s of work in all)."""
    return statistics.median(_chunk() for _ in range(chunks))


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two kernel readings to REF_S speed."""
    return REF_S / ((before + after) / 2.0)
