"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants the same operation on the same input
runs up to 2.4x slower for stretches of seconds to minutes, in CPU time as
well as in wall time.  Every timing the benchmark reports is
therefore scaled to a reference speed: the benchmark runs ``kernel`` next
to the work it times, and a time t measured while the kernel took c
seconds is reported as t * REF_S / c.  A run on a host where the kernel
takes REF_S seconds reports raw seconds.

The kernel mixes what branchnet's hot paths do (tuple building, dict
bucketing and float math in the interpreter, small vectorized numpy
passes) and never calls branchnet, so no change to the library moves it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_S = 0.0048  # kernel time on an idle 2-vCPU x86-64 guest, Python 3.11, numpy 2.4
WINDOW = 4  # a sample is scaled by the median kernel time of its 2*WINDOW+1 neighbours


def kernel() -> float:
    """A fixed unit of interpreter and numpy work (about REF_S seconds).

    The arrays are allocated afresh on every call, so no single memory
    layout of one process decides its speed.
    """
    rng = np.random.default_rng(12345)
    points = rng.uniform(0.0, 1.0, (1500, 2))
    seg_a = rng.uniform(0.0, 1.0, (150, 2))
    seg_b = rng.uniform(0.0, 1.0, (150, 2))
    cells: dict = {}
    acc = 0.0
    prev = (0.0, 0.0)
    for row in points:
        p = tuple(float(c) for c in row)
        key = tuple(int(math.floor(c * 32.0)) for c in p)
        cells.setdefault(key, []).append(p)
        acc += math.dist(p, prev)
        prev = p
    d = seg_b - seg_a
    ii, jj = np.triu_indices(len(d), 1)
    acc += float(np.abs(np.sum(d[ii] * d[jj], axis=1)).sum())
    acc += float(np.linalg.norm(seg_a[jj] - seg_a[ii], axis=1).sum())
    return acc + len(cells)


def sample() -> float:
    """Wall time of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scales(samples: list[float]) -> list[float]:
    """REF_S / (median kernel time around each sample), one factor per sample."""
    out = []
    for i in range(len(samples)):
        near = samples[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(REF_S / statistics.median(near))
    return out
