"""The reference loop: fixed work that measures how fast the machine runs now.

The host this benchmark runs on is shared, and its speed drifts by a large
factor within minutes.  ``run.py`` therefore samples this loop between tasks
and reports a pass's CPU time in units of the loop's CPU time measured
alongside it (``pass_cpu_ref``).  A drift that slows both by the same factor
cancels; a change to bohrlab moves the numerator only.

The loop mixes the kinds of work bohrlab does, in about equal parts:
interpreted Python (recursion over integer partitions with factorials,
tuple-keyed dict updates) and numpy powers and products over a few
megabytes, like the kernel's (points, terms, variables) power tensors.  It
calls nothing in bohrlab.
Changing it changes the unit of ``pass_cpu_ref``: results before and after
such a change cannot be compared.
"""

from __future__ import annotations

import math
import time

import numpy as np

_X = np.linspace(0.5, 1.0, 200 * 256 * 16).reshape(200, 256, 16)


def _partitions(n: int, k: int, parts: list[int]) -> int:
    """Number of partitions of n with parts <= k, visiting each one."""
    if n == 0:
        return math.prod(math.factorial(p) for p in parts) % 7 + 1
    total = 0
    for j in range(min(n, k), 0, -1):
        parts.append(j)
        total += _partitions(n - j, j, parts)
        parts.pop()
    return total


def _work() -> float:
    total = float(_partitions(26, 26, []))
    counts: dict[tuple[int, int], int] = {}
    for i in range(40000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    total += len(counts)
    for k in range(2, 5):
        total += float((_X**k).prod(axis=2).sum())
    return total


def cpu_seconds() -> float:
    """CPU time of the calling thread for one run of the loop."""
    t0 = time.thread_time()
    _work()
    return time.thread_time() - t0
