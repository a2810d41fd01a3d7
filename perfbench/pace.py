"""Machine speed reference: a fixed computation the benchmark owns.

The shared machine the benchmark runs on changes speed by up to 1.8x from
one stretch of seconds or minutes to the next, and the same CLI call on the
same input follows it.  A latency divided by the time of a fixed reference
computation measured next to it cancels most of that drift, while a change
in the program still shows in full, since the reference does not call it.

The reference is the benchmark's own Fraction determinant (rational.det) of
one fixed 9x9 rational matrix: pure-Python arithmetic on small integers and
Fractions, like the program's.  A scaled latency reads as the latency on a
machine on which one reference chunk takes NOMINAL_S.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from rational import det

NOMINAL_S = 0.004  # about one chunk at a quiet moment on a shared 2-core container
CHUNKS = 3         # a reference is the median of this many chunks
DETS = 4           # determinants per chunk

_rng = random.Random("reference")
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(9)]
           for _ in range(9)]


def reference_s() -> float:
    """Median time of CHUNKS chunks of the fixed reference computation."""
    times = []
    for _ in range(CHUNKS):
        start = time.perf_counter()
        for _ in range(DETS):
            det(_MATRIX)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that takes a latency measured between two references to NOMINAL_S."""
    return NOMINAL_S / ((before + after) / 2)
