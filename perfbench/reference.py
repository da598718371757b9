"""A fixed piece of pure-Python work that gauges how fast the machine runs now.

The benchmark runs on a few cores of a shared host whose speed drifts: a fixed
pure-Python loop timed every 0.1 s on a 2-vCPU Xeon guest took from 13 to
21 ms, in phases lasting from seconds to minutes.  A report timed at one
moment cannot be compared with one timed minutes later.  So every report is
timed between two runs of this reference work, and its time is scaled to the
machine speed at which the reference work takes exactly ``NOMINAL_S``:

    scaled = elapsed * NOMINAL_S / mean(reference before, reference after)

The work mixes what indalg's reports spend their time on: dict and str
operations on small ints, products and remainders of ~1,100-bit ints, and
``Fraction`` arithmetic.  It calls nothing in indalg, so a change to indalg
cannot change it.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Seconds the reference work is taken to last; about its median time on a
# 2.1 GHz Xeon core, so scaled times read close to wall times there.
NOMINAL_S = 0.003

_BIG = tuple((3 ** (700 + i)) | 1 for i in range(8))


def _work():
    table, acc = {}, 0
    for i in range(2500):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        acc += len(str(i * i))
    for i in range(250):
        a, b = _BIG[i % 8], _BIG[(i + 3) % 8]
        acc ^= (a * b) % (b >> 5 | 1)
    total = Fraction(0)
    for k in range(1, 250):
        total += Fraction(k % 7 + 1, k % 11 + 1) * Fraction(3, k)
    return acc, total


def time_reference() -> float:
    """Seconds one run of the reference work takes, with the cyclic GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
