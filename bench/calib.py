"""A fixed reference block that gauges how fast the machine runs right now.

The benchmark reports call times in *reference milliseconds*: a call's wall
time scaled by REF_S over the time this block took next to it.  On a shared
machine the speed of a core drifts by up to 3x over minutes as other tenants
come and go, and the drift moves the program and this block alike, so the
ratio between them holds much stiller than either alone.  The block is the
benchmark's own code and never calls jmokit: a change to the program moves
the program's times and not the gauge.

The block mixes what the workloads do in the interpreter: exact rational
arithmetic, integer loops, dict churn, float maths and string formatting, on
one thread.  It holds no numpy: numpy matrix code slowed by about half as
much as interpreted code in the same slow spells, and the calls of all three
workloads are mostly interpreted.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# Nominal duration of one block; the reference machine runs it in exactly
# this long.  On a 2-vCPU Xeon VM its median over a 25 s run ranged from 6.1
# to 12.6 ms across 60 runs, depending on the VM's neighbours.
REF_S = 0.010


def reference_block() -> int:
    acc = Fraction(0)
    for i in range(1, 400):
        f = Fraction(i, i + 7)
        acc += f * f - Fraction(1, i)
    table: dict[int, int] = {}
    for i in range(1, 16000):
        table[i % 97] = table.get(i % 97, 0) + (i * i) % 1009
    floats = [math.sin(0.001 * i) * math.sqrt(i) for i in range(8000)]
    text = ",".join(f"{x:.6f}" for x in floats[::4])
    return acc.denominator % 7 + len(table) + len(text)


def gauge() -> float:
    """Seconds one reference block takes now."""
    t0 = time.perf_counter()
    reference_block()
    return time.perf_counter() - t0


def speed() -> float:
    """Median time of three blocks after one warm-up block."""
    gauge()
    return statistics.median(gauge() for _ in range(3))
