"""The reference loop that the end-to-end times are scaled against.

Machines shared with other tenants run the same code 15-25 % slower or
faster from one minute to the next, and by the same factor for this loop
as for the program (correlation about 0.8 between adjacent measurements).
Each run times this loop between its rounds and quotes its times in
reference seconds: measured seconds times REF_SECONDS over the loop's
measured time. A change to the program moves them; a change of machine
speed mostly does not.
"""

from __future__ import annotations

import time

import numpy as np

REF_SECONDS = 0.02  # the loop's time on the machine the numbers are quoted for

_LANES = (np.arange(1 << 16, dtype=np.int64) * 2654435761) & ((1 << 30) - 1)
_TABLE = (np.arange(256, dtype=np.int64) * 40503) & 0xFFFF


def reference_seconds() -> float:
    """Time a fixed mix of Python integer work and numpy table lookups, the
    two kinds of work the program spends its time on."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc ^= (i * 2654435761) & 0xFFFF
    for _ in range(30):
        acc ^= int((_TABLE[_LANES & 0xFF] ^ _TABLE[(_LANES >> 8) & 0xFF])[acc & 0xFFFF])
    return time.perf_counter() - t0
