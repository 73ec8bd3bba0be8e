"""Machine-speed probe that the benchmark's timings are scaled by.

On a shared machine the same code runs at very different speeds from one
minute to the next: here a fixed Fraction loop read 21-34 ms in 5-second
bins, and repeated ``analyze`` calls drifted 47-54 ms between 15-second bins.
The benchmark therefore runs ``probe`` (about 2.5 ms of pure-Python Fraction
work, like the program's exact layers) before and after every timed call and
reports the call's time scaled to a machine where the probe takes
``REFERENCE_S``: the same 15-second bins then read 41.8-43.1 ms.  The raw
times are reported next to the scaled ones.
"""

import time
from fractions import Fraction

REFERENCE_S = 0.0025


def probe():
    """Seconds this machine takes for a fixed Fraction loop right now."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - start


def scaled(seconds, before, after):
    """``seconds`` at reference speed, from the probes around the call."""
    return seconds * REFERENCE_S / ((before + after) / 2)
