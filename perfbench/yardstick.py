"""A fixed stdlib-only program whose wall time gauges the machine's speed.

run.py starts it as a fresh process between the ops it times and divides
their times by how much slower than REF_YARDSTICK_S it ran (see run.py).
Like an addtheo op it pays interpreter start-up and module imports, then
exact rational arithmetic over dicts keyed by exponent tuples.  It must not
import addtheo or anything outside the standard library, and must never
change: both sides of a comparison have to run the same yardstick.
"""

import argparse  # noqa: F401  (import cost, as in the CLI)
import dataclasses  # noqa: F401
import json  # noqa: F401
from fractions import Fraction


def work():
    poly = {}
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i, i + 3) * Fraction(7, 11)
        mono = (i % 37, i % 11, i % 5)
        poly[mono] = poly.get(mono, Fraction(0)) + acc / (i + 1)
    return sum(poly.values())


if __name__ == "__main__":
    work()
