"""Host-speed probe: a fixed piece of pure-Python exact arithmetic.

Usage: python calib.py

Reads one line per probe on stdin and answers each with one line holding
the seconds the kernel took.  The kernel is the same kind of work biops
does (dict polynomials with big integer coefficients, Fraction
evaluation) but shares no code with it, so no change to biops moves it.
run.py probes between requests, all through the run, and scales its
times by REFERENCE_S / (10th percentile of the probes): a run in which
the shared host runs everything slower then reads the same as a quiet one.
"""

import sys
import time
from fractions import Fraction

# 10th percentile of the kernel's time on the machine the benchmark was
# tuned on (2-core x86-64 VM, Python 3.11.7); scaled times are seconds on
# that machine.
REFERENCE_S = 0.013


def _pmul(p, q):
    out = {}
    for (i, j), c in p.items():
        for (k, l), d in q.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return out


def kernel():
    q = {(1, 0): 3, (0, 1): 5, (0, 0): -7}
    a, b = Fraction(3, 7), Fraction(5, 2)
    total = Fraction(0)
    for _ in range(3):
        p = {(0, 0): 1}
        for _ in range(24):
            p = _pmul(p, q)
        total += sum(c * a ** i * b ** j for (i, j), c in p.items())
    return total


def main():
    for _ in sys.stdin:
        t0 = time.perf_counter()
        kernel()
        sys.stdout.write(f"{time.perf_counter() - t0!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
