"""The fixed exact-rational computation that sets the benchmark's reference speed.

Every time the benchmark reports is multiplied by NOMINAL_S / measured, where
measured is the mean time of reference_work() taken just before the
operation, every 0.5 s while it runs (with the operation paused) and just
after it. Slow and fast spells of a shared machine then cancel out of the
figures. The code imports nothing from ubd, so no change to the program can
move it.
"""

import time
from fractions import Fraction

# The median time of one reference_work() on the machine that set up the
# benchmark (2 vCPU, CPython 3.11); see perfbench/README.md.
NOMINAL_S = 0.056


def reference_work():
    """The first 80 coefficients of the fifth root of
    1/(1 - 12w + 54w^2 - 88w^3) over Q: Fraction products, sums and gcds
    on numbers that grow to a few hundred bits, as in the program's kernels."""
    terms, n = 80, 5
    a = [Fraction(1)]
    den = [1, -12, 54, -88]
    for k in range(1, terms):
        a.append(-sum(den[j] * a[k - j] for j in range(1, min(k, 3) + 1)))
    b = [Fraction(1)]
    for k in range(1, terms):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += (j * a[j]) * b[k - j]
        for j in range(1, k):
            acc -= (n * j) * (b[j] * a[k - j])
        b.append(acc / (n * k))
    return b[-1]


def measure(reps=5):
    """Wall times of `reps` runs of reference_work(), in seconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return times
