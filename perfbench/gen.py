"""Seeded inputs of the benchmark's workloads, made without ubd.

    python3 perfbench/gen.py --seed N --out DIR

writes the `series` workload's detector inputs to DIR and prints the census
triples of that seed. The same seed always gives the same files.
"""

import argparse
import os
import random
from fractions import Fraction

import oracles
from records import format_record

DETECT_TERMS = 300
# the median census command then takes one to two seconds, long enough to be
# timed steadily (a 0.6-second one at X = 600 spread twice as wide)
CENSUS_XS = (800, 1100, 1400)


def integral_unit_series(rng, length):
    """1 + g_1 w + ... with random integers |g_k| <= 9."""
    return [1] + [rng.randint(-9, 9) for _ in range(length - 1)]


def power(g, n, length):
    out = [1] + [0] * (length - 1)
    for _ in range(n):
        out = oracles.mul_trunc(out, g, length)
    return out


def detect_inputs(seed):
    """name -> (record text, prime, root degree, expected status) for the
    `series` workload's `detect --series-file` operations.

    g^3 and g^5 have an integral n-th root g, so their roots stay bounded and
    the detector scans all DETECT_TERMS coefficients. G5 = (eta(z/11)/eta(z))^12
    at p = n = 7 and zeta = (eta(z)/eta(13z))^2 at p = n = 3 are certified at
    m = 1.
    """
    rng = random.Random(seed)
    length = DETECT_TERMS + 1
    out = {}
    for n in (3, 5):
        g = integral_unit_series(rng, length)
        out[f"g{n}"] = (format_record(1, 0, power(g, n, length)), n, n,
                        "BoundedSoFar")
    lead, g5 = oracles.eta_quotient([(Fraction(1, 11), 12), (Fraction(1), -12)],
                                    11, DETECT_TERMS)
    out["G5"] = (format_record(11, lead, g5), 7, 7, "UnboundedCertified")
    lead, zeta = oracles.eta_quotient([(Fraction(1), 2), (Fraction(13), -2)],
                                      1, DETECT_TERMS)
    out["zeta"] = (format_record(1, lead, zeta), 3, 3, "UnboundedCertified")
    return out


def census_triples(seed):
    """One canonical comparison triple b = (s, u, v), 0 <= u < v, per X in
    CENSUS_XS. s is 11 or 13 so that the seed barely changes the amount of
    work: join_is_full stops early on the triples with gcd(s, l) > 1, a third
    of them for s = 3 (which makes the command about 10 % faster)."""
    rng = random.Random(f"census-{seed}")
    out = []
    for X in CENSUS_XS:
        s = rng.choice((11, 13))
        v = rng.randint(2, 12)
        out.append((X, (s, rng.randrange(v), v)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for name, (text, p, n, expect) in detect_inputs(args.seed).items():
        path = os.path.join(args.out, f"{name}.series")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"{path}: --prime {p} --root {n}, expect {expect}")
    for X, b in census_triples(args.seed):
        print(f"census --xmax {X} --b {','.join(map(str, b))}")


if __name__ == "__main__":
    main()
