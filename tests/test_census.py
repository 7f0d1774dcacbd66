import os
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ubd.census import (
    CensusResult,
    LatticeTriple,
    enumerate_triples,
    euler_phi,
    join_is_full,
    s_count,
    ubd_lower_bound_experiment,
)

from helpers import join_is_full_snf


def test_triple_validation():
    with pytest.raises(ValueError):
        LatticeTriple(0, 0, 1)
    with pytest.raises(ValueError):
        LatticeTriple(1, 2, 2)
    assert LatticeTriple(3, 1, 2).index == 6


def test_enumerate_examples():
    assert enumerate_triples(2) == [LatticeTriple(1, 0, 1)]
    got = set(enumerate_triples(3))
    assert got == {LatticeTriple(1, 0, 1), LatticeTriple(2, 0, 1),
                   LatticeTriple(1, 0, 2), LatticeTriple(1, 1, 2)}


def test_s_count_against_enumeration():
    for X in range(2, 80):
        assert s_count(X).count == len(enumerate_triples(X))


def test_s_count_against_double_sum():
    # independent evaluation of the displayed double sum at X = 10
    X = 10
    total = sum(m for l in range(1, X) for m in range(1, -(-X // l)))
    assert s_count(X).count == total


def test_s_count_monotone():
    prev = 0
    for X in range(2, 60):
        cur = s_count(X).count
        assert cur >= prev
        prev = cur


def test_ratio_brackets_pi_squared_over_12():
    r = s_count(2000).ratio
    assert Fraction(81, 100) < r < Fraction(835, 1000)
    # |ratio(2X) - ratio(X)| shrinks with X
    gaps = []
    for X in (250, 500, 1000):
        gaps.append(abs(s_count(2 * X).ratio - s_count(X).ratio))
    assert gaps[0] > gaps[1] > gaps[2]


def test_join_examples():
    b_triv = LatticeTriple(1, 0, 1)
    for gamma in enumerate_triples(12):
        assert join_is_full(gamma, b_triv)
    g = LatticeTriple(2, 0, 2)
    assert not join_is_full(g, LatticeTriple(2, 0, 2))


def test_join_agrees_with_snf_oracle():
    rng = random.Random(31)
    for _ in range(2000):
        l, m = rng.randint(1, 49), rng.randint(1, 49)
        s, v = rng.randint(1, 49), rng.randint(1, 49)
        gamma = LatticeTriple(l, rng.randrange(m), m)
        b = LatticeTriple(s, rng.randrange(v), v)
        assert join_is_full(gamma, b) == join_is_full_snf(gamma, b)


def test_lower_bound_trivial_b():
    exp = ubd_lower_bound_experiment(LatticeTriple(1, 0, 1), 100)
    assert exp.full_count == s_count(100).count


def test_lower_bound_experiment():
    exp = ubd_lower_bound_experiment(LatticeTriple(2, 1, 2), 100)
    assert exp.restricted_count >= exp.phi_bound
    # the restricted family is odd m in (50, 100), each contributing m triples
    assert exp.restricted_count == sum(m for m in range(51, 100, 2))
    assert exp.full_count <= s_count(100).count
    # the full-join ratio stays below the unrestricted pi^2/12 scale
    ratios = [ubd_lower_bound_experiment(LatticeTriple(2, 1, 2), X).ratio
              for X in (100, 200, 400)]
    for r in ratios:
        assert r < Fraction(835, 1000)
    assert ratios[-1] > Fraction(1, 4)  # comfortably quadratic


def test_lower_bound_counts_are_subsets():
    for b in (LatticeTriple(2, 1, 2), LatticeTriple(3, 0, 4),
              LatticeTriple(6, 2, 5)):
        exp = ubd_lower_bound_experiment(b, 60)
        assert exp.full_count <= s_count(60).count
        assert exp.restricted_count >= exp.phi_bound


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


def test_sorted_prefix_matches_enumeration():
    # counting by sorted index prefixes is exactly counting enumerate(X)
    triples = enumerate_triples(120)
    idx = sorted(t.index for t in triples)
    for X in range(2, 121):
        assert bisect_left(idx, X) == s_count(X).count


# ----------------------------------------------------------------------
# The per-(l, m) counts against enumeration, which they replaced.
# ----------------------------------------------------------------------

def _reference_s_count(X):
    """The O(X) loop over l that s_count's quotient blocks replaced."""
    total = 0
    for l in range(1, X):
        c = -(-X // l)
        total += c * (c - 1) // 2
    return total


def _prime_divisors(n):
    return [q for q in range(2, n + 1) if n % q == 0
            and all(q % r for r in range(2, q))]


def _reference_experiment(b, X):
    """The O(X log X) loop over the pairs (l, m) that the quotient blocks
    replaced: (full count, restricted count)."""
    s, u, primes = b.l, b.n, _prime_divisors(b.m)
    full = 0
    for l in (l for l in range(1, X) if gcd(s, l) == 1):
        for m in range(1, (X - 1) // l + 1):
            count = m
            for q in primes:
                if m % q == 0:
                    count = (count // q * (q - 1) if s % q
                             else count if u * l % q else 0)
            full += count
    restricted = sum(m for m in range(X // 2 + 1, X) if gcd(s, m) == 1)
    return full, restricted


@st.composite
def census_inputs(draw):
    v = draw(st.integers(1, 30))
    b = LatticeTriple(draw(st.integers(1, 30)), draw(st.integers(0, v - 1)), v)
    return b, draw(st.integers(4, 60))


@settings(max_examples=150, deadline=None)
@given(census_inputs())
def test_full_count_equals_both_join_oracles(case):
    b, X = case
    triples = enumerate_triples(X)
    full = ubd_lower_bound_experiment(b, X).full_count
    assert full == sum(join_is_full(g, b) for g in triples)
    assert full == sum(join_is_full_snf(g, b) for g in triples)


@settings(max_examples=150, deadline=None)
@given(census_inputs())
def test_restricted_count_equals_enumeration_filter(case):
    b, X = case
    assert ubd_lower_bound_experiment(b, X).restricted_count == sum(
        1 for g in enumerate_triples(X)
        if g.l == 1 and 2 * g.m > X and g.m < X and gcd(b.l, g.m) == 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2310), st.integers(0, 2309), st.integers(1, 2310),
       st.integers(4, 10 ** 4))
def test_experiment_equals_the_loop_over_pairs(s, u, v, X):
    # s and v up to 2310 = 2*3*5*7*11 reach four and five distinct primes
    b = LatticeTriple(s, u % v, v)
    exp = ubd_lower_bound_experiment(b, X)
    assert (exp.full_count, exp.restricted_count) == _reference_experiment(b, X)


def test_experiment_equals_the_loop_at_the_benchmark_triples():
    for b in (LatticeTriple(11, 3, 12), LatticeTriple(13, 5, 30),
              LatticeTriple(6, 2, 30), LatticeTriple(2, 1, 2)):
        for X in (4, 5, 800, 1101):
            exp = ubd_lower_bound_experiment(b, X)
            assert (exp.full_count, exp.restricted_count) == \
                _reference_experiment(b, X)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5000))
def test_s_count_equals_the_loop_over_l(X):
    assert s_count(X) == CensusResult(X, _reference_s_count(X))


def test_s_count_at_a_million_equals_the_divisor_sum():
    # S(X) counts the pairs l*m <= X-1 weighted by m: sum_d d*floor((X-1)/d)
    X = 10 ** 6
    assert s_count(X).count == sum(d * ((X - 1) // d) for d in range(1, X))


def test_experiment_memory_stays_bounded():
    tracemalloc.start()
    try:
        ubd_lower_bound_experiment(LatticeTriple(11, 3, 12), 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_census_at_ten_billion_finishes(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ubd", "census", "--xmax", "10000000000"],
        capture_output=True, timeout=10,
        env=dict(os.environ, UBD_CACHE_DIR=str(tmp_path)))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.startswith(b"10000000000\t")
