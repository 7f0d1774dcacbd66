import os
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from ubd.census import (
    CensusResult,
    LatticeTriple,
    enumerate_triples,
    euler_phi,
    s_count,
    ubd_lower_bound_experiment,
    _sigma_sum,
)

from helpers import join_is_full, join_is_full_snf


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
    """The O(X) loop over l of the displayed sum for S(X)."""
    total = 0
    for l in range(1, X):
        c = -(-X // l)
        total += c * (c - 1) // 2
    return total


def _prime_divisors(n):
    return [q for q in range(2, n + 1) if n % q == 0
            and all(q % r for r in range(2, q))]


def _reference_experiment(b, X):
    """The O(X log X) loop over the pairs (l, m): (full count, restricted
    count)."""
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


@st.composite
def shared_prime_triples(draw):
    """(b, X) with s, v and u built from subsets of the first six primes, so
    that s and v share primes and every local weight factor occurs: q | s
    alone, q | v alone, and q | s*v with q | u (three terms) or not."""
    def subset_product():
        return prod(q for q in (2, 3, 5, 7, 11, 13) if draw(st.booleans()))
    s = subset_product() * draw(st.integers(1, 4))
    v = subset_product() * draw(st.integers(1, 4))
    u = subset_product() * draw(st.integers(0, 3)) % v
    return LatticeTriple(s, u, v), draw(st.integers(4, 2000))


@settings(max_examples=80, deadline=None)
@given(shared_prime_triples())
def test_weights_built_prime_by_prime_equal_the_loop_over_pairs(case):
    b, X = case
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
    # a kernel that lists the isqrt(N) = 10^5 quotients peaks near 4 MiB
    for X in (20000, 10 ** 10):
        for count in (lambda: s_count(X), lambda: ubd_lower_bound_experiment(
                LatticeTriple(11, 3, 12), X)):
            tracemalloc.start()
            try:
                count()
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


# ----------------------------------------------------------------------
# The divisor-sum kernel D_sigma(N) = sum_{n <= N} sigma(n) and the two
# identities that read the census counts off it.
# ----------------------------------------------------------------------

def test_sigma_sum_equals_the_summed_divisor_sums():
    N = 2000
    sigma = [0] * (N + 1)
    for d in range(1, N + 1):
        for n in range(d, N + 1, d):
            sigma[n] += d
    total = 0
    for n in range(N + 1):
        total += sigma[n]
        assert _sigma_sum(n) == total, n


def _join_weights(b):
    """The (e, mu(e)) over e | rad s and the (d, d*w(d)) over d | rad v that
    the experiment's docstring defines."""
    s, u = b.l, b.n
    mobius, dw = [(1, 1)], [(1, 1)]
    for q in _prime_divisors(s):
        mobius += [(e * q, -mu) for e, mu in mobius]
    for q in _prime_divisors(b.m):
        c = -1 if s % q else -q if u % q == 0 else 0
        dw += [(d * q, w * c) for d, w in dw]
    return mobius, dw


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 210), st.integers(0, 209), st.integers(1, 210),
       st.integers(4, 3000))
def test_both_counts_are_kernel_sums(s, u, v, X):
    # S(X) = D_sigma(X - 1); full = sum mu(e)*d*w(d)*D_sigma((X-1)//(e*d))
    assert _sigma_sum(X - 1) == _reference_s_count(X)
    b = LatticeTriple(s, u % v, v)
    mobius, dw = _join_weights(b)
    assert sum(mu * w * _sigma_sum((X - 1) // (e * d))
               for e, mu in mobius for d, w in dw) == \
        _reference_experiment(b, X)[0]


# pi lies strictly between these two 15-digit truncations
PI_LOW = Fraction(314159265358979, 10 ** 14)
PI_HIGH = Fraction(314159265358980, 10 ** 14)


def _c(b):
    """c(b) = sum mu(e) * d*w(d) / (e*d)^2, the limit of full_count / X^2
    divided by pi^2/12, since D_sigma(N) / N^2 tends to pi^2/12."""
    mobius, dw = _join_weights(b)
    return sum(Fraction(mu * w, (e * d) ** 2)
               for e, mu in mobius for d, w in dw)


@pytest.mark.parametrize("b,c", [
    ((11, 3, 12), Fraction(80, 121)), ((2, 1, 2), Fraction(3, 4)),
    ((6, 1, 10), Fraction(16, 25)), ((13, 5, 7), Fraction(1152, 1183))])
def test_full_count_over_x_squared_tends_to_c_pi_squared_over_12(b, c):
    b = LatticeTriple(*b)
    assert _c(b) == c
    X, tol = 10 ** 8, Fraction(1, 10 ** 6)
    ratio = ubd_lower_bound_experiment(b, X).ratio
    assert c * PI_LOW ** 2 / 12 - tol < ratio < c * PI_HIGH ** 2 / 12 + tol
