"""The benchmark's oracles against brute force at small sizes.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

import oracles
from records import format_record, parse_records


def naive_product(steps_and_powers, length):
    """prod (prod_{n>=1} (1 - x^(step*n)))^r by repeated multiplication and
    term-by-term division."""
    out = [1] + [0] * (length - 1)
    for step, r in steps_and_powers:
        for _ in range(abs(r)):
            for n in range(1, length):
                if step * n >= length:
                    break
                e = step * n
                if r > 0:          # multiply by (1 - x^e)
                    for k in range(length - 1, e - 1, -1):
                        out[k] -= out[k - e]
                else:              # divide by (1 - x^e)
                    for k in range(e, length):
                        out[k] += out[k - e]
    return out


def test_pentagonal_matches_the_product():
    for step in (1, 2, 11):
        assert oracles.pentagonal(80, step) == naive_product([(step, 1)], 80)


@pytest.mark.parametrize("r", [-12, -3, -1, 0, 1, 2, 5, 12])
def test_miller_power_matches_repeated_products(r):
    a = oracles.pentagonal(60)
    assert oracles.miller_power(a, r, 60) == naive_product([(1, r)], 60)


def test_eta_quotient_matches_the_naive_product():
    lead, g5 = oracles.eta_quotient([(Fraction(1, 11), 12), (Fraction(1), -12)],
                                    11, 40)
    assert lead == -5
    assert g5 == naive_product([(1, 12), (11, -12)], 41)
    assert g5[:3] == [1, -12, 54]
    lead, zeta = oracles.eta_quotient([(Fraction(1), 2), (Fraction(13), -2)], 1, 40)
    assert lead == -1
    assert zeta == naive_product([(1, 2), (13, -2)], 41)
    with pytest.raises(ValueError):
        oracles.eta_quotient([(Fraction(1), 1)], 1, 10)   # lead 1/24


def sublattice_count(k):
    """Index-k sublattices of Z^2 as Hermite forms [[l, n], [0, m]]."""
    return sum(1 for l in range(1, k + 1) if k % l == 0
               for n in range(k // l))


def test_sigma_sum_counts_sublattices():
    for X in range(2, 120):
        assert oracles.sigma_sum(X) == sum(sublattice_count(k) for k in range(1, X))
    assert oracles.sigma_sum(10 ** 6) == oracles.sigma_sum(10 ** 6 - 1) + \
        sum(d for d in range(1, 10 ** 6) if (10 ** 6 - 1) % d == 0)


def hermite_index(rows):
    """Index of the lattice spanned by integer rows in Z^2: Euclid down the
    first column, then the gcd of what is left in the second."""
    rows = [list(r) for r in rows]
    while sum(1 for r in rows if r[0]) > 1:
        rows.sort(key=lambda r: abs(r[0]) if r[0] else float("inf"))
        pivot = rows[0]
        for r in rows[1:]:
            if r[0]:
                q = r[0] // pivot[0]
                r[0] -= q * pivot[0]
                r[1] -= q * pivot[1]
    head = [r for r in rows if r[0]]
    rest = 0
    for r in rows:
        if not r[0]:
            rest = gcd(rest, r[1])
    return abs(head[0][0]) * rest if head else 0


def minors_join_is_full(gamma, b):
    """Brute-force join test: the sublattices <l*e1 + n*e2, m*e2> and
    <s*e1 + u*e2, v*e2> generate Z^2 iff the 2x2 minors of their four
    generators have gcd 1."""
    (l, n, m), (s, u, v) = gamma, b
    rows = [(l, n), (0, m), (s, u), (0, v)]
    g = 0
    for i in range(4):
        for j in range(i + 1, 4):
            g = gcd(g, rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0])
    return g == 1


def test_minors_criterion_matches_row_reduction():
    rng = random.Random(5)
    for _ in range(400):
        gamma = (rng.randint(1, 9), 0, rng.randint(1, 9))
        gamma = (gamma[0], rng.randrange(gamma[2]), gamma[2])
        b = (rng.randint(1, 9), 0, rng.randint(1, 9))
        b = (b[0], rng.randrange(b[2]), b[2])
        rows = [(gamma[0], gamma[1]), (0, gamma[2]), (b[0], b[1]), (0, b[2])]
        assert minors_join_is_full(gamma, b) == (hermite_index(rows) == 1)


@pytest.mark.parametrize("b", [(1, 0, 1), (2, 1, 2), (3, 1, 6), (6, 5, 12),
                               (5, 2, 10), (4, 0, 8), (7, 3, 9), (11, 3, 9)])
def test_full_join_count_matches_enumeration(b):
    for X in (4, 17, 36, 60):
        brute = sum(1 for l in range(1, X) for m in range(1, (X - 1) // l + 1)
                    for n in range(m) if minors_join_is_full((l, n, m), b))
        assert oracles.full_join_count(b, X) == brute


def test_restricted_count_matches_enumeration():
    for s in (1, 2, 3, 6, 7, 12):
        for X in (4, 9, 30, 60):
            brute = sum(1 for m in range(1, X) for n in range(m)
                        if 2 * m > X and gcd(s, m) == 1)
            assert oracles.restricted_count(s, X) == brute


def laurent_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def test_curve_residual_on_the_determined_orders():
    assert oracles.curve_residual([5], 0, [5], 0) == (0, [0])   # (5, 5) is on the curve
    rng = random.Random(3)
    for _ in range(20):
        x = [rng.randint(-5, 5) for _ in range(rng.randint(8, 14))]
        y = [rng.randint(-5, 5) for _ in range(rng.randint(8, 14))]
        X = {k - 2: c for k, c in enumerate(x)}
        Y = {k - 3: c for k, c in enumerate(y)}
        full = laurent_mul(Y, Y)
        for k, c in Y.items():
            full[k] = full.get(k, 0) + c
        xx = laurent_mul(X, X)
        for k, c in laurent_mul(xx, X).items():
            full[k] = full.get(k, 0) - c
        for k, c in xx.items():
            full[k] = full.get(k, 0) + c
        for k, c in X.items():
            full[k] = full.get(k, 0) + 10 * c
        full[0] = full.get(0, 0) + 20
        lo, got = oracles.curve_residual(x, -2, y, -3)
        assert got == [full.get(lo + k, 0) for k in range(len(got))]


def test_root_witnesses_rational():
    rng = random.Random(7)
    for n in (2, 3, 5, 7):
        a = [Fraction(rng.randint(1, 9)), Fraction(rng.randint(-9, 9), 7),
             Fraction(rng.randint(-9, 9))]
        b1, b2 = oracles.root_witnesses(a, n)
        # (1 + b1 w + b2 w^2)^n = 1 + n b1 w + (n b2 + C(n,2) b1^2) w^2 + ...
        assert n * b1 == a[1] / a[0]
        assert n * b2 + n * (n - 1) // 2 * b1 * b1 == a[2] / a[0]


def test_root_witnesses_number_field():
    t = sympy.Symbol("t")
    f = [-2, 0, 1]                          # Q(sqrt 2)
    a = [(Fraction(1), Fraction(1)), (Fraction(3), Fraction(-1, 2)),
         (Fraction(0), Fraction(5))]
    n = 3
    b1, b2 = oracles.root_witnesses(a, n, f)
    F = sympy.Poly(t ** 2 - 2, t, domain="QQ")

    def poly(c):
        return sympy.Poly(c[0] + c[1] * t, t, domain="QQ")

    u1 = (poly(a[1]) * poly(a[0]).invert(F)).rem(F)
    u2 = (poly(a[2]) * poly(a[0]).invert(F)).rem(F)
    assert (poly(b1) * n - u1).is_zero
    assert (poly(b2) * n + (poly(b1) * poly(b1)).rem(F) * (n * (n - 1) // 2) - u2).rem(F).is_zero


def test_neg_ord_by_norm():
    sqrt2 = (Fraction(0), Fraction(1))
    assert oracles.neg_ord(sqrt2, 2, [-2, 0, 1]) == Fraction(-1, 2)
    one_plus_i = (Fraction(1), Fraction(1))
    assert oracles.neg_ord(one_plus_i, 2, [1, 0, 1]) == Fraction(-1, 2)
    third = (Fraction(1, 3), Fraction(0), Fraction(0))
    assert oracles.neg_ord(third, 3, [-2, 0, 0, 1]) == 1
    assert oracles.neg_ord(Fraction(-12, 7), 7) == 1


def test_record_round_trip():
    text = format_record(11, -5, [1, -12, Fraction(54, 7)])
    (rec,) = parse_records(text.splitlines())
    assert (rec.width, rec.lead, rec.truncation) == (11, -5, 2)
    assert rec.coeffs == [1, -12, Fraction(54, 7)]
    with pytest.raises(ValueError):
        rec.integers()
