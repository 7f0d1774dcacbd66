"""Independent computations that the benchmark checks ubd's outputs against.

Nothing here imports ubd. Each oracle takes another route to the answer than
the program does, and perfbench/test_oracles.py checks each one against brute
force at small sizes.
"""

from fractions import Fraction
from math import gcd

import sympy


# ----------------------------------------------------------------------
# Eta quotients: Euler's pentagonal series and the J.C.P. Miller recurrence.
# ----------------------------------------------------------------------

def pentagonal(length, step=1):
    """prod_{n>=1} (1 - x^(step*n)) up to x^(length-1), from Euler's
    pentagonal number theorem: sum over all integers k of
    (-1)^k x^(step*k*(3k-1)/2)."""
    out = [0] * length
    k = 0
    while True:
        g1 = step * k * (3 * k - 1) // 2
        g2 = step * k * (3 * k + 1) // 2
        if g1 >= length:
            break
        sign = -1 if k % 2 else 1
        out[g1] += sign
        if k and g2 < length:
            out[g2] += sign
        k += 1
    return out


def miller_power(a, r, length):
    """(a)^r up to x^(length-1) for an integer series with a[0] = 1 and any
    integer r, by the power recurrence
    k*b_k = sum_{j=1..k} ((r+1)*j - k) * a_j * b_(k-j)."""
    if a[0] != 1:
        raise ValueError("the power recurrence needs a[0] = 1")
    support = [j for j in range(1, min(len(a), length)) if a[j]]
    b = [0] * length
    b[0] = 1
    for k in range(1, length):
        acc = 0
        for j in support:
            if j > k:
                break
            if b[k - j]:
                acc += ((r + 1) * j - k) * a[j] * b[k - j]
        q, rem = divmod(acc, k)
        if rem:
            raise ArithmeticError("power recurrence left a remainder")
        b[k] = q
    return b


def mul_trunc(a, b, length):
    """Product of two integer series up to x^(length-1), skipping zeros."""
    nz_b = [(j, c) for j, c in enumerate(b[:length]) if c]
    out = [0] * length
    for i, ai in enumerate(a[:length]):
        if ai:
            for j, bj in nz_b:
                if i + j >= length:
                    break
                out[i + j] += ai * bj
    return out


def eta_quotient(terms, width, terms_wanted):
    """Expansion of prod eta(delta*z)^r in w = q^(1/width).

    terms is a list of (delta, r) with delta a positive Fraction. Returns
    (lead, coefficients of w^lead .. w^(lead + terms_wanted)).
    """
    lead = sum(Fraction(r) * d * width for d, r in terms) / 24
    if lead.denominator != 1:
        raise ValueError("the leading exponent is not an integer at this width")
    length = terms_wanted + 1
    out = [1] + [0] * (length - 1)
    for d, r in terms:
        step = Fraction(width) * d
        if step.denominator != 1:
            raise ValueError("width * delta must be an integer")
        out = mul_trunc(out, miller_power(pentagonal(length, int(step)), r,
                                          length), length)
    return int(lead), out


# ----------------------------------------------------------------------
# The sublattice census.
# ----------------------------------------------------------------------

def sigma_sum(X):
    """S(X) = sum_{k<X} sigma(k), sigma(k) the number of index-k sublattices
    of Z^2 (= the divisor sum of k), as sum_d d * floor((X-1)/d) in blocks
    of constant quotient."""
    n = X - 1
    total = 0
    d = 1
    while d <= n:
        q = n // d
        hi = n // q
        total += q * (d + hi) * (hi - d + 1) // 2
        d = hi + 1
    return total


def _prime_factors(n):
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def join_count_for(l, m, b):
    """Number of n in [0, m) whose triple (l, n, m) joins fully with
    b = (s, u, v): zero unless gcd(s, l) = 1, else
    m * prod_{q | gcd(v, m)} (q does not divide s ? 1 - 1/q : [q does not divide u*l])."""
    s, u, v = b
    if gcd(s, l) != 1:
        return 0
    count = m
    for q in _prime_factors(gcd(v, m)):
        if s % q:
            count = count // q * (q - 1)
        elif (u * l) % q == 0:
            return 0
    return count


def full_join_count(b, X):
    """Triples (l, n, m) with l*m < X that join fully with b, summed per (l, m)."""
    return sum(join_count_for(l, m, b)
               for l in range(1, X) for m in range(1, (X - 1) // l + 1))


def restricted_count(s, X):
    """Triples with l = 1, X/2 < m < X and gcd(s, m) = 1: each such m
    contributes its m choices of n."""
    return sum(m for m in range(X // 2 + 1, X) if gcd(s, m) == 1)


# ----------------------------------------------------------------------
# The curve y^2 + y = x^3 - x^2 - 10x - 20 on integer series.
# ----------------------------------------------------------------------

def curve_residual(x, x_lead, y, y_lead):
    """Coefficients of y^2 + y - (x^3 - x^2 - 10x - 20) on the orders that
    the two truncated series determine, as (first order, list)."""
    lo = min(2 * y_lead, 3 * x_lead)
    hi = min(2 * y_lead + len(y), 3 * x_lead + len(x))
    xx = mul_trunc(x, x, hi - 3 * x_lead)
    terms = [(mul_trunc(y, y, hi - 2 * y_lead), 2 * y_lead, 1),
             (y, y_lead, 1),
             (mul_trunc(xx, x, hi - 3 * x_lead), 3 * x_lead, -1),
             (xx, 2 * x_lead, 1),
             (x, x_lead, 10),
             ([20], 0, 1)]
    out = [0] * (hi - lo)
    for series, lead, scale in terms:
        for i, c in enumerate(series):
            if lead + i >= hi:
                break
            out[lead + i - lo] += scale * c
    return lo, out


# ----------------------------------------------------------------------
# Root witnesses: the binomial series and a norm from a resultant.
# ----------------------------------------------------------------------

_T = sympy.Symbol("t")


def _field_poly(coords):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coords)], _T, domain="QQ")


def _coords(poly, degree):
    out = [Fraction(0)] * degree
    for (k,), c in poly.terms():
        out[k] = Fraction(int(c.p), int(c.q))
    return tuple(out)


def root_witnesses(a, n, defining_poly=None):
    """b_1, b_2 of the n-th root of the unit series a/a_0, from the binomial
    series (1 + z)^(1/n) = 1 + z/n + (1/n)(1/n - 1)/2 z^2 + ...

    a holds a_0, a_1, a_2 as coordinate tuples in the power basis of
    Q[t]/(defining_poly), or as Fractions when defining_poly is None.
    """
    if defining_poly is None:
        c1, c2 = Fraction(a[1]) / a[0], Fraction(a[2]) / a[0]
        b1 = c1 / n
        return b1, c2 / n + Fraction(1, n) * (Fraction(1, n) - 1) / 2 * c1 * c1
    f = sympy.Poly(list(reversed(defining_poly)), _T, domain="QQ")
    inv0 = sympy.invert(_field_poly(a[0]), f)
    c1 = (_field_poly(a[1]) * inv0).rem(f)
    c2 = (_field_poly(a[2]) * inv0).rem(f)
    b1 = c1 * sympy.Rational(1, n)
    b2 = (c2 * sympy.Rational(1, n)
          + (c1 * c1).rem(f) * sympy.Rational(1 - n, 2 * n * n))
    degree = len(defining_poly) - 1
    return _coords(b1, degree), _coords(b2, degree)


def val_p(r, p):
    r = Fraction(r)
    if r == 0:
        raise ValueError("the valuation of 0 is infinite")
    v = 0
    num, den = r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def neg_ord(value, p, defining_poly=None):
    """-ord_p of a rational, or of a number-field element at the unique prime
    above p, normalised so that ord(p) = 1: v_p(N(value)) / [K:Q], with the
    norm taken as the resultant of the defining polynomial and the element."""
    if defining_poly is None:
        return Fraction(-val_p(value, p))
    f = sympy.Poly(list(reversed(defining_poly)), _T, domain="QQ")
    norm = sympy.resultant(f.as_expr(), _field_poly(value).as_expr(), _T)
    norm = sympy.Rational(norm)
    return -Fraction(val_p(Fraction(int(norm.p), int(norm.q)), p),
                     len(defining_poly) - 1)
