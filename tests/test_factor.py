"""The pure-Python factorization over Z[x] of squarefree polynomials and the
irreducibility tests against sympy, which the tests keep as an oracle only;
the refusal of a repeated factor; the exact quotient in Z[x] and the
primitive part that the factorizer shares with the rational code; and the
dp_* helpers with their modulus argument: sums, differences, products and
powers modulo f against exact arithmetic over Z reduced mod m, and the
division, gcd and monic normalisation modulo m."""

import math
from fractions import Fraction
from itertools import zip_longest

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from ubd.ellcurve import division_polynomial
from ubd.exactnum import (
    NumberField,
    _deriv,
    _fp_ddf,
    _zx_exquo,
    content_primitive,
    dp_add,
    dp_divmod,
    dp_gcd,
    dp_monic,
    dp_mul,
    dp_powmod,
    dp_sub,
    dp_trim,
    factor_poly_q,
    poly_is_irreducible_modp,
    poly_is_irreducible_q,
)
from ubd.x011 import x11_curve

X = sympy.Symbol("x")


def _sympy_factor_list(c):
    """(content, sorted [(primitive factor, multiplicity)]) from sympy, with
    each factor's sign moved into the content."""
    poly = sympy.Poly([sympy.Rational(v.numerator, v.denominator)
                       for v in reversed(c)], X, domain="QQ")
    cont, factors = poly.factor_list()
    cont = Fraction(int(sympy.fraction(cont)[0]), int(sympy.fraction(cont)[1]))
    out = []
    for fac, mult in factors:
        coeffs = [int(v) for v in reversed(fac.all_coeffs())]
        g = math.gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
        cont *= g ** mult
        out.append(([v // g for v in coeffs], mult))
    return cont, sorted(out)


small_poly = st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.lists(st.integers(-12, 12), min_size=d, max_size=d),
    st.sampled_from([1, 1, 2, 3, -1, -4])).map(lambda t: t[0] + [t[1]]))


def _product(content, parts):
    c = [content]
    for f in parts:
        if len(c) - 1 + len(f) - 1 <= 12:
            c = dp_mul(c, f)
    return c


@settings(max_examples=150, deadline=None)
@given(st.lists(small_poly, min_size=1, max_size=4),
       st.fractions(min_value=-20, max_value=20, max_denominator=12)
       .filter(lambda r: r != 0))
def test_factor_list_matches_sympy(parts, content):
    c = _product(content, parts)
    want = _sympy_factor_list(c)
    assume(all(mult == 1 for _, mult in want[1]))  # squarefree products only
    cont, factors = factor_poly_q(c)
    assert (cont, sorted((f, 1) for f in factors)) == want
    assert all(f[-1] > 0 and math.gcd(*f) == 1 for f in factors)
    # the order is deterministic: degree, then coefficients from the top
    assert factors == sorted(factors, key=lambda f: (len(f), f[::-1]))


@settings(max_examples=100, deadline=None)
@given(small_poly, st.lists(small_poly, max_size=2),
       st.integers(-6, 6).filter(bool))
def test_factor_refuses_a_repeated_factor(g, parts, scale):
    c = dp_mul(dp_mul(g, g), _product(scale, parts))
    with pytest.raises(ValueError, match="not squarefree"):
        factor_poly_q(c)
    assert not poly_is_irreducible_q(c)


def test_factor_constants_and_zero():
    assert factor_poly_q([]) == (0, [])
    assert factor_poly_q([Fraction(-3, 7)]) == (Fraction(-3, 7), [])
    assert factor_poly_q([Fraction(-3, 2), 0, Fraction(3, 2)]) == \
        (Fraction(3, 2), [[-1, 1], [1, 1]])


def test_psi5_factor_degrees():
    psi5 = division_polynomial(5, x11_curve())
    cont, factors = factor_poly_q(psi5)
    assert cont == 1
    assert [len(f) - 1 for f in factors] == [1, 1, 2, 4, 4]


def test_swinnerton_dyer_quartic_is_irreducible():
    # x^4 - 10x^2 + 1 splits modulo every prime, so only recombination
    # shows it irreducible
    assert poly_is_irreducible_q([1, 0, -10, 0, 1])
    assert factor_poly_q([1, 0, -10, 0, 1]) == (1, [[1, 0, -10, 0, 1]])
    assert all(not poly_is_irreducible_modp([1, 0, -10, 0, 1], p)
               for p in (2, 3, 5, 7, 11, 13, 101))
    # the degree-8 one for sqrt 2, 3, 5 has at least four factors modulo
    # every prime, so pairs of lifted factors are tried as well
    s8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]
    assert factor_poly_q(dp_mul(s8, [1, 0, -10, 0, 1])) == \
        (1, [[1, 0, -10, 0, 1], s8])


def test_x4_plus_4_is_reducible():
    assert not poly_is_irreducible_q([4, 0, 0, 0, 1])
    assert factor_poly_q([4, 0, 0, 0, 1])[1] == [[2, -2, 1], [2, 2, 1]]


def test_irreducible_q_examples():
    assert not poly_is_irreducible_q([5])
    assert not poly_is_irreducible_q([1, 2, 1])   # (x + 1)^2
    assert poly_is_irreducible_q([Fraction(1, 2), 3])
    assert poly_is_irreducible_q([869405, 19255, 1360, 20, 1])
    assert poly_is_irreducible_q([-158, -40, -2, 1])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 10 ** 18 + 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_irreducible_modp_matches_sympy(p, data):
    n = data.draw(st.integers(1, 8))
    c = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    c.append(data.draw(st.integers(1, p - 1)))
    if data.draw(st.booleans()):  # g^2 mod p: never squarefree
        c = [int(x) % p for x in dp_mul(c, c)]
    expect = sympy.Poly(list(reversed(c)), X, modulus=p).is_irreducible
    assert poly_is_irreducible_modp(c, p) == expect


def test_number_field_rejects_reducible_polynomials():
    for coeffs in ([4, 0, 0, 0, 1], [-4, 0, 0, 0, 1],
                   [1, 2, 1], [6, -5, 1], [-1, 0, 0, 0, 0, 0, 1]):
        with pytest.raises(ValueError):
            NumberField(coeffs)
    NumberField([1, 0, -10, 0, 1])


def test_number_field_refuses_a_square():
    # (x^2 + 1)^2 and (x - 1)^2 (x + 2): repeated factors, not irreducible
    for coeffs in ([1, 0, 2, 0, 1], [2, -3, 0, 1]):
        with pytest.raises(ValueError, match="reducible over Q"):
            NumberField(coeffs)


def test_squarefree_of_psi5_and_of_a_constant():
    # E is nonsingular, so psi_5 is squarefree and factors; a nonzero
    # constant is squarefree and has no factor
    psi5 = division_polynomial(5, x11_curve())
    assert len(factor_poly_q(psi5)[1]) == 5
    assert factor_poly_q([1]) == (1, [])
    assert not poly_is_irreducible_q([3])


int_polys = st.lists(st.integers(-30, 30), max_size=6)


@settings(max_examples=150, deadline=None)
@given(int_polys, int_polys.map(dp_trim).filter(bool), int_polys)
def test_exact_quotient_in_z_x(q, b, r):
    assert _zx_exquo(dp_mul(q, b), b) == dp_trim(q)
    r = dp_trim(r[:len(b) - 1])  # a remainder, deg r < deg b
    if r:
        assert _zx_exquo(dp_add(dp_mul(q, b), r), b) is None


def test_exact_quotient_refuses_a_divisor_only_over_q():
    assert _zx_exquo([1, 1], [2, 2]) is None  # (x + 1)/(2x + 2) = 1/2
    assert _zx_exquo([2, 2], [1, 1]) == [2]


@settings(max_examples=150, deadline=None)
@given(int_polys.map(dp_trim).filter(bool))
def test_content_primitive_reads_ints_and_fractions_alike(c):
    cont, prim = content_primitive(c)
    assert (cont, prim) == content_primitive([Fraction(x) for x in c])
    assert all(type(x) is int for x in prim) and prim[-1] > 0
    assert math.gcd(*prim) == 1 and [cont * x for x in prim] == c


MODULI = (2, 3, 5, 7, 9, 25, 3 ** 8, 5 ** 4)
big_ints = st.lists(st.integers(-10 ** 5, 10 ** 5), max_size=7)


def reduced(c, m):
    """The integer polynomial c reduced mod m, written out: each coefficient
    taken into [0, m), then the zeros on top dropped."""
    out = [x % m for x in c]
    while out and out[-1] == 0:
        out.pop()
    return out


def z_add(a, b):
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def z_mul(a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# operands past kron_mul's direct rule as well as below it, negative and
# unreduced, and empty; moduli prime and prime powers, small and large
long_ints = st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=24)
RING_MODULI = MODULI + (10 ** 18 + 3, 3 ** 40)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RING_MODULI), long_ints, long_ints)
@example(7, [], [])
@example(9, [-3, 12, 9], [])
@example(5, [4, 0, 5], [1, 0, -5])
@example(3 ** 40, list(range(-20, 20)), list(range(30, -10, -1)))
def test_add_sub_mul_mod_m_are_the_z_results_reduced(m, a, b):
    assert dp_add(a, b, m) == reduced(z_add(a, b), m)
    assert dp_sub(a, b, m) == reduced(z_add(a, [-y for y in b]), m)
    assert dp_mul(a, b, m) == reduced(z_mul(a, b), m)
    assert dp_mul(a, a, m) == reduced(z_mul(a, a), m)  # a square
    assert dp_trim(a, m) == reduced(a, m)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RING_MODULI), big_ints, st.integers(0, 12),
       st.lists(st.integers(-10 ** 5, 10 ** 5), min_size=1, max_size=4))
@example(5, [], 0, [3])
@example(5, [], 3, [3])
@example(9, [-1, 10], 7, [-4, 0])
def test_powmod_mod_m_is_the_z_power_reduced(m, a, e, f):
    f = f + [1]  # monic, so the remainder over Z is integral
    rem = [1]
    for _ in range(e):
        rem = z_mul(rem, a)
    for k in range(len(rem) - len(f), -1, -1):  # rem mod f over Z
        rem[k:k + len(f)] = [x - rem[k + len(f) - 1] * y
                             for x, y in zip(rem[k:k + len(f)], f)]
    assert dp_powmod(a, e, f, m) == reduced(rem[:len(f) - 1], m)


def unit_lead(m):
    """Integer polynomials of degree 0..5 whose leading coefficient is a unit
    mod m (m a prime power), the others in no particular range."""
    return st.tuples(st.lists(st.integers(-10 ** 5, 10 ** 5), max_size=5),
                     st.integers(-10 ** 5, 10 ** 5).filter(
                         lambda c: math.gcd(c, m) == 1)).map(
        lambda t: t[0] + [t[1]])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODULI).flatmap(
    lambda m: st.tuples(st.just(m), big_ints, unit_lead(m))))
def test_divmod_mod_m_reconstructs_the_dividend(mab):
    m, a, b = mab
    q, r = dp_divmod(a, b, m)
    assert all(type(x) is int and 0 <= x < m for x in q + r)
    assert len(r) < len(b)
    assert dp_trim(dp_add(dp_mul(q, b), r), m) == dp_trim(a, m)
    monic = b[:-1] + [1]  # over Z the quotient is integral: reduce it
    assert dp_divmod(a, monic, m) == tuple(
        dp_trim(x, m) for x in dp_divmod(a, monic))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODULI).flatmap(
    lambda m: st.tuples(st.just(m), unit_lead(m))))
def test_monic_mod_m_is_a_unit_multiple(mc):
    m, c = mc
    g = dp_monic(c, m)
    assert all(type(x) is int and 0 <= x < m for x in g)
    assert len(g) == len(c) and g[-1] == 1
    assert dp_trim([x * c[-1] for x in g], m) == dp_trim(c, m)
    assert dp_monic([x * m for x in c], m) == []


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), big_ints, big_ints, big_ints)
def test_gcd_mod_p_is_monic_and_divides_both(p, a, b, c):
    a, b = dp_mul(a, c), dp_mul(b, c)
    g = dp_gcd(a, b, p)
    if not dp_trim(a, p) and not dp_trim(b, p):
        assert g == []
        return
    assert g[-1] == 1 and all(0 <= x < p for x in g)
    assert not dp_divmod(a, g, p)[1] and not dp_divmod(b, g, p)[1]
    if dp_trim(c, p):  # c divides a and b, so it divides g
        assert not dp_divmod(g, dp_monic(c, p), p)[1]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)),
       st.lists(st.integers(0, 6), min_size=1, max_size=8),
       st.lists(st.integers(0, 6), max_size=3))
def test_ddf_mod_p_refuses_exactly_a_repeated_factor(p, f, g):
    # f*g^2, g monic, is not squarefree whenever g has positive degree
    f = dp_monic(dp_mul(f + [1], dp_mul(g + [1], g + [1])), p)
    repeated = sympy.Poly(list(reversed(f)), X, modulus=p).gcd(
        sympy.Poly(list(reversed(_deriv(f))) or [0], X, modulus=p)).degree()
    ddf = _fp_ddf(f, p)
    assert (ddf is None) == (repeated > 0)
    if ddf is not None:
        assert [d for _, d in ddf] == sorted({d for _, d in ddf})
        assert all(h[-1] == 1 and (len(h) - 1) % d == 0 for h, d in ddf)
        prod = [1]
        for h, _ in ddf:
            prod = dp_trim(dp_mul(prod, h), p)
        assert prod == f
