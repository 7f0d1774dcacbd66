"""The pure-Python factorization over Z[x] of squarefree polynomials and the
irreducibility tests against sympy, which the tests keep as an oracle only;
the refusal of a repeated factor; the exact quotient in Z[x] and the
primitive part that the factorizer shares with the rational code."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from ubd.ellcurve import division_polynomial
from ubd.exactnum import (
    NumberField,
    _zx_exquo,
    content_primitive,
    dp_add,
    dp_mul,
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
