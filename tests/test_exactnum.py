import operator
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from ubd.exactnum import (
    INFINITY,
    AlgebraicNumber,
    NumberField,
    _integral_char_poly,
    dp_add,
    dp_divmod,
    dp_eval,
    dp_gcd,
    dp_monic,
    dp_mul,
    dp_resultant,
    dp_sub,
    dp_trim,
    field_has_unique_prime_above,
    integerize_monic,
    is_prime,
    lower_hull_slopes,
    newton_polygon_valuations,
    ord_at_unique_prime,
    poly_is_irreducible_q,
    power,
    prime_factors,
    val_p,
)
from ubd.ellcurve import CurvePoint, WeierstrassCurve

from helpers import min_poly, newton_polygon_points, unique_prime_shifts


def test_prime_factors_by_trial_division():
    for n in range(1, 600):
        brute = [q for q in range(2, n + 1)
                 if n % q == 0 and all(q % r for r in range(2, q))]
        assert prime_factors(n) == brute, n


# the primes of the drawn denominators, so d factors over them
DEN_PRIMES = (2, 3, 5, 7, 11)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-60, 60),
                          st.sampled_from([1, 2, 3, 4, 8, 9, 12, 25, 27, 32,
                                           49, 121, 250, 1331])),
                min_size=0, max_size=6),
       st.sampled_from([1, 3, Fraction(1, 4)]))
@example([Fraction(-79, 4), -10, -1], 1)
def test_integerize_monic_gives_the_least_d(lower, lead):
    # monic up to the leading coefficient lead, which integerize_monic
    # divides out first
    c = [x * lead for x in lower] + [Fraction(lead)]
    monic = lower + [Fraction(1)]
    n = len(monic) - 1
    coeffs, d = integerize_monic(c)

    def scaled(d):
        return [Fraction(d) ** (n - i) * ci for i, ci in enumerate(monic)]

    assert all(x.denominator == 1 for x in scaled(d))
    assert coeffs == [int(x) for x in scaled(d)]
    rest = d
    for q in DEN_PRIMES:
        while rest % q == 0:
            rest //= q
        if d % q == 0:
            assert any(x.denominator != 1 for x in scaled(d // q)), (d, q)
    assert rest == 1


def test_val_p_examples():
    assert val_p(12, 2) == 2
    assert val_p(Fraction(-79, 4), 2) == -2
    assert val_p(Fraction(1, 25), 5) == -2
    assert val_p(0, 7) == INFINITY


def test_val_p_rejects_nonprime():
    with pytest.raises(ValueError):
        val_p(10, 6)


def test_val_p_is_a_valuation():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 11])
        r = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        s = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        assert val_p(r * s, p) == val_p(r, p) + val_p(s, p)
        if r + s != 0:
            assert val_p(r + s, p) >= min(val_p(r, p), val_p(s, p))


CBRT2 = NumberField([-2, 0, 0, 1])  # t^3 - 2


@pytest.fixture(scope="module")
def cbrt2():
    return CBRT2


def _field_or_none(coeffs):
    try:
        return NumberField(coeffs + [1])
    except ValueError:  # reducible
        return None


QUARTIC = NumberField([869405, 19255, 1360, 20, 1], 's')  # index-5 catalog
CUBIC = NumberField([-158, -40, -2, 1], 'u')              # index-2 catalog
fields = st.one_of(
    st.sampled_from([QUARTIC, CUBIC]),
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.integers(-30, 30), min_size=d, max_size=d))
    .map(_field_or_none).filter(bool))


def elements(field):
    # small coordinates give zeros and rational elements, large ones big
    # characteristic polynomials
    big = st.one_of(st.integers(-2, 2), st.integers(-2 ** 300, 2 ** 300))
    return st.builds(lambda num, den: AlgebraicNumber(field, num, den),
                     st.lists(big, min_size=field.degree,
                              max_size=field.degree),
                     st.integers(1, 2 ** 64))


def test_number_field_rejects_reducible():
    with pytest.raises(ValueError):
        NumberField([-1, 0, 1])  # t^2 - 1
    with pytest.raises(ValueError):
        NumberField([Fraction(1, 2), 1])  # non-integer
    with pytest.raises(ValueError):
        NumberField([1, 2])  # non-monic


def test_nf_arith_examples(cbrt2):
    t = cbrt2.gen()
    assert t * (t * t) == 2
    assert cbrt2.one() / t == t * t / 2
    assert (1 + t) * cbrt2.from_coords([1, -1, 1]) == 3


def test_nf_arith_field_axioms(cbrt2):
    rng = random.Random(11)

    def rand_elt():
        return cbrt2.from_coords([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                  for _ in range(3)])

    for _ in range(50):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (1 / a) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nf_arith_field_axioms_hypothesis(data):
    field = data.draw(fields)
    a, b, c = (data.draw(elements(field)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * (1 / a) == 1


def test_nf_arith_division_by_zero(cbrt2):
    with pytest.raises(ZeroDivisionError):
        cbrt2.one() / cbrt2.zero()


def test_nf_arith_field_mismatch(cbrt2):
    other = NumberField([-3, 0, 0, 1])
    with pytest.raises(ValueError):
        cbrt2.gen() + other.gen()


# the quartic's quadratic subfield is Q(sqrt 5)
SQRT5 = QUARTIC.from_coords([Fraction(c, 41261) for c in (40375, 1730, 82, 4)])
BIQUADRATIC = NumberField([1, 0, -10, 0, 1])  # Q(sqrt 2 + sqrt 3)
# a generator of a proper subfield: its elements have chi = mp^k with k > 1
SUBFIELD_GENERATORS = {QUARTIC: SQRT5, BIQUADRATIC: BIQUADRATIC.gen() ** 2}


def test_min_poly_examples(cbrt2):
    t = cbrt2.gen()
    assert min_poly(cbrt2.from_rational(3)) == [-3, 1]
    assert min_poly(t * t) == [-4, 0, 0, 1]
    assert min_poly(1 + t) == [-3, 3, -3, 1]
    assert SQRT5 * SQRT5 == 5
    assert min_poly(SQRT5) == [-5, 0, 1]  # chi = (x^2 - 5)^2


def test_min_poly_annihilates_and_degree_divides(cbrt2):
    rng = random.Random(3)
    for _ in range(20):
        a = cbrt2.from_coords([rng.randint(-5, 5) for _ in range(3)])
        if not a:
            continue
        mp = min_poly(a)
        assert not dp_eval(mp, a)
        assert cbrt2.degree % (len(mp) - 1) == 0


def min_poly_cases(field):
    """0, rationals, small elements and, where known, proper-subfield
    elements of a field."""
    q = st.fractions(-9, 9, max_denominator=9)
    cases = [st.just(field.zero()), q.map(field.from_rational),
             st.lists(q, min_size=field.degree, max_size=field.degree)
             .map(field.from_coords)]
    g = SUBFIELD_GENERATORS.get(field)
    if g is not None:
        cases.append(st.tuples(q, q).map(lambda rs: rs[0] + rs[1] * g))
    return st.one_of(cases)


def _sympy_min_poly(a):
    """The monic irreducible factor of Res_t(f(t), x - a(t)), which is the
    characteristic polynomial of a up to sign."""
    t, x = sympy.symbols("t x")
    f = sum(c * t ** i for i, c in enumerate(a.field.defining_poly))
    at = sum(sympy.Rational(c.numerator, c.denominator) * t ** i
             for i, c in enumerate(a.coords()))
    _, factors = sympy.Poly(sympy.resultant(f, x - at, t), x).factor_list()
    assert len(factors) == 1
    return [Fraction(int(c.p), int(c.q))
            for c in reversed(factors[0][0].monic().all_coeffs())]


@settings(max_examples=80, deadline=None)
@given(st.one_of(fields, st.just(BIQUADRATIC)).flatmap(min_poly_cases))
@example(SQRT5)
@example(QUARTIC.zero())
@example(BIQUADRATIC.gen() ** 2)
def test_min_poly_matches_the_sympy_resultant(a):
    assert min_poly(a) == _sympy_min_poly(a)


def brute_lower_hull(points):
    """Independent O(n^3) lower-hull oracle: a segment between two points is a
    hull edge iff every point lies on or above its line and the edge is on the
    boundary path from the leftmost to the rightmost point."""
    pts = [(i, v) for i, v in points if v != INFINITY]
    hull = [min(pts)]
    while hull[-1] != max(pts):
        x0, y0 = hull[-1]
        best = None
        for (x1, y1) in pts:
            if x1 <= x0:
                continue
            slope = Fraction(y1 - y0, x1 - x0)
            if best is None or slope < best[0] or (slope == best[0] and x1 > best[1][0]):
                best = (slope, (x1, y1))
        hull.append(best[1])
    return [(Fraction(y2 - y1, x2 - x1), x2 - x1)
            for (x1, y1), (x2, y2) in zip(hull, hull[1:])]


def test_newton_polygon_examples(cbrt2):
    t = cbrt2.gen()
    assert newton_polygon_valuations(t, 2) == [(Fraction(1, 3), 3)]
    assert field_has_unique_prime_above(cbrt2, 2)

    assert newton_polygon_valuations(Fraction(8), 2) == [(Fraction(3), 1)]


def test_newton_polygon_two_torsion_cubic():
    # root of x^3 - x^2 - 10x - 79/4 at p = 2: one segment of slope 2/3,
    # so every extension valuation is -2/3.  Field presented integrally by
    # u = 2x: u^3 - 2u^2 - 40u - 158.
    coeffs, d = integerize_monic([Fraction(-79, 4), -10, -1, 1])
    assert coeffs == [-158, -40, -2, 1] and d == 2
    fld = NumberField(coeffs)
    x = fld.gen() / 2
    prof = newton_polygon_valuations(x, 2)
    assert prof == [(Fraction(-2, 3), 3)]
    # cross-check the hull against the brute-force oracle on the raw points:
    # one segment of raw slope 2/3, so the root valuations are all -2/3
    pts = [(0, val_p(Fraction(-79, 4), 2)), (1, val_p(-10, 2)),
           (2, val_p(-1, 2)), (3, 0)]
    assert brute_lower_hull(pts) == [(Fraction(2, 3), 3)]
    assert [(-s, m) for s, m in brute_lower_hull(pts)] == prof


def test_newton_polygon_random_against_brute_hull():
    rng = random.Random(77)
    for _ in range(40):
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-40, 40) for _ in range(deg)] + [1]
        if coeffs[0] == 0:
            coeffs[0] = 8
        for p in (2, 3, 5):
            pts = [(i, val_p(Fraction(c), p)) for i, c in enumerate(coeffs)]
            assert lower_hull_slopes(pts) == brute_lower_hull(pts)


def test_newton_polygon_of_rational_matches_val_p():
    rng = random.Random(19)
    for _ in range(50):
        r = Fraction(rng.randint(-200, 200) or 1, rng.randint(1, 200))
        for p in (2, 3, 5):
            assert newton_polygon_valuations(r, p) == \
                [(Fraction(val_p(r, p)), 1)]


def test_profile_product_formula(cbrt2):
    # sum of valuation*multiplicity = val_p of the norm of the element: the
    # multiplicities count the embeddings of the field, rational a included
    rng = random.Random(23)
    for _ in range(20):
        a = cbrt2.from_coords([rng.randint(-6, 6) for _ in range(3)])
        if not a:
            continue
        for p in (2, 3, 5):
            total = sum(v * m for v, m in newton_polygon_valuations(a, p))
            assert total == val_p(resultant_norm(a), p)


GAUSS = NumberField([1, 0, 1])  # 5 splits
# the index-3 point field of X_0(11): s = x + y at a root x of psi_3
PSI3 = NumberField([-170408498003973, -2984783638077, -96519487734,
                    -2428779411, -24296841, -1130355, -18291, 12, 1], 's')


def valuation_cases(field, p):
    """Nonzero rationals, elements and, where known, proper-subfield elements
    of a field, with p, p^2 and 6p among the coordinate denominators."""
    q = st.builds(Fraction, st.integers(-p ** 3, p ** 3),
                  st.sampled_from([1, 2, p, p * p, 6 * p]))
    cases = [q.map(field.from_rational),
             st.lists(q, min_size=field.degree, max_size=field.degree)
             .map(field.from_coords)]
    g = SUBFIELD_GENERATORS.get(field)
    if g is not None:
        cases.append(st.tuples(q, q).map(lambda rs: rs[0] + rs[1] * g))
    return st.one_of(cases).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.sampled_from([CBRT2, CUBIC, QUARTIC, GAUSS, BIQUADRATIC,
                                  PSI3]),
                 st.sampled_from([2, 3, 5, 7])).flatmap(
    lambda kp: st.tuples(valuation_cases(*kp), st.just(kp[1]))))
@example((SQRT5 / 5, 5))
@example((PSI3.from_rational(Fraction(9, 2)), 3))
@example((PSI3.gen() / 3, 3))
def test_polygon_of_the_char_poly_matches_the_min_poly_and_the_norm(ap):
    # chi_B of B = den*a is a power of the minimal polynomial of B, so it has
    # the min-poly polygon's slopes, shifted by v_p(den); its segments span
    # the field degree, and their weighted sum is the norm's valuation
    a, p = ap
    prof = newton_polygon_valuations(a, p)
    slopes = lower_hull_slopes(newton_polygon_points(min_poly(a), p))
    assert [v for v, _ in prof] == sorted(-s for s, _ in slopes)
    assert sum(m for _, m in prof) == a.field.degree
    assert sum(v * m for v, m in prof) == val_p(resultant_norm(a), p)


def test_char_poly_refuses_a_fraction(monkeypatch):
    # power sums of a polynomial other than the one that reduces products
    # give traces that no integral B has: the division by k is checked, not
    # floored
    fld = NumberField([-2, 0, 0, 1])
    assert _integral_char_poly(fld.gen() / 2)[0] == [-2, 0, 0, 1]
    monkeypatch.setattr(fld, "defining_poly", (-2, 0, 1, 1))
    with pytest.raises(RuntimeError, match="fraction"):
        _integral_char_poly(fld.gen())


def test_ord_at_unique_prime_examples(cbrt2):
    t = cbrt2.gen()
    assert ord_at_unique_prime(t, 2) == Fraction(1, 3)
    assert ord_at_unique_prime(Fraction(2), 2) == 1
    fld = NumberField([-158, -40, -2, 1])
    x = fld.gen() / 2
    assert ord_at_unique_prime(x, 2) == Fraction(-2, 3)


def test_ord_matches_polygon_for_generators(cbrt2):
    rng = random.Random(41)
    for _ in range(10):
        a = cbrt2.from_coords([rng.randint(-4, 4) for _ in range(3)])
        if not a:
            continue
        values = [v for v, _ in newton_polygon_valuations(a, 2)]
        if len(min_poly(a)) - 1 == cbrt2.degree:
            vals = {ord_at_unique_prime(a, 2)}
            assert set(values) == vals or len(values) > 1
            if len(values) == 1:
                assert values[0] == ord_at_unique_prime(a, 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(CBRT2, 2), (CUBIC, 2), (QUARTIC, 5)])
       .flatmap(lambda kp: st.tuples(elements(kp[0]), st.just(kp[1]))))
def test_ord_matches_polygon_for_generators_hypothesis(ap):
    # with one prime above p every conjugate has the same valuation, so the
    # polygon has a single slope, and it is the norm's valuation / degree
    a, p = ap
    assume(a)
    assert field_has_unique_prime_above(a.field, p)
    assert newton_polygon_valuations(a, p) == \
        [(ord_at_unique_prime(a, p), a.field.degree)]


def test_ord_refuses_without_certificate():
    # x^2 - 1 is reducible; use x^2 + 1 at p = 5 (5 splits in Q(i))
    gauss = NumberField([1, 0, 1])
    assert not field_has_unique_prime_above(gauss, 5)
    with pytest.raises(ValueError):
        ord_at_unique_prime(gauss.gen(), 5)
    # the profile is still available and shows both extension valuations
    prof = newton_polygon_valuations(2 + gauss.gen(), 5)
    assert prof == [(0, 1), (1, 1)]
    assert not field_has_unique_prime_above(gauss, 5)


def test_unique_prime_certificate_quartic_needs_shift():
    # x^4+x^3+11x^2+41x+101 is Eisenstein at 5 only after x -> x+1
    fld = NumberField([101, 41, 11, 1, 1])
    assert field_has_unique_prime_above(fld, 5)
    assert ord_at_unique_prime(fld.gen() - 1, 5) == Fraction(1, 4)


# (defining polynomial, p) -> the first shift a at which the polygon of
# f(x + a) certifies a unique prime above p, and the branch; None: no shift
CERTIFICATE_CASES = {
    (QUARTIC.defining_poly, 5): (0, "totally ramified"),
    (QUARTIC.defining_poly, 2): (0, "irreducible residual"),
    (QUARTIC.defining_poly, 3): (0, "irreducible residual"),
    (QUARTIC.defining_poly, 7): (0, "irreducible residual"),
    (QUARTIC.defining_poly, 13): (0, "irreducible residual"),
    (QUARTIC.defining_poly, 11): None,
    (CUBIC.defining_poly, 7): None,
    (CUBIC.defining_poly, 11): None,
    (CUBIC.defining_poly, 13): None,
    ((1, 0, 1), 2): (1, "totally ramified"),
    ((-5, 0, 1), 2): (1, "irreducible residual"),
    ((-2, 0, 0, 1), 3): (2, "totally ramified"),
    # Q as Q[x]/(x): t - 0 is 0, which has no polygon, so a = 1 certifies
    ((0, 1), 2): (1, "totally ramified"),
}


def _examples(cases):
    def decorate(test):
        for f, p in cases:
            test = example(list(f), p)(test)
        return test
    return decorate


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(lambda d: st.lists(
           st.integers(-40, 40), min_size=d, max_size=d).map(lambda c: c + [1])),
       st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
@_examples(CERTIFICATE_CASES)
def test_unique_prime_certificate_matches_the_polygon_points_reference(f, p):
    # the certificate read from newton_polygon_valuations is the one read
    # from the polygon points of chi(t - a) at some shift a
    assume(poly_is_irreducible_q(f))
    field = NumberField(f)
    assert field_has_unique_prime_above(field, p) == \
        bool(unique_prime_shifts(field, p))


def test_certificate_cases_reach_each_branch():
    got = {}
    for (f, p), want in CERTIFICATE_CASES.items():
        field = NumberField(list(f))
        shifts = unique_prime_shifts(field, p)
        if not shifts:
            got[f, p] = None
            continue
        chi = _integral_char_poly(field.gen() - shifts[0])[0]
        [(slope, _)] = lower_hull_slopes(newton_polygon_points(chi, p))
        got[f, p] = (shifts[0], "totally ramified"
                     if slope.denominator == field.degree
                     else "irreducible residual")
    assert got == CERTIFICATE_CASES


def test_field_norm_multiplicative(cbrt2):
    rng = random.Random(5)
    for _ in range(20):
        a = cbrt2.from_coords([rng.randint(-4, 4) for _ in range(3)])
        b = cbrt2.from_coords([rng.randint(-4, 4) for _ in range(3)])
        assert char_poly_norm(a * b) == char_poly_norm(a) * char_poly_norm(b)
    assert char_poly_norm(cbrt2.gen()) == 2


def char_poly_norm(a):
    """Norm(a) = (-1)^d chi_B(0) / den^d, chi_B the characteristic
    polynomial of B = den*a, by the detector's own routine."""
    d = a.field.degree
    return Fraction((-1) ** d * _integral_char_poly(a)[0][0], a.den ** d)


def resultant_norm(a):
    """Norm(a) = Res(f, a(t)) for the monic defining polynomial f."""
    return dp_resultant(a.field.defining_poly, a.coords())


def _euclid_inverse(a):
    """1/a by the extended Euclidean algorithm in Q[t] against the defining
    polynomial: the Fraction inverse the elimination replaced."""
    f = [Fraction(c) for c in a.field.defining_poly]
    s0, s1 = [], [Fraction(1)]
    r0, r1 = f, dp_trim(a.coords())
    while len(r1) > 1:
        q, r = dp_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, dp_sub(s0, dp_mul(q, s1))
    inv = [x / r1[0] for x in s1]
    return a.field.from_coords((inv + [0] * a.field.degree)[:a.field.degree])


@settings(max_examples=60, deadline=None)
@given(fields.flatmap(lambda k: st.tuples(elements(k), elements(k))))
@example((QUARTIC.from_coords([Fraction(1, 10), 0, 3, Fraction(-1, 7)]),
          QUARTIC.from_rational(Fraction(-5, 2))))
@example((NumberField([-3, 1]).from_rational(Fraction(4, 9)),
          NumberField([-3, 1]).zero()))
def test_char_poly_norm_is_the_resultant_norm(ab):
    # (-1)^d chi_B(0) / den^d against Res(f, a): the two norms share no code
    a, b = ab
    f = a.field.defining_poly
    assert char_poly_norm(a) == dp_resultant(f, a.coords()) == \
        resultant_norm(a)
    assert char_poly_norm(a * b) == char_poly_norm(a) * char_poly_norm(b)


@settings(max_examples=60, deadline=None)
@given(fields.flatmap(elements))
@example(NumberField([7, 1]).from_rational(Fraction(-6, 35)))
@example(NumberField([-2, 1]).from_rational(2))
@example(CUBIC.from_coords([Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)]))
@example(QUARTIC.from_coords([0, Fraction(1, 3), 0, Fraction(2, 9)]))
@example(GAUSS.from_coords([Fraction(2, 5), Fraction(-1, 5)]))
def test_inverse_is_the_euclid_inverse(a):
    with pytest.raises(ZeroDivisionError):
        a.field.zero().inverse()
    if a:
        inv = a.inverse()
        assert inv == _euclid_inverse(a)
        assert a * inv == 1
        assert 1 / a == inv


def test_qp_helpers():
    # resultant of x^2-2 and x^2-3 is (2-3)^2... product of differences
    assert dp_resultant([-2, 0, 1], [-3, 0, 1]) == 1
    assert dp_gcd([-1, 0, 1], [1, 1]) == [1, 1]
    assert dp_mul([1, 1], [-1, 1]) == [-1, 0, 1]


def coefficients(field):
    """Small coefficients over Q (field None) or over a number field, where
    a rational coefficient may stand among the field elements."""
    rational = st.one_of(st.integers(-9, 9),
                         st.fractions(-9, 9, max_denominator=9))
    if field is None:
        return rational
    return st.one_of(rational, st.lists(
        st.integers(-5, 5), min_size=field.degree, max_size=field.degree)
        .map(field.from_coords))


def polys(field):
    return st.lists(coefficients(field), max_size=5)


domains = st.sampled_from([None, QUARTIC, CUBIC])
POLY_SETTINGS = settings(max_examples=60, deadline=None)


@POLY_SETTINGS
@given(domains.flatmap(lambda k: st.tuples(polys(k), polys(k))))
def test_dp_divmod_reconstructs_the_dividend(ab):
    a, b = ab
    b = dp_trim(b)
    assume(b)
    q, r = dp_divmod(a, b)
    assert dp_add(dp_mul(q, b), r) == dp_trim(a)
    assert len(r) < len(b)


@POLY_SETTINGS
@given(domains.flatmap(lambda k: st.tuples(polys(k), polys(k), polys(k))))
def test_dp_gcd_is_monic_and_divides_both(abc):
    a, b, c = abc
    a, b = dp_mul(a, c), dp_mul(b, c)
    g = dp_gcd(a, b)
    if not a and not b:
        assert g == []
        return
    assert g[-1] == 1
    assert not dp_divmod(a, g)[1] and not dp_divmod(b, g)[1]
    assert not dp_divmod(g, dp_trim(c))[1]


ints = st.lists(st.integers(-9, 9), max_size=5)


@POLY_SETTINGS
@given(ints, ints, st.integers(-3, 3))
@example([1, 2, 3], [1, 2], 0)
@example([-1, 0, 1], [1, 1], 0)
def test_int_inputs_never_yield_a_float(a, b, c):
    b = dp_trim(b)
    assume(b)
    q, r = dp_divmod(a, b)
    outs = [q, r, dp_gcd(a, b), dp_monic(a), dp_mul(a, b),
            dp_sub(a, b), [dp_resultant(a, b), dp_eval(a, c)]]
    assert all(type(x) in (int, Fraction) for out in outs for x in out)


@POLY_SETTINGS
@given(st.one_of(st.just(NumberField([-3, 1])), fields),
       st.integers(-40, 40), coefficients(None))
def test_char_poly_of_gen_minus_a_is_the_shifted_defining_poly(field, a, x):
    # field_has_unique_prime_above reads the polygons of f(x + a) this way,
    # in integers; a degree-1 field is Q
    shifted = _integral_char_poly(field.gen() - a)[0]
    assert all(type(c) is int for c in shifted)
    assert dp_eval(shifted, x) == dp_eval(field.defining_poly, x + a)


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(n) == _trial_division(n) for n in range(-3, 10 ** 5))


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the bases 2..7, 2..31 and 2..37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)


def test_is_prime_is_fast_on_large_primes():
    start = time.perf_counter()
    assert is_prime(10 ** 17 + 3)
    assert is_prime(10 ** 15 + 37)
    assert time.perf_counter() - start < 0.1


def test_is_prime_refuses_beyond_the_proven_bound():
    assert not is_prime(2 ** 100)  # a small factor is still found
    with pytest.raises(ValueError):
        is_prime(2 ** 89 - 1)


# y^2 + y = x^3 - x, conductor 37: (0, 0) has infinite order, so its
# multiples up to 70 are distinct and their heights grow
CURVE37 = WeierstrassCurve(0, 0, 1, -1, 0)


def _repeated(x, e, mul, acc):
    for _ in range(e):
        acc = mul(acc, x)
    return acc


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 70), st.sampled_from(["int", "quartic", "curve"]),
       st.integers(-9, 9))
def test_power_is_repeated_multiplication(e, domain, c):
    x, mul, one = {
        "int": (c, operator.mul, 1),
        "quartic": (QUARTIC.from_coords([c, 1, Fraction(1, 3), 0]),
                    operator.mul, QUARTIC.one()),
        "curve": (CURVE37.point(0, 0), CurvePoint.__add__,
                  CURVE37.infinity()),
    }[domain]
    want = _repeated(x, e, mul, one)
    assert power(x, e, mul, one) == want
    assert power(x, e, mul) == (want if e else None)
    acc = _repeated(x, 3, mul, one)  # a product already under way
    assert power(x, e, mul, acc) == _repeated(x, e, mul, acc)


class _Box:
    """An int no other box shares, so `is` tells a square from a product."""

    def __init__(self, v):
        self.v = v


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2 ** 20), st.integers(-3, 3))
def test_power_takes_no_identity_product_and_no_last_square(e, c):
    calls = []

    def mul(a, b):
        calls.append(a is b)
        return _Box(a.v * b.v)

    assert power(_Box(c), e, mul).v == c ** e
    squares = e.bit_length() - 1
    assert len(calls) == squares + bin(e).count("1") - 1
    assert sum(calls) == squares  # each square is mul(x, x) on one object
