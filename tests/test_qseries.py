import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ubd.exactnum import AlgebraicNumber, NumberField
from ubd.qseries import (
    EtaQuotient,
    LaurentSeries,
    COEFF_DIGITS_CEILING,
    _coeff,
    deserialize_series,
    eta_quotient_expand,
    nth_root_normalized,
    serialize_series,
)
from ubd.ubdetect import _unit_part

from helpers import (agrees, minimal_width_by_search, series_add, series_key,
                     series_pow, series_scale, series_shift,
                     unit_part_by_chain)


def S(width, lead, coeffs, field=None, prec=None):
    return LaurentSeries(width, lead, coeffs, field, prec)


def test_ring_ops_examples():
    one_plus = S(1, 0, [1, 1])
    one_minus = S(1, 0, [1, -1])
    prod = one_plus * one_minus
    assert prod.lead == 0 and prod.coefficients(0, 2) == [1, 0]

    geom = S(1, 0, [1] * 20)
    res = geom * one_minus
    assert res.coefficient(0) == 1
    assert all(res.coefficient(k) == 0 for k in range(1, res.prec))


def test_ring_ops_reject_mismatch():
    with pytest.raises(ValueError):
        S(1, 0, [1]) * S(11, 0, [1])
    k1 = NumberField([-2, 0, 0, 1])
    k2 = NumberField([-3, 0, 0, 1])
    with pytest.raises(ValueError):
        S(1, 0, [k1.one()], field=k1) * S(1, 0, [k2.one()], field=k2)


def test_ring_axioms_random():
    rng = random.Random(99)

    def rand_series():
        lead = rng.randint(-3, 3)
        return S(1, lead, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                           for _ in range(8)])

    for _ in range(30):
        f, g, h = rand_series(), rand_series(), rand_series()
        assert agrees((f * g) * h, f * (g * h))
        assert agrees(f * series_add(g, h), series_add(f * g, f * h))
        assert agrees(f * g, g * f)


def test_invert():
    f = S(1, 0, [1, -1], prec=10)
    inv = f.invert()
    assert inv.coefficients(0, 10) == [1] * 10

    wm2 = S(1, -2, [1])
    assert wm2.invert().lead == 2

    g = S(1, -5, [1, 1, -3, 13, 20, -23, 100], prec=4)
    assert (g * g.invert()).coefficient(0) == 1
    prod = g * g.invert()
    assert all(prod.coefficient(k) == 0 for k in range(1, prod.prec))

    with pytest.raises(ZeroDivisionError):
        S(1, 0, [], prec=3).invert()


def test_nth_root_examples():
    f = S(1, 0, [1, 2, 1], prec=8)
    assert nth_root_normalized(f, 2).coefficients(0, 2) == [1, 1]
    g = S(1, 0, [1, 3, 3, 1], prec=8)
    assert nth_root_normalized(g, 3).coefficients(0, 2) == [1, 1]
    h = S(1, 0, [1, 1], prec=8)
    r = nth_root_normalized(h, 5)
    assert r.coefficient(1) == Fraction(1, 5)
    assert r.coefficient(2) == Fraction(-2, 25)


def test_nth_root_rejects_non_normalized():
    with pytest.raises(ValueError):
        nth_root_normalized(S(1, -1, [1, 1]), 2)
    with pytest.raises(ValueError):
        nth_root_normalized(S(1, 0, [2, 1]), 2)


def test_nth_root_power_roundtrip_rational_and_algebraic():
    rng = random.Random(4)
    for n in (2, 3, 5, 7):
        f = S(1, 0, [1] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for _ in range(12)])
        r = nth_root_normalized(f, n)
        assert agrees(series_pow(r, n), f)

    k = NumberField([-2, 0, 0, 1])
    t = k.gen()
    f = S(1, 0, [k.one(), t, t * t / 3, 1 + t], field=k)
    r = nth_root_normalized(f, 3)
    assert agrees(series_pow(r, 3), f)
    assert r.field == k


def test_nth_root_of_nth_power_has_integer_coefficients():
    rng = random.Random(12)
    for n in (2, 3, 5):
        u = S(1, 0, [1] + [rng.randint(-5, 5) for _ in range(15)])
        f = series_pow(u, n)
        r = nth_root_normalized(f, n)
        assert agrees(r, u)
        assert all(Fraction(c).denominator == 1
                   for c in r.coefficients(0, r.prec))


def derivation_wdw(f):
    """The derivation D = w * d/dw: multiply the w^k coefficient by k."""
    out = [c * Fraction(k) if f.field is None else c * k
           for k, c in zip(range(f.lead, f.prec), f.coeffs)]
    return LaurentSeries(f.width, f.lead, out, f.field, f.prec)


def test_derivation_examples():
    assert derivation_wdw(S(1, 3, [1])).coefficient(3) == 3
    d = derivation_wdw(S(1, 0, [7], prec=4))
    assert d.is_zero()
    f = derivation_wdw(S(1, -1, [1, 0, 1]))
    assert f.coefficient(-1) == -1 and f.coefficient(1) == 1


def test_leibniz_rule():
    rng = random.Random(8)
    for _ in range(20):
        f = S(1, rng.randint(-2, 2), [rng.randint(-4, 4) or 1 for _ in range(9)])
        g = S(1, rng.randint(-2, 2), [rng.randint(-4, 4) or 1 for _ in range(9)])
        lhs = derivation_wdw(f * g)
        rhs = series_add(derivation_wdw(f) * g, f * derivation_wdw(g))
        assert agrees(lhs, rhs)


def test_eta_alone_pentagonal():
    eta = eta_quotient_expand(EtaQuotient([(1, 1)]), 24, 10000)
    assert eta.lead == 1
    vals = set(eta.coefficients(1, eta.prec))
    assert vals <= {-1, 0, 1}
    # first few exponents with nonzero coefficient: 24*pentagonal + 1
    nz = [k for k in range(1, 200) if eta.coefficient(k) != 0]
    assert nz[:5] == [1, 25, 49, 121, 169]


def test_eta_terms_of_one_scale_are_one_power(monkeypatch):
    # a spec that repeats a scale is expanded as one power of the summed
    # exponent: 24 factors of eta(z)^-1 make the products of eta(z)^-24
    from ubd import qseries

    calls = []
    kron_mul = qseries.kron_mul
    monkeypatch.setattr(qseries, "kron_mul", lambda a, b, n: calls.append(
        (len(a), len(b), n)) or kron_mul(a, b, n))
    spread = eta_quotient_expand(EtaQuotient([(1, -1)] * 24), 1, 80)
    spread_calls, calls[:] = calls[:], []
    assert series_key(spread) == series_key(
        eta_quotient_expand(EtaQuotient([(1, -24)]), 1, 80))
    assert spread_calls == calls


def test_eta_quotient_zeta_gamma013():
    zeta = eta_quotient_expand(EtaQuotient([(1, 2), (13, -2)]), 1, 10)
    assert zeta.lead == -1
    assert zeta.coefficients(-1, 3) == [1, -2, -1, 2]


def test_eta_quotient_g5():
    g5 = eta_quotient_expand(
        EtaQuotient([(Fraction(1, 11), 12), (1, -12)]), 11, 12)
    assert g5.lead == -5
    assert g5.coefficients(-5, 0) == [1, -12, 54, -88, -99]


def test_eta_quotient_weight_one_product():
    s = eta_quotient_expand(EtaQuotient([(1, 2), (Fraction(1, 11), 2)]), 11, 30)
    assert s.lead == 1
    assert s.coefficient(1) == 1
    # independent check: w * prod(1-w^n)^2 * prod(1-w^(11n))^2 by brute force
    T = 30
    a = [0] * (T + 1)
    a[0] = 1
    for n in range(1, T + 1):
        for rep in range(2):
            b = list(a)
            for k in range(n, T + 1):
                b[k] -= a[k - n]
            a = b
    for n in range(1, T // 11 + 1):
        for rep in range(2):
            b = list(a)
            for k in range(11 * n, T + 1):
                b[k] -= a[k - 11 * n]
            a = b
    assert s.coefficients(1, T) == a[:T - 1]


def test_eta_width_validation():
    with pytest.raises(ValueError):
        eta_quotient_expand(EtaQuotient([(1, 1)]), 1, 5)  # eta needs width 24
    with pytest.raises(ValueError):
        eta_quotient_expand(EtaQuotient([(Fraction(1, 11), 12), (1, -12)]), 1, 5)
    assert EtaQuotient([(1, 1)]).minimal_width() == 24
    assert EtaQuotient([(1, 2), (13, -2)]).minimal_width() == 1
    assert EtaQuotient([(Fraction(1, 11), 12), (1, -12)]).minimal_width() == 11


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 60), st.integers(1, 6),
                          st.integers(-30, 30)), min_size=1, max_size=4))
# eta(z)^-180 * prod_{d=2..61} eta(dz)^-1, minimal width 4
@example([(1, 1, -180)] + [(d, 1, -1) for d in range(2, 62)])
# a zero exponent still asks for its denominator
@example([(1, 1, 1), (1, 3, 0)])
def test_minimal_width_is_the_least_width_found_by_search(terms):
    eq = EtaQuotient([(Fraction(a, b), r) for a, b, r in terms])
    assert eq.minimal_width() == minimal_width_by_search(eq)


def test_serialization_roundtrip_rational():
    f = S(11, -5, [Fraction(3, 7), 0, -2, Fraction(1, 9)], prec=3)
    g = deserialize_series(serialize_series(f))
    assert series_key(g) == series_key(f)


def test_serialization_roundtrip_field():
    k = NumberField([-2, 0, 0, 1])
    t = k.gen()
    f = S(11, -1, [t, k.from_rational(Fraction(2, 3)), t * t / 7], field=k)
    g = deserialize_series(serialize_series(f))
    assert series_key(g) == series_key(f)
    assert serialize_series(g) == serialize_series(f)


ROUNDTRIP_FIELDS = [None,
                    NumberField([-158, -40, -2, 1], 'u'),              # cubic
                    NumberField([869405, 19255, 1360, 20, 1], 's')]    # quartic


@st.composite
def roundtrip_series(draw):
    field = draw(st.sampled_from(ROUNDTRIP_FIELDS))
    q = st.one_of(st.just(Fraction(0)), st.integers(-50, 50).map(Fraction),
                  st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                            st.integers(1, 10 ** 12)))
    c = q if field is None else st.lists(
        q, min_size=field.degree, max_size=field.degree).map(field.from_coords)
    coeffs = draw(st.lists(c, max_size=12))
    lead = draw(st.integers(-8, 8))
    # prec may cut the list short, match it or leave implicit zeros past it
    prec = lead + draw(st.integers(0, len(coeffs) + 3))
    return S(draw(st.integers(1, 24)), lead, coeffs, field, prec)


@settings(max_examples=80, deadline=None)
@given(roundtrip_series())
def test_serialization_roundtrip_property(f):
    text = serialize_series(f)
    g = deserialize_series(text)
    assert series_key(g) == series_key(f)
    assert serialize_series(g) == text


def _record(*coeffs):
    return ("series 1\nwidth 1\nlead 0\ntruncation %d\nfield rational\n"
            % (len(coeffs) - 1)) + "\n".join(coeffs) + "\n"


def test_record_coordinates_are_integers_or_p_over_q():
    top = "9" * COEFF_DIGITS_CEILING
    f = deserialize_series(_record("5", "-3/4", " +0/7 ", top, f"-1/{top}"))
    assert f.coefficients(0, 5) == [5, Fraction(-3, 4), 0, int(top),
                                    Fraction(-1, int(top))]
    for bad in ("1e3", "0.5", "1_0", "3/-4", "/4", "1//2", "inf", top + "9",
                f"1/{top}9"):
        with pytest.raises(ValueError):
            deserialize_series(_record("1", bad))


@st.composite
def scaled_series(draw):
    """A series over Q or a number field whose leading coefficient is
    nonzero and not 1, with implicit zeros past its list."""
    field = draw(st.sampled_from(ROUNDTRIP_FIELDS))
    q = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 999))
    c = q if field is None else st.lists(
        q, min_size=field.degree, max_size=field.degree).map(field.from_coords)
    c0 = draw(c.filter(lambda v: v and v != 1))
    coeffs = [c0] + draw(st.lists(c, max_size=10))
    lead = draw(st.integers(-8, 8))
    prec = lead + len(coeffs) + draw(st.integers(0, 3))
    return S(draw(st.integers(1, 24)), lead, coeffs, field, prec)


@settings(max_examples=80, deadline=None)
@given(scaled_series())
def test_unit_normalized_scales_back_to_f(f):
    unit, lead, c0 = f.unit_normalized()
    assert (lead, c0) == (f.lead, f.coeffs[0])
    assert unit.lead == 0 and unit.coefficient(0) == 1
    back = series_shift(series_scale(unit, c0), lead)
    assert back.prec == f.prec and agrees(back, f)
    # the scalar 0 leaves the series 0 to its precision
    assert series_key(series_scale(f, 0)) == series_key(
        S(f.width, f.prec, [], f.field, f.prec))


@st.composite
def unit_part_inputs(draw):
    """A series over Q or a catalog field with a_0 != 1 and lead != 0,
    whose coefficient list ends in zeros that only prec keeps, and a scan
    length T below its truncation."""
    f = draw(scaled_series())
    lead = draw(st.integers(-8, 8).filter(bool))
    coeffs = [*f.coeffs, *[0] * draw(st.integers(1, 3))]
    g = S(f.width, lead, coeffs, f.field,
          lead + len(coeffs) + draw(st.integers(0, 2)))
    return g, draw(st.integers(0, g.truncation - 1))


QUARTIC = ROUNDTRIP_FIELDS[2]


@settings(max_examples=80, deadline=None)
@given(unit_part_inputs(), st.sampled_from([2, 3, 5, 7, 11]))
@example((S(11, -5, [2 * QUARTIC.gen(), QUARTIC.one(), 0, 0], QUARTIC, 0),
          2), 5)
@example((S(1, 3, [Fraction(-6), Fraction(5, 2), 0], None, 7), 1), 2)
def test_unit_part_is_the_scaled_and_shifted_series(args, p):
    """unit_normalized builds w^-lead*f/a_0 in one construction, equal key
    for key to scaling and then shifting; _unit_part normalises only the
    scanned terms, which is the truncation of the full unit part."""
    f, T = args
    unit, _, _ = f.unit_normalized()
    assert series_key(unit) == series_key(unit_part_by_chain(f))
    _, scanned, M = _unit_part(f, p, T)
    assert M == T
    assert series_key(scanned) == series_key(unit.truncate(T + 1))
    _, whole, M = _unit_part(f, p, f.truncation + 3)
    assert M == f.truncation and series_key(whole) == series_key(unit)


def _lift_then_cut(width, lead, coeffs, field, prec):
    """The constructor's old order: every coefficient lifted, then the list
    cut to prec."""
    coeffs = [_coeff(field, c) for c in coeffs]
    if prec is None:
        prec = lead + len(coeffs)
    return S(width, lead, coeffs[:max(0, prec - lead)], field, prec)


@st.composite
def constructor_inputs(draw):
    """(width, lead, coefficients, field, prec) as callers pass them: ints
    and Fractions, and field elements over a field, with prec absent, below
    lead, inside the list or past it."""
    field = draw(st.sampled_from(ROUNDTRIP_FIELDS))
    q = st.one_of(st.integers(-50, 50),
                  st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9),
                            st.integers(1, 999)))
    c = q if field is None else st.one_of(q, st.lists(
        q, min_size=field.degree, max_size=field.degree).map(field.from_coords))
    coeffs = draw(st.lists(c, max_size=12))
    lead = draw(st.integers(-8, 8))
    prec = draw(st.one_of(st.none(), st.integers(lead - 3,
                                                 lead + len(coeffs) + 3)))
    return draw(st.integers(1, 24)), lead, coeffs, field, prec


@settings(max_examples=150, deadline=None)
@given(constructor_inputs(), st.sampled_from([list, tuple]))
def test_the_constructor_cuts_before_it_lifts(args, container):
    width, lead, coeffs, field, prec = args
    f = S(width, lead, container(coeffs), field, prec)
    g = _lift_then_cut(width, lead, coeffs, field, prec)
    assert series_key(f) == series_key(g)
    assert [type(c) for c in f.coeffs] == [type(c) for c in g.coeffs]


@st.composite
def rational_lead_series(draw):
    """A series over a number field whose a_0 is rational (1 on every
    catalog entry)."""
    field = draw(st.sampled_from(ROUNDTRIP_FIELDS[1:]))
    q = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 999))
    c = st.lists(q, min_size=field.degree,
                 max_size=field.degree).map(field.from_coords)
    c0 = field.from_rational(draw(q.filter(bool)))
    coeffs = [c0] + draw(st.lists(c, max_size=10))
    lead = draw(st.integers(-8, 8))
    return S(draw(st.integers(1, 24)), lead, coeffs, field,
             lead + len(coeffs) + draw(st.integers(0, 3)))


@settings(max_examples=80, deadline=None)
@given(rational_lead_series())
@example(S(11, -5, [QUARTIC.one(), QUARTIC.gen(), 0, 0], QUARTIC, 0))
def test_a_rational_a0_scales_as_the_field_inverse_multiplies(f):
    # unit_normalized scales by the Fraction 1/a_0; the reference multiplies
    # by 1/a_0 as a field element, degree by degree
    unit, lead, c0 = f.unit_normalized()
    inv = Fraction(1) / f.coeffs[0]
    assert isinstance(inv, AlgebraicNumber)
    ref = S(f.width, 0, [c * inv for c in f.coeffs], f.field, f.prec - f.lead)
    assert series_key(unit) == series_key(ref)
    assert (lead, c0) == (f.lead, f.coeffs[0])


def _int_or_fraction(f):
    coeffs = f.coefficients(f.lead, f.prec)
    return coeffs and all(type(c) in (int, Fraction) for c in coeffs)


def test_integral_series_over_q_never_get_float_coefficients():
    """Over Q an integral coefficient stays an int, so a true division of
    two ints would make a float: after each operation below every
    coefficient is an int or a Fraction, and the kernels' and a record's
    integral coefficients are ints."""
    from ubd.x011 import expand_xy

    g5 = eta_quotient_expand(EtaQuotient([(Fraction(1, 11), 12), (1, -12)]),
                             11, 40)
    assert all(type(c) is int for c in g5.coeffs)
    assert all(type(c) is int for s in expand_xy(20) for c in s.coeffs)
    back = deserialize_series(serialize_series(g5))
    assert series_key(back) == series_key(g5)
    assert all(type(c) is int for c in back.coeffs)
    third = series_scale(g5, Fraction(1, 3))
    assert series_key(deserialize_series(serialize_series(third))) == \
        series_key(third)
    three_g5 = series_scale(g5, 3)
    assert all(type(c) is int for c in three_g5.coeffs)
    for f in (g5, three_g5, S(1, 0, [-2, 7, 0, 5])):
        unit, lead, c0 = f.unit_normalized()
        inv = f.invert()
        for s in (unit, inv, series_scale(f, Fraction(2, 7)), f * f,
                  f * inv):
            assert _int_or_fraction(s)
        assert series_key(series_shift(series_scale(unit, c0), lead)) == \
            series_key(f)
        one = f * inv
        assert one.coefficients(0, one.prec) == [1] + [0] * (one.prec - 1)
