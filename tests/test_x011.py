from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ubd.exactnum import dp_trim, min_poly
from ubd.ellcurve import (
    CurveFunction,
    WeierstrassCurve,
    function_with_divisor,
    torsion_factors,
    verify_divisor,
)
from ubd.qseries import (LaurentSeries, eta_quotient_expand,
                         nth_root_normalized)
from ubd.x011 import (
    CATALOG_INDICES,
    KAPPA,
    S_QUOTIENT,
    WIDTH,
    _xy_arrays,
    build_catalog,
    catalog_export,
    expand_on_curve,
    expand_xy,
    g5_family,
    g5_series,
    torsion_point,
    x11_curve,
)

from helpers import has_order, series_pow, unit_root_factors

X_HEAD = [1, 2, 4, 5, 8, 1, 7, -11, 10, -12, -18]   # w^-2 .. w^8
Y_HEAD = [1, 3, 7, 12, 17, 26, 19, 37, -15, -16, -67]  # w^-3 .. w^7


def test_expand_xy_golden_heads():
    x, y = expand_xy(40)
    assert x.lead == -2 and y.lead == -3
    assert x.coefficients(-2, 9) == X_HEAD
    assert y.coefficients(-3, 8) == Y_HEAD


def test_expand_xy_integrality():
    x, y = expand_xy(120)
    for c in x.coefficients(x.lead, x.prec):
        assert Fraction(c).denominator == 1
    for c in y.coefficients(y.lead, y.prec):
        assert Fraction(c).denominator == 1


def test_expansion_report_kappa():
    assert KAPPA == -1


def test_relations_hold_to_truncation():
    # expand_xy aborts unless both defining relations hold
    x, y = expand_xy(60)
    lhs = y * y + y
    rhs = x * x * x - x * x - x.scalar_mul(10)
    diff = lhs - rhs
    assert all(diff.coefficient(k) == (-20 if k == 0 else 0)
               for k in range(diff.lead, diff.prec))


def test_s_quotient_starts_at_w():
    s = eta_quotient_expand(S_QUOTIENT, WIDTH, 30)
    assert s.lead == 1 and s.coefficient(1) == 1
    assert s.coefficient(2) == -2


def test_expand_on_curve_reproduces_x():
    x, _ = expand_xy(30)
    fx = CurveFunction(x11_curve(), [0, 1], [])
    s = expand_on_curve(fx, 25)
    assert s.agrees_with(x, -2, 20)


def test_expand_on_curve_fp_golden():
    p = x11_curve().point(5, 5)
    f = function_with_divisor(5, p)
    s = expand_on_curve(f, 30)
    assert s.lead == -5
    assert s.coefficients(-5, 1) == [1, 1, -3, 13, 20, -23]
    # integer coefficients: integral polynomial in the integral x, y
    assert all(Fraction(c).denominator == 1 for c in s.coefficients(-5, 25))
    inv = s.invert()
    prod = s * inv
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(k) == 0 for k in range(1, prod.prec))


def _reference_expand_on_curve(F, T):
    """u(x) and v(x) by Horner's rule on LaurentSeries over the curve's
    field, then u + v*y, truncated to w^(T-n)."""
    degs = max(len(F.u), len(F.v) + 1)
    margin = 2 * degs + F.pole_order_at_O() + 10
    xs, ys = _xy_arrays(T + margin)
    Tm = T + margin
    x = LaurentSeries(WIDTH, -2, xs[:Tm + 1], None, Tm - 1)
    y = LaurentSeries(WIDTH, -3, ys[:Tm + 1], None, Tm - 2)
    field = F.curve.field

    def poly_at_x(coeffs):
        if not coeffs:
            return LaurentSeries(WIDTH, 0, [], field, prec=x.prec)
        acc = LaurentSeries(WIDTH, 0, [coeffs[-1]], field, prec=x.prec - x.lead)
        for c in reversed(coeffs[:-1]):
            acc = acc * x
            acc = acc + LaurentSeries(WIDTH, 0, [c], field, prec=acc.prec)
        return acc

    result = poly_at_x(list(F.u))
    if F.v:
        result = result + poly_at_x(list(F.v)) * y
    want = -F.pole_order_at_O() + T + 1
    assert result.prec >= want
    return result.truncate(want)


def test_expand_on_curve_matches_reference_on_the_catalogs():
    for e in build_catalog(5) + build_catalog(2):
        f = e.generator_function
        got = expand_on_curve(f, 302)
        assert got == _reference_expand_on_curve(f, 302), e.label
        assert got.field == e.coefficient_field
        assert got.lead == -e.index and got.prec == 303 - e.index


small = st.integers(-3, 3)


@st.composite
def curve_functions(draw):
    """u + v*y with small rational coordinates, over Q or over the cubic
    field of the index-2 catalog."""
    over_cubic = draw(st.booleans())
    curve = x11_curve()
    field = build_catalog(2)[0].coefficient_field if over_cubic else None
    if over_cubic:
        curve = curve.base_change(field)

    def coeff():
        if field is None:
            return Fraction(draw(small), draw(st.integers(1, 3)))
        return field.from_coords([draw(small) for _ in range(field.degree)])

    def poly(lo, hi):
        return [coeff() for _ in range(draw(st.integers(lo, hi)))]

    u, v = poly(0, 3), poly(0, 2)
    assume(any(u) or any(v))
    return CurveFunction(curve, u, v)


@settings(max_examples=60, deadline=None)
@given(curve_functions(), st.integers(0, 40))
def test_expand_on_curve_matches_reference_with_a_denominator(f, T):
    assert expand_on_curve(f, T) == _reference_expand_on_curve(f, T)


def test_q_point_coordinates_match_nested_radical_form():
    # Q = [-1/2 + (11/10)sqrt(5), -1/2 + (11/10)sqrt(-25-2*sqrt(5))]:
    # in the flattened field, S = (10x+5)/11 and TH = (10y+5)/11 satisfy
    # S^2 = 5 and TH^2 = -25 - 2S exactly.
    q = build_catalog(5)[1].point
    s = (10 * q.x + 5) / 11
    th = (10 * q.y + 5) / 11
    assert s * s == 5
    assert th * th == -25 - 2 * s
    assert q.curve.field.degree == 4
    # the flattening picks c = 1: the generator is 5*(x + y)
    assert q.curve.field.defining_poly == (869405, 19255, 1360, 20, 1)
    assert 5 * (q.x + q.y) == q.curve.field.gen()


def test_torsion_point_flattens_a_curve_with_a1_and_a3():
    # 15a1: y^2 + xy + y = x^3 + x^2 - 10x - 10, where psi_3 is an
    # irreducible quartic and s = x + y generates a 3-torsion point's field
    curve = WeierstrassCurve(1, 1, 1, -10, -10)
    (g,) = torsion_factors(3, curve)
    p = torsion_point(curve, g, 's')
    assert len(g) == 5 and p.curve.field.degree == 8
    assert min_poly(9 * (p.x + p.y)) == list(p.curve.field.defining_poly)
    assert has_order(p, 3)
    assert verify_divisor(function_with_divisor(3, p), 3, p).ok


def test_torsion_point_rational_and_refused():
    # 14a1: y^2 + xy + y = x^3 + 4x - 6
    curve = WeierstrassCurve(1, 0, 1, 4, -6)
    assert torsion_factors(3, curve) == ((-2, 1), (1, 3), (13, 2, 1))
    p = torsion_point(curve, (-2, 1), 's')
    assert p == curve.point(2, 2) and has_order(p, 3)
    # y already lies in Q(x) on x^2 + 2x + 13: no x + c*y is primitive, and
    # no point is guessed
    with pytest.raises(RuntimeError, match="no primitive element"):
        torsion_point(curve, (13, 2, 1), 's')


def test_build_catalog_rejects_other_indices():
    assert CATALOG_INDICES == (2, 5)
    with pytest.raises(ValueError, match="index 2 and 5 only"):
        build_catalog(3)


def test_build_catalog_index_two():
    cat = build_catalog(2)
    assert len(cat) == 3
    assert all(e.root_degree == 2 for e in cat)
    assert all(e.congruence_flag == 'expected-noncongruence' for e in cat)
    for e in cat:
        chk = verify_divisor(e.generator_function, 2, e.point)
        assert chk.ok, chk.detail
        s = e.expansion(10)
        assert s.lead == -2 and s.coefficient(-2) == 1


def test_build_catalog_index_five_shape():
    cat = build_catalog(5)
    assert len(cat) == 6
    assert [e.label for e in cat] == ["fP", "fQ", "fQ+1P", "fQ+2P", "fQ+3P", "fQ+4P"]
    flags = [e.congruence_flag for e in cat]
    assert flags.count('known-congruence') == 1
    assert cat[1].label == "fQ" and flags[1] == 'known-congruence'
    for e in cat:
        chk = verify_divisor(e.generator_function, 5, e.point)
        assert chk.ok, chk.detail


def test_catalog_five_x_coordinates():
    cat = build_catalog(5)
    quartics = set()
    for e in cat:
        if e.label.startswith("fQ+"):
            mp = dp_trim(min_poly(e.point.x))
            assert len(mp) == 5
            quartics.add(tuple(int(c) for c in mp))
    # generators split over the unit-reduction quartic and the Eisenstein one
    assert quartics == {(101, 41, 11, 1, 1), (155, 200, 120, 15, 1)}


def test_catalog_five_translates_pin_their_quartic():
    # x(Q+iP) is a root of psi_5's unit-reduction quartic for i = 2, 3 and of
    # its other quartic factor for i = 1, 4
    unit, other = (101, 41, 11, 1, 1), (155, 200, 120, 15, 1)
    quartics = [f for f in torsion_factors(5, x11_curve()) if len(f) == 5]
    assert unit_root_factors(quartics, 5) == [unit]
    got = {e.label: tuple(min_poly(e.point.x)) for e in build_catalog(5)[2:]}
    assert got == {"fQ+1P": other, "fQ+2P": unit, "fQ+3P": unit,
                   "fQ+4P": other}


def test_catalog_five_rejects_an_x_off_the_quartics(monkeypatch):
    from ubd import x011

    factors = torsion_factors(5, x11_curve())
    without_unit = tuple(f for f in factors if f != (101, 41, 11, 1, 1))
    monkeypatch.setattr(x011, "torsion_factors", lambda n, curve: without_unit)
    with pytest.raises(RuntimeError, match="quartic factor of psi_5"):
        build_catalog.__wrapped__(5)  # past the memo, which keeps its entries


def test_catalog_five_expansions_normalized():
    cat = build_catalog(5)
    for e in cat:
        if e.label.startswith("fQ"):
            s = e.expansion(6)
            assert s.lead == -5
            assert s.coefficient(-5) == 1


# Derived goldens: minimal polynomials of the w^-4 and w^-3 coefficients of
# the four translate entries; the multiset is invariant under the branch
# choice of Q (any branch is a Galois image of any other).
MP4 = {
    (1031, -317, 79, -13, 1),
    (2761, -1363, 289, -27, 1),
    (4961, -1716, 186, -11, 1),
    (5401, -2704, 456, -29, 1),
}
MP3 = {
    (1249331, -65156, -1304, 59, 1),
    (3035531, -306692, 8704, -13, 1),
    (44375, 3375, 225, -35, 1),
    (729431, -79481, 4121, -91, 1),
}


def test_catalog_five_coefficient_minpolys():
    cat = build_catalog(5)
    got4, got3 = set(), set()
    for e in cat:
        if e.label.startswith("fQ+"):
            s = e.expansion(5)
            got4.add(tuple(int(c) for c in dp_trim(min_poly(s.coefficient(-4)))))
            got3.add(tuple(int(c) for c in dp_trim(min_poly(s.coefficient(-3)))))
    assert got4 == MP4
    assert got3 == MP3


def test_g5_golden():
    g5 = g5_series(30)
    assert g5.lead == -5
    assert g5.coefficients(-5, 0) == [1, -12, 54, -88, -99]


def test_g5_family_roots():
    for n in (2, 3, 4, 6, 12):
        g5, closed = g5_family(n, 40)
        assert closed.lead == Fraction(-5, n)
        unit, _, _ = g5.unit_normalized()
        root = nth_root_normalized(unit, n)
        assert root.agrees_with(closed.unit, 0, 38)
        assert all(Fraction(c).denominator == 1
                   for c in root.coefficients(0, 38))
        assert series_pow(root, n).agrees_with(unit)


def test_g5_family_other_n():
    g5, closed = g5_family(7, 20)
    assert closed is None
    assert g5.lead == -5


def test_catalog_export_format():
    text = catalog_export(build_catalog(2), T=5)
    assert text.count("entry fP") == 3
    assert "field -158,-40,-2,1" in text
    assert "series 1" in text


def test_xy_solve_stops_on_a_non_integral_order(monkeypatch, tmp_path):
    from ubd import cli, x011

    real = x011._eta_product_ints

    def perturbed(eq, width, T):
        lead, unit = real(eq, width, T)
        # S_2 = -2 becomes -1: (x*S^2)_2 moves by -2904*10/14640, and x_0
        # is no longer integral
        unit[1] += 1
        return lead, unit

    monkeypatch.setattr(x011, "_eta_product_ints", perturbed)
    with pytest.raises(RuntimeError, match="not integral at order 0"):
        x011._compute_xy(20)
    monkeypatch.setattr(x011, "_XY_CACHE", {"T": -1})
    assert cli.main(["--cache-dir", str(tmp_path), "expand-xy",
                     "--terms", "20"]) == 4


XY_CHECK_T = 60


@pytest.mark.parametrize("order", [-6, 20, XY_CHECK_T - 6])
@pytest.mark.parametrize("which", ["x", "y"])
def test_curve_check_fails_at_the_order_of_a_wrong_coefficient(
        monkeypatch, which, order):
    # x_(k+4) enters x^3 at w^k as 3*x_(-2)^2*x_(k+4), and y_(k+3) enters
    # y^2 at w^k as 2*y_(-3)*y_(k+3); both sit at index k + 6 of their array
    from ubd import x011

    xs, ys = (list(a) for a in _xy_arrays(XY_CHECK_T))
    (xs if which == "x" else ys)[order + 6] += 1
    monkeypatch.setattr(x011, "_xy_arrays", lambda T: (xs, ys))
    with pytest.raises(RuntimeError,
                       match=f"curve relation fails at order {order}:"):
        expand_xy(XY_CHECK_T)


@pytest.mark.parametrize("order", [-2, 20, XY_CHECK_T - 2])
def test_derivation_check_fails_at_the_order_of_a_wrong_coefficient(
        monkeypatch, order):
    # a wrong x or y coefficient always breaks the curve relation at a lower
    # order first, so the derivation check is reached through S: S_(k+3)
    # enters (2y+1)*S at w^k as 2*y_(-3)*S_(k+3)
    from ubd import x011

    _xy_arrays(XY_CHECK_T)
    S = list(x011._XY_CACHE["S"])
    S[order + 3] += 1
    monkeypatch.setitem(x011._XY_CACHE, "S", S)
    with pytest.raises(RuntimeError,
                       match=f"derivation relation fails at order {order}:"):
        expand_xy(XY_CHECK_T)
