from fractions import Fraction

import pytest

from ubd.exactnum import NumberField, dp_monic, dp_mul, dp_sub, lift, trunc_mul
from ubd.ellcurve import (
    CurveFunction,
    WeierstrassCurve,
    division_polynomial,
    function_with_divisor,
    line_through,
    torsion_factors,
    verify_divisor,
)

from helpers import has_order, unit_root_factors


@pytest.fixture(scope="module")
def x11():
    return WeierstrassCurve(0, -1, 1, -10, -20)


def test_discriminant_nonzero_check():
    with pytest.raises(ValueError):
        WeierstrassCurve(0, 0, 0, 0, 0)
    c = WeierstrassCurve(0, -1, 1, -10, -20)
    assert c.discriminant == -161051  # -11^5


def test_point_validation(x11):
    p = x11.point(5, 5)
    assert not p.is_infinity()
    with pytest.raises(ValueError):
        x11.point(5, 6)


def test_point_op_examples(x11):
    p = x11.point(5, 5)
    o = x11.infinity()
    assert p + o == p
    assert p * 3 == x11.point(16, 60)
    assert (p * 5).is_infinity()
    assert -p == x11.point(5, -6)
    assert p + p == p * 2


def test_point_order_examples(x11):
    p = x11.point(5, 5)
    assert has_order(x11.infinity(), 1)
    assert has_order(p, 5) and has_order(x11.point(16, 60), 5)
    assert not has_order(p, 3) and not has_order(p, 10)


def test_group_law_random_associativity(x11):
    p = x11.point(5, 5)
    pts = [x11.infinity()] + [k * p for k in range(1, 5)]
    for a in pts:
        for b in pts:
            for c in pts:
                assert (a + b) + c == a + (b + c)
            assert a + (-a) == x11.infinity()
            assert a + x11.infinity() == a


def test_group_law_over_number_field(x11):
    k = NumberField([-158, -40, -2, 1])
    ck = x11.base_change(k)
    p2 = ck.point(k.gen() / 2, Fraction(-1, 2))
    assert (p2 + p2).is_infinity()
    assert has_order(p2, 2)
    p5 = ck.point(5, 5)
    assert (p2 + p5) + p2 == p5


def _psi5_closed_form(curve):
    """psi_5 = (psi_4/psi_2)*(psi_2^2)^2 - psi_3^3 from the closed forms of
    psi_2^2, psi_3 and psi_4/psi_2: the reference for the recurrence."""
    b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
    psi2sq = [b6, 2 * b4, b2, lift(curve.field, 4)]
    psi3 = [b8, 3 * b6, 3 * b4, b2, lift(curve.field, 3)]
    psi4h = [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4,
             b2, lift(curve.field, 2)]
    return dp_sub(dp_mul(psi4h, dp_mul(psi2sq, psi2sq)),
                  dp_mul(dp_mul(psi3, psi3), psi3))


@pytest.mark.parametrize("coeffs", [(0, -1, 1, -10, -20), (1, 1, 1, -10, -10),
                                    (1, 0, 1, 4, -6)])
def test_psi5_recurrence_matches_closed_form(coeffs):
    curve = WeierstrassCurve(*coeffs)
    assert division_polynomial(5, curve) == _psi5_closed_form(curve)


def test_division_polynomials_low_orders(x11):
    assert division_polynomial(3, x11) == [-21, -237, -60, -4, 3]
    # psi_2^2 is 4 times the monic cubic from 2y + a1*x + a3 = 0
    assert division_polynomial(2, x11) == [4 * c for c in
                                           [Fraction(-79, 4), -10, -1, 1]]
    with pytest.raises(ValueError):
        division_polynomial(1, x11)


def test_psi5_factors(x11):
    factors = torsion_factors(5, x11)
    assert factors == ((-16, 1), (-5, 1), (-29, 5, 5), (101, 41, 11, 1, 1),
                       (155, 200, 120, 15, 1))
    quartics = [f for f in factors if len(f) == 5]
    assert unit_root_factors(quartics, 5) == [(101, 41, 11, 1, 1)]
    assert torsion_factors(5, x11) == factors  # the same on a second call


def test_psi7_is_irreducible(x11):
    assert [len(f) - 1 for f in torsion_factors(7, x11)] == [24]


def test_function_with_divisor_n1(x11):
    f = function_with_divisor(1, x11.infinity())
    assert f.u == (1,) and f.v == ()


def test_function_with_divisor_two_torsion(x11):
    k = NumberField([-158, -40, -2, 1])
    ck = x11.base_change(k)
    xp = k.gen() / 2
    p2 = ck.point(xp, Fraction(-1, 2))
    f = function_with_divisor(2, p2)
    assert f.v == ()
    assert list(f.u) == [-xp, k.one()]
    chk = verify_divisor(f, 2, p2)
    assert chk.ok, chk.detail


def test_function_with_divisor_fp(x11):
    p = x11.point(5, 5)
    f = function_with_divisor(5, p)
    # the known closed form, leading coefficient already 1
    assert list(f.u) == [-55, 30, -4]
    assert list(f.v) == [-4, 1]
    assert f.pole_order_at_O() == 5
    chk = verify_divisor(f, 5, p)
    assert chk.ok and chk.pole_order == 5 and chk.vanishing_order == 5


def test_function_with_divisor_rejects_nontorsion(x11):
    with pytest.raises(ValueError):
        function_with_divisor(3, x11.point(5, 5))  # order 5, not 3-torsion


def test_function_with_divisor_composite_multiple(x11):
    # n*P = O with ord(P) a proper divisor of n: the walker passes through O
    p = x11.point(5, 5)
    f10 = function_with_divisor(10, p)
    chk = verify_divisor(f10, 10, p)
    assert chk.ok, chk.detail

    k = NumberField([-158, -40, -2, 1])
    p2 = x11.base_change(k).point(k.gen() / 2, Fraction(-1, 2))
    f6 = function_with_divisor(6, p2)
    chk = verify_divisor(f6, 6, p2)
    assert chk.ok, chk.detail
    # the cube of x - x_P, normalized
    xp = k.gen() / 2
    assert list(f6.u) == [-xp ** 3, 3 * xp * xp, -3 * xp, k.one()]


# rational torsion points of orders 3, 4, 6 and 7, which no catalog index
# uses yet: Cremona's 14a1 (Z/6), 15a1 (Z/4 x Z/2) and 26b1 (Z/7)
CURVE_14A1, CURVE_15A1, CURVE_26B1 = (1, 0, 1, 4, -6), (1, 1, 1, -10, -10), \
    (1, -1, 1, -3, 3)
TORSION = [(CURVE_14A1, (2, -5), 3), (CURVE_15A1, (8, 18), 4),
           (CURVE_14A1, (9, 23), 6), (CURVE_26B1, (1, 0), 7)]


@pytest.mark.parametrize("coeffs,xy,n", TORSION, ids=["3", "4", "6", "7"])
def test_function_with_divisor_on_rational_torsion(coeffs, xy, n):
    p = WeierstrassCurve(*coeffs).point(*xy)
    f = function_with_divisor(n, p)
    chk = verify_divisor(f, n, p)
    assert chk.ok and chk.pole_order == n, chk.detail
    # at 2n the chain passes through O and starts again from P: f^2
    f2 = function_with_divisor(2 * n, p)
    assert verify_divisor(f2, 2 * n, p).ok
    sq = (f * f).normalized()
    assert (f2.u, f2.v) == (sq.u, sq.v)
    with pytest.raises(ValueError):
        function_with_divisor(n - 1, p)


def test_line_through_gives_the_sum(x11):
    # the chord's line vanishes at A, B and -(A + B), and its sum is the
    # group law's, tangent and vertical cases included
    e = WeierstrassCurve(*CURVE_14A1)
    pts = [x11.point(5, 5), x11.point(16, -61), e.point(9, 23),
           e.point(1, -1)]
    for a in pts:
        for b in (a, -a, 2 * a, 3 * a):
            if b.is_infinity():
                continue
            line, total = line_through(a.curve, a, b)
            assert total == a + b
            zeros = [a, b] + ([] if total.is_infinity() else [-total])
            assert all(not line.evaluate(z) for z in zeros), (a, b)
            if total.is_infinity():
                assert (line.u, line.v) == ((-a.x, 1), ())


def test_verify_divisor_failure_cases(x11):
    p = x11.point(5, 5)
    fx = CurveFunction(x11, [0, 1], [])  # the function x
    chk = verify_divisor(fx, 2, p)
    assert not chk.ok
    assert chk.value_at_p == 5  # fails at F(P) = 0

    f = function_with_divisor(5, p)
    assert not verify_divisor(f, 4, p).ok  # wrong multiplicity claimed


def test_verify_divisor_rejects_zeros_away_from_p(x11):
    # f_P*(x - 16) vanishes to order 5 at P and not at -P, but its norm keeps
    # (x - 16)^2 and its pole order at O is 7
    p = x11.point(5, 5)
    f = function_with_divisor(5, p) * CurveFunction(x11, [-16, 1], [])
    chk = verify_divisor(f, 5, p)
    assert chk.vanishing_order == 5 and chk.pole_order == 7
    assert not chk.ok


def test_verify_divisor_scaling_invariance(x11):
    p = x11.point(5, 5)
    f = function_with_divisor(5, p)
    g = f.scalar_mul(Fraction(-7, 3))
    chk = verify_divisor(g, 5, p)
    assert chk.ok


def test_same_subgroup_principal_span(x11):
    # <P> = <2P>: div(f_P^2 / f_{2P}) = 10(P) - 5(2P) - 5(O) must be principal:
    # degree 0 and summing to O under the group law
    p = x11.point(5, 5)
    q = 2 * p
    f1 = function_with_divisor(5, p)
    f2 = function_with_divisor(5, q)
    assert verify_divisor(f1, 5, p).ok and verify_divisor(f2, 5, q).ok
    divisor = [(p, 10), (q, -5)]  # plus (O, -5), which drops out of the sum
    assert sum((pt, k) == (pt, k) and k for pt, k in divisor) - 5 == 0
    acc = x11.infinity()
    for pt, k in divisor:
        acc = acc + k * pt
    assert acc.is_infinity()


def test_curve_function_arithmetic_reduction(x11):
    f = CurveFunction(x11, [1, 1], [2])  # (1 + x) + 2y
    h = f * f
    val = h.evaluate(x11.point(5, 5))
    direct = f.evaluate(x11.point(5, 5))
    assert val == direct * direct


def test_pole_order_parity_rule(x11):
    assert CurveFunction(x11, [0, 1], []).pole_order_at_O() == 2   # x
    assert CurveFunction(x11, [], [1]).pole_order_at_O() == 3      # y
    assert CurveFunction(x11, [0, 0, 1], [1]).pole_order_at_O() == 4
    f = CurveFunction(x11, [-55, 30, -4], [-4, 1])
    assert f.leading_coeff_at_O() == 1


def _cubic_at(xs, L, curve):
    """x^3 + a2*x^2 + a4*x + a6 along the branch, to order t^(L-1)."""
    x2 = trunc_mul(xs, xs, L, curve.field)
    x3 = trunc_mul(x2, xs, L, curve.field)
    out = [x3[k] + curve.a2 * x2[k] + curve.a4 * xs[k] for k in range(L)]
    out[0] = out[0] + curve.a6
    return out


def _curve_residual(curve, xs, ys, L):
    yy = trunc_mul(ys, ys, L, curve.field)
    xy = trunc_mul(xs, ys, L, curve.field)
    rhs = _cubic_at(xs, L, curve)
    return [yy[k] + curve.a1 * xy[k] + curve.a3 * ys[k] - rhs[k]
            for k in range(L)]


def _reference_local_parameterization(curve, p, L):
    """The branch at P by recomputing the whole truncated residual at every
    step and correcting coefficient k by residual[k] / (dR/dy or dR/dx)."""
    zero, one = lift(curve.field, 0), lift(curve.field, 1)
    ey = 2 * p.y + curve.a1 * p.x + curve.a3
    ex = curve.a1 * p.y - (3 * p.x * p.x + 2 * curve.a2 * p.x + curve.a4)
    xs, ys = [zero] * L, [zero] * L
    xs[0], ys[0] = p.x, p.y
    known, unknown, e = (xs, ys, ey) if ey else (ys, xs, ex)
    if L > 1:
        known[1] = one
    for k in range(1, L):
        unknown[k] = unknown[k] - _curve_residual(curve, xs, ys, L)[k] / e
    return xs, ys


def _branch_points():
    from ubd.x011 import build_catalog
    x11 = WeierstrassCurve(0, -1, 1, -10, -20)
    points = [e.point for e in build_catalog(5) + build_catalog(2)]
    points += [x11.point(5, 5), x11.point(5, -6), x11.point(16, 60),
               x11.point(16, -61)]
    return points


def _reference_order_at(f, branch, L):
    """ord_P(f) read off the reference branch (xs, ys) at P, truncated at
    t^(L-1): t is a uniformizer at P, so the order is the index of the first
    nonzero coefficient of f(x(t), y(t)), or None if the first L all vanish."""
    xs, ys = branch
    field = f.curve.field

    def at_x(poly):
        acc = [lift(field, 0)] * L
        for c in reversed(poly):
            acc = trunc_mul(acc, xs, L, field)
            acc[0] = acc[0] + c
        return acc

    vy = trunc_mul(at_x(f.v), ys, L, field)
    series = [a + b for a, b in zip(at_x(f.u), vy)]
    return next((k for k, c in enumerate(series) if c), None)


def _agrees(vanishing_order, reference, L):
    """The norm's ord_P against the branch's: equal when the branch is long
    enough to see the order, else the order is at least L."""
    if reference is None:
        return vanishing_order >= L
    return vanishing_order == reference


@pytest.mark.parametrize("L", [1, 2, 8, 12])
def test_local_parameterization_matches_reference(L):
    points = _branch_points()
    branches = {}
    for p in points:
        xs, ys = branches[p] = _reference_local_parameterization(p.curve, p, L)
        assert xs[0] == p.x and ys[0] == p.y
        assert not any(_curve_residual(p.curve, xs, ys, L)), p
    for p in points:
        n = 2 if -p == p else 5
        f = function_with_divisor(n, p)
        chk = verify_divisor(f, n, p)
        assert chk.vanishing_order == n
        assert _agrees(n, _reference_order_at(f, branches[p], L), L), p
        # the same f at every other point of its field where the norm
        # counts ord_P: there f(-P) != 0 or 2P = O
        for q in points:
            if q.curve != p.curve:
                continue
            chk = verify_divisor(f, n, q)
            if chk.vanishing_order is not None:
                ref = _reference_order_at(f, branches[q], L)
                assert _agrees(chk.vanishing_order, ref, L), (p, q)
            else:
                assert not f.evaluate(-q) and -q != q


def test_verify_divisor_needs_the_value_at_minus_p(x11):
    # each norm is c*(x - 5)^n with the pole order n at O, but the zeros
    # sit at -P, or are split between P and -P
    p = x11.point(5, 5)
    for f, n in ((CurveFunction(x11, [-5, 1], []), 2),
                 (function_with_divisor(5, -p), 5)):
        power = [1]
        for _ in range(n):
            power = dp_mul(power, [-5, 1])
        assert dp_monic(f.norm()) == power and f.pole_order_at_O() == n
        chk = verify_divisor(f, n, p)
        assert not chk.ok and chk.vanishing_order is None, chk.detail
