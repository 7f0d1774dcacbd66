"""Elliptic curves in long Weierstrass form over Q or a number field:
chord-tangent group law, torsion loci, and construction/verification of
functions with divisor n(P) - n(O) by double-and-add line accumulation."""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .exactnum import (
    domain_one,
    domain_zero,
    dp_add,
    dp_divmod,
    dp_eval,
    dp_gcd,
    dp_mul,
    dp_sub,
    dp_trim,
    factor_poly_q,
    lift,
    lower_hull_slopes,
    newton_polygon_points,
    trunc_mul,
)


class WeierstrassCurve:
    """y^2 + a1*xy + a3*y = x^3 + a2*x^2 + a4*x + a6 over Q or a number field."""

    def __init__(self, a1, a2, a3, a4, a6, field=None):
        self.field = field
        self.a1 = lift(field, a1)
        self.a2 = lift(field, a2)
        self.a3 = lift(field, a3)
        self.a4 = lift(field, a4)
        self.a6 = lift(field, a6)
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        self.b2 = a1 * a1 + 4 * a2
        self.b4 = 2 * a4 + a1 * a3
        self.b6 = a3 * a3 + 4 * a6
        self.b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
                   - a4 * a4)
        self.discriminant = (-self.b2 * self.b2 * self.b8 - 8 * self.b4 ** 3
                             - 27 * self.b6 * self.b6
                             + 9 * self.b2 * self.b4 * self.b6)
        if not self.discriminant:
            raise ValueError("singular curve: discriminant is zero")

    def base_change(self, field):
        return WeierstrassCurve(self.a1, self.a2, self.a3, self.a4, self.a6,
                                field=field)

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __eq__(self, other):
        return (isinstance(other, WeierstrassCurve)
                and self.coefficients() == other.coefficients()
                and self.field == other.field)

    def __hash__(self):
        return hash(self.coefficients())

    def __repr__(self):
        return (f"WeierstrassCurve(a1={self.a1}, a2={self.a2}, a3={self.a3}, "
                f"a4={self.a4}, a6={self.a6})")

    def rhs(self, x):
        return ((x + self.a2) * x + self.a4) * x + self.a6

    def on_curve(self, x, y):
        return y * y + self.a1 * x * y + self.a3 * y == self.rhs(x)

    def infinity(self):
        return CurvePoint(self, None, None)

    def point(self, x, y):
        x, y = lift(self.field, x), lift(self.field, y)
        if not self.on_curve(x, y):
            raise ValueError(f"({x}, {y}) does not satisfy the curve equation")
        return CurvePoint(self, x, y)


class CurvePoint:
    """A point on a Weierstrass curve: affine (x, y) or the identity O."""

    __slots__ = ('curve', 'x', 'y')

    def __init__(self, curve, x, y):
        self.curve = curve
        self.x = x
        self.y = y

    def is_infinity(self):
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.curve != other.curve:
            return False
        return (self.x, self.y) == (other.x, other.y)

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return "O" if self.is_infinity() else f"[{self.x}, {self.y}]"

    def __neg__(self):
        if self.is_infinity():
            return self
        c = self.curve
        return CurvePoint(c, self.x, -self.y - c.a1 * self.x - c.a3)

    def __add__(self, other):
        if self.curve != other.curve:
            raise ValueError("points on different curves")
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        c = self.curve
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if x1 == x2:
            if y2 == -y1 - c.a1 * x1 - c.a3:
                return c.infinity()
            lam = ((3 * x1 * x1 + 2 * c.a2 * x1 + c.a4 - c.a1 * y1)
                   / (2 * y1 + c.a1 * x1 + c.a3))
        else:
            lam = (y2 - y1) / (x2 - x1)
        nu = y1 - lam * x1
        x3 = lam * lam + c.a1 * lam - c.a2 - x1 - x2
        y3 = -(lam + c.a1) * x3 - nu - c.a3
        return CurvePoint(c, x3, y3)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (-self) * (-k)
        acc = self.curve.infinity()
        base = self
        while k:
            if k & 1:
                acc = acc + base
            base = base + base
            k >>= 1
        return acc

    __rmul__ = __mul__


def point_order(p, bound):
    """Least k <= bound with k*P = O, else None ("exceeds bound")."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    acc = p
    for k in range(1, bound + 1):
        if acc.is_infinity():
            return k
        acc = acc + p
    return None


# ----------------------------------------------------------------------
# Division polynomials and torsion x-loci.
# ----------------------------------------------------------------------

def two_torsion_cubic(curve):
    """Monic cubic whose roots are the x-coordinates of the 2-torsion:
    eliminate y = -(a1*x + a3)/2 from the curve equation."""
    if curve.field is not None:
        raise ValueError("two_torsion_cubic expects a rational model")
    a1, a2, a3, a4, a6 = (Fraction(c) for c in curve.coefficients())
    return [a6 + a3 * a3 / 4, a4 + a1 * a3 / 2, a2 + a1 * a1 / 4, Fraction(1)]


def five_division_polynomial(curve):
    """psi_5 as a polynomial in x (degree 12, leading coefficient 5)."""
    b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
    psi2sq = [b6, 2 * b4, b2, lift(curve.field, 4)]
    psi3 = [b8, 3 * b6, 3 * b4, b2, lift(curve.field, 3)]
    psi4h = [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4,
             b2, lift(curve.field, 2)]  # psi4 / psi2
    return dp_sub(dp_mul(psi4h, dp_mul(psi2sq, psi2sq)),
                  dp_mul(dp_mul(psi3, psi3), psi3))


@lru_cache(maxsize=None)
def five_torsion_factors(curve):
    """Irreducible factorization data of psi_5 for a rational model:
    (sorted rational x-coordinates, the other irreducible factors as
    primitive integer coefficient lists).  Computed once per curve; the
    lists are shared, so callers copy them before changing them."""
    if curve.field is not None:
        raise ValueError("five_torsion_factors expects a rational model")
    psi5 = five_division_polynomial(curve)
    _, factors = factor_poly_q([Fraction(c) for c in psi5])
    rational_x = []
    rest = []
    for fac, mult in factors:
        assert mult == 1, "psi_5 should be squarefree for a nonsingular curve"
        if len(fac) == 2:
            rational_x.append(Fraction(-fac[0], fac[1]))
        else:
            rest.append(fac)
    return sorted(rational_x), rest


def _all_unit_slopes_at(fac, p):
    segs = lower_hull_slopes(newton_polygon_points([Fraction(c) for c in fac], p))
    return all(s == 0 for s, _ in segs)


def torsion_x_locus(n, curve):
    """x-locus of the nonzero n-torsion (or its relevant Galois orbit).

    n=2: the monic cubic from eliminating y along 2y + a1*x + a3 = 0.
    n=5: the quartic factor of psi_5 whose roots are 5-adic units; for a curve
    with a rational 5-torsion point and ordinary reduction at 5 this is the
    orbit of x-coordinates of generators reducing to nonzero points.
    """
    if n == 2:
        return two_torsion_cubic(curve)
    if n == 5:
        _, irrational = five_torsion_factors(curve)
        quartics = [f for f in irrational if len(f) == 5]
        unit_quartics = [f for f in quartics if f[-1] == 1
                         and _all_unit_slopes_at(f, 5)]
        if len(unit_quartics) != 1:
            raise ValueError(
                "could not isolate a unique unit-reduction quartic among "
                f"{quartics}")
        return [Fraction(c) for c in unit_quartics[0]]
    raise ValueError(f"unsupported torsion order {n}")


# ----------------------------------------------------------------------
# Curve functions (u(x) + v(x)*y) / den(x) and Miller-style construction.
# ----------------------------------------------------------------------

class CurveFunction:
    """(u(x) + v(x)*y) / den(x) on a Weierstrass curve, kept reduced:
    y^2 is always eliminated by the curve equation, gcd(u, v, den) = 1,
    and den is monic."""

    __slots__ = ('curve', 'u', 'v', 'den')

    def __init__(self, curve, u, v, den=None):
        u = dp_trim([lift(curve.field, c) for c in u])
        v = dp_trim([lift(curve.field, c) for c in v])
        den = dp_trim([lift(curve.field, c) for c in (den if den is not None else [1])])
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = dp_gcd(dp_gcd(u, v) or den, den)
        if len(g) > 1:
            u = dp_divmod(u, g)[0]
            v = dp_divmod(v, g)[0]
            den = dp_divmod(den, g)[0]
        if den[-1] != 1:
            inv = 1 / den[-1]
            u = [c * inv for c in u]
            v = [c * inv for c in v]
            den = [c * inv for c in den]
        self.curve = curve
        self.u = tuple(u)
        self.v = tuple(v)
        self.den = tuple(den)

    def is_zero(self):
        return not self.u and not self.v

    def __repr__(self):
        def poly(cs, sym='x'):
            parts = [f"({c})*{sym}^{i}" for i, c in enumerate(cs) if c]
            return " + ".join(parts) if parts else "0"
        s = poly(self.u)
        if self.v:
            s += " + (" + poly(self.v) + ")*y"
        if len(self.den) > 1 or self.den[0] != 1:
            s = f"({s}) / ({poly(self.den)})"
        return f"CurveFunction({s})"

    # -- arithmetic ---------------------------------------------------
    def _g_poly(self):
        c = self.curve
        return [c.a6, c.a4, c.a2, domain_one(c.field)]

    def _a13(self):
        c = self.curve
        return dp_trim([c.a3, c.a1])

    def __mul__(self, other):
        if not isinstance(other, CurveFunction):
            return NotImplemented
        if self.curve != other.curve:
            raise ValueError("functions on different curves")
        u1, v1, u2, v2 = self.u, self.v, other.u, other.v
        vv = dp_mul(v1, v2)
        u = dp_add(dp_mul(u1, u2), dp_mul(vv, self._g_poly()))
        v = dp_sub(dp_add(dp_mul(u1, v2), dp_mul(u2, v1)),
                   dp_mul(vv, self._a13()))
        return CurveFunction(self.curve, u, v, dp_mul(self.den, other.den))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting the zero function")
        u, v = self.u, self.v
        a13 = self._a13()
        # norm = u^2 - u*v*(a1x+a3) - v^2*g;  conj = (u - v*(a1x+a3)) - v*y
        norm = dp_sub(dp_mul(u, u),
                      dp_add(dp_mul(dp_mul(u, v), a13),
                             dp_mul(dp_mul(v, v), self._g_poly())))
        nu = dp_mul(self.den, dp_sub(u, dp_mul(v, a13)))
        nv = dp_mul(self.den, [-c for c in v])
        return CurveFunction(self.curve, nu, nv, norm)

    def __truediv__(self, other):
        return self * other.inverse()

    def scalar_mul(self, s):
        s = lift(self.curve.field, s)
        return CurveFunction(self.curve, [c * s for c in self.u],
                             [c * s for c in self.v], list(self.den))

    def evaluate(self, point):
        """Exact value at an affine point (not a pole of the function)."""
        if point.is_infinity():
            raise ValueError("evaluation at O: use the w-expansion instead")
        d = dp_eval(self.den, point.x)
        if not d:
            raise ZeroDivisionError("point is a pole of the function")
        n = dp_eval(self.u, point.x) + dp_eval(self.v, point.x) * point.y
        return n / d

    # -- behaviour at O -----------------------------------------------
    def pole_order_at_O(self):
        """Pole order at O: x has a double, y a triple pole, and the parity
        of 2*deg(u) vs 3 + 2*deg(v) means the leading terms never cancel."""
        if self.is_zero():
            raise ValueError("zero function")
        du = 2 * (len(self.u) - 1) if self.u else None
        dv = 3 + 2 * (len(self.v) - 1) if self.v else None
        top = max(d for d in (du, dv) if d is not None)
        return top - 2 * (len(self.den) - 1)

    def leading_coeff_at_O(self):
        du = 2 * (len(self.u) - 1) if self.u else None
        dv = 3 + 2 * (len(self.v) - 1) if self.v else None
        if dv is None or (du is not None and du > dv):
            lc = self.u[-1]
        else:
            lc = self.v[-1]
        return lc / self.den[-1]

    def normalized(self):
        """Scale so the w-expansion at O has leading coefficient 1."""
        return self.scalar_mul(1 / self.leading_coeff_at_O())


def line_through(curve, a, b):
    """The line function with divisor (A) + (B) + (-(A+B)) - 3(O); for a
    vertical configuration this degenerates to x - x_A with divisor
    (A) + (-A) - 2(O)."""
    one = domain_one(curve.field)
    if a.is_infinity() or b.is_infinity():
        raise ValueError("lines need affine points")
    if a.x == b.x and (a != b or not (2 * a.y + curve.a1 * a.x + curve.a3)):
        return CurveFunction(curve, [-a.x, one], [])
    if a == b:
        lam = ((3 * a.x * a.x + 2 * curve.a2 * a.x + curve.a4 - curve.a1 * a.y)
               / (2 * a.y + curve.a1 * a.x + curve.a3))
    else:
        lam = (b.y - a.y) / (b.x - a.x)
    nu = a.y - lam * a.x
    return CurveFunction(curve, [-nu, -lam], [one])


def vertical_at(curve, a):
    one = domain_one(curve.field)
    return CurveFunction(curve, [-a.x, one], [])


def function_with_divisor(n, p):
    """Miller-style accumulation of a function with divisor n(P) - n(O).

    Maintains f_k with divisor k(P) - ([k]P) - (k-1)(O); requires n*P = O,
    detected at the final vertical-line cancellation.  The result is
    normalized so its w-expansion at O has leading coefficient 1.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    curve = p.curve
    one_fn = CurveFunction(curve, [domain_one(curve.field)], [])
    if n == 1:
        if not p.is_infinity():
            raise ValueError("P is not 1-torsion")
        return one_fn
    if p.is_infinity():
        raise ValueError("P must be affine for n > 1")
    f = one_fn
    v = p
    bits = bin(n)[3:]
    for bit in bits:
        # doubling: f^2 * line(V,V) / vertical(2V); from V = O just square
        f = f * f
        if not v.is_infinity():
            f = f * line_through(curve, v, v)
            v2 = v + v
            if not v2.is_infinity():
                f = f / vertical_at(curve, v2)
            v = v2
        if bit == '1':
            if v.is_infinity():
                # div(f) = k(P) - k(O) already absorbs the extra (P) - ([k+1]P)
                v = p
            else:
                f = f * line_through(curve, v, p)
                vp = v + p
                if not vp.is_infinity():
                    f = f / vertical_at(curve, vp)
                v = vp
    if not v.is_infinity():
        raise ValueError("P is not n-torsion: the final vertical does not cancel")
    return f.normalized()


# ----------------------------------------------------------------------
# Divisor verification by formal local parameterization.
# ----------------------------------------------------------------------

DivisorCheck = namedtuple(
    'DivisorCheck', 'ok pole_order value_at_p vanishing_order detail')


def _tseries_eval_poly(poly, xs, L, field):
    """poly(x(t)) to order t^(L-1), by Horner's rule."""
    acc = [domain_zero(field)] * L
    if not poly:
        return acc
    acc[0] = poly[-1]
    for c in reversed(poly[:-1]):
        acc = trunc_mul(acc, xs, L, field)
        acc[0] = acc[0] + c
    return acc


def local_parameterization(curve, p, L):
    """Formal branch (x(t), y(t)) of the curve at an affine point P to order
    t^(L-1): x = x_P + t when the curve is smooth in y there, otherwise
    y = y_P + t (2-torsion) with x solved the same way.  The unknown's
    coefficient k enters coefficient k of the residual linearly, with factor
    ey or ex, so each step needs only coefficient k of y^2, x*y, x^2 and x^3
    (x^2 kept as a running list): O(k) products."""
    zero = domain_zero(curve.field)
    one = domain_one(curve.field)
    a1, a2, a3, a4, _ = curve.coefficients()
    ey = 2 * p.y + a1 * p.x + a3
    ex = a1 * p.y - (3 * p.x * p.x + 2 * a2 * p.x + a4)
    xs = [p.x] + [zero] * (L - 1)
    ys = [p.y] + [zero] * (L - 1)
    if not ey and not ex:
        raise ValueError("singular point (cannot happen on a nonsingular curve)")
    known, unknown, e = (xs, ys, ey) if ey else (ys, xs, ex)
    if L > 1:
        known[1] = one
    x2 = [p.x * p.x] + [zero] * (L - 1)
    minus_inv = -1 / e

    def coeff(a, b, k):
        return sum(map(mul, a[:k + 1], reversed(b[:k + 1])), zero)

    for k in range(1, L):
        # coefficient k of the residual, with unknown[k] still zero
        x2[k] = coeff(xs, xs, k)
        r = (coeff(ys, ys, k) + a1 * coeff(xs, ys, k) + a3 * ys[k]
             - coeff(x2, xs, k) - a2 * x2[k] - a4 * xs[k])
        unknown[k] = r * minus_inv
        if unknown is xs:
            x2[k] += 2 * p.x * xs[k]
    return xs, ys


def verify_divisor(f, n, p, local_t=None):
    """Three checks that div(f) = n(P) - n(O): formal pole order at O, value
    zero at P, and vanishing order n along the formal branch at P."""
    if p.is_infinity():
        raise ValueError("P must be affine")
    if local_t is None:
        local_t = n + 5
    curve = f.curve
    pole = f.pole_order_at_O()
    try:
        val = f.evaluate(p)
    except ZeroDivisionError:
        return DivisorCheck(False, pole, None, None, "P is a pole of F")
    L = local_t + 1
    xs, ys = local_parameterization(curve, p, L)
    num = _tseries_eval_poly(list(f.u), xs, L, curve.field)
    vy = trunc_mul(_tseries_eval_poly(list(f.v), xs, L, curve.field), ys, L,
                   curve.field)
    num = [num[k] + vy[k] for k in range(L)]
    den = _tseries_eval_poly(list(f.den), xs, L, curve.field)
    onum = next((k for k, c in enumerate(num) if c), None)
    oden = next((k for k, c in enumerate(den) if c), None)
    if onum is None or oden is None:
        return DivisorCheck(False, pole, val, None,
                            f"local order unresolved at local_T={local_t}; increase it")
    vanish = onum - oden
    ok = (pole == n) and (not val) and (vanish == n)
    detail = f"pole order {pole}, F(P) = {val}, vanishing order {vanish}"
    return DivisorCheck(ok, pole, val, vanish, detail)
