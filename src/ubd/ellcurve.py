"""Elliptic curves in long Weierstrass form over Q or a number field:
chord-tangent group law, division polynomials, and functions with divisor
n(P) - n(O): built in the coordinate ring by accumulating the lines of the
addition chain P, 2P, ..., nP, whose slopes also give the sums, with one
exact division by the verticals, and checked by their norm to K[x]."""

from collections import namedtuple
from functools import reduce

from .exactnum import (
    dp_add,
    dp_divmod,
    dp_eval,
    dp_mul,
    dp_sub,
    dp_trim,
    factor_poly_q,
    lift,
    power,
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
        return _chord(self, other)[1]

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (-self) * (-k)
        return (power(self, k, CurvePoint.__add__) if k
                else self.curve.infinity())

    __rmul__ = __mul__


def _chord(a, b):
    """The line through affine A and B, the tangent if A = B, and the sum:
    ((lam, nu), A + B) for y = lam*x + nu, or (None, O) when the line is
    vertical, B = -A."""
    c = a.curve
    x1, y1, x2 = a.x, a.y, b.x
    if x1 == x2:
        if b.y == -y1 - c.a1 * x1 - c.a3:
            return None, c.infinity()
        lam = ((3 * x1 * x1 + 2 * c.a2 * x1 + c.a4 - c.a1 * y1)
               / (2 * y1 + c.a1 * x1 + c.a3))
    else:
        lam = (b.y - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + c.a1 * lam - c.a2 - x1 - x2
    return (lam, nu), CurvePoint(c, x3, -(lam + c.a1) * x3 - nu - c.a3)


# ----------------------------------------------------------------------
# Division polynomials.
# ----------------------------------------------------------------------

def division_polynomial(n, curve):
    """The x-polynomial of the n-torsion: psi_2^2 = 4x^3 + b2*x^2 + 2*b4*x
    + b6 for n = 2, psi_n for odd n and psi_n/psi_2 for even n > 2.

    From psi_3 and psi_4/psi_2 by the recurrences (Washington, Elliptic
    Curves, 2nd ed., 3.2) psi_(2m+1) = psi_(m+2)*psi_m^3 - psi_(m-1)*
    psi_(m+1)^3 and psi_(2m) = psi_m*(psi_(m+2)*psi_(m-1)^2 - psi_(m-2)*
    psi_(m+1)^2)/psi_2, which hold with psi_2 = 2y + a1*x + a3."""
    if n < 2:
        raise ValueError("n must be at least 2")
    b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
    one = lift(curve.field, 1)
    cubic = [b6, 2 * b4, b2, 4 * one]
    if n == 2:
        return cubic
    psi = [[], [one], [one], [b8, 3 * b6, 3 * b4, b2, 3 * one],
           [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4,
            b2, 2 * one]]  # psi_k/psi_2 for even k

    def term(k, ks):
        # psi_2 divides each even psi_i, and psi_k if k is even; the rest
        # pair up into factors psi_2^2 = cubic
        twos = sum(i % 2 == 0 for i in ks) - 2 * (k % 2 == 0)
        return reduce(dp_mul, [psi[i] for i in ks] + [cubic] * (twos // 2))

    for k in range(5, n + 1):
        m = k // 2
        if k % 2:
            lhs, rhs = (m + 2, m, m, m), (m - 1, m + 1, m + 1, m + 1)
        else:
            lhs, rhs = (m, m + 2, m - 1, m - 1), (m, m - 2, m + 1, m + 1)
        psi.append(dp_sub(term(k, lhs), term(k, rhs)))
    return psi[n]


def torsion_factors(n, curve):
    """The irreducible factors over Q of division_polynomial(n, curve) for a
    rational model, as primitive integer coefficient tuples in the order of
    factor_poly_q.  E is nonsingular, so the division polynomial is
    squarefree."""
    if curve.field is not None:
        raise ValueError("torsion_factors expects a rational model")
    _, factors = factor_poly_q(division_polynomial(n, curve))
    return tuple(map(tuple, factors))


# ----------------------------------------------------------------------
# Curve functions u(x) + v(x)*y and Miller-style construction.
# ----------------------------------------------------------------------

class CurveFunction:
    """u(x) + v(x)*y in the coordinate ring K[x, y]/(E) of a Weierstrass
    curve: y^2 is always eliminated by the curve equation, so u and v are
    unique and the only pole is at O."""

    __slots__ = ('curve', 'u', 'v')

    def __init__(self, curve, u, v):
        self.curve = curve
        self.u = tuple(dp_trim([lift(curve.field, c) for c in u]))
        self.v = tuple(dp_trim([lift(curve.field, c) for c in v]))

    def is_zero(self):
        return not self.u and not self.v

    def __repr__(self):
        def poly(cs, sym='x'):
            parts = [f"({c})*{sym}^{i}" for i, c in enumerate(cs) if c]
            return " + ".join(parts) if parts else "0"
        s = poly(self.u)
        if self.v:
            s += " + (" + poly(self.v) + ")*y"
        return f"CurveFunction({s})"

    # -- arithmetic ---------------------------------------------------
    def _g_poly(self):
        c = self.curve
        return [c.a6, c.a4, c.a2, lift(c.field, 1)]

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
        return CurveFunction(self.curve, u, v)

    def norm(self):
        """N(f) = f * f(-.) = u^2 - u*v*(a1*x + a3) - v^2*g(x) in K[x], with
        g = x^3 + a2*x^2 + a4*x + a6; its degree is the pole order at O."""
        u, v = self.u, self.v
        return dp_sub(dp_mul(u, u),
                      dp_add(dp_mul(dp_mul(u, v), self._a13()),
                             dp_mul(dp_mul(v, v), self._g_poly())))

    def evaluate(self, point):
        """Exact value at an affine point."""
        if point.is_infinity():
            raise ValueError("evaluation at O: use the w-expansion instead")
        return dp_eval(self.u, point.x) + dp_eval(self.v, point.x) * point.y

    # -- behaviour at O -----------------------------------------------
    def _leading_at_O(self):
        """(pole order, coefficient) of the leading term at O: x has a
        double, y a triple pole, and the parity of 2*deg(u) vs 3 + 2*deg(v)
        means the leading terms of u and v*y never cancel."""
        if self.is_zero():
            raise ValueError("zero function")
        terms = [(2 * len(self.u) - 2, self.u[-1])] if self.u else []
        if self.v:
            terms.append((2 * len(self.v) + 1, self.v[-1]))
        return max(terms, key=lambda t: t[0])

    def pole_order_at_O(self):
        return self._leading_at_O()[0]

    def leading_coeff_at_O(self):
        return self._leading_at_O()[1]

    def normalized(self):
        """Scale so the w-expansion at O has leading coefficient 1."""
        lc = self.leading_coeff_at_O()
        if lc == 1:
            return self
        s = 1 / lc
        return CurveFunction(self.curve, [c * s for c in self.u],
                             [c * s for c in self.v])


def line_through(curve, a, b):
    """(l, A + B) for the line function l with divisor (A) + (B) + (-(A+B))
    - 3(O); for a vertical configuration l degenerates to x - x_A with
    divisor (A) + (-A) - 2(O), and A + B = O."""
    if a.is_infinity() or b.is_infinity():
        raise ValueError("lines need affine points")
    one = lift(curve.field, 1)
    chord, total = _chord(a, b)
    if chord is None:
        return CurveFunction(curve, [-a.x, one], []), total
    lam, nu = chord
    return CurveFunction(curve, [-nu, -lam], [one]), total


def function_with_divisor(n, p):
    """Miller-style accumulation of a function with divisor n(P) - n(O).

    Walks the addition chain P, 2P, ..., nP, keeping f_k = num / den with
    divisor k(P) - ([k]P) - (k-1)(O): each step multiplies in the line
    through [k]P and P, in K[x, y]/(E), and the vertical x - x_R at
    R = [k+1]P, in K[x], unless R = O.  Where [k]P = O, f_k has divisor
    k(P) - k(O) and the chain starts again from P.  Requires n*P = O,
    detected at the final vertical-line cancellation; then f has its only
    pole at O, so den divides u and v exactly, once, at the end.  The
    result is normalized so its w-expansion at O has leading coefficient 1.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    curve = p.curve
    one = lift(curve.field, 1)
    if n == 1:
        if not p.is_infinity():
            raise ValueError("P is not 1-torsion")
        return CurveFunction(curve, [one], [])
    if p.is_infinity():
        raise ValueError("P must be affine for n > 1")
    num, den, v = CurveFunction(curve, [one], []), [one], p
    for _ in range(n - 1):
        if v.is_infinity():
            v = p
            continue
        line, v = line_through(curve, v, p)
        num = num * line
        if not v.is_infinity():
            den = dp_mul(den, [-v.x, one])
    if not v.is_infinity():
        raise ValueError("P is not n-torsion: the final vertical does not cancel")
    (qu, ru), (qv, rv) = dp_divmod(num.u, den), dp_divmod(num.v, den)
    if ru or rv:
        raise RuntimeError("the verticals do not divide the lines "
                           "(implementation bug)")
    return CurveFunction(curve, qu, qv).normalized()


# ----------------------------------------------------------------------
# Divisor verification by the norm.
# ----------------------------------------------------------------------

DivisorCheck = namedtuple(
    'DivisorCheck', 'ok pole_order value_at_p vanishing_order detail')


def verify_divisor(f, n, p):
    """Check that div(f) = n(P) - n(O) for f = u + v*y, whose only pole is O.

    N(f) = f * f(-.), so x - x_P divides N(f) exactly
    k = ord_P(f) + ord_-P(f) times (k = ord_P(f) when 2P = O, where x - x_P
    has a double zero).  The checks: f(-P) != 0 unless 2P = O, so that
    k = ord_P(f); and N(f) = c*(x - x_P)^k with k = n, so that f has no
    other zero.  deg N(f) is the pole order at O, so that is n as well.
    vanishing_order is k, or None when f(-P) = 0 and 2P != O.
    """
    if p.is_infinity():
        raise ValueError("P must be affine")
    pole = f.pole_order_at_O()
    val = f.evaluate(p)
    rest, k = f.norm(), 0
    while True:
        q, r = dp_divmod(rest, [-p.x, 1])
        if r:
            break
        rest, k = q, k + 1
    clear = -p == p or bool(f.evaluate(-p))
    vanish = k if clear else None
    ok = clear and k == n and len(rest) == 1
    detail = f"pole order {pole}, F(P) = {val}, vanishing order {vanish}"
    return DivisorCheck(ok, pole, val, vanish, detail)
