"""The Gamma^0(11) dataset: w-expansions of the coordinate functions x and y,
expansions of curve functions, the index-2 and index-5 character-group
catalogs, and the G5 eta family.

x and y are pinned down by two relations solved jointly order by order:
the curve equation y^2 + y = x^3 - x^2 - 10x - 20 and the derivation
relation D(x) = kappa*(2y+1)*S(w), where D = w*d/dw, S is the weight-2
eta product eta(z)^2*eta(z/11)^2 expanded in w = e^(2*pi*i*z/11), and
kappa is the constant KAPPA = -1: matching the forced leading behavior
x = w^-2 + ..., y = w^-3 + ... gives -2 = 2*kappa*S_1, and the solve checks
that S_1 = 1.  x, y and S are integral, so the solve and the check of both
relations at every determined order run on Python ints.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .exactnum import (
    AlgebraicNumber,
    NumberField,
    _deriv,
    _operand,
    domain_one,
    dp_gcd,
    dp_monic,
    dp_resultant,
    dp_trim,
    integerize_monic,
    kron_mul,
    min_poly,
)
from .qseries import (EtaQuotient, LaurentSeries, eta_quotient_expand,
                      eta_unit_product, serialize_series)
from .ellcurve import (
    WeierstrassCurve,
    five_torsion_factors,
    function_with_divisor,
    point_order,
    torsion_x_locus,
    verify_divisor,
)

WIDTH = 11
CURVE_COEFFS = (0, -1, 1, -10, -20)


def x11_curve(field=None):
    """The modular curve of Gamma^0(11): y^2 + y = x^3 - x^2 - 10x - 20."""
    return WeierstrassCurve(*CURVE_COEFFS, field=field)


# ----------------------------------------------------------------------
# x(w), y(w) by the coupled curve/derivation recursion.
# ----------------------------------------------------------------------

_XY_CACHE = {"T": -1, "xs": None, "ys": None, "S": None}
KAPPA = Fraction(-1)


def weight2_eta_product(T):
    """S(w) = eta(z)^2 * eta(z/11)^2 at width 11; leading term w^1."""
    return eta_quotient_expand(EtaQuotient([(1, 2), (Fraction(1, 11), 2)]),
                               WIDTH, T)


def _inner_square(V):
    """sum of V[i]*V[n+1-i] over 1 <= i <= n = len(V) - 1: half the pairs,
    doubled, plus the middle square when n is odd."""
    n = len(V) - 1
    h = n // 2
    s = 2 * sum(map(mul, V[1:h + 1], V[n:n - h:-1]))
    return s + V[h + 1] * V[h + 1] if n % 2 else s


def _compute_xy(T):
    """Coefficient arrays for x (exponents -2..T-2), y (-3..T-3) and the
    eta product S (S[e] = S_e for e < T + 8).

    x, y and S are integral and kappa = -1, so the solve runs on Python ints:
    X[i] = x_(i-2), Y[i] = y_(i-3) and X2[i] = (x^2)_(i-4).  At order m the
    unknowns y_(m+3) and x_(m+4) enter the curve relation at w^m as
    2*y - 3*x and the derivation relation at w^(m+4) as (m+4)*x + 2*y, so
    each is one exact integer division; a remainder means the relations
    are inconsistent.  The known parts of (x^2)_(m+2) and (y^2)_m are
    symmetric sums, taken one pair at a time by _inner_square; the x^3 part
    and (2y+1)*S are full dot products over the growing arrays.
    """
    s_series = weight2_eta_product(T + 8)
    S = [s_series.coefficient(e).numerator for e in range(T + 8)]
    # kappa = KAPPA from matching the forced leads on D(x) = kappa*(2y+1)*S:
    # -2*x_{-2} = kappa * 2*y_{-3} * S_1 with S_1 = 1
    if S[1] != 1:
        raise RuntimeError("eta product does not start with w^1")

    def exact(num, den, what, m):
        q, r = divmod(num, den)
        if r:
            raise RuntimeError(
                f"{what} is not integral at order {m}: inconsistency between "
                "the two defining relations (implementation bug)")
        return q

    X, Y, X2 = [1], [1], [1]
    for m in range(-5, T - 5):
        # provisional (x^2)_{m+2}: every term but 2*x_{-2}*x_{m+4}
        x2prov = _inner_square(X)
        # [w^m] of y^2 + y - x^3 + x^2 + 10x + 20 without the unknowns
        v1 = (_inner_square(Y)
              - sum(map(mul, X2[1:] + [x2prov], reversed(X))))
        if m >= -4:
            v1 += X2[m + 4]
        if m >= -3:
            v1 += Y[m + 3]
        if m >= -2:
            v1 += 10 * X[m + 2]
        if m == 0:
            v1 += 20
        # [w^(m+4)] of D(x) + (2y+1)*S without the unknowns
        v2 = 2 * sum(map(mul, Y, reversed(S[2:m + 8])))
        if m >= -3:
            v2 += S[m + 4]
        if m == -4:
            # exponent 0 in the derivation relation: x_0 drops out
            y_new = exact(-v2, 2, "y", m)
            x_new = exact(2 * y_new + v1, 3, "x", m)
        else:
            y_new = exact(-((m + 4) * v1 + 3 * v2), 2 * m + 14, "y", m)
            x_new = exact(-2 * y_new - v2, m + 4, "x", m)
        Y.append(y_new)
        X.append(x_new)
        X2.append(x2prov + 2 * x_new)
    return X, Y, S


def _xy_arrays(T):
    if _XY_CACHE["T"] < T:
        xs, ys, S = _compute_xy(T)
        _XY_CACHE.update(T=T, xs=xs, ys=ys, S=S)
    return _XY_CACHE["xs"], _XY_CACHE["ys"]


def expand_xy(T):
    """w-expansions of x and y at width 11, with T terms beyond the lead;
    aborts if either defining relation fails at any computed order.

    Both relations are checked on the integer arrays, with the solve's S,
    from four kron_mul products: y^2 + y - x^3 + x^2 + 10x + 20 at
    w^-6..w^(T-6) and D(x) + (2y+1)*S (kappa = -1) at w^-2..w^(T-2), every
    order the truncations of x, y and S determine."""
    if T < 10:
        raise ValueError("T must be at least 10")
    xs, ys = _xy_arrays(T)
    X, Y = xs[:T + 1], ys[:T + 1]
    n = T + 1
    X2 = kron_mul(X, X, n)   # X2[i] = (x^2)_(i-4)
    X3 = kron_mul(X2, X, n)  # X3[i] = (x^3)_(i-6)
    Y2 = kron_mul(Y, Y, n)   # Y2[i] = (y^2)_(i-6)
    for k in range(-6, T - 5):
        c = Y2[k + 6] - X3[k + 6]
        if k >= -4:
            c += X2[k + 4]
        if k >= -3:
            c += Y[k + 3]
        if k >= -2:
            c += 10 * X[k + 2]
        if c != (-20 if k == 0 else 0):
            raise RuntimeError(
                f"curve relation fails at order {k}: inconsistency between the "
                "two defining relations (implementation bug)")
    S = _XY_CACHE["S"][:n + 1]  # S[e] = S_e
    Z = [2 * c for c in Y]     # Z[i] = (2y+1)_(i-3)
    Z[3] += 1
    P = kron_mul(Z, S, n + 1)  # P[i] = ((2y+1)*S)_(i-3)
    for k in range(-2, T - 1):
        if k * X[k + 2] + P[k + 3]:
            raise RuntimeError(
                f"derivation relation fails at order {k}: inconsistency between "
                "the two defining relations (implementation bug)")
    return (LaurentSeries(WIDTH, -2, X, None, T - 1),
            LaurentSeries(WIDTH, -3, Y, None, T - 2))


# ----------------------------------------------------------------------
# Expansion of curve functions.
# ----------------------------------------------------------------------

def expand_on_curve(F, T):
    """Substitute x(w), y(w) into a CurveFunction; exact coefficients from the
    leading exponent -n (n the pole order at O) through w^(T-n).

    x and y are integral, so u(x) + v(x)*y is a field-linear combination of
    the integer series x^i and x^i*y, summed in integer coordinates over one
    denominator.
    """
    degs = max(len(F.u), len(F.v) + 1)
    xs, ys = _xy_arrays(T + 2 * degs + F.pole_order_at_O() + 10)
    field, N = F.curve.field, T + 1
    powers = [[1] + [0] * T]  # x^i * w^(2i), N ints each
    while len(powers) < max(len(F.u), len(F.v)):
        powers.append(kron_mul(powers[-1], xs, N))
    # (coefficient, integer series, pole order) of each term
    terms = [(c, powers[i], 2 * i) for i, c in enumerate(F.u) if c]
    terms += [(c, kron_mul(powers[i], ys, N), 2 * i + 3)
              for i, c in enumerate(F.v) if c]
    top = max(n for _, _, n in terms)
    den, d, flat = _operand([c for c, _, _ in terms], field)
    coords = [[0] * N for _ in range(d)]
    for t, (_, s, n) in enumerate(terms):
        for col, a in zip(coords, flat[t * d:(t + 1) * d]):
            col[top - n:] = [c + a * sk for c, sk in zip(col[top - n:], s)]
    if field is None:
        coeffs = [Fraction(c, den) for c in coords[0]]
    else:
        coeffs = [AlgebraicNumber(field, c, den) for c in zip(*coords)]
    return LaurentSeries(WIDTH, -top, coeffs, field, N - top)


# ----------------------------------------------------------------------
# Character-group catalogs.
# ----------------------------------------------------------------------

class GroupCatalogEntry(namedtuple('GroupCatalogEntry', [
        'label',
        'index',
        'generator_function',  # a CurveFunction
        'root_degree',
        'coefficient_field',   # NumberField or None for rational entries
        'congruence_flag',     # 'known-congruence' | 'expected-noncongruence'
        'point'])):            # the torsion point with div(f) = n(P) - n(O)
    """One cyclic character group of Gamma^0(11): the field of modular
    functions is generated by the root_degree-th root of generator_function."""
    __slots__ = ()

    def expansion(self, T):
        return expand_on_curve(self.generator_function, T)

    def coefficient_span(self):
        """The coefficients of u and v: x and y are integral, so every
        expansion coefficient of u(x) + v(x)*y is a Z-combination of them."""
        F = self.generator_function
        return F.u + F.v


def _interpolate(points):
    """Lagrange interpolation through exact (s, value) points."""
    n = len(points)
    out = [Fraction(0)] * n
    for i, (si, vi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (sj, _) in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, b in enumerate(basis):
                new[k] += -sj * b
                new[k + 1] += b
            basis = new
            denom *= si - sj
        for k, b in enumerate(basis):
            out[k] += vi * b / denom
    return dp_trim(out)


class QPointData:
    """The 5-torsion point Q outside <P>, over the flattened field
    K = Q(x_Q + c*y_Q), constructed from the quadratic factor of psi_5."""

    def __init__(self, curve):
        _, irrational = five_torsion_factors(curve)
        quad = next(f for f in irrational if len(f) == 3)
        q2 = dp_monic(quad)
        for c in range(1, 8):
            # resultant_x(q2(x), (s-x)^2 + c(s-x) - c^2 g(x)) by interpolation
            def a_poly(s0, c=c):
                return dp_trim([s0 * s0 + c * s0 + 20 * c * c,
                                -2 * s0 - c + 10 * c * c,
                                1 + c * c,
                                Fraction(-c * c)])
            pts = [(Fraction(s0), dp_resultant(q2, a_poly(Fraction(s0))))
                   for s0 in range(5)]
            m_c = dp_monic(_interpolate(pts))
            if len(m_c) != 5:
                continue
            if dp_gcd(m_c, _deriv(m_c)) != [1]:
                continue  # not squarefree; collision of conjugates
            mint, d = integerize_monic(m_c)
            try:
                K = NumberField(mint, name='s')
            except ValueError:  # m_c is reducible
                continue
            eta = K.gen() / d  # x_Q + c*y_Q
            apk = [eta * eta + c * eta + 20 * c * c,
                   -2 * eta - c + 10 * c * c,
                   1 + c * c,
                   -c * c]
            gtail = dp_gcd(q2, apk)
            if len(gtail) != 2:
                continue
            x_q = -gtail[0]
            y_q = (eta - x_q) / c
            self.field = K
            self.curve = curve.base_change(K)
            self.quadratic = q2
            self.c = c
            self.x_q = x_q
            self.y_q = y_q
            self.q_point = self.curve.point(x_q, y_q)
            if point_order(self.q_point, 6) != 5:
                raise RuntimeError("constructed Q is not of order 5")
            return
        raise RuntimeError("no primitive element x + c*y found for small c")


@lru_cache(maxsize=None)
def build_catalog(index):
    """Catalog of the cyclic character groups of a given index.

    index 2: the three 2-torsion entries x - x_{P_i}, all presented over one
    abstract cubic field (the three labels are its three embeddings).
    index 5: f_P over Q, f_Q (the Gamma^1(11) entry, known congruence) and the
    four translates f_{Q+iP} over the flattened quartic field of Q.
    """
    curve = x11_curve()
    entries = []

    def verified(n, p, label):
        f = function_with_divisor(n, p)
        chk = verify_divisor(f, n, p)
        if not chk.ok:
            raise RuntimeError(f"{label} failed verification: {chk.detail}")
        return f

    if index == 2:
        cubic = torsion_x_locus(2, curve)
        mint, d = integerize_monic(cubic)
        K = NumberField(mint, name='u')
        ck = curve.base_change(K)
        xp = K.gen() / d
        p2 = ck.point(xp, Fraction(-1, 2))
        f = verified(2, p2, "index-2 generator")
        for i in (1, 2, 3):
            entries.append(GroupCatalogEntry(
                label=f"fP{i}", index=2, generator_function=f, root_degree=2,
                coefficient_field=K, congruence_flag='expected-noncongruence',
                point=p2))
    elif index == 5:
        p = curve.point(5, 5)
        f_p = verified(5, p, "f_P")
        entries.append(GroupCatalogEntry(
            label="fP", index=5, generator_function=f_p, root_degree=5,
            coefficient_field=None, congruence_flag='expected-noncongruence',
            point=p))
        qd = QPointData(curve)
        pk = qd.curve.point(5, 5)
        f_q = verified(5, qd.q_point, "f_Q")
        entries.append(GroupCatalogEntry(
            label="fQ", index=5, generator_function=f_q, root_degree=5,
            coefficient_field=qd.field, congruence_flag='known-congruence',
            point=qd.q_point))
        # Q + iP lies in neither <P> (the linear factors of psi_5) nor <Q>
        # (its quadratic factor), so x is a root of one of its two quartics
        quartics = [f for f in five_torsion_factors(curve)[1] if len(f) == 5]
        for i in (1, 2, 3, 4):
            r = qd.q_point + i * pk
            f_r = verified(5, r, f"f_Q+{i}P")
            if min_poly(r.x) not in quartics:
                raise RuntimeError("x(Q+iP) is not a root of a quartic factor "
                                   "of psi_5")
            entries.append(GroupCatalogEntry(
                label=f"fQ+{i}P", index=5, generator_function=f_r, root_degree=5,
                coefficient_field=qd.field,
                congruence_flag='expected-noncongruence', point=r))
    else:
        raise ValueError("catalogs are built for index 2 and 5 only")
    return entries


def catalog_export(entries, T=20):
    """Text records: label, index, field, function coefficients, and the first
    T expansion coefficients in the series serialization format."""
    blocks = []
    for e in entries:
        lines = [f"entry {e.label}",
                 f"index {e.index}",
                 f"root_degree {e.root_degree}",
                 f"congruence {e.congruence_flag}"]
        if e.coefficient_field is None:
            lines.append("field rational")
        else:
            lines.append("field " + ",".join(str(c) for c in e.coefficient_field.defining_poly))

        def poly_str(cs):
            return ";".join(
                (str(c) if not hasattr(c, 'coords') else
                 ",".join(f"{x.numerator}/{x.denominator}" for x in c.coords()))
                for c in cs)
        lines.append("u " + poly_str(e.generator_function.u))
        lines.append("v " + poly_str(e.generator_function.v))
        lines.append("den " + poly_str([domain_one(e.coefficient_field)]))
        series = e.expansion(T)
        lines.append(serialize_series(series).rstrip("\n"))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ----------------------------------------------------------------------
# The G5 eta family and its roots.
# ----------------------------------------------------------------------

G5_QUOTIENT = EtaQuotient([(Fraction(1, 11), 12), (1, -12)])

EtaRoot = namedtuple('EtaRoot', ['lead', 'unit'])


def g5_series(T):
    """G5 = (eta(z/11)/eta(z))^12 = w^-5 (1 - 12w + 54w^2 - ...)."""
    s = eta_quotient_expand(G5_QUOTIENT, WIDTH, T)
    assert s.lead == -5
    return s


def g5_family(n, T):
    """G5 and, when n divides 12, the closed-form eta quotient for its n-th
    root, e.g. n = 12 gives eta(z/11)/eta(z).

    The root's leading exponent -5/n is fractional in w = q^(1/11), so the
    closed form is returned as (lead, unit product part at width 11); the
    formal root of G5's unit part must match the unit coefficients exactly.
    """
    g5 = g5_series(T)
    root = None
    if n in (1, 2, 3, 4, 6, 12):
        k = 12 // n
        lead, unit = eta_unit_product(
            EtaQuotient([(Fraction(1, 11), k), (1, -k)]), WIDTH, T)
        root = EtaRoot(lead, unit)
    return g5, root
