"""The Gamma^0(11) dataset: w-expansions of the coordinate functions x and y,
expansions of curve functions, and the index-2 and index-5 character-group
catalogs.

x and y are pinned down by two relations: the curve equation
y^2 + y = x^3 - x^2 - 10x - 20 and the derivation relation
D(x) = kappa*(2y+1)*S(w), where D = w*d/dw, S is the weight-2 eta product
eta(z)^2*eta(z/11)^2 expanded in w = e^(2*pi*i*z/11), and kappa is the
constant KAPPA = -1.  x comes in closed form from weight-4 modular forms on
Gamma_0(11), y from the derivation relation.  expand_xy (the expand-xy
command) checks both relations at every determined order; the catalog
expansions rely on _compute_xy's two exact divisions, each of which raises
on a remainder.  x, y and S are integral, so all of it runs on Python
ints.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import isqrt

from .exactnum import (
    NumberField,
    _coefficients,
    _operand,
    dp_add,
    dp_divmod,
    dp_eval,
    dp_gcd,
    dp_monic,
    dp_mul,
    dp_resultant,
    integerize_monic,
    kron_mul,
    lift,
)
from .qseries import (EtaQuotient, LaurentSeries, _eta_product_ints,
                      _field_line, _fmt_coords, serialize_series)
from .ellcurve import (
    WeierstrassCurve,
    division_polynomial,
    function_with_divisor,
    torsion_factors,
    verify_divisor,
)

WIDTH = 11
CURVE_COEFFS = (0, -1, 1, -10, -20)


def x11_curve(field=None):
    """The modular curve of Gamma^0(11): y^2 + y = x^3 - x^2 - 10x - 20."""
    return WeierstrassCurve(*CURVE_COEFFS, field=field)


# ----------------------------------------------------------------------
# x(w), y(w) from weight-4 forms on Gamma_0(11).  In w, x has its only pole,
# of order 2, at the cusp infinity, and S vanishes only at the two cusps, to
# order 1; so x*S^2 is holomorphic, in M_4(Gamma_0(11)), of dimension 4 and
# Sturm bound 4 (4/12 times the index 12): its coefficients through w^4 fix
# it; on E_4(w), E_4(w^11), S^2 and S*E_2' with E_2' = 11*E_2(w^11) - E_2(w):
#     14640*x*S^2 = -E_4(w) + 14641*E_4(w^11) - 15504*S^2 - 2904*S*E_2'.
# ----------------------------------------------------------------------

KAPPA = Fraction(-1)
# 14640, then the coefficients of E_4(w), E_4(w^11), S^2 and S*E_2'
XS2_IDENTITY = (14640, -1, 14641, -15504, -2904)
# S(w) = eta(z)^2 * eta(z/11)^2 at width 11, w times an integer unit series
S_QUOTIENT = EtaQuotient([(1, 2), (Fraction(1, 11), 2)])
# w/S = eta(z)^-2 * eta(z/11)^-2, w^-1 times the inverse unit series
V_INV_QUOTIENT = EtaQuotient([(1, -2), (Fraction(1, 11), -2)])


def _exact_quotients(nums, den, what, lead):
    """[c // den for c in nums]; a remainder raises RuntimeError."""
    for k, c in enumerate(nums, lead):
        if c % den:
            raise RuntimeError(
                f"{what} is not integral at order {k}: the weight-4 identity "
                "or the derivation relation is wrong (implementation bug)")
    return [c // den for c in nums]


def _compute_xy(T):
    """Integer arrays for x (exponents -2..T-2), y (-3..T-3) and the eta
    product S (S[e] = S_e for e < T + 2); T >= 3.

    G = x*S^2 by the identity of this section, from sigma_1 and sigma_3 by
    one sieve, E_4 = 1 + 240*sum sigma_3(n) w^n, E_2 = 1 - 24*sum sigma_1(n)
    w^n; x = G*V^-2 with V = S/w, where V^-1 = w/S is the eta quotient
    eta(z)^-2*eta(z/11)^-2, expanded by the same kernel as S.  y comes from
    D(x) = KAPPA*(2y + a3)*S with the same V^-1; matching the leads gives
    -2 = 2*KAPPA*S_1, so S_1 must be 1.  A remainder in the division by
    14640 or by 2 raises RuntimeError; expand_xy checks both relations,
    and the derivation relation with S verifies V^-1*S = w at every order.
    """
    n = T + 1
    lead, unit = _eta_product_ints(S_QUOTIENT, WIDTH, T)
    if lead != 1 or unit[0] != 1:
        raise RuntimeError("eta product does not start with w^1")
    S = [0] + unit  # S[e] = S_e for e < T + 2
    sigma1, sigma3 = [0] * n, [0] * n
    for d in range(1, n):
        sigma1[d::d] = [c + d for c in sigma1[d::d]]
        cube = d ** 3
        sigma3[d::d] = [c + cube for c in sigma3[d::d]]
    den, e4, e4_11, s2, s_e2 = XS2_IDENTITY
    e2 = [10] + [24 * c for c in sigma1[1:]]  # E_2'
    for i in range(11, n, 11):
        e2[i] -= 264 * sigma1[i // 11]
    g = kron_mul(S, [s2 * a + s_e2 * b for a, b in zip(S, e2)], n)
    g[0] += e4 + e4_11
    for i in range(1, n):
        g[i] += 240 * (e4 * sigma3[i] + (e4_11 * sigma3[i // 11]
                                         if i % 11 == 0 else 0))
    G = _exact_quotients(g, den, "x", -2)  # G[i] = (x*S^2)_i
    V_inv = _eta_product_ints(V_INV_QUOTIENT, WIDTH, T)[1]
    X = kron_mul(G, kron_mul(V_inv, V_inv, n), n)  # X[i] = x_(i-2)
    # Z[i] = (2y + a3)_(i-3): D(x)*w^2 * V^-1 over KAPPA = -1, its own inverse
    Z = kron_mul([int(KAPPA) * i * c for i, c in enumerate(X, -2)], V_inv, n)
    Z[3] -= CURVE_COEFFS[2]
    return X, _exact_quotients(Z, 2, "y", -3), S


def expand_xy(T):
    """w-expansions of x and y at width 11, with T terms beyond the lead;
    aborts if either defining relation fails at any computed order.

    Both relations are checked on the integer arrays, with the solve's S,
    from four kron_mul products: y^2 + y - x^3 + x^2 + 10x + 20 at
    w^-6..w^(T-6) and D(x) + (2y+1)*S (kappa = -1) at w^-2..w^(T-2), every
    order the truncations of x, y and S determine."""
    if T < 10:
        raise ValueError("T must be at least 10")
    X, Y, S = _compute_xy(T)
    n = T + 1
    X2 = kron_mul(X, X, n)   # X2[i] = (x^2)_(i-4)
    X3 = kron_mul(X2, X, n)  # X3[i] = (x^3)_(i-6)
    Y2 = kron_mul(Y, Y, n)   # Y2[i] = (y^2)_(i-6)
    _, a2, a3, a4, a6 = CURVE_COEFFS  # a1 = 0: no x*y term
    for k in range(-6, T - 5):
        c = Y2[k + 6] - X3[k + 6]
        if k >= -4:
            c -= a2 * X2[k + 4]
        if k >= -3:
            c += a3 * Y[k + 3]
        if k >= -2:
            c -= a4 * X[k + 2]
        if c != (a6 if k == 0 else 0):
            raise RuntimeError(
                f"curve relation fails at order {k}: inconsistency between the "
                "two defining relations (implementation bug)")
    Z = [2 * c for c in Y]     # Z[i] = (2y+a3)_(i-3)
    Z[3] += a3
    P = kron_mul(Z, S, n + 1)  # P[i] = ((2y+a3)*S)_(i-3)
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

def expand_on_curve(F, T, solve=None):
    """Substitute x(w), y(w) into a CurveFunction; exact coefficients from the
    leading exponent -n (n the pole order at O) through w^(T-n).  solve,
    when given, is _compute_xy or a memo of it; without one, x and y are
    solved afresh.

    x and y are integral, so u(x) + v(x)*y is a field-linear combination of
    the integer series x^i and x^i*y, summed in integer coordinates over one
    denominator.
    """
    # x^i * w^(2i) and x^i * y * w^(2i+3) through w^T need the first N of xs
    # and ys (_compute_xy takes T >= 3)
    xs, ys, _ = (solve or _compute_xy)(max(T, 3))
    field, N = F.curve.field, T + 1
    powers = [[1] + [0] * T]
    while len(powers) < max(len(F.u), len(F.v)):
        powers.append(kron_mul(powers[-1], xs, N) if len(powers) > 1
                      else xs[:N])
    y_powers = [kron_mul(x_i, ys, N) if i else ys[:N]
                for i, x_i in enumerate(powers[:len(F.v)])]
    # (coefficient, integer series, pole order) of each term
    terms = [(c, powers[i], 2 * i) for i, c in enumerate(F.u) if c]
    terms += [(c, y_powers[i], 2 * i + 3) for i, c in enumerate(F.v) if c]
    top = max(n for _, _, n in terms)
    den, d, flat = _operand([c for c, _, _ in terms], field)
    out = [0] * (N * d)  # coordinate i of coefficient k at out[k*d + i]
    for t, (_, s, n) in enumerate(terms):
        for i, a in enumerate(flat[t * d:(t + 1) * d]):
            col = slice((top - n) * d + i, None, d)
            out[col] = [c + a * sk for c, sk in zip(out[col], s)]
    return LaurentSeries(WIDTH, -top, _coefficients(den, d, out, field),
                         field, N - top)


# ----------------------------------------------------------------------
# Character-group catalogs.
# ----------------------------------------------------------------------

class GroupCatalogEntry(namedtuple('GroupCatalogEntry', [
        'label',
        'index',
        'generator_function',  # a CurveFunction over the coefficient field
        'congruence_flag',     # 'known-congruence' | 'expected-noncongruence'
        'point',               # the torsion point with div(f) = n(P) - n(O)
        'solve_xy'])):         # its catalog's memo of _compute_xy
    """One cyclic character group of Gamma^0(11): the field of modular
    functions is generated by the index-th root of generator_function."""
    __slots__ = ()

    def expansion(self, T):
        return expand_on_curve(self.generator_function, T, self.solve_xy)

    def coefficient_span(self):
        """The coefficients of u and v: x and y are integral, so every
        expansion coefficient of u(x) + v(x)*y is a Z-combination of them."""
        F = self.generator_function
        return F.u + F.v


def _interpolate(points):
    """Lagrange interpolation through exact (s, value) points."""
    out = []
    for i, (si, vi) in enumerate(points):
        basis, denom = [Fraction(1)], Fraction(1)
        for j, (sj, _) in enumerate(points):
            if j != i:
                basis, denom = dp_mul(basis, [-sj, 1]), denom * (si - sj)
        out = dp_add(out, [vi * b / denom for b in basis])
    return out


def torsion_point(curve, g, name):
    """The point of the rational model curve whose x is a root of g, an
    irreducible factor of a division polynomial, over the field it generates
    (Q, or a number field whose generator is called name).

    - g linear with 4x^3 + b2*x^2 + 2*b4*x + b6 a rational square at its
      root: the rational point with the larger y.
    - g dividing that cubic, so that 2y + a1*x + a3 = 0: over Q[x]/g.
    - Otherwise over Q(s), s = x + c*y for the first c = 1..7 whose minimal
      polynomial, the resultant over x of g and c^2 times the curve
      equation at y = (s - x)/c, interpolated at 2*deg(g) + 1 values of s,
      is squarefree and irreducible, with a linear gcd of g and that
      equation over Q(s) for x.  No c passes when y lies in Q(x).
    """
    cubic = division_polynomial(2, curve)
    if len(g) == 2:
        x = Fraction(-g[0], g[1])
        disc = dp_eval(cubic, x)
        root = Fraction(isqrt(max(disc.numerator, 0)), isqrt(disc.denominator))
        if root * root == disc:
            return curve.point(x, (root - curve.a1 * x - curve.a3) / 2)
    if not dp_divmod(cubic, g)[1]:
        mint, d = integerize_monic(g)
        ck = curve.base_change(NumberField(mint, name=name))
        x = ck.field.gen() / d
        return ck.point(x, -(ck.a1 * x + ck.a3) / 2)
    a1, a2, a3, a4, a6 = curve.coefficients()
    g = dp_monic(g)
    for c in range(1, 8):
        def equation(s):  # c^2 * E(x, (s - x)/c), a polynomial in x
            return [s * s + a3 * c * s - c * c * a6,
                    (a1 * c - 2) * s - a3 * c - c * c * a4,
                    1 - a1 * c - c * c * a2, Fraction(-c * c)]
        m_c = dp_monic(_interpolate([
            (Fraction(s0), dp_resultant(g, equation(Fraction(s0))))
            for s0 in range(2 * len(g) - 1)]))
        mint, d = integerize_monic(m_c)
        try:
            K = NumberField(mint, name=name)
        except ValueError:  # m_c has a repeated or a proper factor
            continue
        s = K.gen() / d
        common = dp_gcd(g, equation(s))
        if len(common) == 2:
            x = -common[0]
            return curve.base_change(K).point(x, (s - x) / c)
    raise RuntimeError("no primitive element x + c*y found for small c")


CATALOG_INDICES = (2, 5)


def build_catalog(index):
    """Catalog of the cyclic character groups of a given index: one entry
    per cyclic subgroup of that order in the curve's torsion, with its point
    P and f_P, div(f_P) = index*(P) - index*(O).  function_with_divisor stops
    unless index*P = O, and both indices are prime, so P has order index.

    index 2: one f over the cubic field of the conjugate 2-torsion points
    presents all three groups; fP1..fP3 are its three embeddings.
    index 5: f_P for the rational P with the smaller x, f_Q for a Q whose x
    is a root of psi_5's quadratic factor, and the translates f_{Q+iP}.
    fQ is flagged known-congruence: its group is Gamma^1(11), normal in
    Gamma^0(11) with cyclic quotient (Z/11)^*/{+-1} of order 5, an argument
    for index 5 only, which detect_entry checks against its probe and
    tests/test_congruence.py::test_fQ_is_on_the_one_congruence_line proves:
    one line of six is congruence by Hsu's test, and the other entries
    certify.  Every other entry is flagged expected-noncongruence: no
    congruence group is known among them, and a certified unbounded
    denominator proves the group noncongruence.
    """
    if index not in CATALOG_INDICES:
        raise ValueError("catalogs are built for index "
                         f"{' and '.join(map(str, CATALOG_INDICES))} only")
    curve = x11_curve()
    # x and y are solved once per T for all the entries of this catalog
    solve_xy = cache(_compute_xy)

    def entry(label, p, flag='expected-noncongruence'):
        f = function_with_divisor(index, p)
        chk = verify_divisor(f, index, p)
        if not chk.ok:
            raise RuntimeError(f"{label} failed verification: {chk.detail}")
        return GroupCatalogEntry(label, index, f, flag, p, solve_xy)

    if index == 2:
        g = division_polynomial(2, curve)  # irreducible: NumberField tests it
        e = entry("fP1", torsion_point(curve, g, 'u'))
        return [e._replace(label=f"fP{i}") for i in (1, 2, 3)]
    factors = torsion_factors(5, curve)
    p = torsion_point(curve, min((g for g in factors if len(g) == 2),
                                 key=lambda g: Fraction(-g[0], g[1])), 's')
    q = torsion_point(curve, next(g for g in factors if len(g) == 3), 's')
    entries = [entry("fP", p), entry("fQ", q, 'known-congruence')]
    # Q + iP lies in neither <P> (the linear factors of psi_5) nor <Q>
    # (its quadratic factor), so x is a root of one of its two quartics,
    # which, irreducible, is then its minimal polynomial
    quartics = [g for g in factors if len(g) == 5]
    for i in (1, 2, 3, 4):
        r = q + i * q.curve.point(p.x, p.y)
        if all(dp_eval(g, r.x) for g in quartics):
            raise RuntimeError("x(Q+iP) is not a root of a quartic factor "
                               "of psi_5")
        entries.append(entry(f"fQ+{i}P", r))
    return entries


def catalog_export(entries, T=20):
    """Text records: label, index, field, function coefficients, and the first
    T expansion coefficients in the series serialization format."""
    blocks = []
    for e in entries:
        g = e.generator_function
        field = g.curve.field
        lines = [f"entry {e.label}",
                 f"index {e.index}",
                 f"root_degree {e.index}",
                 f"congruence {e.congruence_flag}",
                 _field_line(field)]
        fmt = str if field is None else _fmt_coords
        for name, cs in (("u", g.u), ("v", g.v), ("den", [lift(field, 1)])):
            lines.append(f"{name} " + ";".join(map(fmt, cs)))
        series = e.expansion(T)
        lines.append(serialize_series(series).rstrip("\n"))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
