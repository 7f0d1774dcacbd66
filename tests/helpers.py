"""Reference code that only the tests use: equality, agreement, sum,
difference, scalar multiple and shift of series, the unit part by scaling
and shifting, a series power by repeated squaring, negative powers
of the pentagonal series from the partition numbers, the minimal width of
an eta quotient by search, G5 and the closed forms of its roots, the gcd and
Smith-normal-form criteria for a full join, the minimal polynomial, Newton
polygon points and the unique-prime certificate read from them, the
unit-root test on a Newton polygon, the order of a point by the group
law, and a scalar multiple of a curve function."""

from fractions import Fraction
from math import gcd, lcm

from ubd.ellcurve import CurveFunction
from ubd.exactnum import (_deriv, _integral_char_poly, _segment_residual,
                          _zx_exquo, _zx_gcd, dp_trim, kron_mul, lift,
                          lower_hull_slopes, poly_is_irreducible_modp, power,
                          val_p)
from ubd.qseries import (EtaQuotient, LaurentSeries, _coeff,
                         _eta_product_ints, _pentagonal_coeffs,
                         eta_quotient_expand)


def series_key(f):
    """Two series are equal when these agree."""
    return (f.width, f.lead, f.prec, f.field, f.coeffs)


def agrees(f, g, lo=None, hi=None):
    """Coefficient-wise equality on lo..hi-1, by default on the overlap of
    the known ranges."""
    if f.width != g.width:
        return False
    lo = max(f.lead, g.lead) if lo is None else lo
    hi = min(f.prec, g.prec) if hi is None else hi
    return all(f.coefficient(k) == g.coefficient(k) for k in range(lo, hi))


def series_add(f, g):
    field = f._check_compat(g)
    prec = min(f.prec, g.prec)
    lead = min(f.lead, g.lead, prec)
    return LaurentSeries(f.width, lead, [
        a + b for a, b in zip(f.coefficients(lead, prec),
                              g.coefficients(lead, prec))], field, prec)


def series_sub(f, g):
    return series_add(f, series_scale(g, -1))


def series_scale(f, s):
    """s*f for s rational or in the field of f; over Q an int times an
    integral series stays integral."""
    s = _coeff(f.field, s)
    return LaurentSeries(f.width, f.lead, [c * s for c in f.coeffs], f.field,
                         f.prec)


def series_shift(f, k):
    """w^k*f."""
    return LaurentSeries(f.width, f.lead + k, f.coeffs, f.field, f.prec + k)


def unit_part_by_chain(f):
    """The unit part of f, w^-lead*f/a_0, scaled and then shifted: the
    reference for LaurentSeries.unit_normalized."""
    return series_shift(series_scale(f, Fraction(1) / f.coeffs[0]), -f.lead)


def series_pow(f, k):
    if k < 0:
        return series_pow(f.invert(), -k)
    acc = LaurentSeries(f.width, 0, [1], f.field, f.prec - f.lead)
    base = f
    while k:
        if k & 1:
            acc = acc * base
        base = base * base
        k >>= 1
    return acc


def partition_numbers(m):
    """p(0..m-1), the coefficients of 1/prod_{n>=1} (1 - x^n), by Euler's
    recurrence p(n) = sum_{k>=1} (-1)^(k+1) (p(n - k(3k-1)/2) +
    p(n - k(3k+1)/2)): the signs are those of the pentagonal series negated,
    since p*prod (1 - x^n) = 1."""
    offsets = [(g, c) for g, c in enumerate(_pentagonal_coeffs(m)) if g and c]
    p = [1] * m
    for n in range(1, m):
        p[n] = -sum(c * p[n - g] for g, c in offsets if g <= n)
    return p


def pentagonal_power_by_partitions(m, r):
    """prod (1 - x^n)^r up to x^(m-1) for r < 0: the partition numbers
    raised to |r| by binary powering over kron_mul."""
    return power(partition_numbers(m), -r, lambda a, b: kron_mul(a, b, m))


def minimal_width_by_search(eq):
    """The least N, from the lcm of the delta denominators up in unit
    steps, at which every N*delta and the lead N*sum(r*delta)/24 are
    integers."""
    n = lcm(*(d.denominator for d, _ in eq.terms))
    while True:
        tot = sum(Fraction(r) * d * n for d, r in eq.terms) / 24
        if tot.denominator == 1 and all((n * d).denominator == 1
                                        for d, _ in eq.terms):
            return n
        n += 1


def g5_series(T):
    """G5 = (eta(z/11)/eta(z))^12 = w^-5 (1 - 12w + 54w^2 - ...), w = q^(1/11)."""
    return eta_quotient_expand(
        EtaQuotient([(Fraction(1, 11), 12), (1, -12)]), 11, T)


def g5_root(n, T):
    """The closed form of G5's n-th root for n dividing 12,
    (eta(z/11)/eta(z))^(12/n): (its leading exponent -5/n, fractional in w,
    and its unit part through w^T at width 11)."""
    k = 12 // n
    lead, unit = _eta_product_ints(
        EtaQuotient([(Fraction(1, 11), k), (1, -k)]), 11, T)
    return lead, LaurentSeries(11, 0, unit, None, T + 1)


def join_is_full(gamma, b):
    """gcd(s, l) = 1 = gcd(v, m, s*n - u*l): the join of the two sublattices
    <l*a+n*b, m*b> and <s*a+u*b, v*b> is the full lattice."""
    l, n, m = gamma.l, gamma.n, gamma.m
    s, u, v = b.l, b.n, b.m
    return gcd(s, l) == 1 and gcd(gcd(v, m), abs(s * n - u * l)) == 1


def join_is_full_snf(gamma, b):
    """Smith-normal-form oracle: stack the four generators as rows of a 4x2
    integer matrix; the join is full iff the gcd of all 2x2 minors is 1."""
    rows = [(gamma.l, gamma.n), (0, gamma.m), (b.l, b.n), (0, b.m)]
    g = 0
    for i in range(4):
        for j in range(i + 1, 4):
            minor = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
            g = gcd(g, abs(minor))
    return g == 1


def min_poly(a):
    """Monic minimal polynomial over Q of an algebraic number a = B/den: the
    characteristic polynomial chi_B is a power of the minimal polynomial of
    B, which is therefore chi_B / gcd(chi_B, chi_B'), rescaled to a."""
    if isinstance(a, (int, Fraction)):
        return [-Fraction(a), Fraction(1)]
    chi = _integral_char_poly(a)[0]  # of B = den*a, monic over Z
    m = _zx_exquo(chi, _zx_gcd(chi, _deriv(chi)))
    k = len(m) - 1
    return [Fraction(c, a.den ** (k - i)) for i, c in enumerate(m)]


def newton_polygon_points(coeffs, p):
    return [(i, val_p(c, p)) for i, c in enumerate(dp_trim(coeffs))]


def polygon_certifies_unique(coeffs, p):
    """True if the Newton polygon of this polynomial proves a single prime
    above p in Q[x]/(f): one segment, and either totally ramified (slope
    denominator = degree) or irreducible residual polynomial."""
    coeffs = dp_trim(coeffs)
    n = len(coeffs) - 1
    pts = newton_polygon_points(coeffs, p)
    segs = lower_hull_slopes(pts)
    if len(segs) != 1 or segs[0][1] != n:
        return False
    slope = segs[0][0]
    if slope.denominator == n:
        return True
    # the segment ends at the vertex (n, v_p(c_n)): the residual has degree
    # n / denominator
    return poly_is_irreducible_modp(
        _segment_residual(coeffs, p, pts[0][1], slope), p)


def unique_prime_shifts(field, p):
    """The shifts a = 0, 1, ..., min(p, 16) - 1 at which the polygon points
    of chi of t - a, t the generator, certify a unique prime above p; the
    field has one prime above p as certified when this is not empty."""
    t = field.gen()
    return [a for a in range(min(p, 16))
            if polygon_certifies_unique(_integral_char_poly(t - a)[0], p)]


def unit_root_factors(factors, p):
    """The factors whose roots are all p-adic units: every slope of the
    Newton polygon at p is 0."""
    return [f for f in factors if all(
        s == 0 for s, _ in lower_hull_slopes(
            newton_polygon_points([Fraction(c) for c in f], p)))]


def has_order(p, n):
    """n*P = O by the group law, and P, 2P, ..., (n-1)P are not O."""
    return (n * p).is_infinity() and not any(
        (k * p).is_infinity() for k in range(1, n))


def scalar_mul(f, s):
    """s*f for a curve function f and s rational or in its field."""
    s = lift(f.curve.field, s)
    return CurveFunction(f.curve, [c * s for c in f.u], [c * s for c in f.v])
