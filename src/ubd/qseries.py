"""Truncated Laurent series in w = e^{2*pi*i*z/N} over exact coefficients,
formal n-th roots of unit series (computed coefficient by coefficient on
demand, by Miller's power recurrence, each b_m stored once as the packed
integer coordinates of M*b_m over a running common denominator M, every
coordinate inside its slot, within one deterministic work budget per root),
Dedekind-eta quotient expansion via the pentagonal-number theorem, and a
text record of a series."""

from fractions import Fraction
from functools import partial
import math
from operator import mul
import re

from .exactnum import (
    NumberField,
    _coefficients,
    _operand,
    _unpack,
    dp_trim,
    kron_mul,
    lift as _lift,
    newton_inverse,
    power,
    trunc_mul,
)


def _coeff(field, c):
    """c in the coefficient domain; over Q an int stays an int, so integral
    series build no Fraction (every division is by a Fraction, never a true
    division of two ints)."""
    return c if field is None and type(c) is int else _lift(field, c)


class LaurentSeries:
    """Exact coefficients for exponents lead..prec-1; zero beyond is unknown,
    not asserted.  coeffs[0] is nonzero unless the series is 0 to precision.
    Over Q a coefficient is an int or a Fraction."""

    __slots__ = ('width', 'lead', 'coeffs', 'field', 'prec')

    def __init__(self, width, lead, coeffs, field=None, prec=None):
        if width < 1:
            raise ValueError("width must be a positive integer")
        if prec is None:
            prec = lead + len(coeffs)
        # cut to prec before lifting, so a short truncate lifts what it keeps
        coeffs = [_coeff(field, c) for c in coeffs[:max(0, prec - lead)]]
        i = next((i for i, c in enumerate(coeffs) if c), len(coeffs))
        if i:
            coeffs, lead = coeffs[i:], lead + i
        while coeffs and not coeffs[-1]:
            # trailing zeros are kept implicitly by prec
            coeffs.pop()
        if not coeffs:
            lead = prec
        self.width = width
        self.lead = lead
        self.coeffs = tuple(coeffs)
        self.field = field
        self.prec = prec

    # -- basic views --------------------------------------------------
    @property
    def truncation(self):
        return self.prec - self.lead - 1

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, k):
        if k >= self.prec:
            raise ValueError(f"coefficient w^{k} is beyond precision {self.prec}")
        if k < self.lead or k - self.lead >= len(self.coeffs):
            return _coeff(self.field, 0)
        return self.coeffs[k - self.lead]

    def coefficients(self, lo, hi):
        return [self.coefficient(k) for k in range(lo, hi)]

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs[:6]):
            if c:
                parts.append(f"({c})w^{self.lead + i}")
        body = " + ".join(parts) if parts else "0"
        return f"LaurentSeries[N={self.width}]({body} + O(w^{self.prec}))"

    # -- ring operations ----------------------------------------------
    def _check_compat(self, other):
        if self.width != other.width:
            raise ValueError("width mismatch")
        if self.field is None:
            return other.field
        if other.field is not None and other.field != self.field:
            raise ValueError("mixed number fields")
        return self.field

    def __mul__(self, other):
        # a factor that is 0 to precision has lead = prec, so lead below is
        # prec too and the product is 0 to that precision
        field = self._check_compat(other)
        lead = self.lead + other.lead
        prec = min(self.prec + other.lead, other.prec + self.lead)
        out = trunc_mul(self.coeffs, other.coeffs, prec - lead, field)
        return LaurentSeries(self.width, lead, out, field, prec)

    def truncate(self, prec):
        if prec > self.prec:
            raise ValueError("cannot extend precision by truncation")
        return LaurentSeries(self.width, self.lead, self.coeffs, self.field, prec)

    def invert(self):
        """Reciprocal, by Newton iteration; the leading coefficient must be
        invertible (nonzero)."""
        if self.is_zero():
            raise ZeroDivisionError("cannot invert a series that is 0 to precision")
        field = self.field
        n = self.prec - self.lead
        inv = newton_inverse(self.coeffs, n, Fraction(1) / self.coeffs[0],
                             lambda a, b, m: trunc_mul(a, b, m, field))
        return LaurentSeries(self.width, -self.lead, inv, field,
                             -self.lead + n)

    def unit_normalized(self):
        """(unit, lead, a_0), unit = w^-lead*f/a_0 = 1 + ..., built in one
        construction: each stored coefficient times 1/a_0, a Fraction when
        a_0 is rational (as it is for every catalog entry), so a field
        coefficient is scaled, not multiplied degree by degree.

        Ratios of root coefficients of the original series only depend on the
        unit part, so callers can account for the stripped monomial separately
        without enlarging the coefficient field.
        """
        if self.is_zero():
            raise ValueError("zero series has no unit normalization")
        c0 = self.coeffs[0]
        r = c0 if self.field is None or not c0.is_rational() else \
            c0.as_fraction()
        inv = Fraction(1) / r
        return (LaurentSeries(self.width, 0, [c * inv for c in self.coeffs],
                              self.field, self.prec - self.lead),
                self.lead, c0)


# The most work one formal root may do (see _miller_root): step k, with m
# terms of d coordinates, M the running denominator and L the bits of the
# packed M*b_(k-1), costs 64*d*m*(L + 64) units for its dot products and
# (bits(M) + L)^2 for the normalisation of b_k.  A 2-vCPU machine did
# 1.2*10^11 to 10^12 units/s, so a root stops after 10-85 s; detect on
# fQ's expansion at p = n = 5 and T = 300, the costliest catalog root,
# spends 7.8*10^9 units (report answers fQ by theorem, without it).
ROOT_WORK_BUDGET = 10 ** 13


def root_coefficients(f, n):
    """Iterator over b_1, b_2, ..., b_(prec-1) of the formal n-th root
    g = 1 + sum b_k w^k of f = 1 + sum a_j w^j, computed one at a time.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7), read off
    n*f*Dg = g*Df with D = w*d/dw:

        n*k*b_k = sum_{j=1..k} ((n+1)*j - n*k) * a_j * b_(k-j).

    The sum runs on integer coordinates (one for Q, degree for a number
    field): the a_j share one denominator, and each b_m is stored once, as
    M*b_m over the running lcm M of the denominators of b_0..b_(k-1), so the
    weights are the small ints (n+1)*j - n*k; b_k is normalised once, as the
    coefficient that decodes it, and a growth of M by g multiplies every
    stored M*b_m by g.  Each M*b_m is one int, its coordinates in slots of a
    common whole-byte width W (Kronecker substitution on one operand), so a
    step makes one list of weighted b's and one dot product per coordinate
    of a; shifted by their coordinates, the dot products add up to the raw
    coordinates of b_k, read back by kron_mul's _unpack.  W is sized for a
    step's dot products before g rescales the stored M*b_m, so each stored
    coordinate c keeps |c| < 2^(8W - 1), and a widening (at least twice as
    wide) reads every M*b_m back from its own slots.
    Every b_k stays inside the coefficient field of f, and a caller that
    stops at the first coefficient it needs pays for no more than that.

    Before each step its cost, counted from the sizes of its operands, is
    added to the root's work; a step that would take it past
    ROOT_WORK_BUDGET raises ValueError instead, naming m and T.  The count
    depends on f and n only, so a root stops at the same m on every run.
    """
    if n < 1:
        raise ValueError("root degree must be a positive integer")
    if f.lead != 0 or f.is_zero() or f.coeffs[0] != 1:
        raise ValueError("nth root requires a normalized unit series 1 + O(w)")
    return _miller_root(f.coeffs, n, f.field, f.prec)


def _miller_root(a, n, field, prec):
    den_a, d, flat = _operand(a, field)
    A = [flat[i::d] for i in range(d)]  # A[i][j]: coordinate i of den_a*a_j
    abits = max(map(abs, flat)).bit_length()
    M = 1          # the lcm of the denominators of b_0..b_(k-1)
    top = 1        # the largest |coordinate| of M*b_m over m < k
    W = 0          # slot width of Q in bytes; d = 1 needs none
    Q = []         # Q[m]: M*b_m, coordinates in slots of 8*W bits
    # b_(k-1) as step k finds it: the growth g of M it brought, M/den and
    # its coordinates; Q takes it once W is wide enough
    g, c, coords = 1, 1, [1]
    work = 0       # in the units of ROOT_WORK_BUDGET
    for k in range(1, prec):
        m = min(k, len(a) - 1)
        if d > 1:
            # every slot of conv below sums at most d*m products of a
            # coordinate of den_a*a_j, a weight |w_j| <= n*k and a stored
            # coordinate, at most top once g rescales Q; one bit for the sign
            need = (abits + m.bit_length() + d.bit_length()
                    + (n * k).bit_length() + top.bit_length() + 1)
            if need > 8 * W:
                V = max(-(-need // 8), 2 * W)
                Q = [sum(x << (8 * V * i)
                         for i, x in enumerate(_unpack(q, d, W))) for q in Q]
                W = V
        if g > 1:
            Q = [g * q for q in Q]
        Q.append(c * sum(x << (8 * W * i) for i, x in enumerate(coords)))
        L = Q[k - 1].bit_length()
        work += 64 * d * m * (L + 64) + (M.bit_length() + L) ** 2
        if work > ROOT_WORK_BUDGET:
            raise ValueError(
                f"formal root stopped at m = {k} of T = {prec - 1}: "
                f"computing b_{k} would pass its work budget of "
                f"{ROOT_WORK_BUDGET} units; ask for fewer --terms")
        w = range(n + 1 - n * k, (n + 1) * m - n * k + 1, n + 1)
        wb = list(map(mul, w, Q[k - 1::-1]))
        # the dot product with coordinate i of a, shifted by i slots: slot t
        # of the sum is coordinate t of den_a*M*n*k*b_k before reduction
        s = sum(sum(map(mul, Ai[1:m + 1], wb)) << (8 * W * i)
                for i, Ai in enumerate(A))
        conv = _unpack(s, 2 * d - 1, W) if d > 1 else [s]
        (bk,) = _coefficients(den_a * M * n * k, 2 * d - 1, conv, field)
        den, coords = ((bk.denominator, [bk.numerator]) if field is None
                       else (bk.den, bk.num))
        g = den // math.gcd(M, den)
        M *= g
        c = M // den
        if d > 1:
            top = max(top * g, c * max(map(abs, coords)))
        yield bk


def nth_root_normalized(f, n):
    """Formal n-th root of f = 1 + c_1 w + ... with leading coefficient 1.

    Returns g = 1 + sum b_m w^m with g^n = f to precision, built from
    root_coefficients; callers that scan the b_m and may stop early should
    iterate root_coefficients instead.
    """
    b = root_coefficients(f, n)  # checks that f = 1 + O(w)
    return LaurentSeries(f.width, 0, [f.coeffs[0], *b], f.field, f.prec)


# ----------------------------------------------------------------------
# Eta quotients.
# ----------------------------------------------------------------------

class EtaQuotient:
    """Finite product prod_delta eta(delta*z)^(r_delta), delta positive rational."""

    def __init__(self, terms):
        terms = [(Fraction(d), int(r)) for d, r in terms]
        if not terms:
            raise ValueError("eta quotient needs at least one term")
        if any(d <= 0 for d, _ in terms):
            raise ValueError("eta scales must be positive")
        self.terms = tuple(terms)

    def __repr__(self):
        return "EtaQuotient(%s)" % ", ".join(f"eta({d}z)^{r}" for d, r in self.terms)

    def minimal_width(self):
        """Smallest N for which the expansion lives in integer powers of w:
        L | N for L the lcm of the delta denominators, and the lead
        N*sum(r*delta)/24 is an integer iff N/L is a multiple of the
        denominator of L*sum(r*delta)/24."""
        n = math.lcm(*(d.denominator for d, _ in self.terms))
        return n * (n * sum(r * d for d, r in self.terms) / 24).denominator


def _pentagonal_coeffs(length):
    """Coefficients of prod_{n>=1} (1 - x^n) up to x^(length-1), by Euler's
    pentagonal number theorem: k(3k-1)/2 >= k^2, so k <= isqrt(length)."""
    c = [0] * length
    c[0] = 1
    for k in range(1, math.isqrt(length) + 1):
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g < length:
                c[g] = -1 if k % 2 else 1
    return c


def _jacobi_coeffs(length):
    """Coefficients of prod_{n>=1} (1 - x^n)^3 up to x^(length-1), by
    Jacobi's identity: sum_k (-1)^k (2k+1) x^(k(k+1)/2)."""
    c = [0] * length
    k = 0
    while k * (k + 1) // 2 < length:
        c[k * (k + 1) // 2] = -2 * k - 1 if k % 2 else 2 * k + 1
        k += 1
    return c


def _pentagonal_power(m, r):
    """P^r up to x^(m-1) for r < 0, P = prod_{n>=1} (1 - x^n), by Miller's
    power recurrence n*c_n = sum_j ((r+1)*j - n)*P_j*c_(n-j) (Knuth, TAOCP
    vol. 2, 4.7) over the O(sqrt(n)) pentagonal j where P_j is nonzero; at
    r = -1 it is Euler's recurrence for the partition numbers.  Every
    division by n is exact, and checked."""
    terms = [(j, s) for j, s in enumerate(_pentagonal_coeffs(m)) if j and s]
    c = [1] * m
    for n in range(1, m):
        t = 0
        for j, s in terms:  # ascending j
            if j > n:
                break
            t += ((r + 1) * j - n) * s * c[n - j]
        c[n], rem = divmod(t, n)
        if rem:
            raise RuntimeError("Miller's recurrence left a fraction")
    return c


def _eta_steps(eq, width):
    """({step N*delta: summed r}, lead N*sum(r*delta)/24) of an eta quotient
    at width N; raises ValueError unless every N*delta is an integer."""
    steps = {}  # step -> r, the terms of one scale summed: one power each
    for d, r in eq.terms:
        nd = Fraction(width) * d
        if nd.denominator != 1:
            raise ValueError(
                f"width {width} incompatible with eta({d}z): needs width divisible by {d.denominator}")
        steps[int(nd)] = steps.get(int(nd), 0) + r
    return steps, sum(Fraction(r) * d * width for d, r in eq.terms) / 24


def _eta_product_ints(eq, width, T):
    """(lead, unit): the integer coefficients of w^0..w^T of the product
    part prod_delta prod_n (1 - w^(N*delta*n))^(r_delta), and the exponent
    lead = N*sum(r*delta)/24, possibly fractional, of the stripped prefactor;
    needs only N*delta integral for every term.

    A factor with step s = N*delta is a series in u = w^s, so it is powered
    at length ceil((T+1)/s) in u and multiplied into the unit one residue
    class of exponents mod s at a time; the first factor is laid out on its
    residue class 0 as it is.  With P = prod (1 - u^n), a positive power
    r = 3q + t is J^q * P^t for Jacobi's J = P^3, and a negative one is
    read by _pentagonal_power."""
    if T < 0:
        raise ValueError("truncation must be nonnegative")
    steps, lead = _eta_steps(eq, width)
    length = T + 1
    unit = None
    for step, r in steps.items():
        if not r:
            continue
        m = -(-length // step)  # terms of the factor in u = w^step
        if r < 0:
            f = _pentagonal_power(m, r)
        else:
            q, t = divmod(r, 3)
            f = None
            for base, e in ((_jacobi_coeffs(m), q),
                            (_pentagonal_coeffs(m), t)):
                f = power(base, e, partial(kron_mul, n=m), f)
        if unit is None:  # the first factor is the whole product so far
            unit = [0] * length
            unit[::step] = f
        else:
            for i in range(min(step, length)):
                cls = unit[i::step]
                unit[i::step] = kron_mul(cls, f, len(cls))
    if unit is None:
        unit = [1] + [0] * T
    return lead, unit


def eta_quotient_expand(eq, width, T):
    """Exact integer-coefficient expansion of an eta quotient at a given width.

    The width must make every factor's product part land on integer powers of
    w and the total q^(1/24)-prefactor land on an integer exponent; both are
    checked before anything is expanded.
    """
    lead = _eta_steps(eq, width)[1]
    if lead.denominator != 1:
        raise ValueError(
            f"width {width} incompatible: leading exponent {lead} is not an integer "
            f"(minimal valid width is {eq.minimal_width()})")
    lead = int(lead)
    unit = _eta_product_ints(eq, width, T)[1]
    return LaurentSeries(width, lead, unit, None, lead + T + 1)


# ----------------------------------------------------------------------
# Text serialization (bit-exact round trip).
# ----------------------------------------------------------------------

def _fmt_coords(c):
    """The coordinates of c as reduced fractions, without building them."""
    den, parts = c.den, []
    for x in c.num:
        g = math.gcd(x, den)
        parts.append(f"{x // g}/{den // g}")
    return ",".join(parts)


def _field_line(field):
    """The field line of a record: rational, or the defining polynomial."""
    if field is None:
        return "field rational"
    return "field " + ",".join(str(c) for c in field.defining_poly)


def serialize_series(f):
    if f.field is None:
        body = [f"{c.numerator}/{c.denominator}" for c in f.coeffs]
        zero = "0/1"
    else:
        body = list(map(_fmt_coords, f.coeffs))
        zero = ",".join(["0/1"] * f.field.degree)
    # the trailing zeros that coeffs keeps implicitly, up to prec
    body += [zero] * (f.prec - f.lead - len(f.coeffs))
    return "\n".join(["series 1",
                      f"width {f.width}",
                      f"lead {f.lead}",
                      f"truncation {f.truncation}",
                      _field_line(f.field), *body]) + "\n"


def deserialize_series(text):
    """Parse a record written by serialize_series; a malformed record raises
    ValueError, whatever is wrong with it."""
    try:
        return _parse_series(text)
    except (KeyError, IndexError, ZeroDivisionError) as exc:
        raise ValueError(f"bad series record: {type(exc).__name__}: {exc}") \
            from exc


# a record coordinate: an integer or p/q, as serialize_series writes them
_COORD = re.compile(r"\s*([+-]?)(\d+)(?:/(\d+))?\s*")
# the commands write at most 792 digits (eta 1:-240 --width 1 --terms 3000);
# detect on one coefficient of this many digits, at p = 2 or 5, over Q or a
# quartic field, took at most 0.7 s on a 2-vCPU machine
COEFF_DIGITS_CEILING = 4000
# the commands write fields of degree 3 and 4; NumberField's irreducibility
# test recombines modular factors subset by subset: it validated degree-16
# fields in at most 0.05 s but a degree-32 one in 5.7 s on a 2-vCPU machine
FIELD_DEGREE_CEILING = 16


def _read_rational(text):
    """A coordinate of a record, refused past the digit ceiling before any
    int is built: exponent and decimal forms are not record forms.  An
    integer coordinate (no denominator, or /1) is read as an int."""
    m = _COORD.fullmatch(text)
    if m is None:
        raise ValueError(f"bad coefficient {text[:40]!r}: expected an "
                         "integer or p/q")
    sign, num, den = m.groups()
    if max(len(num), len(den or "")) > COEFF_DIGITS_CEILING:
        raise ValueError(f"coefficient has more than {COEFF_DIGITS_CEILING} "
                         "digits")
    num, den = int(sign + num), int(den or 1)
    return num if den == 1 else Fraction(num, den)


def _parse_series(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["series", "1"]:
        raise ValueError("bad series record header")
    header = {}
    i = 1
    while i < len(lines) and lines[i].split(maxsplit=1)[0] in ("width", "lead", "truncation", "field"):
        k, v = lines[i].split(maxsplit=1)
        if k in header:
            raise ValueError(f"repeated {k} line")
        header[k] = v
        i += 1
    width = int(header["width"])
    lead = int(header["lead"])
    trunc = int(header["truncation"])
    field = None
    if header["field"] != "rational":
        poly = dp_trim(map(_read_rational, header["field"].split(",")))
        if len(poly) > FIELD_DEGREE_CEILING + 1:
            raise ValueError(
                f"field has degree more than {FIELD_DEGREE_CEILING}")
        field = NumberField(poly)
    coeffs = []
    for ln in lines[i:]:
        if field is None:
            coeffs.append(_read_rational(ln))
        else:
            coeffs.append(field.from_coords([_read_rational(x)
                                             for x in ln.split(",")]))
    if len(coeffs) != trunc + 1:
        raise ValueError("series record length mismatch")
    return LaurentSeries(width, lead, coeffs, field, lead + trunc + 1)
