"""Truncated Laurent series in w = e^{2*pi*i*z/N} over exact coefficients,
formal n-th roots of unit series (computed coefficient by coefficient on
demand, by Miller's power recurrence on packed integer coordinates over a
running common denominator), Dedekind-eta quotient expansion via the
pentagonal-number theorem, and a text record of a series."""

from fractions import Fraction
import math
from operator import mul
import re

from .exactnum import (
    AlgebraicNumber,
    NumberField,
    _operand,
    common_field as _common_field,
    kron_mul,
    lift as _lift,
    newton_inverse,
    trunc_mul,
)


class LaurentSeries:
    """Exact coefficients for exponents lead..prec-1; zero beyond is unknown,
    not asserted.  coeffs[0] is nonzero unless the series is 0 to precision."""

    __slots__ = ('width', 'lead', 'coeffs', 'field', 'prec')

    def __init__(self, width, lead, coeffs, field=None, prec=None):
        if width < 1:
            raise ValueError("width must be a positive integer")
        coeffs = [_lift(field, c) for c in coeffs]
        if prec is None:
            prec = lead + len(coeffs)
        if prec < lead + len(coeffs):
            coeffs = coeffs[:max(0, prec - lead)]
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
            return _lift(self.field, 0)
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

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.width == other.width and self.lead == other.lead
                and self.prec == other.prec and self.coeffs == other.coeffs
                and self.field == other.field)

    def __hash__(self):
        return hash((self.width, self.lead, self.coeffs, self.prec))

    def agrees_with(self, other, lo=None, hi=None):
        """Coefficient-wise equality on the overlap of the known ranges."""
        if self.width != other.width:
            return False
        lo = max(self.lead, other.lead) if lo is None else lo
        hi = min(self.prec, other.prec) if hi is None else hi
        return all(self.coefficient(k) == other.coefficient(k)
                   for k in range(lo, hi))

    # -- ring operations ----------------------------------------------
    def _check_compat(self, other):
        if self.width != other.width:
            raise ValueError("width mismatch")
        return _common_field(self.field, other.field)

    def __add__(self, other):
        field = self._check_compat(other)
        prec = min(self.prec, other.prec)
        lead = min(self.lead, other.lead, prec)
        a, b = self.coefficients(lead, prec), other.coefficients(lead, prec)
        return LaurentSeries(self.width, lead, [x + y for x, y in zip(a, b)],
                             field, prec)

    def __neg__(self):
        return LaurentSeries(self.width, self.lead, [-c for c in self.coeffs],
                             self.field, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # a factor that is 0 to precision has lead = prec, so lead below is
        # prec too and the product is 0 to that precision
        field = self._check_compat(other)
        lead = self.lead + other.lead
        prec = min(self.prec + other.lead, other.prec + self.lead)
        out = trunc_mul(self.coeffs, other.coeffs, prec - lead, field)
        return LaurentSeries(self.width, lead, out, field, prec)

    def scalar_mul(self, s):
        field = self.field
        if isinstance(s, AlgebraicNumber):
            field = _common_field(field, s.field)
        s = _lift(field, s)
        return LaurentSeries(self.width, self.lead,
                             [_lift(field, c) * s for c in self.coeffs],
                             field, self.prec)

    def shift(self, k):
        """Multiply by w^k."""
        return LaurentSeries(self.width, self.lead + k, self.coeffs,
                             self.field, self.prec + k)

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
        inv = newton_inverse(self.coeffs, n, 1 / self.coeffs[0],
                             lambda a, b, m: trunc_mul(a, b, m, field))
        return LaurentSeries(self.width, -self.lead, inv, field,
                             -self.lead + n)

    def unit_normalized(self):
        """Strip to the form 1 + ... ; returns (unit, lead, leading_coeff).

        Ratios of root coefficients of the original series only depend on the
        unit part, so callers can account for the stripped monomial separately
        without enlarging the coefficient field.
        """
        if self.is_zero():
            raise ValueError("zero series has no unit normalization")
        c0 = self.coeffs[0]
        return self.scalar_mul(1 / c0).shift(-self.lead), self.lead, c0


def root_coefficients(f, n):
    """Iterator over b_1, b_2, ..., b_(prec-1) of the formal n-th root
    g = 1 + sum b_k w^k of f = 1 + sum a_j w^j, computed one at a time.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7), read off
    n*f*Dg = g*Df with D = w*d/dw:

        n*k*b_k = sum_{j=1..k} ((n+1)*j - n*k) * a_j * b_(k-j).

    The sum runs on integer coordinates (one for Q, degree for a number
    field): the a_j share one denominator, every b_m is stored as M*b_m over
    the running lcm M of the denominators of b_0..b_(k-1), so the weights
    are the small ints (n+1)*j - n*k, and b_k is normalised once; when M
    grows by g, every stored M*b_m is multiplied by g once.  Each M*b_m is
    kept as one int, its coordinates in slots of a common width (Kronecker
    substitution on one operand, as in kron_mul), so a step makes one list
    of weighted b's and one dot product per coordinate of a.
    Every b_k stays inside the coefficient field of f, and a caller that
    stops at the first coefficient it needs pays for no more than that.
    """
    if n < 1:
        raise ValueError("root degree must be a positive integer")
    if f.lead != 0 or f.is_zero() or f.coeffs[0] != 1:
        raise ValueError("nth root requires a normalized unit series 1 + O(w)")
    return _miller_root(f.coeffs, n, f.field, f.prec)


def _pack_slots(coords, width):
    """The int sum of coords[i] * 2^(width*i); one coordinate needs no width."""
    x = coords[-1]
    for c in reversed(coords[:-1]):
        x = (x << width) + c
    return x


def _miller_root(a, n, field, prec):
    den_a, d, flat = _operand(a, field)
    A = [flat[i::d] for i in range(d)]  # A[i][j]: coordinate i of den_a*a_j
    abits = max(map(abs, flat)).bit_length()
    B = [[1] + [0] * (d - 1)]  # B[m]: the coordinates of E[m]*b_m
    E = [1]                    # E[m]: the denominator of b_m
    M = 1                      # the lcm of the E's so far
    # M/E[m] < 2^(bits(M) - bits(E[m]) + 1), so every coordinate of M*b_m
    # is under 2^(bits(M) + qbits)
    qbits = 1
    W = 0                      # slot width of Q; d = 1 needs none
    Q = [1]                    # Q[m]: M*b_m, its coordinates packed in W
    for k in range(1, prec):
        m = min(k, len(a) - 1)
        if d > 1:
            # every slot of a dot product below is a sum of m terms
            # a_j * w_j * (M*b_(k-j)) with |w_j| <= n*k
            need = (abits + m.bit_length() + (n * k).bit_length()
                    + M.bit_length() + qbits + 2)
            if need > W:
                W = max(need, 2 * W)
                mask, top = (1 << W) - 1, 1 << (W - 1)
                Q = [M // e * _pack_slots(c, W) for c, e in zip(B, E)]
        w = range(n + 1 - n * k, (n + 1) * m - n * k + 1, n + 1)
        wb = list(map(mul, w, Q[k - 1::-1]))
        conv = [0] * (2 * d - 1)
        for i, Ai in enumerate(A):
            s = sum(map(mul, Ai[1:m + 1], wb))
            for i2 in range(i, i + d - 1):  # signed slots, bottom up
                v = s & mask
                if v >= top:
                    v -= 1 << W
                conv[i2] += v
                s = (s - v) >> W
            conv[i + d - 1] += s
        den = den_a * M * n * k
        bk = (Fraction(conv[0], den) if field is None
              else AlgebraicNumber(field, field._reduce(conv), den))
        den, _, coords = _operand([bk], field)
        g = den // math.gcd(M, den)
        if g > 1:
            M *= g
            Q = [g * q for q in Q]
        B.append(coords)
        E.append(den)
        qbits = max(qbits, max(map(int.bit_length, coords))
                    - den.bit_length() + 1)
        Q.append(M // den * _pack_slots(coords, W))
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
        """Smallest N for which the expansion lives in integer powers of w."""
        n = 1
        for d, _ in self.terms:
            # N*delta must be an integer
            n = math.lcm(n, d.denominator)
        while True:
            tot = sum(Fraction(r) * d * n for d, r in self.terms) / 24
            if tot.denominator == 1 and all((n * d).denominator == 1
                                            for d, _ in self.terms):
                return n
            n += 1


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


def _eta_product_ints(eq, width, T):
    """(lead, unit): the integer coefficients of w^0..w^T of the product
    part prod_delta prod_n (1 - w^(N*delta*n))^(r_delta), and the exponent
    lead = N*sum(r*delta)/24, possibly fractional, of the stripped prefactor;
    needs only N*delta integral for every term.

    A factor with step s = N*delta is a series in u = w^s, so it is powered
    at length ceil((T+1)/s) in u and multiplied into the unit one residue
    class of exponents mod s at a time; the first factor is laid out on its
    residue class 0 as it is.  With P = prod (1 - u^n) and |r| = 3q + t, the
    power is J^q * P^t for Jacobi's J = P^3, inverted once when r < 0."""
    if T < 0:
        raise ValueError("truncation must be nonnegative")
    steps = []
    for d, r in eq.terms:
        nd = Fraction(width) * d
        if nd.denominator != 1:
            raise ValueError(
                f"width {width} incompatible with eta({d}z): needs width divisible by {d.denominator}")
        steps.append((int(nd), r))
    lead = sum(Fraction(r) * d * width for d, r in eq.terms) / 24
    length = T + 1
    unit = None
    for step, r in steps:
        if not r:
            continue
        m = -(-length // step)  # terms of the factor in u = w^step
        q, t = divmod(abs(r), 3)
        f = None
        for base, e in ((_jacobi_coeffs(m), q), (_pentagonal_coeffs(m), t)):
            while e:  # f = f * base^e by binary powering
                if e & 1:
                    f = base if f is None else kron_mul(f, base, m)
                e >>= 1
                if e:
                    base = kron_mul(base, base, m)
        if r < 0:
            f = newton_inverse(f, m, 1, kron_mul)
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
    w and the total q^(1/24)-prefactor land on an integer exponent.
    """
    lead, unit = _eta_product_ints(eq, width, T)
    if lead.denominator != 1:
        raise ValueError(
            f"width {width} incompatible: leading exponent {lead} is not an integer "
            f"(minimal valid width is {eq.minimal_width()})")
    lead = int(lead)
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
    lines = ["series 1",
             f"width {f.width}",
             f"lead {f.lead}",
             f"truncation {f.prec - f.lead - 1}",
             _field_line(f.field)]
    for k in range(f.lead, f.prec):
        c = f.coefficient(k)
        if f.field is None:
            lines.append(f"{c.numerator}/{c.denominator}")
        else:
            lines.append(_fmt_coords(c))
    return "\n".join(lines) + "\n"


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
# the commands write at most 59 digits (eta 1/11:12,1:-12 --width 11 --terms
# 3000); detect on one coefficient of this many digits, at p = 2 or 5, over Q
# or a quartic field, took at most 0.7 s on a 2-vCPU machine
COEFF_DIGITS_CEILING = 4000


def _read_rational(text):
    """A coordinate of a record, refused past the digit ceiling before any
    int is built: exponent and decimal forms are not record forms."""
    m = _COORD.fullmatch(text)
    if m is None:
        raise ValueError(f"bad coefficient {text[:40]!r}: expected an "
                         "integer or p/q")
    sign, num, den = m.groups()
    if max(len(num), len(den or "")) > COEFF_DIGITS_CEILING:
        raise ValueError(f"coefficient has more than {COEFF_DIGITS_CEILING} "
                         "digits")
    return Fraction(int(sign + num), int(den or 1))


def _parse_series(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["series", "1"]:
        raise ValueError("bad series record header")
    header = {}
    i = 1
    while i < len(lines) and lines[i].split(maxsplit=1)[0] in ("width", "lead", "truncation", "field"):
        k, v = lines[i].split(maxsplit=1)
        header[k] = v
        i += 1
    width = int(header["width"])
    lead = int(header["lead"])
    trunc = int(header["truncation"])
    field = None
    if header["field"] != "rational":
        field = NumberField([_read_rational(c)
                             for c in header["field"].split(",")])
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
