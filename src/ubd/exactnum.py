"""Exact coefficient arithmetic: rationals, number fields, p-adic valuations.

Number fields are presented by a single monic irreducible integer polynomial,
checked by the pure-Python factorization below.  Every field question reads
one object, the integer characteristic polynomial chi_B of B = den*a, which
comes from traces by Newton's identities: the inverse is Cayley-Hamilton on
it, and the valuations above a rational prime p are the negated slopes of
its Newton polygon, less v_p(den).  newton_polygon_valuations is the one
reader of that polygon.  Whether val_p extends uniquely to the field is
certified from what it reads on chi of t - a, the shifted defining
polynomial f(x + a) for t the generator (one segment, totally ramified or
with a residual polynomial that distinct-degree factorization shows
irreducible mod p); every polygon then has one slope, which the resultant
norm of ord_at_unique_prime reproduces.  The minimal polynomial, chi_B over
its repeated part, is a reference kept in the tests."""

from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, compress
import math
from operator import mul

INFINITY = math.inf  # valuation of 0


# Miller-Rabin with the first 13 primes as bases is proven correct for every
# n below this bound (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(p):
    """Deterministic primality test; raises ValueError for p at or above
    _MR_BOUND, where no fixed set of bases is proven and a guess could make
    a certificate unsound."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p < 43 * 43:
        return True
    if p >= _MR_BOUND:
        raise ValueError(f"{p} is too large for a proven primality test "
                         f"(the bound is {_MR_BOUND})")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def prime_factors(n):
    """The distinct primes dividing n >= 1, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def power(x, e, mul, acc=None):
    """acc * x^e for an int e >= 0 and an associative product mul, by
    binary powering from the low bit up.  acc None is the empty product, so
    no product with an identity is taken (and e = 0 gives None back): e
    costs bit_length(e) - 1 squares, each mul(x, x) on one object, and one
    product per set bit, less one when acc is None."""
    while e:
        if e & 1:
            acc = x if acc is None else mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return acc


def val_p(r, p):
    """p-adic valuation of a rational; INFINITY for 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    r = Fraction(r)
    if r == 0:
        return INFINITY
    v = 0
    num, den = r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ----------------------------------------------------------------------
# Dense univariate polynomials, coefficient lists low degree first.  The
# domain is read from the coefficients unless a modulus is given: ints and
# Fractions mean Q, and any AlgebraicNumber means its number field.  An int
# m as the last argument means Z/m: int coefficients, reduced into [0, m) on
# the way out, and a divisor's leading coefficient a unit mod m.  Division
# over Q turns ints into Fractions, never floats.
# ----------------------------------------------------------------------

def dp_trim(c, m=None):
    c = list(c) if m is None else [x % m for x in c]
    while c and not c[-1]:
        c.pop()
    return c


def dp_add(a, b, m=None):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] = out[i] + y
    return dp_trim(out, m)


def dp_sub(a, b, m=None):
    return dp_add(a, [-x for x in b], m)


def _poly_field(*polys):
    return next((c.field for p in polys for c in p
                 if isinstance(c, AlgebraicNumber)), None)


def dp_mul(a, b, m=None):
    n = len(a) + len(b) - 1
    if m is not None:  # int operands: no denominators to clear
        return dp_trim(kron_mul(a, b, n), m)
    return dp_trim(trunc_mul(a, b, n, _poly_field(a, b)))


def dp_divmod(a, b, m=None):
    """Division with remainder by a trimmed nonzero b, with one inverse of
    its leading coefficient, in the domain of the coefficients or Z/m.  A
    monic b takes no inverse and no product per quotient term."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = (None if b[-1] == 1 else Fraction(1) / b[-1] if m is None
           else pow(b[-1], -1, m))
    a, q, nb = list(a), [0] * max(0, len(a) - len(b) + 1), len(b)
    for k in range(len(a) - nb, -1, -1):
        f = q[k] = a[k + nb - 1] if inv is None else a[k + nb - 1] * inv
        if f:
            for i, bi in enumerate(b[:-1]):
                a[k + i] = a[k + i] - f * bi
    return dp_trim(q, m), dp_trim(a[:nb - 1], m)


def dp_monic(c, m=None):
    """c over its leading coefficient ([] for 0)."""
    c = dp_trim(c, m)
    return dp_divmod(c, c[-1:], m)[0] if c else c


def dp_gcd(a, b, m=None):
    """The monic gcd ([] when both are zero); m, if given, a prime."""
    b = dp_monic(b, m)
    while b:
        a, b = b, dp_divmod(a, b, m)[1]
    return dp_monic(a, m)


def dp_powmod(a, e, f, m):
    """a^e mod f over Z/m, for an int e >= 0 and f of positive degree."""
    return power(a, e, lambda u, v: dp_divmod(dp_mul(u, v, m), f, m)[1], [1])


def dp_eval(c, x):
    acc = 0
    for ci in reversed(c):
        acc = acc * x + ci
    return acc


def dp_resultant(f, g):
    """Resultant of two polynomials, by the Euclidean recurrence."""
    f, g = dp_trim(f), dp_trim(g)
    if not f or not g:
        return 0
    res = 1
    while len(g) > 1:
        r = dp_divmod(f, g)[1]
        if not r:
            return 0
        if (len(f) - 1) * (len(g) - 1) % 2:
            res = -res
        res = res * g[-1] ** (len(f) - len(r))
        f, g = g, r
    return res * g[0] ** (len(f) - 1)


def _deriv(c):
    return [i * x for i, x in enumerate(c)][1:]


def content_primitive(c):
    """(content, primitive integer part with a positive leading coefficient)
    of a nonzero rational polynomial."""
    den = math.lcm(*(x.denominator for x in c))
    c = [int(x * den) for x in dp_trim(c)]
    g = math.gcd(*c) * (1 if c[-1] > 0 else -1)
    return Fraction(g, den), [x // g for x in c]


def integerize_monic(c):
    """Rescale a monic rational polynomial so that d*root satisfies a monic
    integer polynomial; returns (integer coefficients, d), d the least: each
    prime q of a denominator enters d to the least power e with
    e*(n - i) >= v_q(den c_i) for every i < n."""
    c = dp_monic(c)
    n = len(c) - 1
    dens = [Fraction(ci).denominator for ci in c]
    d = 1
    for q in prime_factors(math.lcm(*dens)):
        d *= q ** max(-(-val_p(den, q) // (n - i))
                      for i, den in enumerate(dens[:-1]))
    out = [Fraction(ci) * Fraction(d) ** (n - i) for i, ci in enumerate(c)]
    assert all(x.denominator == 1 for x in out)
    return [int(x) for x in out], d


def factor_poly_q(c):
    """Irreducible factorization over Q of a squarefree rational polynomial.

    Returns (rational content, [primitive integer factors]), each factor with
    a positive leading coefficient, ordered by degree, then coefficients from
    the top; raises ValueError unless c is squarefree."""
    c = dp_trim(c)
    if not c:
        return Fraction(0), []
    cont, f = content_primitive(c)
    if len(_zx_gcd(f, _deriv(f))) > 1:
        raise ValueError("polynomial is not squarefree")
    factors = _factor_squarefree(f) if len(f) > 1 else []
    return cont, sorted(factors, key=lambda g: (len(g), g[::-1]))


def poly_is_irreducible_q(c):
    """f is irreducible over Q iff gcd(f, f') is a constant and Zassenhaus
    finds one factor."""
    try:
        return len(factor_poly_q(c)[1]) == 1
    except ValueError:
        return False


def poly_is_irreducible_modp(c, p):
    """f is irreducible over F_p iff it is squarefree and its distinct-degree
    factorization is f itself."""
    f = dp_monic([int(x) for x in c], p)
    return len(f) > 1 and _fp_ddf(f, p) == [(f, len(f) - 1)]


# ----------------------------------------------------------------------
# Factorization over Q (von zur Gathen & Gerhard, Modern Computer Algebra,
# ch. 14-15): a squarefree check by gcd(f, f') over Z, distinct- and
# equal-degree factorization modulo a small prime, Hensel lifting and
# recombination, on trimmed int lists over Z and the dp_* helpers modulo m.
# ----------------------------------------------------------------------

def _fp_xgcd(a, b, p):
    """(s, t) with s*a + t*b = 1 over F_p, deg s < deg b and deg t < deg a,
    for coprime a and b of positive degree."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = dp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, dp_sub(s0, dp_mul(q, s1, p), p)
        t0, t1 = t1, dp_sub(t0, dp_mul(q, t1, p), p)
    return dp_divmod(s0, r0, p)[0], dp_divmod(t0, r0, p)[0]


def _fp_ddf(f, p):
    """Distinct-degree factorization of a monic f over F_p: [(g, d)], g the
    product of the irreducible factors of f of degree d; None when f has a
    repeated factor."""
    if len(dp_gcd(f, _deriv(f), p)) > 1:
        return None
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = dp_powmod(h, p, f, p)  # x^(p^d) mod f
        g = dp_gcd(f, dp_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = dp_divmod(f, g, p)[0]
            h = dp_divmod(h, f, p)[1]
    return out + [(f, len(f) - 1)] if len(f) > 1 else out


def _fp_edf(g, d, p):
    """The irreducible factors, all of degree d, of a monic squarefree g over
    F_p, p odd (Cantor-Zassenhaus).  The splitting polynomials a are x, x + 1,
    ..., x^2, ... (base-p digits of p, p + 1, ...): one splits g below deg g."""
    i = p
    while len(g) - 1 > d:
        a = [i // p ** j % p for j in range(len(g)) if p ** j <= i]
        b = dp_powmod(a, (p ** d - 1) // 2, g, p)
        s = dp_gcd(g, dp_sub(b, [1], p), p)
        if 1 < len(s) < len(g):
            return _fp_edf(s, d, p) + _fp_edf(dp_divmod(g, s, p)[0], d, p)
        i += 1
    return [g]


def _hensel(f, mods, p, steps):
    """Monic lifts modulo p^(2^steps) of the monic factors mods of f = lc(f) *
    prod(mods) mod p, lc(f) a unit: the two halves of the product are lifted
    by quadratic Hensel steps (GG, Alg. 15.10), then each lifted half is split
    the same way, so each node of the factor tree is lifted once."""
    if len(mods) == 1:
        return [dp_monic(f, p ** (2 ** steps))]
    k = len(mods) // 2
    g = reduce(partial(dp_mul, m=p), mods[k:], [f[-1] % p])
    h = reduce(partial(dp_mul, m=p), mods[:k], [1])
    s, t = _fp_xgcd(g, h, p)
    m = p
    for step in range(steps):
        m *= m
        e = dp_sub(f, dp_mul(g, h, m), m)
        q, r = dp_divmod(dp_mul(s, e, m), h, m)
        g = dp_add(g, dp_add(dp_mul(t, e, m), dp_mul(q, g, m)), m)
        h = dp_add(h, r, m)
        if step < steps - 1:
            b = dp_sub(dp_add(dp_mul(s, g, m), dp_mul(t, h, m)), [1], m)
            c, d = dp_divmod(dp_mul(s, b, m), h, m)
            s = dp_sub(s, d, m)
            t = dp_sub(t, dp_add(dp_mul(t, b, m), dp_mul(c, g, m)), m)
    return _hensel(h, mods[:k], p, steps) + _hensel(g, mods[k:], p, steps)


def _zx_exquo(a, b):
    """a/b for integer polynomials, b nonzero; None unless b divides a in
    Z[x]: the quotient over Q, kept if the remainder is 0 and it is
    integral."""
    q, r = dp_divmod(a, b)
    if r or any(c.denominator != 1 for c in q):
        return None
    return [c.numerator for c in q]


def _zx_gcd(a, b):
    """The primitive gcd, leading coefficient positive, of a nonzero integer
    polynomial a and an integer polynomial b: the primitive remainder
    sequence, each pseudo-remainder over its content."""
    a = content_primitive(a)[1]
    b = content_primitive(b)[1] if b else []
    while b:
        r, nb = a, len(b)
        while len(r) >= nb:  # r = lc(b)*r - r_top*x^k*b, top term cancelled
            c, k = r[-1], len(r) - nb
            r = [b[-1] * x for x in r[:-1]]
            for i, bi in enumerate(b[:-1]):
                r[k + i] -= c * bi
            r = dp_trim(r)
        a, b = b, (content_primitive(r)[1] if r else [])
    return a


def _factor_squarefree(f):
    """The irreducible factors of a primitive squarefree integer polynomial
    with positive leading coefficient (Zassenhaus).  Of the first three odd
    primes p not dividing lc(f)*disc(f), the one with the fewest factors
    modulo p is used; they are lifted to p^k > 2*B, B = lc(f) times the
    Mignotte bound, and recombined by trial division over subsets of
    growing size."""
    n, lc = len(f) - 1, f[-1]
    if n < 2:
        return [f]
    best, p, tried = None, 2, 0
    while tried < 3:
        p += 1
        if not is_prime(p) or lc % p == 0:
            continue
        ddf = _fp_ddf(dp_monic(f, p), p)
        if ddf is None:
            continue  # p divides the discriminant
        tried += 1
        r = sum((len(g) - 1) // d for g, d in ddf)
        if r == 1:
            return [f]  # irreducible modulo p
        if best is None or r < best[0]:
            best = r, p, ddf
    _, p, ddf = best
    bound = 2 * (math.isqrt(n + 1) + 1) * 2 ** n * max(map(abs, f)) * lc
    M, steps = p, 0
    while M <= bound:
        M, steps = M * M, steps + 1
    lifted = _hensel(f, [g for gd in ddf for g in _fp_edf(*gd, p)], p, steps)
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = reduce(partial(dp_mul, m=M), [lifted[i] for i in subset],
                       [f[-1] % M])
            g = content_primitive([x - M if 2 * x > M else x for x in g])[1]
            if g[0] and f[0] % g[0]:
                continue  # the constant terms rule g out
            q = _zx_exquo(f, g)
            if q is not None:
                out.append(g)
                f = q
                lifted = [a for i, a in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


# ----------------------------------------------------------------------
# Number fields and algebraic numbers.
# ----------------------------------------------------------------------

class NumberField:
    """Q[t]/(f) for a monic irreducible integer polynomial f."""

    def __init__(self, coeffs, name='t'):
        coeffs = dp_trim(coeffs)
        if not coeffs or coeffs[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if any(Fraction(c).denominator != 1 for c in coeffs):
            raise ValueError("defining polynomial must have integer coefficients")
        if len(coeffs) < 2:
            raise ValueError("defining polynomial must have degree >= 1")
        coeffs = [int(c) for c in coeffs]
        if not poly_is_irreducible_q(coeffs):
            raise ValueError("defining polynomial is reducible over Q")
        self.defining_poly = tuple(coeffs)
        self.degree = len(coeffs) - 1
        self.name = name
        # integer reduction rows: t^(d+j) = rows[j] in the power basis
        d = self.degree
        rows = []
        cur = [-c for c in coeffs[:-1]]  # t^d
        rows.append(list(cur))
        for _ in range(d - 2):
            cur = [0] + cur
            top = cur.pop()  # coefficient of t^d
            cur = [ci + top * ri for ci, ri in zip(cur, rows[0])]
            rows.append(list(cur))
        self._red_rows = rows
        self._unique_prime_above = {}  # p -> field_has_unique_prime_above

    def _reduce(self, conv):
        """Power-basis coordinates of sum conv[j]*t^j for j < 2*degree - 1:
        each power t^d and above is replaced by its reduction row."""
        out = conv[:self.degree]
        for c, row in zip(conv[self.degree:], self._red_rows):
            if c:
                for k, r in enumerate(row):
                    out[k] += c * r
        return out

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.defining_poly):
            if c:
                terms.append(f"{c}*{self.name}^{i}")
        return f"NumberField({' + '.join(terms)})"

    def __eq__(self, other):
        return self is other or (isinstance(other, NumberField)
                and self.defining_poly == other.defining_poly)

    def __hash__(self):
        return hash(self.defining_poly)

    def zero(self):
        return AlgebraicNumber(self, (0,) * self.degree, 1)

    def one(self):
        return self.from_rational(1)

    def gen(self):
        num = [0] * self.degree
        if self.degree == 1:
            return self.from_rational(-self.defining_poly[0])
        num[1] = 1
        return AlgebraicNumber(self, tuple(num), 1)

    def from_rational(self, r):
        r = Fraction(r)
        num = [0] * self.degree
        num[0] = r.numerator
        return AlgebraicNumber(self, tuple(num), r.denominator)

    def from_coords(self, coords):
        """The element with these rational (int or Fraction) coordinates."""
        if len(coords) != self.degree:
            raise ValueError("coordinate vector length must equal field degree")
        den, _, num = _operand(coords, None)
        return AlgebraicNumber(self, num, den)


class AlgebraicNumber:
    """Element of a NumberField: integer coordinate vector over a common
    positive denominator, in the power basis of the generator."""

    __slots__ = ('field', 'num', 'den')

    def __init__(self, field, num, den):
        if den < 0:
            num = tuple(-x for x in num)
            den = -den
        g = den
        for x in num:
            g = math.gcd(g, abs(x))
            if g == 1:
                break
        if g > 1:
            num = tuple(x // g for x in num)
            den //= g
        self.field = field
        self.num = tuple(num)
        self.den = den

    # -- construction helpers --------------------------------------
    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field != self.field:
                raise ValueError("mixed number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    # -- predicates -------------------------------------------------
    def __bool__(self):
        return any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.num[0], self.den)

    def coords(self):
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- arithmetic --------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        da, db = self.den, o.den
        num = tuple(x * db + y * da for x, y in zip(self.num, o.num))
        return AlgebraicNumber(self.field, num, da * db)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scalar scales the coordinates; no convolution needed
            r = Fraction(other)
            return AlgebraicNumber(self.field,
                                   tuple(x * r.numerator for x in self.num),
                                   self.den * r.denominator)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.field.degree
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(o.num):
                    if y:
                        conv[i + j] += x * y
        return AlgebraicNumber(self.field, tuple(self.field._reduce(conv)),
                               self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """den/B by Cayley-Hamilton on chi_B = sum e_i x^i of B = den*a:
        B*(e_1 + e_2*B + ... + B^(d-1)) = -e_0, and e_0 = (-1)^d Norm(B) is
        a nonzero integer."""
        if not self:
            raise ZeroDivisionError("division by zero in number field")
        e, powers = _integral_char_poly(self)
        num = [e[1]] + [0] * (self.field.degree - 1)
        for ei, b in zip(e[2:], powers):
            num = [x + ei * y for x, y in zip(num, b)]
        return AlgebraicNumber(self.field, [-self.den * x for x in num], e[0])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero in number field")
            return self * (1 / Fraction(other))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, mul) if k else self.field.one()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return self.is_rational() and self.as_fraction() == other
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        return (self.field == other.field and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def __repr__(self):
        t = self.field.name
        parts = []
        for i, c in enumerate(self.coords()):
            if c:
                parts.append(str(c) if i == 0 else
                             (f"{c}*{t}" if i == 1 else f"{c}*{t}^{i}"))
        return " + ".join(parts) if parts else "0"


def lift(field, v):
    """Coerce v into the coefficient domain (Q when field is None)."""
    if field is None:
        if type(v) is Fraction:
            return v
        if isinstance(v, AlgebraicNumber):
            return v.as_fraction()
        return Fraction(v)
    if isinstance(v, AlgebraicNumber):
        if v.field is not field and v.field != field:
            raise ValueError("coefficient from a different number field")
        return v
    return field.from_rational(v)


# ----------------------------------------------------------------------
# The product kernel: truncated products of coefficient lists, summed
# directly when few coordinate products are nonzero, else by Kronecker
# substitution at one point or, for large one-coordinate operands, at +-2^h
# (Harvey, J. Symb. Comput. 44, 2009); inverses by Newton iteration (Brent
# & Kung, JACM 25, 1978).  Every series and polynomial product is kron_mul.
# ----------------------------------------------------------------------

# Few: nnz(a)*nnz(b) <= DIRECT_RATIO*(D*(la + lb) + KS_FIXED_SLOTS), as KS
# costs about DIRECT_RATIO products per slot it packs or reads, plus
# KS_FIXED_SLOTS slots.  Measured on a 2-vCPU machine (min of 7): 9.1 against
# 21.8 us at 4 x 4 coefficients and d = 1, KS ahead from 14 x 14 at d = 1,
# 5 x 5 at d = 4 and at 4 x 600; 0.44-0.46 against 2.9-4.4 ms to square the
# 3001-term pentagonal or Jacobi series.
DIRECT_RATIO, KS_FIXED_SLOTS = 3, 24

# One-coordinate operands, the shorter packing into more bits than this,
# take two-point KS: two products, or two squares, of half the width.
# Measured on a 2-vCPU machine against one-point KS (median of 21
# alternating runs): 0.76-1.00x up to 4 kbit, 0.96-1.06x at 4-6.4 kbit,
# 1.03-1.18x at 8-16 kbit and 1.17-1.5x from 16 kbit up; squares 1.04x at
# 8.6 kbit and 1.27-1.42x on 273 to 3001 coefficients of 16 to 177 bits.
KS2_BITS = 8192


def _pack(vals, d, w):
    """The int sum of vals[k*d + i] * 2^(8w*(k*D + i)), D = 2d - 1: coefficient
    k of an operand with d integer coordinates fills slots k*D .. k*D + d - 1."""
    to_bytes = int.to_bytes
    pad = bytes(w * (d - 1))

    def joined(chunks):
        if d > 1:
            chunks = [b"".join(chunks[k:k + d]) + pad
                      for k in range(0, len(chunks), d)]
        return int.from_bytes(b"".join(chunks), "little")

    x = joined([to_bytes(v, w, "little", signed=True) for v in vals])
    if min(vals, default=0) < 0:
        # a negative v went in as v + 2^(8w); take the 2^(8w) back out of
        # the next slot up
        one, zero = b"\x01" + bytes(w - 1), bytes(w)
        x -= joined([one if v < 0 else zero for v in vals]) << (8 * w)
    return x


def _unpack(x, k, w):
    """The k signed slots of w bytes at the bottom of x = sum c_i 2^(8w*i),
    every |c_i| < 2^(8w - 1): read with a bias of half a slot per kept slot,
    so no slot borrows from the next, and the mask drops the slots past k
    whatever their sign."""
    nbytes = k * w
    half = 1 << (8 * w - 1)
    bias = int.from_bytes(half.to_bytes(w, "little") * k, "little")
    raw = ((x + bias) & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")
    from_bytes = int.from_bytes
    return [from_bytes(raw[i:i + w], "little") - half
            for i in range(0, nbytes, w)]


def _nonzero(v, d):
    """(slot k*D + i, value) of each nonzero coordinate v[k*d + i], by slot."""
    return list(zip((k + k // d * (d - 1) for k in compress(range(len(v)), v)),
                    filter(None, v)))


def kron_mul(a, b, n, d=1):
    """First n coefficients of the product of two integer operands.

    a and b hold coefficients of d integer coordinates each, flat and
    coefficient-major (coordinate i of coefficient k is a[k*d + i]).
    Coordinates are multiplied as polynomials, so each output coefficient
    has D = 2d - 1 coordinates, flat in the same order; a is b is a square.
    Few nonzero coordinate products (DIRECT_RATIO) are summed directly, a
    square's off the diagonal once and doubled.  Otherwise both operands go
    into one int each, with byte-aligned slots indexed k*D + i, wide enough
    (8w bits) that no slot of the product overflows.  One-coordinate
    operands past KS2_BITS are evaluated at +-2^h instead, h = 4w, as
    A_even(2^(8w)) +- 2^h*A_odd(2^(8w)): the two products H+ and H- are half
    as wide, and (H+ + H-)/2 and (H+ - H-)/2^(h+1) hold the even and the odd
    coefficients in slots of 8w.
    """
    D = 2 * d - 1
    if n <= 0:
        return []
    square = a is b  # one operand: CPython squares it faster
    a, b = a[:n * d], b[:n * d]
    la, lb = len(a) // d, len(b) // d
    if ((len(a) - a.count(0)) * (len(b) - b.count(0))
            <= DIRECT_RATIO * (D * (la + lb) + KS_FIXED_SLOTS)):
        top, out = n * D, [0] * (n * D)
        ys = _nonzero(b, d)
        for i, (o, x) in enumerate(ys if square else _nonzero(a, d)):
            if square:
                if 2 * o >= top:
                    break
                out[2 * o] += x * x
                x = 2 * x
            for t, y in ys[i + 1:] if square else ys:
                if o + t >= top:
                    break
                out[o + t] += x * y
        return out
    ma, mb = max(map(abs, a)), max(map(abs, b))
    bits = (ma.bit_length() + mb.bit_length()
            + (min(la, lb) * d).bit_length() + 2)
    w = (bits + 7) // 8
    if d > 1 or 8 * w * min(la, lb) <= KS2_BITS:
        x = _pack(a, d, w)
        return _unpack(x * (x if square else _pack(b, d, w)), n * D, w)
    h = 4 * w

    def at_two_points(v):
        even, odd = _pack(v[::2], 1, w), _pack(v[1::2], 1, w) << h
        return even + odd, even - odd

    ap, am = at_two_points(a)
    bp, bm = (ap, am) if square else at_two_points(b)
    hp, hm = ap * bp, am * bm
    out = [0] * n
    out[::2] = _unpack((hp + hm) >> 1, (n + 1) // 2, w)
    out[1::2] = _unpack((hp - hm) >> (h + 1), n // 2, w)
    return out


def _operand(coeffs, field):
    """(den, coordinates per coefficient, flat integer coordinates) with one
    positive denominator shared by every coefficient: one coordinate each
    over Q (field None), degree coordinates each over a number field, where
    a rational coefficient is lifted."""
    if field is None:
        den = math.lcm(*(c.denominator for c in coeffs))
        if den == 1:
            return 1, 1, [c.numerator for c in coeffs]
        return den, 1, [c.numerator * (den // c.denominator) for c in coeffs]
    coeffs = [lift(field, c) for c in coeffs]
    den = math.lcm(*(c.den for c in coeffs))
    return den, field.degree, [x * (den // c.den) for c in coeffs for x in c.num]


def _coefficients(den, D, flat, field):
    """The coefficients of flat integer coordinates, D per coefficient,
    over the common denominator den: the inverse of _operand.  Over Q (D =
    1) an integral coefficient stays an int; over a field, D is d or 2d - 1,
    and powers t^d and above are reduced once per coefficient."""
    if field is None:
        return flat if den == 1 else [Fraction(v, den) for v in flat]
    d, out = field.degree, []
    for k in range(0, len(flat), D):
        c = flat[k:k + D]
        if D > d:
            c = field._reduce(c)
        out.append(AlgebraicNumber(field, c, den))
    return out


def trunc_mul(a, b, n, field=None):
    """First n coefficients of the product of two coefficient lists over Q
    (field None) or over a number field, where a rational coefficient is
    lifted: kron_mul multiplies d coordinates by d and reads 2d - 1."""
    if n <= 0:
        return []
    dena, d, fa = _operand(a[:n], field)
    denb, _, fb = _operand(b[:n], field)
    return _coefficients(dena * denb, 2 * d - 1, kron_mul(fa, fb, n, d),
                         field)


def newton_inverse(f, n, inv0, mul):
    """First n coefficients of 1/f, given inv0 = 1/f[0] and a truncated
    product mul(a, b, m): Newton's iteration g <- g*(2 - f*g), doubling the
    number of correct coefficients each step."""
    g = [inv0]
    m = 1
    while m < n:
        m = min(2 * m, n)
        e = [-c for c in mul(f[:m], g, m)]
        e[0] += 2
        g = mul(g, e, m)
    return g


# ----------------------------------------------------------------------
# The characteristic polynomial and its Newton polygons.
# ----------------------------------------------------------------------

def _integral_char_poly(a):
    """(chi_B, [B, B^2, ..., B^d]) for B = den*a, B = a.num in the power
    basis: chi_B low degree first, an integer polynomial, since t and so B
    are integral, and the powers as integer coordinate lists.

    Newton's identities (Cohen, GTM 138, 4.3) give the power sums Tr(t^k) of
    the roots of the defining polynomial, hence the traces of B, ..., B^d,
    and from those chi_B; every division by k is exact, and checked.
    """
    field = a.field
    d = field.degree
    c = field.defining_poly[::-1]  # t^d + c[1]*t^(d-1) + ... + c[d]
    s = [d]  # s[k] = Tr(t^k)
    for k in range(1, d):
        s.append(-k * c[k] - sum(c[i] * s[k - i] for i in range(1, k)))
    cols = [list(a.num)]  # B*t^j: the matrix of multiplication by B
    for _ in range(d - 1):
        cols.append(field._reduce([0] + cols[-1]))
    rows, powers = list(zip(*cols)), [cols[0]]
    while len(powers) < d:
        powers.append([sum(map(mul, r, powers[-1])) for r in rows])
    tr = [None] + [sum(map(mul, b, s)) for b in powers]
    e = [1]  # chi_B = x^d + e[1]*x^(d-1) + ... + e[d]
    for k in range(1, d + 1):
        q, r = divmod(-(tr[k] + sum(e[i] * tr[k - i] for i in range(1, k))), k)
        if r:
            raise RuntimeError("Newton's identities left a fraction")
        e.append(q)
    return e[::-1], powers


def lower_hull_slopes(points):
    """Slopes of the lower convex hull of (i, v) points, left to right.

    Returns [(slope, horizontal length), ...]; points with v = INFINITY are
    treated as absent (only possible in the interior).
    """
    pts = [(i, v) for i, v in points if v != INFINITY]
    if len(pts) < 2:
        return []
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies above the segment hull[-2]..pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return out


def _segment_residual(coeffs, p, v0, slope):
    """Residual polynomial over F_p of the one segment, from height v0 at 0
    and of the given slope, under integer coefficients: c_i // p^t mod p at
    each tick i, where the segment's height t is an integer."""
    return [coeffs[i] // p ** int(v0 + slope * i) % p
            for i in range(0, len(coeffs), slope.denominator)]


def field_has_unique_prime_above(field, p):
    """Certify that val_p extends uniquely to the field.

    Tries the polygons of f(x + a), chi of t - a for t the generator, at
    a = 0, 1, ..., 15 (fewer when p < 16), as newton_polygon_valuations
    reads them: one segment, either totally ramified (slope denominator =
    degree) or with a residual polynomial irreducible mod p.  A failure to
    certify returns False (it never guesses).  The answer is kept on the
    field object, keyed by p, so the entries of one catalog share it.
    """
    memo, t, n = field._unique_prime_above, field.gen(), field.degree
    shifts = range(min(p, 16)) if p not in memo else ()  # once per p
    for a in shifts:
        if t == a:
            continue  # a degree-1 field: 0 has no polygon
        segments = newton_polygon_valuations(t - a, p)
        if len(segments) != 1:
            continue
        v = segments[0][0]  # the segment runs from (0, n*v) to (n, 0)
        if v.denominator == n or poly_is_irreducible_modp(_segment_residual(
                _integral_char_poly(t - a)[0], p, n * v, -v), p):
            memo[p] = True
            break
    return memo.setdefault(p, False)


def newton_polygon_valuations(a, p):
    """The valuations of a nonzero element at the embeddings above p, ord(p)
    = 1, as sorted (valuation, multiplicity) pairs: the negated lower-hull
    slopes of the integer characteristic polynomial of B = den*a, less
    v_p(den), with multiplicities = horizontal segment lengths.  chi_B is
    monic with constant term +-Norm(B) != 0, so the multiplicities sum to
    the field degree, and a rational r has the one slope of
    (x - den*r)^degree."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not a:
        raise ValueError("zero has no valuation")
    if isinstance(a, (int, Fraction)):
        return [(Fraction(val_p(Fraction(a), p)), 1)]
    shift = val_p(a.den, p)  # the hull's slopes are distinct
    return sorted((-s - shift, length) for s, length in lower_hull_slopes(
        [(i, val_p(c, p)) for i, c in enumerate(_integral_char_poly(a)[0])]))


def ord_at_unique_prime(a, p):
    """ord at the unique prime above p, normalized so ord(p) = 1:
    val_p(Norm(a)) / degree, the norm Res(f, B)/den^degree of the defining
    polynomial f and B = den*a.

    Requires a certified unique extension.  The detector reads this value as
    the one slope of newton_polygon_valuations; this is the independent norm
    formula the tests compare it with, apart from chi_B.  The valuation mode
    it names, unique-prime-norm, keeps its printed label.
    """
    if isinstance(a, (int, Fraction)):
        return val_p(Fraction(a), p)
    if not field_has_unique_prime_above(a.field, p):
        raise ValueError(
            f"uniqueness of the prime above {p} is not certified for {a.field}; "
            "fall back to newton_polygon_valuations")
    if not a:
        return INFINITY
    d = a.field.degree
    norm = Fraction(dp_resultant(a.field.defining_poly, a.num), a.den ** d)
    return Fraction(val_p(norm, p), d)
