"""Exact coefficient arithmetic: rationals, number fields, p-adic valuations.

Number fields are presented by a single monic irreducible integer polynomial,
checked by the pure-Python factorization below.  Every field question reads
one object, the integer characteristic polynomial chi_B of B = den*a, which
comes from traces by Newton's identities: the minimal polynomial divides it
out, the inverse is Cayley-Hamilton on it, and the valuations above a
rational prime p are the negated slopes of its Newton polygon, less
v_p(den).  Whether val_p extends uniquely to the field (totally ramified
segment, or a one segment polygon with a residual polynomial that the
factorizer's distinct-degree factorization shows irreducible mod p) is
certified apart; the polygon then has one slope, which the resultant norm
of ord_at_unique_prime reproduces.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
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
# domain is read from the coefficients: ints and Fractions mean Q, and any
# AlgebraicNumber means its number field.  Division turns ints into
# Fractions, never floats.
# ----------------------------------------------------------------------

def dp_trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def dp_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] = out[i] + y
    return dp_trim(out)


def dp_sub(a, b):
    return dp_add(a, [-x for x in b])


def _poly_field(*polys):
    return next((c.field for p in polys for c in p
                 if isinstance(c, AlgebraicNumber)), None)


def dp_mul(a, b):
    return dp_trim(trunc_mul(a, b, len(a) + len(b) - 1, _poly_field(a, b)))


def dp_divmod(a, b):
    """Division with remainder by a trimmed nonzero b, with one inverse of
    its leading coefficient."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv, nb = Fraction(1) / b[-1], len(b)
    a, q = list(a), [0] * max(0, len(a) - nb + 1)
    for k in range(len(a) - nb, -1, -1):
        f = q[k] = a[k + nb - 1] * inv
        if f:
            for i, bi in enumerate(b[:-1]):
                a[k + i] = a[k + i] - f * bi
    return dp_trim(q), dp_trim(a[:nb - 1])


def dp_monic(c):
    c = dp_trim(c)
    if not c:
        return c
    inv = Fraction(1) / c[-1]
    return [x * inv for x in c]


def dp_gcd(a, b):
    """The monic gcd ([] when both are zero)."""
    a, b = dp_trim(a), dp_trim(b)
    while b:
        a, b = b, dp_divmod(a, b)[1]
    return dp_monic(a)


def dp_eval(c, x):
    acc = 0
    for ci in reversed(c):
        acc = acc * x + ci
    return acc


def dp_shift(c, a):
    """Coefficients of f(x + a)."""
    out = []
    for ci in reversed(c):
        out = dp_add(dp_mul(out, [a, 1]), [ci])
    return out


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
    den = math.lcm(*(Fraction(x).denominator for x in c))
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
    """Irreducible factorization over Q of a rational polynomial.

    Returns (rational content, [(primitive integer factor, multiplicity)]),
    each factor with a positive leading coefficient, ordered by degree, then
    multiplicity, then coefficients from the top."""
    c = dp_trim(c)
    if not c:
        return Fraction(0), []
    cont, f = content_primitive(c)
    out = []
    for a, mult in _squarefree(f):
        out += [(g, mult) for g in _factor_squarefree(a)]
    out.sort(key=lambda gm: (len(gm[0]), gm[1], gm[0][::-1]))
    return cont, out


def poly_is_irreducible_q(c):
    factors = factor_poly_q(c)[1]
    return len(factors) == 1 and factors[0][1] == 1


def poly_is_irreducible_modp(c, p):
    """f is irreducible over F_p iff it is squarefree and its distinct-degree
    factorization is f itself."""
    f = _fp_monic([int(x) for x in c], p)
    return (len(f) > 1 and len(_fp_gcd(f, _deriv(f), p)) == 1
            and _fp_ddf(f, p) == [(f, len(f) - 1)])


# ----------------------------------------------------------------------
# Factorization over Q (von zur Gathen & Gerhard, Modern Computer Algebra,
# ch. 14-15): Yun's squarefree decomposition over Z, distinct- and
# equal-degree factorization modulo a small prime, Hensel lifting and
# recombination.  Polynomials over Z are int lists, low degree first,
# trimmed; polynomials modulo m are int lists in [0, m), and a divisor's
# leading coefficient is a unit mod m.
# ----------------------------------------------------------------------

def _zm(a, m):
    return dp_trim([x % m for x in a])


def _zm_mul(a, b, m):
    return _zm(kron_mul(a, b, len(a) + len(b) - 1), m) if a and b else []


def _zm_prod(c, polys, m):
    out = [c % m]
    for a in polys:
        out = _zm_mul(out, a, m)
    return out


def _zm_sub(a, b, m):
    return _zm(dp_sub(a, b), m)


def _zm_divmod(a, b, m):
    inv, nb = pow(b[-1], -1, m), len(b)
    a, q = list(a), [0] * max(0, len(a) - nb + 1)
    for k in range(len(a) - nb, -1, -1):
        q[k] = a[k + nb - 1] * inv % m
        for i, bi in enumerate(b):
            a[k + i] -= q[k] * bi
    return _zm(q, m), _zm(a[:nb - 1], m)


def _zm_powmod(a, e, f, m):
    r = [1]
    for bit in bin(e)[2:]:
        r = _zm_divmod(_zm_mul(r, r, m), f, m)[1]
        if bit == "1":
            r = _zm_divmod(_zm_mul(r, a, m), f, m)[1]
    return r


def _fp_monic(a, p):
    a = _zm(a, p)
    return _zm_prod(pow(a[-1], -1, p), [a], p) if a else a


def _fp_gcd(a, b, p):
    a, b = _zm(a, p), _zm(b, p)
    while b:
        a, b = b, _zm_divmod(a, b, p)[1]
    return _fp_monic(a, p)


def _fp_xgcd(a, b, p):
    """(s, t) with s*a + t*b = 1 over F_p, deg s < deg b and deg t < deg a,
    for coprime a and b of positive degree."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _zm_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zm_sub(s0, _zm_mul(q, s1, p), p)
        t0, t1 = t1, _zm_sub(t0, _zm_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return _zm_prod(inv, [s0], p), _zm_prod(inv, [t0], p)


def _fp_ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f over F_p:
    [(g, d)], g the product of the irreducible factors of f of degree d."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _zm_powmod(h, p, f, p)  # x^(p^d) mod f
        g = _fp_gcd(f, _zm_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _zm_divmod(f, g, p)[0]
            h = _zm_divmod(h, f, p)[1]
    return out + [(f, len(f) - 1)] if len(f) > 1 else out


def _fp_edf(g, d, p):
    """The irreducible factors, all of degree d, of a monic squarefree g over
    F_p, p odd (Cantor-Zassenhaus).  The splitting polynomials a are x, x + 1,
    ..., x^2, ... (base-p digits of p, p + 1, ...): one splits g below deg g."""
    i = p
    while len(g) - 1 > d:
        a = [i // p ** j % p for j in range(len(g)) if p ** j <= i]
        b = _zm_powmod(a, (p ** d - 1) // 2, g, p)
        s = _fp_gcd(g, _zm_sub(b, [1], p), p)
        if 1 < len(s) < len(g):
            return _fp_edf(s, d, p) + _fp_edf(_zm_divmod(g, s, p)[0], d, p)
        i += 1
    return [g]


def _hensel(f, mods, p, steps):
    """Monic lifts modulo p^(2^steps) of the monic factors mods of f = lc(f) *
    prod(mods) mod p, lc(f) a unit: the two halves of the product are lifted
    by quadratic Hensel steps (GG, Alg. 15.10), then each lifted half is split
    the same way, so each node of the factor tree is lifted once."""
    if len(mods) == 1:
        M = p ** (2 ** steps)
        return [_zm_prod(pow(f[-1], -1, M), [f], M)]
    k = len(mods) // 2
    g, h = _zm_prod(f[-1], mods[k:], p), _zm_prod(1, mods[:k], p)
    s, t = _fp_xgcd(g, h, p)
    m = p
    for step in range(steps):
        m *= m
        e = _zm_sub(f, _zm_mul(g, h, m), m)
        q, r = _zm_divmod(_zm_mul(s, e, m), h, m)
        g = _zm(dp_add(g, dp_add(_zm_mul(t, e, m), _zm_mul(q, g, m))), m)
        h = _zm(dp_add(h, r), m)
        if step < steps - 1:
            b = _zm_sub(dp_add(_zm_mul(s, g, m), _zm_mul(t, h, m)), [1], m)
            c, d = _zm_divmod(_zm_mul(s, b, m), h, m)
            s = _zm_sub(s, d, m)
            t = _zm_sub(t, dp_add(_zm_mul(t, b, m), _zm_mul(c, g, m)), m)
    return _hensel(h, mods[:k], p, steps) + _hensel(g, mods[k:], p, steps)


def _zx_primitive(a):
    """A nonzero integer polynomial over its content, leading coefficient
    positive."""
    g = math.gcd(*a) * (1 if a[-1] > 0 else -1)
    return [x // g for x in a]


def _zx_exquo(a, b):
    """a/b for integer polynomials, b nonzero; None unless b divides a in
    Z[x] (for a primitive b, as soon as it divides a in Q[x])."""
    a, nb = list(a), len(b)
    q = [0] * max(0, len(a) - nb + 1)
    for k in range(len(a) - nb, -1, -1):
        c, r = divmod(a[k + nb - 1], b[-1])
        if r:
            return None
        q[k] = c
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
    return None if any(a) else dp_trim(q)


def _zx_gcd(a, b):
    """The primitive gcd, leading coefficient positive, of a nonzero integer
    polynomial a and an integer polynomial b: the primitive remainder
    sequence, each pseudo-remainder over its content."""
    a = _zx_primitive(a)
    b = _zx_primitive(b) if b else []
    while b:
        r, nb = a, len(b)
        while len(r) >= nb:  # r = lc(b)*r - r_top*x^k*b, top term cancelled
            c, k = r[-1], len(r) - nb
            r = [b[-1] * x for x in r[:-1]]
            for i, bi in enumerate(b[:-1]):
                r[k + i] -= c * bi
            r = dp_trim(r)
        a, b = b, (_zx_primitive(r) if r else [])
    return a


def _squarefree(f):
    """Yun's squarefree decomposition of a primitive integer polynomial with
    positive leading coefficient: [(a_i, i)] with f = prod a_i^i, the a_i
    primitive, squarefree and coprime.  Every gcd is primitive, so every
    quotient is exact in Z[x] (Gauss)."""
    if len(f) < 2:
        return []
    df = _deriv(f)
    a = _zx_gcd(f, df)
    if len(a) == 1:
        return [(f, 1)]
    b, c = _zx_exquo(f, a), _zx_exquo(df, a)
    out, i = [], 1
    while len(b) > 1:
        d = dp_sub(c, _deriv(b))
        a = _zx_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c, i = _zx_exquo(b, a), _zx_exquo(d, a), i + 1
    return out


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
        fp = _fp_monic(f, p)
        if len(_fp_gcd(fp, _deriv(fp), p)) > 1:
            continue  # p divides the discriminant
        tried += 1
        ddf = _fp_ddf(fp, p)
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
            g = _zm_prod(f[-1], [lifted[i] for i in subset], M)
            g = _zx_primitive([x - M if 2 * x > M else x for x in g])
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
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise ValueError("coordinate vector length must equal field degree")
        den = 1
        for c in coords:
            den = den * c.denominator // math.gcd(den, c.denominator)
        return AlgebraicNumber(self, tuple(c.numerator * (den // c.denominator)
                                           for c in coords), den)


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
            r = Fraction(other)
            return AlgebraicNumber(self.field,
                                   tuple(x * r.denominator for x in self.num),
                                   self.den * r.numerator)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        acc = self.field.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

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


def common_field(f1, f2):
    if f1 is None:
        return f2
    if f2 is None or f1 == f2:
        return f1
    raise ValueError("mixed number fields")


# ----------------------------------------------------------------------
# The product kernel: truncated products of coefficient lists by Kronecker
# substitution (Harvey, J. Symb. Comput. 44, 2009) and inverses by Newton
# iteration (Brent & Kung, JACM 25, 1978).  Every series and polynomial
# product goes through kron_mul, so the work is one big-int multiply.
# ----------------------------------------------------------------------

def _pack(vals, d, D, w):
    """The int sum of vals[k*d + i] * 2^(8w*(k*D + i)): coefficient k of an
    operand with d integer coordinates fills slots k*D .. k*D + d - 1."""
    to_bytes = int.to_bytes
    pad = bytes(w * (D - d))

    def joined(chunks):
        if d < D:
            chunks = [b"".join(chunks[k:k + d]) + pad
                      for k in range(0, len(chunks), d)]
        return int.from_bytes(b"".join(chunks), "little")

    x = joined([to_bytes(v, w, "little", signed=True) for v in vals])
    if min(vals) < 0:
        # a negative v went in as v + 2^(8w); take the 2^(8w) back out of
        # the next slot up
        one, zero = b"\x01" + bytes(w - 1), bytes(w)
        x -= joined([one if v < 0 else zero for v in vals]) << (8 * w)
    return x


def kron_mul(a, b, n, da=1, db=1):
    """First n coefficients of the product of two integer operands.

    a holds coefficients of da integer coordinates each, flat and
    coefficient-major (coordinate i of coefficient k is a[k*da + i]); b
    likewise with db.  Coordinates are multiplied as polynomials, so each
    output coefficient has da + db - 1 coordinates, flat in the same order.
    Both operands go into one int each, with byte-aligned slots indexed
    k*(da + db - 1) + i, wide enough that no slot of the product overflows;
    the product is read back with a bias of half a slot per kept slot, and
    the mask drops the slots past n whatever their sign.
    """
    D = da + db - 1
    if n <= 0:
        return []
    square = a is b and da == db  # one operand: CPython squares it faster
    a, b = a[:n * da], b[:n * db]
    la, lb = len(a) // da, len(b) // db
    ma = max(map(abs, a), default=0)
    mb = max(map(abs, b), default=0)
    if not ma or not mb:
        return [0] * (n * D)
    bits = (ma.bit_length() + mb.bit_length()
            + (min(la, lb) * min(da, db)).bit_length() + 2)
    w = (bits + 7) // 8
    x = _pack(a, da, D, w)
    prod = x * (x if square else _pack(b, db, D, w))
    nbytes = n * D * w
    half = 1 << (8 * w - 1)
    bias = int.from_bytes(half.to_bytes(w, "little") * (n * D), "little")
    raw = ((prod + bias) & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")
    from_bytes = int.from_bytes
    return [from_bytes(raw[i:i + w], "little") - half
            for i in range(0, nbytes, w)]


def _operand(coeffs, field):
    """(den, coordinates per coefficient, flat integer coordinates) with one
    positive denominator shared by every coefficient: a list of rationals is
    one coordinate each, a list over a number field has degree coordinates."""
    if field is None or not any(isinstance(c, AlgebraicNumber) for c in coeffs):
        den = math.lcm(*(c.denominator for c in coeffs))
        if den == 1:
            return 1, 1, [c.numerator for c in coeffs]
        return den, 1, [c.numerator * (den // c.denominator) for c in coeffs]
    coeffs = [lift(field, c) for c in coeffs]
    den = math.lcm(*(c.den for c in coeffs))
    return den, field.degree, [x * (den // c.den) for c in coeffs for x in c.num]


def trunc_mul(a, b, n, field=None):
    """First n coefficients of the product of two coefficient lists over Q
    (field None) or over a number field, where either list may be rational.
    A rational list times a field list multiplies 1 coordinate by degree
    coordinates, with no lift; powers t^d and above are reduced once per
    output coefficient."""
    if n <= 0:
        return []
    dena, da, fa = _operand(a[:n], field)
    denb, db, fb = _operand(b[:n], field)
    flat = kron_mul(fa, fb, n, da, db)
    den = dena * denb
    D = da + db - 1
    if field is None:
        return [Fraction(v, den) for v in flat]
    d = field.degree
    out = []
    for k in range(0, n * D, D):
        c = flat[k:k + D]
        if D > d:
            c = field._reduce(c)
        elif D < d:
            c += [0] * (d - D)
        out.append(AlgebraicNumber(field, c, den))
    return out


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
# The characteristic polynomial, minimal polynomials and Newton polygons.
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


def newton_polygon_points(coeffs, p):
    return [(i, val_p(c, p)) for i, c in enumerate(dp_trim(coeffs))]


def _polygon_certifies_unique(coeffs, p):
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


@lru_cache(maxsize=None)
def field_has_unique_prime_above(field, p):
    """Certify that val_p extends uniquely to the field.

    Tries the defining polynomial and its shifts by 0, 1, ..., 15 (fewer
    when p < 16); a failure to certify returns False (it never guesses).
    """
    coeffs = list(field.defining_poly)
    return any(_polygon_certifies_unique(dp_shift(coeffs, a), p)
               for a in range(min(p, 16)))


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
        newton_polygon_points(_integral_char_poly(a)[0], p)))


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
