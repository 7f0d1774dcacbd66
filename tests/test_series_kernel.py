"""The product kernel against the element-wise loops it replaced.

kron_mul multiplies two integer operands by a direct convolution of their
nonzero coordinates or by Kronecker substitution, at one point or, for
large one-coordinate operands, at two;
LaurentSeries.__mul__, LaurentSeries.invert (Newton), dp_mul, the eta
products and the integer x/y solve are built on it.  The references below
are the element-wise loops those call sites used before, kept here only:
among them the order-by-order x/y solve, S as the newform of the curve
from point counts over F_p, and the partition numbers as a product of
geometric series.
"""

from fractions import Fraction
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ubd import exactnum
from ubd.exactnum import (DIRECT_RATIO, KS2_BITS, KS_FIXED_SLOTS,
                          NumberField, dp_mul, kron_mul, lift, newton_inverse)
from ubd.qseries import (EtaQuotient, LaurentSeries, _eta_product_ints,
                         _jacobi_coeffs, _pentagonal_coeffs,
                         _pentagonal_power, deserialize_series,
                         eta_quotient_expand)
from ubd.x011 import (KAPPA, S_QUOTIENT, V_INV_QUOTIENT, XS2_IDENTITY,
                      _compute_xy)

from helpers import (partition_numbers, pentagonal_power_by_partitions,
                     series_key)

QUARTIC = NumberField([869405, 19255, 1360, 20, 1], 's')  # index-5 catalog
CUBIC = NumberField([-158, -40, -2, 1], 'u')              # index-2 catalog
FIELDS = {"Q": None, "quartic": QUARTIC, "cubic": CUBIC}

SETTINGS = settings(max_examples=60, deadline=None)


# ----------------------------------------------------------------------
# References: the element-wise loops.
# ----------------------------------------------------------------------

def _zero(field):
    return Fraction(0) if field is None else field.zero()


def _reference_kron(a, b, n, da, db):
    D = da + db - 1
    out = [0] * (n * D)
    for k1 in range(len(a) // da):
        for k2 in range(len(b) // db):
            if k1 + k2 < n:
                for i in range(da):
                    for j in range(db):
                        out[(k1 + k2) * D + i + j] += a[k1 * da + i] * b[k2 * db + j]
    return out


def _reference_mul(f, g):
    """LaurentSeries product, one field product per pair of coefficients."""
    field = f._check_compat(g)
    if f.is_zero() or g.is_zero():
        # f = O(w^pf) times a series of lead l is O(w^(pf+l))
        if f.is_zero() and g.is_zero():
            prec = f.prec + g.prec
        elif f.is_zero():
            prec = f.prec + g.lead
        else:
            prec = g.prec + f.lead
        return LaurentSeries(f.width, prec, [], field, prec)
    lead = f.lead + g.lead
    prec = min(f.prec + g.lead, g.prec + f.lead)
    n = prec - lead
    a = [lift(field, c) for c in f.coeffs]
    b = [lift(field, c) for c in g.coeffs]
    out = [_zero(field)] * n
    for i, ai in enumerate(a):
        if not ai or i >= n:
            continue
        for j in range(min(len(b), n - i)):
            if b[j]:
                out[i + j] = out[i + j] + ai * b[j]
    return LaurentSeries(f.width, lead, out, field, prec)


def _reference_invert(f):
    """Reciprocal by the order-by-order recursion."""
    field = f.field
    n = f.prec - f.lead
    c0 = f.coeffs[0]
    u = [lift(field, c) / c0 for c in f.coefficients(f.lead, f.prec)]
    v = [_zero(field)] * n
    v[0] = lift(field, 1)
    for k in range(1, n):
        acc = _zero(field)
        for j in range(1, min(k, len(u) - 1) + 1):
            if u[j] and v[k - j]:
                acc = acc + u[j] * v[k - j]
        v[k] = -acc
    return LaurentSeries(f.width, -f.lead, [x / c0 for x in v], field,
                         -f.lead + n)


def _imul_trunc(a, b, length):
    out = [0] * length
    for i, ai in enumerate(a[:length]):
        if ai:
            for j in range(min(len(b), length - i)):
                out[i + j] += ai * b[j]
    return out


def _iinv_trunc(u, length):
    v = [1] + [0] * (length - 1)
    for k in range(1, length):
        v[k] = -sum(u[j] * v[k - j] for j in range(1, min(k, len(u) - 1) + 1))
    return v


def _reference_eta_unit(eq, width, T):
    length = T + 1
    unit = [1] + [0] * T
    for d, r in eq.terms:
        step = int(width * d)
        pent = [0] * length
        pent[0] = 1
        for k in range(1, length):
            for g in (k * (3 * k - 1) // 2 * step, k * (3 * k + 1) // 2 * step):
                if g < length:
                    pent[g] += -1 if k % 2 else 1
        if r < 0:
            pent, r = _iinv_trunc(pent, length), -r
        for _ in range(r):
            unit = _imul_trunc(unit, pent, length)
    return unit


def _reference_compute_xy(T):
    """The x/y solve over Fractions, with the unknowns held in dicts."""
    s_series = eta_quotient_expand(S_QUOTIENT, 11, T + 8)
    smax = T + 7
    S = [Fraction(0)] + [Fraction(s_series.coefficient(e))
                         for e in range(1, smax + 1)]
    kappa = Fraction(-1) / S[1]
    xs, ys, x2 = {-2: Fraction(1)}, {-3: Fraction(1)}, {-4: Fraction(1)}

    def r1(m, x2prov):
        acc = Fraction(0)
        for i in range(-3, m + 3):
            j = m - i
            if j < i:
                break
            yi, yj = ys.get(i), ys.get(j)
            if yi is not None and yj is not None:
                acc += yi * yj if i == j else 2 * yi * yj
        acc += ys.get(m, 0)
        for i in range(-4, m + 3):
            x2i = x2prov if i == m + 2 else x2.get(i)
            xj = xs.get(m - i)
            if x2i is not None and xj is not None:
                acc -= x2i * xj
        acc += x2.get(m, 0) + 10 * xs.get(m, 0)
        return acc + 20 if m == 0 else acc

    def r2(e):
        conv = sum(ys[j] * S[e - j] for j in range(-3, e) if j in ys)
        se = S[e] if 0 < e <= smax else Fraction(0)
        return -kappa * (2 * conv + se)

    for m in range(-5, T - 5):
        x2prov = Fraction(0)
        for a in range(-2, m + 4):
            b = m + 2 - a
            if b < a:
                break
            if a in xs and b in xs:
                x2prov += xs[a] * xs[b] if a == b else 2 * xs[a] * xs[b]
        v1, v2 = r1(m, x2prov), r2(m + 4)
        if m == -4:
            y_new = v2 / (2 * kappa * S[1])
            x_new = (2 * y_new + v1) / 3
        else:
            denom = 2 - Fraction(6) * kappa * S[1] / (m + 4)
            y_new = -(v1 + Fraction(3) * v2 / (m + 4)) / denom
            x_new = (2 * kappa * S[1] * y_new - v2) / (m + 4)
        ys[m + 3], xs[m + 4] = y_new, x_new
        x2[m + 2] = x2prov + 2 * x_new
    return ([xs[k] for k in range(-2, T - 1)], [ys[k] for k in range(-3, T - 2)],
            kappa)


def _point_count_newform(N):
    """a_0..a_N of the newform of y^2 + y = x^3 - x^2 - 10x - 20 (a_0 = 0):
    a_p = p + 1 - #E(F_p) for p != 11 and a_11 = 1, a_(p^(k+1)) =
    a_p*a_(p^k) - p*a_(p^(k-1)) at the good primes and a_(11^k) = 1, and a_n
    multiplicative.  #E(F_p) counts, for each x, the y with y^2 + y equal to
    the right-hand side mod p, plus the point at infinity."""
    spf = list(range(N + 1))  # smallest prime factor
    for d in range(2, math.isqrt(N) + 1):
        if spf[d] == d:
            for m in range(d * d, N + 1, d):
                spf[m] = min(spf[m], d)
    a = [0, 1] + [None] * (N - 1)
    for n in range(2, N + 1):
        p, m, k = spf[n], n, 0
        while m % p == 0:
            m, k = m // p, k + 1
        if m > 1:  # coprime parts
            a[n] = a[m] * a[n // m]
        elif p == 11:
            a[n] = 1
        elif k == 1:
            roots = [0] * p
            for y in range(p):
                roots[(y * y + y) % p] += 1
            count = 1 + sum(roots[(x ** 3 - x * x - 10 * x - 20) % p]
                            for x in range(p))
            a[n] = p + 1 - count
        else:
            a[n] = a[p] * a[n // p] - p * a[n // (p * p)]
    return a


def _divisor_sum(n, k):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def _solve(rows, rhs):
    """Gauss-Jordan elimination over Fraction; rows must be invertible."""
    m = [[Fraction(v) for v in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    for i in range(len(m)):
        piv = next(r for r in range(i, len(m)) if m[r][i])
        m[i], m[piv] = m[piv], m[i]
        m[i] = [v / m[i][i] for v in m[i]]
        for r in range(len(m)):
            if r != i and m[r][i]:
                m[r] = [v - m[r][i] * w for v, w in zip(m[r], m[i])]
    return [row[-1] for row in m]


# ----------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------

def rationals(big=False):
    top = 10 ** 40 if big else 10 ** 4
    return st.builds(Fraction, st.integers(-top, top), st.integers(1, 60))


def coefficients(field):
    q = st.one_of(rationals(), rationals(big=True), st.just(Fraction(0)))
    if field is None:
        return q
    return st.lists(q, min_size=field.degree, max_size=field.degree).map(
        field.from_coords)


@st.composite
def series(draw, field, min_len=0):
    coeffs = draw(st.lists(coefficients(field), min_size=min_len, max_size=14))
    lead = draw(st.integers(-4, 4))
    prec = lead + len(coeffs) + draw(st.integers(0, 6))
    return LaurentSeries(11, lead, coeffs, field, prec)


@st.composite
def unit_series(draw, field):
    """A series whose leading coefficient is nonzero, so it inverts."""
    f = draw(series(field, min_len=1))
    if f.is_zero():
        return LaurentSeries(11, f.lead, [lift(field, 3)], field, f.lead + 4)
    return f


field_names = st.sampled_from(sorted(FIELDS))


# ----------------------------------------------------------------------
# Tests.
# ----------------------------------------------------------------------

def _path(*args):
    """(path, result) of kron_mul(*args): the path is read from the slot
    counts of its _unpack calls, [] for a direct convolution, [n*D] for
    one-point and [ceil(n/2), floor(n/2)] for two-point KS."""
    calls = []
    unpack = exactnum._unpack
    exactnum._unpack = lambda x, k, w: calls.append(k) or unpack(x, k, w)
    try:
        return calls, kron_mul(*args)
    finally:
        exactnum._unpack = unpack


# 2^300 in an operand makes a slot of 608 bits, so 14 or more coefficients
# on each side pack past the two-point crossover, and 13 stay below it
BIG = 2 ** 300
ENTRIES = st.one_of(st.integers(-9, 9), st.just(0),
                    st.integers(-BIG, BIG), st.sampled_from([BIG, -BIG]))
TOPS = st.sampled_from([9, 2 ** 40, BIG])  # entries in [-top, top]


def _signed(m, d, top=9, support=None):
    """A fixed operand of m coefficients of d coordinates, nonzero on the
    coefficients in support (all by default), with signs alternating."""
    v = [0] * (m * d)
    for k in range(m) if support is None else _support(support, m):
        v[k * d:(k + 1) * d] = [(-1) ** (k + i) * (top - (k + i) % 5)
                                for i in range(d)]
    return v


@st.composite
def kron_args(draw):
    d, top = draw(st.integers(1, 4)), draw(TOPS)
    a, b = (draw(st.lists(st.integers(-top, top), min_size=m * d,
                          max_size=m * d))
            for m in (draw(st.integers(0, 30)), draw(st.integers(0, 30))))
    return a, b, draw(st.integers(0, (len(a) + len(b)) // d + 2)), d


# dense L x L operands with L on each side of the direct crossover (12, 7, 4
# and 3 coefficients at d = 1..4), and of the two-point one at d = 1
@SETTINGS
@given(kron_args())
@example((_signed(12, 1), _signed(12, 1), 23, 1))    # direct
@example((_signed(13, 1), _signed(13, 1), 20, 1))    # one point
@example((_signed(13, 1, BIG), _signed(14, 1, BIG), 27, 1))  # still one
@example((_signed(14, 1, BIG), _signed(14, 1, BIG), 22, 1))  # two points
@example((_signed(7, 2), _signed(7, 2), 13, 2))
@example((_signed(8, 2), _signed(8, 2), 15, 2))
@example((_signed(4, 3), _signed(4, 3), 7, 3))
@example((_signed(5, 3), _signed(5, 3), 9, 3))
@example((_signed(3, 4), _signed(3, 4), 5, 4))
@example((_signed(4, 4, BIG), _signed(4, 4, BIG), 8, 4))
def test_kron_mul_matches_the_convolution(args):
    """d = 1..4 and up to 30 coefficients a side, so dense operands fall on
    both sides of DIRECT_RATIO (and of KS2_BITS at d = 1 with 300-bit
    entries); signed, zero and 300-bit entries; n below and above
    la + lb - 1; each operand also squared as a is b."""
    a, b, n, d = args
    assert kron_mul(a, b, n, d) == _reference_kron(a, b, n, d, d)
    assert kron_mul(a, a, n, d) == _reference_kron(a, a, n, d, d)
    assert kron_mul(b, b, n, d) == _reference_kron(b, b, n, d, d)


def _support(kind, m):
    """Coefficient indices below m: the generalized pentagonal numbers
    k(3k -+ 1)/2, the triangular numbers k(k + 1)/2, or all of them."""
    if kind == "dense":
        return range(m)
    k, out = 0, set()
    while k * (k - 1) // 2 < m:
        out |= ({k * (3 * k - 1) // 2, k * (3 * k + 1) // 2}
                if kind == "pentagonal" else {k * (k + 1) // 2})
        k += 1
    return sorted(i for i in out if i < m)


@st.composite
def sparse_args(draw):
    d, top = draw(st.integers(1, 4)), draw(TOPS)
    kinds = st.sampled_from(["pentagonal", "triangular", "dense"])
    ops = []
    for kind in (draw(kinds), draw(kinds)):
        m = draw(st.integers(1, 240 // d))
        v = [0] * (m * d)
        for k in _support(kind, m):
            v[k * d:(k + 1) * d] = draw(st.lists(
                st.integers(-top, top), min_size=d, max_size=d))
        ops.append(v)
    return (*ops, draw(st.integers(0, (len(ops[0]) + len(ops[1])) // d + 1)),
            d)


PENT, TRI = "pentagonal", "triangular"


@SETTINGS
@given(sparse_args())
@example((_signed(400, 1, 9, PENT), _signed(400, 1, 9, TRI), 400, 1))
@example((_signed(300, 1, 9, TRI), _signed(300, 1, 9), 599, 1))
@example((_signed(400, 1, BIG, PENT), _signed(400, 1, 9), 799, 1))
@example((_signed(100, 4, 9, PENT), _signed(100, 4, 9, TRI), 150, 4))
@example((_signed(100, 4, 9, TRI), _signed(100, 4), 100, 4))
def test_sparse_kron_mul_matches_the_convolution(args):
    """Operands on the supports of the pentagonal series P and of Jacobi's
    J = P^3, against each other (direct) and against dense ones (KS);
    d = 1..4, squares as a is b, n below and above la + lb - 1."""
    a, b, n, d = args
    assert kron_mul(a, b, n, d) == _reference_kron(a, b, n, d, d)
    assert kron_mul(a, a, n, d) == _reference_kron(a, a, n, d, d)


@SETTINGS
@given(st.data())
def test_two_point_kron_mul_matches_the_convolution(data):
    """Dense one-coordinate operands past KS2_BITS, multiplied and squared
    at +-2^h: odd and even n, n below and above la + lb - 1, signed and
    zero entries and unequal lengths.  The path taken is checked too."""
    la, lb = data.draw(st.integers(24, 48)), data.draw(st.integers(24, 48))
    nonzero = st.one_of(st.integers(-9, 9),
                        st.integers(-BIG, BIG)).filter(bool)
    a, b = (data.draw(st.lists(nonzero, min_size=m, max_size=m))
            for m in (la, lb))
    for v in (a, b):  # a quarter of zeros at most, and one 300-bit entry
        for i in data.draw(st.lists(st.integers(0, len(v) - 1),
                                    max_size=len(v) // 4)):
            v[i] = 0
        v[data.draw(st.integers(0, len(v) - 1))] = BIG
    # n cuts neither operand: a cut one may fall below a crossover
    n = data.draw(st.integers(max(la, lb), la + lb + 1))
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        calls, out = _path(x, y, n)
        assert out == _reference_kron(x, y, n, 1, 1)
        assert calls == [(n + 1) // 2, n // 2]
    assert kron_mul(a, [0] * lb, n) == [0] * n


def test_kron_mul_picks_its_path_by_operand_shape():
    """One case on each side of each constant: a direct convolution while
    nnz(a)*nnz(b) <= DIRECT_RATIO*(D*(la + lb) + KS_FIXED_SLOTS), then
    one-point KS, then two-point KS past KS2_BITS, squares included; several
    coordinates per coefficient never take two points."""
    # dense L x L at d = 1..4: (d*L)^2 products against 3*(D*2L + 24)
    assert (DIRECT_RATIO, KS_FIXED_SLOTS) == (3, 24)
    for d, L in ((1, 12), (2, 7), (3, 4), (4, 3)):
        D = 2 * d - 1
        for m, path in ((L, []), (L + 1, [(2 * L + 1) * D])):
            a, b = [3] * (m * d), [-5] * (m * d)
            assert _path(a, b, 2 * m - 1, d)[0] == path
            assert _path(a, a, 2 * m - 1, d)[0] == path
    # 25 or 26 nonzeros in 100 coefficients on each side: 625 or 676
    # products against 3*(200 + 24) = 672
    for nnz, path in ((25, []), (26, [199])):
        a = [7] * nnz + [0] * (100 - nnz)
        assert _path(a, a[::-1], 199)[0] == path
    # 608-bit slots: 13 coefficients pack into 7904 bits, 14 into 8512
    assert 13 * 608 <= KS2_BITS < 14 * 608
    a, b = [BIG] * 13, [-BIG] * 13
    assert _path(a, b, 25)[0] == [25]
    assert _path(a, a, 25)[0] == [25]
    a, b = [BIG] * 14, [-BIG] * 14
    assert _path(a, b, 27)[0] == [14, 13]     # even, odd
    assert _path(a, a, 27)[0] == [14, 13]     # a square
    assert _path(a, b[:13], 26)[0] == [26]    # the shorter one is below
    assert _path([3] * 400, [-5] * 400, 799)[0] == [799]  # 16-bit slots
    # several coordinates per coefficient stay on one-point KS
    assert _path(a * 2, b * 2, 14, 2)[0] == [42]
    assert _path(a * 2, a * 2, 14, 2)[0] == [42]


def test_kron_mul_drops_negative_high_slots():
    # the kept slots are nonnegative and every dropped one is negative
    assert kron_mul([1, 0, -5], [1, 0, 7], 2) == [1, 0]
    assert kron_mul([2, 1, 0, 0, -9, -9], [3, 1, 0, 0, 9, 9], 2, 2) == [
        6, 5, 1, 0, 0, 0]
    assert kron_mul([-1, -1], [1, 1], 3) == [-1, -2, -1]


@SETTINGS
@given(st.data(), field_names, field_names)
def test_series_product_matches_reference(data, name_f, name_g):
    """Over Q, the quartic, the cubic and mixed Q x K, with zero series,
    unequal leads and precisions and negative coefficients."""
    kf, kg = FIELDS[name_f], FIELDS[name_g]
    if kf is not None and kg is not None and kf != kg:
        kg = kf  # two different number fields do not multiply
    f, g = data.draw(series(kf)), data.draw(series(kg))
    assert series_key(f * g) == series_key(_reference_mul(f, g))
    assert series_key(g * f) == series_key(_reference_mul(g, f))


@SETTINGS
@given(st.data(), field_names)
def test_newton_invert_matches_reference(data, name):
    f = data.draw(unit_series(FIELDS[name]))
    assert series_key(f.invert()) == series_key(_reference_invert(f))


def test_dp_mul_matches_reference_with_mixed_entries():
    t = QUARTIC.gen()
    a = [t, Fraction(-3, 2), QUARTIC.zero(), t * t - 7]
    b = [Fraction(5), t / 3]
    expected = [QUARTIC.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            expected[i + j] = expected[i + j] + x * y
    assert dp_mul(a, b) == expected
    assert dp_mul([Fraction(1, 2), 1], [Fraction(-1, 2), 1]) == [
        Fraction(-1, 4), 0, 1]


def test_integer_xy_solve_matches_the_fraction_reference():
    # 10 is the least T expand-xy takes; 11 and 12 put a multiple of 11, the
    # first term of E_4(w^11) and E_2(w^11), at the end of the arrays
    for T in (10, 11, 12, 50, 310, 600):
        xs, ys, _ = _compute_xy(T)
        assert all(type(c) is int for c in xs + ys)
        ref = _reference_compute_xy(T)
        assert (xs, ys) == ref[:2]
        assert KAPPA == ref[2]


def test_weight4_identity_is_rederived_from_the_reference_x():
    """x*S^2 lies in M_4(Gamma_0(11)), of dimension 4 and Sturm bound 4:
    its coefficients at w^0..w^3 fix its coordinates on E_4(w), E_4(w^11),
    S^2 and S*E_2', and those must be the solve's constants over 14640; the
    coefficients at w^4 (the Sturm bound) and beyond must then agree too.
    x comes from the order-by-order reference, S from point counts."""
    T = 60
    xs = _reference_compute_xy(T)[0]  # x_-2 .. x_(T-2)
    S = _point_count_newform(T + 2)
    S2 = _imul_trunc(S, S, T + 1)
    xs2 = [sum(xs[j] * S2[i - j + 2] for j in range(i + 1))
           for i in range(T - 1)]  # (x*S^2)_i, i <= T - 2
    e4 = [1] + [240 * _divisor_sum(i, 3) for i in range(1, T)]
    e2 = [1] + [-24 * _divisor_sum(i, 1) for i in range(1, T)]
    e2_prime = [11 * (e2[i // 11] if i % 11 == 0 else 0) - e2[i]
                for i in range(T)]
    basis = [e4, [e4[i // 11] if i % 11 == 0 else 0 for i in range(T)],
             S2, _imul_trunc(S, e2_prime, T)]
    c = _solve([[b[i] for b in basis] for i in range(4)], xs2[:4])
    den, *coeffs = XS2_IDENTITY
    assert c == [Fraction(k, den) for k in coeffs]
    assert all(sum(ck * b[i] for ck, b in zip(c, basis)) == xs2[i]
               for i in range(4, T - 1))


def test_point_count_newform_is_the_eta_product_S():
    a = _point_count_newform(2000)
    assert a[:12] == [0, 1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1]
    s = eta_quotient_expand(S_QUOTIENT, 11, 2001)
    assert [s.coefficient(e) for e in range(2001)] == a
    assert _compute_xy(300)[2] == a[:302]


@pytest.mark.parametrize("which", range(len(XS2_IDENTITY)))
@pytest.mark.parametrize("delta", [-1, 1])
def test_a_wrong_identity_constant_stops_the_solve(monkeypatch, tmp_path,
                                                    which, delta):
    from ubd import cli, x011

    wrong = list(XS2_IDENTITY)
    wrong[which] += delta
    monkeypatch.setattr(x011, "XS2_IDENTITY", tuple(wrong))
    with pytest.raises(RuntimeError):
        x011.expand_xy(20)
    assert cli.main(["--cache-dir", str(tmp_path), "expand-xy",
                     "--terms", "20"]) == 4


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 50, 1200])
def test_jacobi_coeffs_are_the_cube_of_the_pentagonal_ones(m):
    p = _pentagonal_coeffs(m)
    assert _jacobi_coeffs(m) == _imul_trunc(_imul_trunc(p, p, m), p, m)


@pytest.mark.parametrize("step", [1, 11])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 12, 13, 14])
def test_eta_powers_match_the_reference_in_every_class_mod_3(step, r):
    # |r| = 3q + t with t = 0, 1, 2: J^q * P^t, inverted once for r < 0
    for e in (r, -r):
        eq = EtaQuotient([(step, e)])
        _, unit = _eta_product_ints(eq, 1, 150)
        assert unit == _reference_eta_unit(eq, 1, 150)


def test_eta_products_match_reference_at_500_terms():
    for terms, width in (([(Fraction(1, 11), 12), (1, -12)], 11),
                         ([(1, 2), (13, -2)], 1),
                         ([(1, 2), (Fraction(1, 11), 2)], 11)):
        eq = EtaQuotient(terms)
        _, unit = _eta_product_ints(eq, width, 500)
        assert unit == _reference_eta_unit(eq, width, 500)


@st.composite
def eta_quotients(draw):
    """Terms eta(a/b * z)^r with r in [-6, 6] (0 included), a width that
    every b divides, and T small enough that T + 1 < N*delta happens."""
    terms = draw(st.lists(st.tuples(st.integers(1, 13), st.integers(1, 6),
                                    st.integers(-6, 6)),
                          min_size=1, max_size=4))
    lcm_b = math.lcm(*[b for _, b, _ in terms])
    width = lcm_b * draw(st.integers(1, 3))
    eq = EtaQuotient([(Fraction(a, b), r) for a, b, r in terms])
    return eq, width, draw(st.integers(0, 80))


@SETTINGS
@given(eta_quotients())
@example((EtaQuotient([(1, 0), (1, 24)]), 1, 4))  # a zero exponent is skipped
def test_eta_product_ints_matches_reference(args):
    eq, width, T = args
    _, unit = _eta_product_ints(eq, width, T)
    assert unit == _reference_eta_unit(eq, width, T)



def _reference_partitions(m):
    """p(0..m-1) as the product of the geometric series 1/(1 - x^k)."""
    p = [1] + [0] * (m - 1)
    for k in range(1, m):
        for i in range(k, m):
            p[i] += p[i - k]
    return p


def test_partition_numbers_are_the_product_of_geometric_series():
    ref = _reference_partitions(201)
    for m in range(1, 202):
        assert _pentagonal_power(m, -1) == partition_numbers(m) == ref[:m]
    assert ref[100] == 190569292 and ref[200] == 3972999029388


@SETTINGS
@given(st.integers(1, 400), st.integers(-60, -1))
@example(400, -60)
@example(1, -1)
def test_pentagonal_power_matches_the_partition_powers(m, r):
    assert _pentagonal_power(m, r) == pentagonal_power_by_partitions(m, r)


def test_eta_at_the_exponent_ceiling_matches_the_partition_powers(capsys):
    from ubd import cli

    assert cli.main(["eta", "1:-240", "--width", "1", "--terms", "600"]) == 0
    f = deserialize_series(capsys.readouterr().out)
    assert (f.lead, f.prec) == (-10, 591)
    assert list(f.coeffs) == pentagonal_power_by_partitions(601, -240)


@SETTINGS
@given(eta_quotients())
@example((EtaQuotient([(1, -24)]), 1, 80))
def test_negative_eta_powers_are_the_newton_inverse_of_positive_ones(args):
    """A negative exponent is read by Miller's recurrence on the pentagonal
    series; negating every exponent must give the Newton inverse of the
    product part."""
    eq, width, T = args
    _, unit = _eta_product_ints(eq, width, T)
    inverse = EtaQuotient([(d, -r) for d, r in eq.terms])
    _, inv = _eta_product_ints(inverse, width, T)
    assert inv == newton_inverse(unit, T + 1, 1, kron_mul)


def test_xy_solve_reads_w_over_s_as_the_inverse_of_s():
    S = _compute_xy(600)[2]
    lead, inv = _eta_product_ints(V_INV_QUOTIENT, 11, 600)
    assert lead == -1
    assert inv == newton_inverse(S[1:], 601, 1, kron_mul)
