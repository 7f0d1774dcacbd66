"""The online root and detector against the slow references they replaced.

_reference_root is the two-sum recursion n*f*Dg = g*Df that built the whole
root before the scan; _unpacked_root is Miller's recurrence on unpacked
integer coordinates, d^2 dot products per step; _reference_detect scans every
coefficient of the reference root.  _unscreened_threshold and
_unscreened_detect take the exact valuation of every coefficient, where
ubdetect first asks whether the content bound already decides it.  All of
them value a coefficient by _reference_ord_values, the three rules that
ubdetect's one polygon rule replaced.  The fast paths (the packed
recurrence, consumed until the first witness, the screened valuations and
the one rule) must agree with all of them.
"""

from fractions import Fraction
import math
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from ubd import exactnum, qseries, ubdetect
from ubd.exactnum import (
    AlgebraicNumber,
    NumberField,
    _operand,
    field_has_unique_prime_above,
    lower_hull_slopes,
    newton_polygon_valuations,
    ord_at_unique_prime,
    val_p,
)
from ubd.qseries import (
    LaurentSeries,
    nth_root_normalized,
    root_coefficients,
)
from ubd.ubdetect import (
    CONJUGATE,
    UNIQUE_PRIME,
    _content_bound,
    _ord_values,
    _span_floor,
    analyze_catalog,
    choose_mode,
    detect,
)
from ubd.x011 import build_catalog

from helpers import (agrees, min_poly, newton_polygon_points, series_key,
                     series_pow)

QUARTIC = NumberField([869405, 19255, 1360, 20, 1], 's')  # index-5 catalog
CUBIC = NumberField([-158, -40, -2, 1], 'u')              # index-2 catalog
GAUSS = NumberField([1, 0, 1])                            # 5 splits: conjugate mode

SETTINGS = settings(max_examples=40, deadline=None)


def _reference_root(f, n):
    """Formal n-th root of f = 1 + O(w) by the two-sum recursion
    n*k*b_k = sum_{j=1..k} j*c_j*b_(k-j) - n*sum_{j=1..k-1} j*b_j*c_(k-j)."""
    field = f.field
    T = f.prec
    c = f.coefficients(0, T)
    zero = Fraction(0) if field is None else field.zero()
    b = [zero] * T
    b[0] = Fraction(1) if field is None else field.one()
    for k in range(1, T):
        acc = zero
        for j in range(1, k + 1):
            if c[j] and b[k - j]:
                acc = acc + (j * c[j]) * b[k - j]
        for j in range(1, k):
            if b[j] and c[k - j]:
                acc = acc - (n * j) * (b[j] * c[k - j])
        b[k] = acc / (n * k) if field is None else acc / field.from_rational(n * k)
    return LaurentSeries(f.width, 0, b, field, T)


def _unpacked_root(f, n):
    """b_1, b_2, ... of the n-th root of f = 1 + O(w) by Miller's recurrence
    with each coordinate of each b_m an int of its own: d^2 dot products of
    length k per step, one per pair of coordinates."""
    a, field = f.coeffs, f.field
    den_a, d, flat = _operand(a, field)
    A = [flat[i::d] for i in range(d)]
    support = [j for j in range(1, len(a)) if a[j]]
    B = [[1]] + [[0] for _ in range(d - 1)]  # B[i][m]: coordinate i of E[m]*b_m
    E = [1]
    out = []
    for k in range(1, f.prec):
        m = min(k, len(a) - 1)
        L = math.lcm(*[E[k - j] for j in support if j <= k])
        w = [((n + 1) * j - n * k) * (L // E[k - j]) for j in range(1, m + 1)]
        conv = [0] * (2 * d - 1)
        for i2, Bi2 in enumerate(B):
            wb = list(map(mul, w, Bi2[k - 1::-1]))
            for i, Ai in enumerate(A):
                conv[i + i2] += sum(map(mul, Ai[1:m + 1], wb))
        den = den_a * L * n * k
        bk = (Fraction(conv[0], den) if field is None
              else AlgebraicNumber(field, field._reduce(conv), den))
        den, _, coords = _operand([bk], field)
        for Bi, x in zip(B, coords):
            Bi.append(x)
        E.append(den)
        out.append(bk)
    return out


def _reference_ord_values(c, p, mode):
    """The valuations of a nonzero c at the primes above p by the rule for
    the mode: val_p on Q and on rational field elements, the norm at a
    certified unique prime, else the Newton polygon of the minimal
    polynomial."""
    if not isinstance(c, AlgebraicNumber):
        return [Fraction(val_p(c, p))]
    if c.is_rational():
        return [Fraction(val_p(c.as_fraction(), p))]
    if mode == UNIQUE_PRIME:
        return [ord_at_unique_prime(c, p)]
    return [-s for s, _ in lower_hull_slopes(
        newton_polygon_points(min_poly(c), p))]


def _unscreened_threshold(unit, n, p, mode, T, vmin=0):
    """tau = -v_min/n from the exact valuations of every nonzero a_m."""
    vmin = Fraction(vmin)
    for m in range(1, T + 1):
        c = unit.coefficient(m)
        if c:
            vmin = min(vmin, *_reference_ord_values(c, p, mode))
    return -vmin / n


def _scan_part(f, p, T):
    mode = choose_mode(f.field, p)
    unit, _, _ = f.unit_normalized()
    M = min(T, unit.prec - 1)
    return mode, unit.truncate(M + 1), M


def _reference_detect(f, n, p, T):
    """(status, witness index, witness -ord, tau, M) from a full scan of the
    reference root, with no early exit."""
    mode, unit, M = _scan_part(f, p, T)
    tau = _unscreened_threshold(unit, n, p, mode, M)
    root = _reference_root(unit, n)
    witness = partial = None
    for m in range(1, M + 1):
        b = root.coefficient(m)
        if not b:
            continue
        neg = [-v for v in _reference_ord_values(b, p, mode)]
        if witness is None and min(neg) > tau:
            witness = (m, min(neg))
        if witness is None and partial is None and mode == CONJUGATE \
                and max(neg) > tau:
            partial = m
    if witness is not None:
        return ('UnboundedCertified', witness[0], witness[1], tau, M)
    if partial is not None:
        return ('Inconclusive', partial, None, tau, M)
    return ('BoundedSoFar', None, None, tau, M)


def _unscreened_detect(f, n, p, T, vmin=0):
    """detect's verdict tuple, with the exact valuations of every a_m and of
    every b_m up to the first witness."""
    mode, unit, M = _scan_part(f, p, T)
    tau = _unscreened_threshold(unit, n, p, mode, M, vmin)
    partial = None
    for m, b in enumerate(root_coefficients(unit, n), 1):
        if not b:
            continue
        neg = [-v for v in _reference_ord_values(b, p, mode)]
        if min(neg) > tau:
            return ('UnboundedCertified', m, min(neg), tau, M)
        if mode == CONJUGATE and max(neg) > tau and partial is None:
            partial = m
    if partial is not None:
        return ('Inconclusive', partial, None, tau, M)
    return ('BoundedSoFar', None, None, tau, M)


def _verdict(v):
    return (v.status, v.witness_index, v.witness_valuation, v.threshold,
            v.truncation_used)


def rationals(dens=(1, 2, 3, 4, 5, 9, 25)):
    return st.builds(Fraction, st.integers(-12, 12), st.sampled_from(dens))


# non-integral coefficients with large, unequal denominators
wide_rationals = st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80),
                           st.integers(1, 2 ** 64))


def elements(field, dens=(1, 2, 3, 5), coords=None):
    if coords is None:
        coords = rationals(dens)
    return st.lists(coords, min_size=field.degree,
                    max_size=field.degree).map(field.from_coords)


def unit_series(coeff, field=None, max_len=14):
    one = Fraction(1) if field is None else field.one()
    return st.lists(coeff, max_size=max_len).map(
        lambda cs: LaurentSeries(1, 0, [one] + cs, field))


def series(coeff, field=None, max_len=14):
    """A series with a nonzero lead at an exponent in -2..2."""
    return st.tuples(coeff.filter(bool), st.lists(coeff, max_size=max_len),
                     st.integers(-2, 2)).map(
        lambda t: LaurentSeries(1, t[2], [t[0]] + t[1], field))


@st.composite
def units_integral_above_p(draw):
    """(f, n, p): a unit series over Q, the index-5 quartic field or the
    index-2 cubic field whose coordinates have denominators prime to p, so
    that every coefficient is integral at every prime above p (the field
    generators are integral), and a root degree n that p does not divide."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.integers(2, 7).filter(lambda n: n % p))
    field = draw(st.sampled_from([None, QUARTIC, CUBIC]))
    coords = rationals(tuple(d for d in (1, 2, 3, 5, 7, 9, 25) if d % p))
    if field is None:
        return draw(unit_series(coords, max_len=12)), n, p
    return draw(unit_series(elements(field, coords=coords), field,
                            max_len=5)), n, p


@settings(max_examples=100, deadline=None)
@given(units_integral_above_p())
def test_a_root_of_degree_prime_to_p_is_integral_above_p(case):
    # binom(1/n, k) lies in Z_p when p does not divide n (Koblitz, p-adic
    # Numbers, GTM 58, ch. IV), so (1 + x)^(1/n) is integral above p when x
    # is: no b_m can have -ord > 0 = tau, whatever Miller's division by n*k
    f, n, p = case
    for b in root_coefficients(f, n):
        assert not b or all(v >= 0 for v, _ in newton_polygon_valuations(b, p))


@SETTINGS
@given(unit_series(st.one_of(rationals(), wide_rationals)), st.integers(1, 7))
def test_root_coefficients_match_reference_over_q(f, n):
    assert list(root_coefficients(f, n)) == \
        _reference_root(f, n).coefficients(1, f.prec)


@SETTINGS
@given(st.sampled_from([QUARTIC, CUBIC]).flatmap(
           lambda k: unit_series(
               elements(k, coords=st.one_of(rationals(), wide_rationals)),
               k, max_len=6)),
       st.integers(2, 5))
@example(LaurentSeries(1, 0, [QUARTIC.one(), 0], QUARTIC), 5)
@example(LaurentSeries(1, 0, [CUBIC.one(), 0], CUBIC), 2)
def test_root_coefficients_match_reference_over_catalog_fields(f, n):
    # the examples are the one-term unit 1 + O(w^2), where no a_j enters
    # the sum and the slot width is a maximum over an empty sequence
    assert series_key(nth_root_normalized(f, n)) == \
        series_key(_reference_root(f, n))


negative_coords = st.builds(Fraction, st.integers(-2 ** 40, -1),
                            st.sampled_from([1, 2, 3, 5, 7]))


@SETTINGS
@given(st.sampled_from([QUARTIC, CUBIC]).flatmap(
           lambda k: st.lists(elements(k, coords=negative_coords),
                              min_size=1, max_size=5).map(
               lambda cs: LaurentSeries(1, 0, [k.one()] + cs, k))),
       st.integers(2, 5))
def test_packed_root_with_negative_coordinates_in_every_slot(f, n):
    root = list(root_coefficients(f, n))
    assert all(x < 0 for x in root[0].num)  # b_1 = a_1/n
    assert root == _reference_root(f, n).coefficients(1, f.prec)


def _unit(f, T):
    unit, _, _ = f.unit_normalized()
    return unit.truncate(T + 1)


# primes of 60 to 300 bits, 2^b - c with c the least that gives a prime
BIG_PRIMES = [2 ** 60 - 93, 2 ** 61 - 1, 2 ** 100 - 15, 2 ** 127 - 1,
              2 ** 150 - 3, 2 ** 200 - 75, 2 ** 250 - 207, 2 ** 300 - 153]

# a coordinate x/q with a large prime q: the lcm M of the root's
# denominators grows by hundreds of bits in the step that first meets it;
# a wide integer makes an earlier M*b_m, scaled by that growth, the largest
# stored coordinate
big_denominators = st.one_of(
    rationals(),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from(BIG_PRIMES)),
    st.integers(-2 ** 300, 2 ** 300))


def big_denominator_series(field):
    coeff = big_denominators if field is None else elements(
        field, coords=big_denominators)
    one = Fraction(1) if field is None else field.one()
    return st.tuples(st.lists(coeff, min_size=1, max_size=5),
                     st.integers(0, 8)).map(
        lambda t: LaurentSeries(1, 0, [one] + t[0], field,
                                len(t[0]) + 1 + t[1]))


@SETTINGS
@given(st.sampled_from([None, QUARTIC, CUBIC]).flatmap(big_denominator_series),
       st.integers(1, 7))
def test_packed_root_holds_its_slots_when_the_denominator_jumps(f, n):
    # the slots widen in the steps where M grows by hundreds of bits, and
    # every stored M*b_m is then read back from its own slots in Q
    assert list(root_coefficients(f, n)) == _unpacked_root(f, n)


@pytest.fixture(scope="module")
def index5():
    return {e.label: e for e in build_catalog(5)}


@pytest.fixture(scope="module")
def catalog_series():
    return {index: [(e, e.expansion(302)) for e in build_catalog(index)]
            for index in (2, 5)}


def test_packed_root_matches_the_unpacked_recurrence_on_the_catalogs(
        catalog_series):
    # fP and fP1 go the full 300 terms: the running lcm M of the
    # denominators grows at every step of fP and at every other step of fP1,
    # so the stored M*b_m are rescaled again and again
    grows = {"fP": 300, "fP1": 150}
    for e, f in catalog_series[2] + catalog_series[5]:
        unit = _unit(f, 300 if e.label in grows else 150)
        gen = root_coefficients(unit, e.index)
        root, lcms = [], [1]
        for b in gen:
            root.append(b)
            lcms.append(gen.gi_frame.f_locals["M"])
        assert root == _unpacked_root(unit, e.index), e.label
        if e.label in grows:
            assert sum(map(int.__ne__, lcms, lcms[1:])) == grows[e.label]


def test_packed_slots_widen_on_fq_plus_1p(index5):
    # the running lcm M grows to about 190 bits by m = 60, so the slot
    # width chosen at m = 1 does not last and the M*b_m are repacked wider
    unit = _unit(index5["fQ+1P"].expansion(62), 60)
    gen = root_coefficients(unit, 5)
    steps = [(b, gen.gi_frame.f_locals["W"]) for b in gen]
    assert [b for b, _ in steps] == _reference_root(unit, 5).coefficients(1, 61)
    assert steps[-1][1] > steps[0][1]


# a_1 .. a_4 of a quartic series whose 11th root fills its slots at step 2
# to within 6 bits of the slot width: a_1 and a_2 came from a seeded search
# over short quartic series with coordinates near a power of 2
SLOT_FILLING = [[62, -62, 61, -61], [-63, 0, 63, -126], [1, 2, 3, 4],
                [-5, 0, 7, 1]]


def test_packed_root_agrees_where_its_slots_are_nearly_full(monkeypatch):
    # a byte less of slot width would overflow the fullest slot of step 2
    f = LaurentSeries(1, 0, [QUARTIC.one()] + [
        QUARTIC.from_coords(cs) for cs in SLOT_FILLING], QUARTIC)
    slack, unpack = [], qseries._unpack

    def measured(x, k, w):
        out = unpack(x, k, w)
        if k == 2 * QUARTIC.degree - 1:  # a step's decode, not a repack
            slack.append(8 * w - max(abs(v).bit_length() for v in out))
        return out

    monkeypatch.setattr(qseries, "_unpack", measured)
    assert list(root_coefficients(f, 11)) == _unpacked_root(f, 11)
    assert slack[1] <= 8  # the decode of step 2


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_full_root_of_fq_makes_no_field_products(index5, monkeypatch):
    # the BoundedSoFar scan of fQ takes all 300 root coefficients; they come
    # from integer coordinates, not from AlgebraicNumber products
    e = index5["fQ"]
    unit, _, _ = e.expansion(302).unit_normalized()
    unit = unit.truncate(301)
    calls = _count_calls(monkeypatch, AlgebraicNumber, "__mul__")
    root = list(root_coefficients(unit, e.index))
    assert len(root) == 300 and not calls


def test_detect_takes_no_resultant(index5, monkeypatch):
    e = index5["fQ+1P"]
    f = e.expansion(302)
    calls = _count_calls(monkeypatch, exactnum, "dp_resultant")
    v = detect(f, e.index, e.index, 300)
    assert v.certified() and v.valuation_mode == ubdetect.UNIQUE_PRIME
    assert not calls


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QUARTIC, CUBIC, GAUSS]),
       st.sampled_from([2, 3, 5, 7, 11, 13]), st.data())
def test_content_bound_is_below_every_valuation(field, p, data):
    e = data.draw(st.integers(0, 3))  # p^e divides every numerator
    coords = st.builds(lambda x, den: Fraction(x * p ** e, den),
                       st.integers(-p ** 4, p ** 4),
                       st.sampled_from([1, p, p ** 2, p ** 3, 7 * p, 6]))
    c = data.draw(elements(field, coords=coords).filter(bool))
    bound = _content_bound(c, p)
    assert bound <= min(_ord_values(c, p))
    if field_has_unique_prime_above(field, p):
        assert bound <= min(_reference_ord_values(c, p, UNIQUE_PRIME))


def _scanned_range_series(field):
    dens = (1, 2, 3, 4, 5, 7, 9, 11, 25, 49, 121)
    coeff = rationals(dens) if field is None else elements(field, dens)
    return unit_series(coeff, field, max_len=8 if field is None else 4)


@SETTINGS
@given(st.sampled_from([None, GAUSS, CUBIC, QUARTIC]).flatmap(
           _scanned_range_series),
       st.integers(2, 5), st.sampled_from([2, 3, 5, 7, 11]))
def test_floor_of_the_scanned_range_is_the_unscreened_threshold(f, n, p):
    # a series file has no span: its a_1..a_M, with lead a_0 = 1, are one
    mode, unit, M = _scan_part(f, p, 300)
    floor = _span_floor(unit.coefficients(1, M + 1), 1, p)
    assert -floor / n == _unscreened_threshold(unit, n, p, mode, M)
    assert detect(f, n, p, 300).threshold == -floor / n


@pytest.mark.parametrize("T", [5, 60, 300])
@pytest.mark.parametrize("index", [2, 5])
def test_screened_scans_equal_the_unscreened_reference(catalog_series, index,
                                                       T):
    for e, f in catalog_series[index]:
        n = p = e.index
        span = e.coefficient_span()
        vmin = _span_floor(span, f.coeffs[0], p)
        assert _verdict(detect(f, n, p, T, span=span)) == \
            _unscreened_detect(f, n, p, T, vmin), e.label
        assert _verdict(detect(f, n, p, T)) == \
            _unscreened_detect(f, n, p, T), e.label


def test_span_floor_is_the_tau_of_a_300_term_scan(catalog_series):
    # the floor holds for every m, and on both catalogs a_1..a_300 already
    # reach it, so it moves no verdict at T = 300
    for e, f in catalog_series[2] + catalog_series[5]:
        n = p = e.index
        mode, unit, M = _scan_part(f, p, 300)
        floor = _span_floor(e.coefficient_span(), f.coeffs[0], p)
        assert -floor / n == _unscreened_threshold(unit, n, p, mode, M), \
            e.label


def test_index5_report_takes_few_norms(catalog_series, monkeypatch):
    # unscreened, the T = 300 report takes 1,804 exact valuations: 1,800 in
    # the thresholds and one per certified witness
    calls = _count_calls(monkeypatch, ubdetect, "newton_polygon_valuations")
    entries = [e for e, _ in catalog_series[5]]
    rep = analyze_catalog(entries, 300)
    assert (rep.certified, rep.bounded) == (5, 1)
    assert 0 < len(calls) < 50


@SETTINGS
@given(unit_series(rationals()), st.integers(1, 6))
def test_root_to_the_nth_power_is_f(f, n):
    assert agrees(series_pow(nth_root_normalized(f, n), n), f)


@SETTINGS
@given(unit_series(elements(QUARTIC), QUARTIC, max_len=4), st.integers(2, 5))
def test_root_to_the_nth_power_is_f_over_a_number_field(f, n):
    root = nth_root_normalized(f, n)
    assert root.field == QUARTIC
    assert agrees(series_pow(root, n), f)


def test_detect_stops_at_the_first_witness(monkeypatch):
    # b_1 = a_1/3 = -2/3 already witnesses (tau = 0 for an integral
    # series), so the scan takes one root coefficient of the 3000 allowed
    taken = []

    def counted(unit, n):
        for b in root_coefficients(unit, n):
            taken.append(b)
            yield b

    monkeypatch.setattr(ubdetect, "root_coefficients", counted)
    f = LaurentSeries(1, 0, [1] + [k % 7 - 3 for k in range(1, 3001)])
    v = detect(f, 3, 3, 3000)
    assert (v.status, v.witness_index, v.threshold) == \
        ('UnboundedCertified', 1, 0)
    assert taken == [Fraction(-2, 3)]


@SETTINGS
@given(series(rationals()), st.integers(2, 5), st.sampled_from([2, 3, 5]),
       st.integers(0, 16))
def test_detect_matches_a_full_scan_over_q(f, n, p, T):
    assert _verdict(detect(f, n, p, T)) == _reference_detect(f, n, p, T)


@SETTINGS
@given(st.sampled_from([(QUARTIC, 5), (CUBIC, 2)]).flatmap(
           lambda kp: st.tuples(series(elements(kp[0]), kp[0], max_len=5),
                                st.just(kp[1]))),
       st.integers(2, 5))
def test_detect_matches_a_full_scan_over_catalog_fields(fp, n):
    f, p = fp
    assert _verdict(detect(f, n, p, 6)) == _reference_detect(f, n, p, 6)


@SETTINGS
@given(series(elements(GAUSS, dens=(1, 5)), GAUSS, max_len=4),
       st.integers(2, 3))
@example(LaurentSeries(1, 0, [GAUSS.one(), (2 - GAUSS.gen()) / 5,
                              GAUSS.zero(), GAUSS.zero()], GAUSS), 2)
def test_detect_matches_a_full_scan_in_conjugate_mode(f, n):
    assert choose_mode(GAUSS, 5) == CONJUGATE
    assert _verdict(detect(f, n, 5, 5)) == _reference_detect(f, n, 5, 5)


def test_conjugate_straddle_is_inconclusive_on_both_paths():
    i = GAUSS.gen()
    f = LaurentSeries(1, 0, [GAUSS.one(), (2 - i) / 5, GAUSS.zero(),
                             GAUSS.zero()], GAUSS)
    fast = _verdict(detect(f, 2, 5, 3))
    assert fast == _reference_detect(f, 2, 5, 3)
    assert fast[:2] == ('Inconclusive', 1)
