"""The online root and detector against the slow references they replaced.

_reference_root is the two-sum recursion n*f*Dg = g*Df that built the whole
root before the scan; _reference_detect scans every coefficient of it.  The
fast path (Miller's one-sum recurrence, consumed until the first witness)
must agree with both.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ubd import exactnum, ubdetect
from ubd.exactnum import INFINITY, AlgebraicNumber, NumberField
from ubd.qseries import (
    LaurentSeries,
    nth_root_normalized,
    root_coefficients,
)
from ubd.ubdetect import (
    CONJUGATE,
    _ord_values,
    _threshold,
    choose_mode,
    detect,
    growth_profile,
)
from ubd.x011 import build_catalog

from helpers import series_pow

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


def _reference_detect(f, n, p, T):
    """(status, witness index, witness -ord, tau, M) from a full scan of the
    reference root, with no early exit."""
    mode = choose_mode(f.field, p)
    unit, _, _ = f.unit_normalized()
    M = min(T, unit.prec - 1)
    unit = unit.truncate(M + 1)
    tau = _threshold(unit, n, p, mode, M)
    root = _reference_root(unit, n)
    witness = partial = None
    for m in range(1, M + 1):
        vals = _ord_values(root.coefficient(m), p, mode)
        if vals == [INFINITY]:
            continue
        neg = [-v for v in vals]
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
def test_root_coefficients_match_reference_over_catalog_fields(f, n):
    assert nth_root_normalized(f, n) == _reference_root(f, n)


@pytest.fixture(scope="module")
def index5():
    return {e.label: e for e in build_catalog(5)}


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
    root = list(root_coefficients(unit, e.root_degree))
    assert len(root) == 300 and not calls


def test_detect_takes_no_resultant(index5, monkeypatch):
    e = index5["fQ+1P"]
    f = e.expansion(302)
    calls = _count_calls(monkeypatch, exactnum, "dp_resultant")
    v = detect(f, e.root_degree, e.root_degree, 300)
    assert v.certified() and v.valuation_mode == ubdetect.UNIQUE_PRIME
    assert not calls


@SETTINGS
@given(unit_series(rationals()), st.integers(1, 6))
def test_root_to_the_nth_power_is_f(f, n):
    assert series_pow(nth_root_normalized(f, n), n).agrees_with(f)


@SETTINGS
@given(unit_series(elements(QUARTIC), QUARTIC, max_len=4), st.integers(2, 5))
def test_root_to_the_nth_power_is_f_over_a_number_field(f, n):
    root = nth_root_normalized(f, n)
    assert root.field == QUARTIC
    assert series_pow(root, n).agrees_with(f)


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


def _verdict(v):
    return (v.status, v.witness_index, v.witness_valuation, v.threshold,
            v.truncation_used)


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


@SETTINGS
@given(series(rationals()), st.integers(2, 5), st.sampled_from([2, 3, 5]),
       st.integers(1, 12))
def test_growth_profile_is_the_running_max_of_the_reference(f, n, p, T):
    unit, _, _ = f.unit_normalized()
    M = min(T, unit.prec - 1)
    root = _reference_root(unit.truncate(M + 1), n)
    best, want = Fraction(0), []
    for m in range(1, M + 1):
        b = root.coefficient(m)
        if b:
            best = max(best, -max(_ord_values(b, p, choose_mode(None, p))))
        want.append((m, best))
    assert growth_profile(f, n, p, T).entries == tuple(want)
