import random
from fractions import Fraction

import pytest

from ubd.exactnum import NumberField, val_p
from ubd.qseries import (
    EtaQuotient,
    LaurentSeries,
    eta_quotient_expand,
    nth_root_normalized,
    root_coefficients,
)
from ubd.ubdetect import (
    CONJUGATE,
    RATIONAL,
    UNIQUE_PRIME,
    _ord_values,
    _span_floor,
    analyze_catalog,
    choose_mode,
    detect,
)
from ubd.x011 import build_catalog, expand_on_curve, torsion_point, x11_curve
from ubd.ellcurve import function_with_divisor, torsion_factors

from helpers import (g5_series, series_add, series_pow, series_scale,
                     series_shift)


def zeta13(T=60):
    return eta_quotient_expand(EtaQuotient([(1, 2), (13, -2)]), 1, T)


def fp_series(T=60):
    f = function_with_divisor(5, x11_curve().point(5, 5))
    return expand_on_curve(f, T)


def test_detect_zeta_gamma013():
    v = detect(zeta13(), 3, 3, 50)
    assert v.status == 'UnboundedCertified'
    assert v.witness_index == 1
    assert v.witness_valuation == 1
    assert v.threshold == 0
    assert v.valuation_mode == RATIONAL
    # the witness is the coefficient -2/3 of the formal cube root
    unit, _, _ = zeta13().unit_normalized()
    assert nth_root_normalized(unit, 3).coefficient(1) == Fraction(-2, 3)


def test_detect_fp():
    v = detect(fp_series(), 5, 5, 50)
    assert v.status == 'UnboundedCertified'
    assert v.witness_index == 1


def test_detect_g5_controls():
    g5 = g5_series(200)
    for p in (2, 3, 5, 7, 11, 13):
        v = detect(g5, 12, p, 200)
        assert v.status == 'BoundedSoFar', (p, v)
    v7 = detect(g5, 7, 7, 200)
    assert v7.status == 'UnboundedCertified'
    assert v7.witness_index == 1


def test_detect_scaling_and_shift_invariance():
    f = fp_series(50)
    base = detect(f, 5, 5, 40)
    for g in (series_scale(f, Fraction(-7, 3)), series_shift(f, 4),
              series_shift(series_scale(f, Fraction(125)), -2)):
        v = detect(g, 5, 5, 40)
        assert v.status == base.status
        assert v.witness_index == base.witness_index
        assert v.witness_valuation == base.witness_valuation
        assert v.threshold == base.threshold


def test_detect_algebraic_scalar_invariance():
    # unit normalization divides out the leading coefficient, so the verdict
    # is insensitive even to number-field scalars
    entry = next(e for e in build_catalog(5) if e.label == "fQ+1P")
    f = entry.expansion(30)
    base = detect(f, 5, 5, 25)
    gen = entry.generator_function.curve.field.gen()
    for s in (gen, gen / 5, 3 * gen * gen):
        v = detect(series_scale(f, s), 5, 5, 25)
        assert (v.status, v.witness_index, v.threshold) == \
            (base.status, base.witness_index, base.threshold)


def test_span_floor_is_scale_invariant():
    # scaling u and v by s scales every a_m and a_0 alike, so the floor on
    # v_min = min ord(a_m/a_0), and with it tau = 1/4 for fQ, stays put
    entry = next(e for e in build_catalog(5) if e.label == "fQ")
    f, span = entry.expansion(30), entry.coefficient_span()
    gen = entry.generator_function.curve.field.gen()
    for s in (1, Fraction(5), Fraction(1, 25), gen, gen / 5):
        v = detect(series_scale(f, s), 5, 5, 3,
                   span=[c * s for c in span])
        assert (v.status, v.threshold) == ('BoundedSoFar', Fraction(1, 4)), s


def test_span_floor_takes_the_largest_ord_of_the_lead():
    # 2 + i has ord 1 at one prime above 5 and ord 0 at the other, so a unit
    # a_m gives ord(a_m/a_0) = -1 at the first: the floor reads the largest
    # ord of a_0, not the smallest
    gauss = NumberField([1, 0, 1])
    one, lead = gauss.one(), 2 + gauss.gen()
    assert _span_floor([one], lead, 5) == -1
    assert _span_floor([one, 0, 5 * one], 5 * lead, 5) == -2
    assert _span_floor([5 * one], 1, 5) == 0  # never above 0
    assert _span_floor([one / 25, 5 * one], 1, 5) == -2


def test_detect_root_degree_coprimality():
    f = fp_series(50)
    f2 = f * f
    v1 = detect(f, 5, 5, 40)
    v2 = detect(f2, 5, 5, 40)
    assert v1.status == v2.status == 'UnboundedCertified'


def test_detect_rejects_bad_input():
    with pytest.raises(ValueError):
        detect(zeta13(), 3, 4, 10)  # 4 is not prime
    with pytest.raises(ValueError):
        detect(zeta13(), 1, 3, 10)
    with pytest.raises(ValueError):
        detect(LaurentSeries(1, 0, [], prec=5), 2, 2, 10)


def test_detect_soundness_brute_force_scan():
    # rational-mode certificates come with genuinely growing denominators:
    # the max p-exponent in the exact ratios keeps increasing as T doubles
    for f, n, p in ((zeta13(160), 3, 3), (fp_series(160), 5, 5)):
        unit, _, _ = f.unit_normalized()
        maxes = []
        for T in (40, 80, 160):
            root = nth_root_normalized(unit.truncate(T + 1), n)
            worst = max(-val_p(Fraction(c), p)
                        for c in root.coefficients(1, T + 1) if c != 0)
            maxes.append(worst)
        assert maxes[0] < maxes[1] < maxes[2]


def neg_ords(f, n, p, T):
    """{m: -ord(b_m/b_0)} over the nonzero root coefficients b_1..b_T, each
    the least value over the primes above p."""
    unit, _, _ = f.unit_normalized()
    root = root_coefficients(unit.truncate(T + 1), n)
    return {m: -max(_ord_values(b, p)) for m, b in enumerate(root, 1) if b}


def test_growth_profile_certified_case_grows():
    ords = neg_ords(fp_series(420), 5, 5, 400)
    assert max(v for m, v in ords.items() if m > 200) > \
        max(v for m, v in ords.items() if m <= 200)


def test_growth_profile_bounded_case_zero():
    # G5's 12th root is eta(z/11)/eta(z): integral, with b_1 = -1
    ords = neg_ords(g5_series(150), 12, 11, 150)
    assert max(ords.values()) == 0 == ords[1]


def test_growth_profile_zeta_first_entry():
    assert neg_ords(zeta13(), 3, 3, 30)[1] == 1


def test_conjugate_profile_inconclusive_path():
    # Q(i) at p = 5 splits, so no unique prime; a coefficient whose two
    # conjugate valuations straddle the threshold must come back Inconclusive
    gauss = NumberField([1, 0, 1])
    i = gauss.gen()
    a1 = (2 - i) / 5  # valuations 0 and -1 at the two primes above 5
    f = LaurentSeries(1, 0, [gauss.one(), a1, gauss.zero(), gauss.zero()],
                      field=gauss)
    assert choose_mode(gauss, 5) == CONJUGATE
    v = detect(f, 2, 5, 3)
    assert v.status == 'Inconclusive'
    assert v.witness_index == 1


def test_index3_flex_point_is_inconclusive_at_p3():
    # psi_3 of X_0(11) is an irreducible quartic, and the flex P lies over a
    # field of degree 8 where the primes above 3 disagree: -ord(b_1) is 1 at
    # six embeddings and tau = 1/2 at two, so the verdict stays Inconclusive
    curve = x11_curve()
    (g,) = torsion_factors(3, curve)
    F = function_with_divisor(3, torsion_point(curve, g, 's'))
    assert F.curve.field.degree == 8
    v = detect(expand_on_curve(F, 102), 3, 3, 100, span=F.u + F.v)
    assert (v.status, v.witness_index, v.threshold, v.valuation_mode) == \
        ('Inconclusive', 1, Fraction(1, 2), CONJUGATE)


def test_analyze_catalog_index_two():
    rep = analyze_catalog(build_catalog(2), T=50, prime_p=2)
    assert rep.certified == 3 and rep.bounded == 0 and rep.inconclusive == 0
    assert rep.hypothesis_confirmed
    for v in rep.verdicts:
        assert v.valuation_mode == UNIQUE_PRIME
        assert v.witness_index <= 2
        assert v.threshold == Fraction(1, 3)
        assert v.witness_valuation == Fraction(5, 3)


@pytest.mark.parametrize("prime", [None, 3])
def test_analyze_catalog_scans_a_shared_function_once(monkeypatch, prime):
    # fP1, fP2 and fP3 are one function under three labels: one scan, and
    # each label gets the verdict that detect_entry gives it alone
    from ubd import ubdetect

    entries, calls = build_catalog(2), []
    detect_entry = ubdetect.detect_entry
    monkeypatch.setattr(ubdetect, "detect_entry",
                        lambda e, *args: calls.append(e.label)
                        or detect_entry(e, *args))
    rep = analyze_catalog(entries, T=40, prime_p=prime)
    assert calls == ["fP1"]
    assert rep.verdicts == [detect_entry(e, 2, prime or 2, 40)
                            for e in entries]
    assert [v.label for v in rep.verdicts] == ["fP1", "fP2", "fP3"]


def test_analyze_catalog_index_five():
    rep = analyze_catalog(build_catalog(5), T=50)
    assert rep.certified == 5 and rep.bounded == 1
    assert rep.hypothesis_confirmed
    by_label = {v.label: v for v in rep.verdicts}
    assert by_label["fQ"].status == 'BoundedSoFar'
    for lab in ("fP", "fQ+1P", "fQ+2P", "fQ+3P", "fQ+4P"):
        assert by_label[lab].status == 'UnboundedCertified'
        assert by_label[lab].witness_index == 1


def test_analyze_catalog_empty():
    rep = analyze_catalog([], T=10)
    assert rep.verdicts == [] and not rep.hypothesis_confirmed


def random_integral_unit(rng, T, bound=6):
    return LaurentSeries(1, 0, [1] + [rng.randint(-bound, bound)
                                      for _ in range(T)])


def scan_is_integral(f, hi=None):
    hi = f.prec if hi is None else hi
    return all(Fraction(c).denominator == 1
               for c in f.coefficients(f.lead, hi))


@pytest.mark.parametrize("seed", [0])
def test_appendix_consistency_suite(seed):
    """If h, g^n, and h*g^(n1) all scan integral to T, the scan of g^(n1)
    shows no denominator to T - 10; randomized over integral unit series,
    plus recovered-root instances and a corrupted negative control."""
    rng = random.Random(seed)
    T = 100
    for k in range(100):
        n = rng.randint(2, 5)
        n1 = rng.randint(1, n - 1)
        if k % 3 == 2:
            # g recovered as a formal n-th root of an n-th power
            u = random_integral_unit(rng, T)
            g = nth_root_normalized(series_pow(u, n).truncate(T + 1), n)
        else:
            g = random_integral_unit(rng, T)
        h = random_integral_unit(rng, T)
        gn = series_pow(g, n).truncate(T + 1)
        hg = (h * series_pow(g, n1)).truncate(T + 1)
        assert scan_is_integral(h)
        assert scan_is_integral(gn)
        assert scan_is_integral(hg)
        assert scan_is_integral(series_pow(g, n1), T - 10)
    # negative control: a genuinely fractional root is flagged by the scan
    u = random_integral_unit(rng, 40)
    w = LaurentSeries(1, 0, [0, 0, 1], prec=41)
    g_bad = nth_root_normalized(series_add(series_pow(u, 3), w).truncate(41),
                                3)
    assert not scan_is_integral(g_bad)


def test_short_scan_does_not_certify_the_congruence_control(tmp_path, capsys):
    # a_1..a_3 alone give tau = 0, which b_1 of fQ clears; the floor from
    # the coefficients of u and v gives tau = 1/4 at every T
    from ubd import cli

    assert cli.main(["--cache-dir", str(tmp_path), "--format", "records",
                     "detect", "--entry", "fQ", "--prime", "5", "--root", "5",
                     "--terms", "3"]) == 0
    record = capsys.readouterr().out
    assert record.startswith("entry=fQ ")
    assert "status=BoundedSoFar" in record and "threshold=1/4" in record
