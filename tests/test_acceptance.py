"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  Run with `pytest tests/test_acceptance.py -v -s`."""

import os
import random
import subprocess
import sys
import time
from bisect import bisect_left
from fractions import Fraction

from ubd.census import (
    LatticeTriple,
    enumerate_triples,
    s_count,
)
from ubd.ellcurve import function_with_divisor, torsion_factors
from ubd.qseries import (
    EtaQuotient,
    LaurentSeries,
    eta_quotient_expand,
    nth_root_normalized,
)
from ubd.ubdetect import analyze_catalog, detect
from ubd.x011 import build_catalog, expand_on_curve, expand_xy, x11_curve

from helpers import (agrees, g5_root, g5_series, has_order, join_is_full,
                     join_is_full_snf, series_add, series_pow,
                     unit_root_factors)


def _report(n, took, budget, desc):
    print(f"ACCEPTANCE {n:2d}: PASS in {took:6.2f}s (budget {budget}s) - {desc}")


def test_criterion_01_golden_xy():
    t0 = time.time()
    x, y = expand_xy(200)
    assert x.coefficients(-2, 9) == [1, 2, 4, 5, 8, 1, 7, -11, 10, -12, -18]
    assert y.coefficients(-3, 8) == [1, 3, 7, 12, 17, 26, 19, 37, -15, -16, -67]
    took = time.time() - t0
    assert took < 10
    _report(1, took, 10, "x, y expansion heads match the golden values exactly")


def test_criterion_02_integrality_500():
    t0 = time.time()
    x, y = expand_xy(500)
    assert x.truncation >= 500 and y.truncation >= 500
    for c in x.coefficients(x.lead, x.prec):
        assert Fraction(c).denominator == 1
    for c in y.coefficients(y.lead, y.prec):
        assert Fraction(c).denominator == 1
    took = time.time() - t0
    assert took < 60
    _report(2, took, 60, "all x, y coefficients to T = 500 are integers")


def test_criterion_03_fp_reconstruction():
    t0 = time.time()
    f = function_with_divisor(5, x11_curve().point(5, 5))
    assert list(f.u) == [-55, 30, -4]
    assert list(f.v) == [-4, 1]
    s = expand_on_curve(f, 10)
    assert s.coefficients(-5, 1) == [1, 1, -3, 13, 20, -23]
    took = time.time() - t0
    _report(3, took, "-", "f_P = xy - 4x^2 + 30x - 4y - 55 with the exact expansion head")


def test_criterion_04_quartic_orbit():
    t0 = time.time()
    # the quartic factor of psi_5 whose roots are 5-adic units
    quartics = [f for f in torsion_factors(5, x11_curve()) if len(f) == 5]
    assert unit_root_factors(quartics, 5) == [(101, 41, 11, 1, 1)]
    took = time.time() - t0
    _report(4, took, "-", "irrational 5-torsion factor x^4+x^3+11x^2+41x+101")


def test_criterion_05_torsion_sanity():
    t0 = time.time()
    p = x11_curve().point(5, 5)
    assert (5 * p).is_infinity()
    assert 3 * p == x11_curve().point(16, 60)
    assert has_order(p, 5)
    took = time.time() - t0
    _report(5, took, "-", "5*[5,5] = O and 3*[5,5] = [16,60]")


def test_criterion_06_index5_detection():
    t0 = time.time()
    rep = analyze_catalog(build_catalog(5), T=300)
    by_label = {v.label: v for v in rep.verdicts}
    assert by_label["fQ"].status == 'BoundedSoFar'
    certified = [lab for lab in ("fP", "fQ+1P", "fQ+2P", "fQ+3P", "fQ+4P")
                 if by_label[lab].status == 'UnboundedCertified']
    assert "fP" in certified
    assert len(certified) == 5, f"full certification expected, got {certified}"
    assert all(by_label[lab].valuation_mode in ('rational', 'unique-prime-norm')
               for lab in certified)
    assert rep.hypothesis_confirmed
    took = time.time() - t0
    assert took < 300
    _report(6, took, 300, "index-5: 5 certified + fQ bounded at T = 300")


def test_criterion_07_index2_detection():
    t0 = time.time()
    rep = analyze_catalog(build_catalog(2), T=300, prime_p=2)
    assert rep.certified == 3
    for v in rep.verdicts:
        assert v.status == 'UnboundedCertified'
        assert v.witness_index <= 2
    took = time.time() - t0
    assert took < 60
    _report(7, took, 60, "index-2: all three certified at p = 2 with witness m <= 2")


def test_criterion_08_eta_root_controls():
    t0 = time.time()
    g5 = g5_series(200)
    unit, lead, c0 = g5.unit_normalized()
    assert lead == -5 and c0 == 1
    root = nth_root_normalized(unit, 12)
    closed_lead, closed = g5_root(12, 200)
    assert closed_lead == Fraction(-5, 12)
    assert agrees(root, closed, 0, 199)
    v = detect(g5, 7, 7, 200)
    assert v.status == 'UnboundedCertified'
    took = time.time() - t0
    assert took < 30
    _report(8, took, 30, "G5^(1/12) matches eta(z/11)/eta(z); G5^(1/7) certified")


def test_criterion_09_gamma013_example():
    t0 = time.time()
    zeta = eta_quotient_expand(EtaQuotient([(1, 2), (13, -2)]), 1, 60)
    assert zeta.coefficients(-1, 2) == [1, -2, -1]
    v = detect(zeta, 3, 3, 60)
    assert v.status == 'UnboundedCertified' and v.witness_index == 1
    unit, _, _ = zeta.unit_normalized()
    assert nth_root_normalized(unit, 3).coefficient(1) == Fraction(-2, 3)
    took = time.time() - t0
    _report(9, took, "-", "zeta^(1/3) certified at m = 1 with ratio -2/3")


def test_criterion_10_census():
    t0 = time.time()
    triples = enumerate_triples(500)
    idx = sorted(t.index for t in triples)
    for X in range(2, 501):
        assert bisect_left(idx, X) == s_count(X).count
    r = s_count(2000).ratio
    assert Fraction(81, 100) < r < Fraction(835, 1000)
    rng = random.Random(2024)
    for _ in range(10 ** 4):
        m, v = rng.randint(1, 49), rng.randint(1, 49)
        gamma = LatticeTriple(rng.randint(1, 49), rng.randrange(m), m)
        b = LatticeTriple(rng.randint(1, 49), rng.randrange(v), v)
        assert join_is_full(gamma, b) == join_is_full_snf(gamma, b)
    took = time.time() - t0
    assert took < 120
    _report(10, took, 120, "s_count = enumeration to 500; ratio brackets pi^2/12; SNF x10^4")


def test_criterion_11_appendix_suite():
    """If h, g^n, and h*g^(n1) all scan integral to T, the scan of g^(n1)
    shows no denominator to T - 10; randomized over integral unit series,
    plus recovered-root instances and a corrupted negative control."""
    t0 = time.time()
    rng = random.Random(11)
    T = 100

    def unit(terms):
        return LaurentSeries(1, 0, [1] + [rng.randint(-6, 6) for _ in range(terms)])

    def integral(f, hi=None):
        hi = f.prec if hi is None else hi
        return all(Fraction(c).denominator == 1
                   for c in f.coefficients(f.lead, hi))

    for k in range(100):
        n = rng.randint(2, 5)
        n1 = rng.randint(1, n - 1)
        if k % 3 == 2:
            g = nth_root_normalized(series_pow(unit(T), n).truncate(T + 1), n)
        else:
            g = unit(T)
        h = unit(T)
        assert integral(h)
        assert integral(series_pow(g, n).truncate(T + 1))
        assert integral((h * series_pow(g, n1)).truncate(T + 1))
        assert integral(series_pow(g, n1), T - 10)
    # negative control: a genuinely fractional root is flagged by the scan
    w = LaurentSeries(1, 0, [0, 0, 1], prec=41)
    g_bad = nth_root_normalized(
        series_add(series_pow(unit(40), 3), w).truncate(41), 3)
    assert not integral(g_bad)
    took = time.time() - t0
    assert took < 60
    _report(11, took, 60, "100 randomized power-integrality consistency checks at T = 100")


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.time()
    commands = [
        ["eta", "1:2,13:-2", "--width", "1", "--terms", "15"],
        ["expand-xy", "--terms", "12"],
        ["catalog", "--index", "5", "--terms", "5"],
        ["--format", "records", "detect", "--entry", "fP", "--prime", "5",
         "--root", "5", "--terms", "25"],
        ["--format", "records", "detect", "--entry", "fP1", "--prime", "2",
         "--root", "2", "--terms", "25"],
        ["census", "--xmax", "60"],
        ["census", "--xmax", "40", "--b", "2,1,2"],
        ["--format", "records", "report", "--index", "2", "--terms", "20"],
    ]
    env = dict(os.environ, UBD_CACHE_DIR=str(tmp_path))
    for args in commands:
        runs = [subprocess.run([sys.executable, "-m", "ubd"] + args,
                               capture_output=True, env=env) for _ in range(2)]
        assert runs[0].returncode == 0, runs[0].stderr.decode()
        assert runs[0].stdout == runs[1].stdout, f"nondeterministic: {args}"
    took = time.time() - t0
    _report(12, took, "-", "every CLI command byte-identical across two runs")
