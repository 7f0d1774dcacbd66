"""detect_entry, the probe of isqrt(T) + 1 terms before the full expansion,
against the plain detect on the full T + 2 term expansion that it replaced.

A probe certificate is the full scan's: with a span, tau comes from the span
floor alone, and the first witness of a prefix is the first witness of the
whole range.  Every other probe verdict must fall through to the full scan,
except for a known-congruence entry at its index as root degree (fQ at
n = 5), which ends at its probe by theorem once the probe agrees; its full
scan stays here as the reference.
"""

from collections import namedtuple
import math

import pytest

from ubd import cli, ubdetect, x011
from ubd.exactnum import NumberField
from ubd.qseries import LaurentSeries, serialize_series
from ubd.ubdetect import _span_floor, analyze_catalog, detect, detect_entry
from ubd.x011 import build_catalog

PRIMES = (2, 3, 5, 7, 11, 13)
TERMS = (1, 2, 3, 4, 5, 17, 18, 19, 60, 300)


@pytest.fixture(scope="module")
def entries():
    """The nine catalog entries, each with its 302-term expansion."""
    return [(e, e.expansion(302)) for index in (2, 5)
            for e in build_catalog(index)]


def _full_detect(e, f, n, p, T):
    """detect on the first T + 2 terms of f, as analyze_catalog ran it."""
    return detect(f.truncate(f.lead + T + 3), n, p, T, e.label,
                  e.coefficient_span())


@pytest.mark.parametrize("p", PRIMES)
def test_probe_equals_the_full_scan_on_the_catalogs(entries, p):
    assert len(entries) == 9
    for e, f in entries:
        for T in TERMS:
            n = e.index
            assert detect_entry(e, n, p, T) == _full_detect(e, f, n, p, T), \
                (e.label, T)


@pytest.mark.parametrize("p", PRIMES)
def test_no_coefficient_lowers_the_span_floor(entries, p):
    # tau = -floor/n without a pass over a_1..a_T: the floor of the span
    # together with a_1..a_300 is the floor of the span alone
    for e, f in entries:
        span = e.coefficient_span()
        floor = _span_floor(span, f.coeffs[0], p)
        assert floor <= 0
        assert _span_floor(span + f.coeffs[1:301], f.coeffs[0], p) == floor, \
            e.label


GAUSS = NumberField([1, 0, 1])  # 5 = (2 + i)(2 - i) splits


class SyntheticEntry(namedtuple("SyntheticEntry", "label coeffs "
                                "congruence_flag",
                                defaults=("expected-noncongruence",))):
    """A polynomial over GAUSS posing as a catalog entry: its coefficients
    are their own span, and no theorem bounds its root."""

    def expansion(self, T):
        return LaurentSeries(1, 0, self.coeffs[:T + 1], GAUSS, T + 1)

    def coefficient_span(self):
        return list(self.coeffs)


def test_an_inconclusive_probe_falls_through_to_the_full_scan():
    # 1 + a_1 w + w^20/5 at p = 5, n = 2: the span floor is -1, tau = 1/2.
    # a_1 = (2 - i)/5 has ord -1 and 0 at the two primes above 5, so b_1 is
    # a partial witness, and the b_k before b_20 have ord >= 0 at 2 - i;
    # b_20 = a_20/2 + ... is the first certificate, beyond the probe's 11
    i = GAUSS.gen()
    e = SyntheticEntry("syn", (GAUSS.one(), (2 - i) / 5)
                       + (GAUSS.zero(),) * 18 + (GAUSS.one() / 5,))
    T, t = 100, math.isqrt(100) + 1
    probe = detect(e.expansion(t + 2), 2, 5, t, e.label, e.coefficient_span())
    assert (probe.status, probe.witness_index) == ("Inconclusive", 1)
    v = detect_entry(e, 2, 5, T)
    assert (v.status, v.witness_index, v.truncation_used) == \
        ("UnboundedCertified", 20, T)
    assert v == detect(e.expansion(T + 2), 2, 5, T, e.label,
                       e.coefficient_span())


@pytest.mark.parametrize("index, p", [(2, 3), (5, 3), (5, 7)])
def test_a_bounded_probe_at_tau_0_and_p_prime_to_n_is_final(monkeypatch,
                                                             index, p):
    # detect returns BoundedSoFar at tau = 0 and p not dividing n without a
    # root, on any range; the probe's verdict is the full scan's (pinned
    # above), so no entry is expanded past the probe's t + 2 terms
    T, t = 300, math.isqrt(300) + 1
    real = x011.GroupCatalogEntry.expansion

    def probe_only(self, terms):
        if terms > t + 2:
            raise AssertionError(f"{self.label} expanded to {terms} terms")
        return real(self, terms)

    monkeypatch.setattr(x011.GroupCatalogEntry, "expansion", probe_only)
    for e in build_catalog(index):
        v = detect_entry(e, e.index, p, T)
        assert (v.status, v.threshold, v.truncation_used) == \
            ("BoundedSoFar", 0, T), e.label


def test_index2_report_solves_x_and_y_only_to_the_probe(monkeypatch):
    # all three index-2 entries certify at m <= 2, inside the probe of
    # t = 18 terms, so x and y are solved to t + 2 = 20 terms, not 302
    solves, real = [], x011._compute_xy
    monkeypatch.setattr(x011, "_compute_xy",
                        lambda T: solves.append(T) or real(T))
    rep = analyze_catalog(build_catalog(2), 300)
    assert rep.certified == 3
    assert all(v.truncation_used == 300 for v in rep.verdicts)
    assert solves and max(solves) <= math.isqrt(300) + 1 + 2


@pytest.fixture
def root_steps(monkeypatch):
    """The root degree of every b_m that detect takes from
    root_coefficients, one list item per step."""
    steps, real = [], ubdetect.root_coefficients

    def counted(f, n):
        for b in real(f, n):
            steps.append(n)
            yield b

    monkeypatch.setattr(ubdetect, "root_coefficients", counted)
    return steps


@pytest.fixture(scope="module")
def fq():
    (e,) = [e for e in build_catalog(5) if e.label == "fQ"]
    assert (e.index, e.congruence_flag) == (5, "known-congruence")
    return e


@pytest.mark.parametrize("T", [300, 1000])
def test_the_full_scan_of_fQ_at_p_n_5_stays_bounded(fq, root_steps, T):
    # the reference the shortcut replaced: every b_1..b_T is scanned
    v = detect(fq.expansion(T + 2), 5, 5, T, fq.label, fq.coefficient_span())
    assert (v.status, v.witness_index, v.truncation_used) == \
        ("BoundedSoFar", None, T)
    assert len(root_steps) == T
    root_steps.clear()
    assert detect_entry(fq, 5, 5, T) == v
    assert len(root_steps) <= math.isqrt(T) + 1  # the probe's root only


def test_a_wrong_flag_stops_at_its_probe():
    # fP marked known-congruence: the full scan certifies fP at m = 1, so
    # the theorem's answer is checked against the probe (T = 300) or the
    # full scan (T = 2, where isqrt(T) + 1 >= T) and the flag is refused
    (fp,) = [e for e in build_catalog(5) if e.label == "fP"]
    wrong = fp._replace(congruence_flag="known-congruence")
    for T in (300, 2):
        with pytest.raises(RuntimeError, match="^fP is flagged known-"
                           "congruence, but its scan is UnboundedCertified "
                           "at m = 1$"):
            detect_entry(wrong, 5, 5, T)
    full = detect(fp.expansion(302), 5, 5, 300, fp.label,
                  fp.coefficient_span())
    assert (full.status, full.witness_index) == ("UnboundedCertified", 1)
    assert detect_entry(fp, 5, 5, 300) == full


def test_report_on_a_wrong_flag_exits_4(monkeypatch, capsys):
    def relabelled(index):
        return [e._replace(congruence_flag="known-congruence")
                if e.label == "fP" else e for e in build_catalog(index)]

    monkeypatch.setattr(cli, "build_catalog", relabelled)
    assert cli.main(["report", "--index", "5", "--terms", "300"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal inconsistency: fP is flagged known-congruence, "
                   "but its scan is UnboundedCertified at m = 1\n")


def test_no_shortcut_at_a_root_degree_other_than_the_index(fq, root_steps):
    # fQ^(1/2) need not be modular for a congruence group: it certifies
    v = detect_entry(fq, 2, 5, 300)
    assert (v.status, v.witness_index) == ("UnboundedCertified", 5)
    # fQ posing as index 10, scanned at root degree 5: all 300 steps run
    root_steps.clear()
    v = detect_entry(fq._replace(index=10), 5, 5, 300)
    assert (v.status, v.truncation_used) == ("BoundedSoFar", 300)
    assert len(root_steps) == math.isqrt(300) + 1 + 300  # probe, full scan


def test_no_shortcut_for_an_exported_fQ_record(fq, root_steps, tmp_path,
                                               capsys):
    # a series file knows nothing of its origin: the scan runs in full
    path = tmp_path / "fQ.series"
    path.write_text(serialize_series(fq.expansion(302)))
    assert cli.main(["--format", "records", "detect", "--series-file",
                     str(path), "--prime", "5", "--root", "5", "--terms",
                     "300"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("entry=fQ.series status=BoundedSoFar ")
    assert len(root_steps) == 300
