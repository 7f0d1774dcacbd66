"""Exact growth laws of the formal roots of the noncongruence catalog
entries: an end-to-end oracle for the packed root at large m.

The slow references in test_online_root check the packed root only at small
sizes.  Here every noncongruence entry is scanned to T = 300, where the
running lcm, the slot repacking and the Newton polygons all work at full
size, and -ord(b_m/b_0) at the catalog prime p = n must follow a closed
form at every m, at every prime above p:

- index 5 (fP, fQ+1P .. fQ+4P), p = 5: -ord_5(b_m) = m + v_5(m!), which is
  -v_5 of binom(1/5, m);
- index 2 (fP1, fP2, fP3), p = 2: -ord(b_m) = v_2(m!) + (2/3)*floor(m/2).

These are observed laws, not theorems: they held at every m <= 1000 for all
eight entries when they were found, and nothing in ubd proves them.  The
test pins them as a regression oracle; v_p(m!) comes from Legendre's
formula, not from ubd.
"""

from fractions import Fraction

import pytest

from ubd.qseries import root_coefficients
from ubd.ubdetect import _ord_values
from ubd.x011 import build_catalog

T = 300


def legendre(m, p):
    """v_p(m!) = sum over i >= 1 of floor(m / p^i)."""
    v, q = 0, p
    while q <= m:
        v += m // q
        q *= p
    return v


LAWS = {
    5: lambda m: m + legendre(m, 5),
    2: lambda m: legendre(m, 2) + Fraction(2, 3) * (m // 2),
}

ENTRIES = [(index, e) for index in (5, 2) for e in build_catalog(index)
           if e.congruence_flag == "expected-noncongruence"]


def test_the_laws_cover_the_eight_noncongruence_entries():
    assert [e.label for _, e in ENTRIES] == [
        "fP", "fQ+1P", "fQ+2P", "fQ+3P", "fQ+4P", "fP1", "fP2", "fP3"]


@pytest.mark.parametrize("index,e", ENTRIES, ids=[e.label for _, e in ENTRIES])
def test_root_coefficients_follow_the_growth_law(index, e):
    law, n = LAWS[index], e.index
    assert n == index
    f = e.expansion(T + 2)
    unit, _, _ = f.unit_normalized()
    root = root_coefficients(unit.truncate(T + 1), n)
    mismatches = [m for m, b in enumerate(root, 1)
                  if {-v for v in _ord_values(b, n)} != {law(m)}]
    assert mismatches == []
