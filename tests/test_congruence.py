"""The congruence oracle (tests/congruence.py) on Gamma^0(11), its
character groups and the catalogs.

Hsu's test must pass on the known congruence groups Gamma^0(11), Gamma^1(11)
and Gamma(11).  Of the character groups it finds one congruence group at
index 5, Gamma^1(11), and none at index 2, 3 and 7.  With the detector's
certificates it proves fQ's known-congruence flag, the flag that
detect_entry trusts.  Two mutations of the oracle are checked to break it.
"""

import pytest

import congruence as cg
from ubd.ubdetect import analyze_catalog, detect
from ubd.x011 import build_catalog


@pytest.mark.parametrize("group, index", [(cg.GAMMA0, 12), (cg.GAMMA1, 60),
                                          (cg.GAMMA, 660)])
def test_hsu_passes_the_congruence_groups_of_level_11(group, index):
    s, u = group
    assert len(s) == index and cg.is_transitive(s, u)
    assert cg.perm_power(s, 2) == cg.perm_power(u, 3) == tuple(range(index))
    assert cg.order(cg.compose(s, u)) == cg.LEVEL
    assert cg.is_congruence(s, u)


def test_gamma0_has_13_free_edges_and_two_cusps():
    s, u = cg.GAMMA0
    _, free = cg.schreier_tree(s, u)
    assert len(free) == 13
    # six S-pairs, four U-triples, then the cusp cycles of widths 11 and 1
    assert len(cg.relations(s, u)) == 6 + 4 + 2


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13])
def test_the_characters_mod_n_form_a_plane(n):
    assert len(cg.characters(n)) == 2


@pytest.mark.parametrize("n, congruent", [(2, 0), (3, 0), (5, 1), (7, 0)])
def test_congruence_lines_by_index(n, congruent):
    covers = [cg.cover(chi, n) for chi in cg.lines(n)]
    assert len(covers) == n + 1
    for s, u in covers:
        # each cover is connected and unramified: 12n cosets, level 11
        assert len(s) == 12 * n and cg.is_transitive(s, u)
        assert cg.order(cg.compose(s, u)) == cg.LEVEL
    assert sum(cg.is_congruence(s, u) for s, u in covers) == congruent


def test_the_index_5_congruence_line_is_gamma1s():
    chi = cg.gamma1_character()
    assert any(chi)
    (line,) = [c for c in cg.lines(5) if cg.is_congruence(*cg.cover(c, 5))]
    # the same line: line = k*chi mod 5 for some k
    assert any(tuple(k * x % 5 for x in chi) == line for k in range(1, 5))


def test_taking_half_as_5_loses_gamma1():
    # 2 * 5 = 10 is not 1 mod 11; the true 1/2 is 6
    assert cg.is_congruence(*cg.GAMMA1, half=6)
    assert not cg.is_congruence(*cg.GAMMA1, half=5)
    assert not cg.is_congruence(*cg.cover(cg.gamma1_character(), 5), half=5)


def test_dropping_both_cusp_relations_raises_the_dimension():
    # the cusp classes sum to 0, so one cusp relation implies the other
    rels = cg.relations(*cg.GAMMA0)  # the two cusp relations come last
    assert len(cg.nullspace_mod(rels, 5)) == 2
    assert len(cg.nullspace_mod(rels[:-1], 5)) == 2
    assert len(cg.nullspace_mod(rels[:-2], 5)) == 3


def test_fQ_is_on_the_one_congruence_line():
    # Six lines at index 5, exactly one congruence (Gamma^1(11)'s).
    lines = cg.lines(5)
    congruent = [c for c in lines if cg.is_congruence(*cg.cover(c, 5))]
    assert (len(lines), len(congruent)) == (6, 1)
    # The six entries come from the six cyclic subgroups of E[5] = (Z/5)^2:
    # <P> is rational, and Q and the Q + iP share one field, where no one of
    # them is a multiple of another; distinct subgroups give distinct
    # cyclic covers of X_0(11), so the entries lie on six distinct lines.
    entries = build_catalog(5)
    by_label = {e.label: e for e in entries}
    assert sorted(by_label) == sorted(["fP", "fQ"] + [f"fQ+{i}P"
                                                     for i in range(1, 5)])
    p = by_label.pop("fP").point
    assert p.curve.field is None and (5 * p).is_infinity()
    points = [e.point for e in by_label.values()]
    assert len(set(points)) == 5
    for r in points:
        assert not r.x.is_rational() and (5 * r).is_infinity()
        assert [k for k in range(1, 5) if k * r in points] == [1]
    # A certificate proves its entry's group noncongruence: a congruence
    # group's root has bounded denominators (Shimura 1971, ch. 6).  The full
    # scan certifies five entries, so their five distinct lines are the
    # five noncongruence lines, and fQ, the sixth, is on the congruence line.
    verdicts = {e.label: detect(e.expansion(302), 5, 5, 300, e.label,
                                e.coefficient_span()) for e in entries}
    certified = sorted(k for k, v in verdicts.items() if v.certified())
    assert len(certified) == len(lines) - len(congruent)
    assert [k for k in verdicts if k not in certified] == ["fQ"]
    assert verdicts["fQ"].status == "BoundedSoFar"
    assert [e.label for e in entries
            if e.congruence_flag == "known-congruence"] == ["fQ"]


def test_every_index_2_line_is_noncongruence_and_certified():
    lines = cg.lines(2)
    assert not any(cg.is_congruence(*cg.cover(c, 2)) for c in lines)
    assert analyze_catalog(build_catalog(2), 300).certified == len(lines)
