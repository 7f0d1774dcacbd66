"""Unbounded-denominator detection for formal n-th roots of exact series.

The criterion: strip f to a unit series 1 + sum (a_m/a_0) w^m, rescale
valuations by v_min = min_m ord(a_m) so the integrality precondition holds
formally, and certify unboundedness as soon as some root-coefficient ratio
satisfies -ord(b_m/b_0) > tau = (ord(a_0) - v_min)/n.  The lemma, at each
prime P above p, ord_P(p) = 1: if the b_m/b_0 have bounded denominators,
then -ord_P(b_m/b_0) <= tau_P = -min(0, min_m ord_P(a_m/a_0))/n for every
m.  For if mu, the least ord_P(b_m/b_0), is negative, write the unit part
as (1 + h)^n, h = sum (b_m/b_0) w^m: the Gauss valuation (the least ord_P
of a coefficient) is additive, so binom(n, j)*h^j has it at least
j*mu > n*mu for j < n, and h^n exactly n*mu, whence n*mu is the least
ord_P(a_m/a_0).  Each tau_P is at most the worst-prime tau below, so a
certificate is sound and a bounded root admits neither a witness nor a
partial one; BoundedSoFar claims no boundedness beyond the scanned range
but where a theorem gives it (detect_entry).
v_min is read by one floor, _span_floor: the worst ord over a span less the
best ord(a_0).  The span is what the caller gives, coefficients whose
Z-combinations give every a_m (u and v of a catalog function u(x) + v(x)*y,
x and y integral), so that the floor holds for every m and tau is read from
it alone; without one it is a_1..a_M, the scanned range of the unit part,
with a_0 = 1.

The scan is online: the root coefficients b_1, b_2, ... come one at a time
from qseries.root_coefficients (Miller's one-sum power recurrence on packed
integer coordinates, one normalised coefficient per step), and detect stops
at the first witness, so a certificate at m costs O(m^2) integer products,
not the O(T^2) of the whole root.  A catalog entry (detect_entry) is first
expanded and scanned to isqrt(T) + 1 terms only, so a certificate there
costs no O(T) expansion or normalisation either.  fQ, the known-congruence
entry, gets no full root: a congruence group's modular functions that are
holomorphic on H and have algebraic coefficients have bounded denominators
(Shimura 1971, ch. 6), so by the lemma its scan can find nothing; its probe
checks that, and any verdict there but BoundedSoFar raises RuntimeError.

One valuation rule: val_p on Q, and on a number field the slopes of the
Newton polygon of the integer characteristic polynomial of den*b, less
v_p(den), one value per prime above p; a witness needs every slope.  Where a
unique prime above p is certified the polygon has one slope, and the verdict
keeps the label unique-prime-norm.  Before any polygon, the content bound
v_p(gcd(num)) - v_p(den), a lower bound at every prime above p since the
generator is integral, settles every comparison it can: a coefficient that
cannot lower v_min, make a witness or raise a running maximum is never
valued exactly.
"""

from collections import namedtuple
from fractions import Fraction
import math

from .exactnum import (
    AlgebraicNumber,
    field_has_unique_prime_above,
    is_prime,
    newton_polygon_valuations,
    val_p,
)
from .qseries import root_coefficients

RATIONAL = 'rational'
UNIQUE_PRIME = 'unique-prime-norm'
CONJUGATE = 'conjugate-profile'


class UbdVerdict(namedtuple('UbdVerdict', [
        'status',             # UnboundedCertified | BoundedSoFar | Inconclusive
        'witness_index',      # int or None
        'witness_valuation',  # Fraction (-ord of the witness ratio) or None
        'threshold',          # Fraction
        'truncation_used',
        'valuation_mode',
        'integrality_note',
        'label'], defaults=("", ""))):
    __slots__ = ()

    def certified(self):
        return self.status == 'UnboundedCertified'


def choose_mode(field, p):
    """The printed valuation mode; the valuations follow one rule."""
    if field is None:
        return RATIONAL
    if field_has_unique_prime_above(field, p):
        return UNIQUE_PRIME
    return CONJUGATE


def _ord_values(value, p):
    """Possible valuations of a nonzero coefficient at primes above p,
    ord(p) = 1."""
    return [v for v, _ in newton_polygon_valuations(value, p)]


def _content_bound(value, p):
    """A lower bound on ord(value) at every prime above p; INFINITY for 0.

    The generator is integral, so num/den has ord >= v_p(gcd(num)) - v_p(den)
    wherever it is taken; on Q this is val_p itself.  Where the bound already
    decides a comparison, no norm or Newton polygon is needed."""
    if isinstance(value, AlgebraicNumber):
        return val_p(Fraction(math.gcd(*value.num), value.den), p)
    return val_p(value, p)


def _span_floor(span, lead, p):
    """A floor on v_min = min_m ord(a_m/a_0), never above 0, that holds for
    every m when every a_m is a Z-combination of the coefficients in span and
    lead is a_0: the worst ord in span less the best ord of a_0 over the
    primes above p.  A coefficient whose content bound cannot lower the
    floor is not valued."""
    top = max(_ord_values(lead, p))
    worst = top
    for c in span:
        if _content_bound(c, p) < worst:
            worst = min(worst, *_ord_values(c, p))
    return worst - top


def _unit_part(f, prime_p, T):
    """(valuation mode, unit part of f to w^M, M): the root coefficients
    b_1..b_M are scanned, M = min(T, what f knows), so f is truncated
    first and only its M + 1 scanned coefficients are divided by a_0."""
    if not is_prime(prime_p):
        raise ValueError(f"{prime_p} is not prime")
    if f.is_zero():
        raise ValueError("cannot analyze a series that is 0 to precision")
    mode = choose_mode(f.field, prime_p)
    M = min(T, f.prec - f.lead - 1)
    unit, _, _ = f.truncate(f.lead + M + 1).unit_normalized()
    return mode, unit, M


def detect(f, root_degree, prime_p, T=300, label="", span=None):
    """Scan the formal root_degree-th root of f for a certified witness.

    The ratios b_m/b_0 are the coefficients of the root of the unit part of
    f, so everything stays in the coefficient field of f.  They are computed
    on demand and the scan stops at the first witness; only a BoundedSoFar
    or an Inconclusive verdict costs the full range.  A b_m whose content
    bound is at least -tau can be neither a witness nor a partial one, so
    its exact valuations are never taken.

    span, when given, lists coefficients whose Z-combinations give every
    coefficient of f (u and v of f = u(x) + v(x)*y with x, y integral); they
    then bound v_min for every m, not only for the scanned ones, and tau is
    read from that floor alone, whatever T is.

    At tau = 0 with p not dividing root_degree no root is computed: the
    unit part is then integral above p, and so is its root, since
    binom(1/n, k) is a p-adic integer when p does not divide n (Koblitz,
    p-adic Numbers, GTM 58, ch. IV); the verdict is BoundedSoFar.
    """
    if root_degree < 2:
        raise ValueError("root degree must be at least 2")
    mode, unit, M = _unit_part(f, prime_p, T)
    if span is None:
        # the scanned a_1..a_M of the unit part, a_0 = 1, are their own span
        floor = _span_floor(unit.coefficients(1, M + 1), 1, prime_p)
        note = (f"a_m verified p-integral (after the v_min offset) for "
                f"m <= {M}; the lemma's precondition beyond the truncation "
                "is assumed")
    else:
        # the floor bounds ord(a_m/a_0) for every m, so no a_m can lower it
        floor = _span_floor(span, f.coeffs[0], prime_p)
        note = ("a_m p-integral (after the v_min offset) for every m: "
                "the coefficients are Z-combinations of those of u and v")
    tau = -floor / root_degree
    if not tau and root_degree % prime_p:
        return UbdVerdict('BoundedSoFar', None, None, tau, M, mode, note,
                          label)
    partial = None
    for m, b in enumerate(root_coefficients(unit, root_degree), 1):
        if _content_bound(b, prime_p) >= -tau:
            continue
        neg_ords = [-v for v in _ord_values(b, prime_p)]
        if min(neg_ords) > tau:
            return UbdVerdict('UnboundedCertified', m, min(neg_ords), tau, M,
                              mode, note, label)
        if max(neg_ords) > tau and partial is None:
            partial = m
    if partial is not None:
        return UbdVerdict('Inconclusive', partial, None, tau, M, mode,
                          note + "; some but not all conjugate slopes witness",
                          label)
    return UbdVerdict('BoundedSoFar', None, None, tau, M, mode, note, label)


CatalogReport = namedtuple('CatalogReport', 'verdicts certified bounded '
                           'inconclusive hypothesis_confirmed')


def detect_entry(e, root_degree, prime_p, T=300):
    """detect on a catalog entry's expansion, with its coefficient span,
    over b_1..b_T.

    With a span, tau does not depend on T, and the first witness among
    b_1..b_t is the first of b_1..b_T; so a probe on t = isqrt(T) + 1 terms
    runs first (t = T when isqrt(T) + 1 >= T, the probe then being the full
    scan), and a certificate there is the full scan's, as is the
    BoundedSoFar that detect gives without a root (tau = 0, p not dividing
    root_degree).  Any other probe verdict (a partial witness may still be
    followed by a certificate) falls through to the full expansion of T + 2
    terms.  A failed probe costs O(t^2) = O(T) root products.

    A known-congruence entry at its index as root degree is answered by
    theorem: the probe's tau, mode and note with BoundedSoFar over b_1..b_T.
    Its root is a modular function for a congruence group (Gamma^1(11) for
    fQ), holomorphic on H (its one pole is at a cusp) and with algebraic
    coefficients, so its denominators are bounded (Shimura, Introduction
    to the Arithmetic Theory of Automorphic Functions, 1971, ch. 6), and
    the lemma of the module docstring bounds
    -ord_P(b_m/b_0) by tau_P at each prime P above p.  Every a_m is a
    Z-combination of the span, so min_m ord_P(a_m/a_0) is at least the
    floor detect reads and tau_P <= tau: no b_m is a witness or a partial
    one, and the full scan's verdict is this one.  The shortcut is checked
    against the scan it replaces, on the probe's range (all of it when
    t = T): any verdict but BoundedSoFar there contradicts the flag and
    raises RuntimeError, naming the entry, the status and m.  fQ's flag is
    proved by the congruence oracle of the tests.  Another root degree,
    and a series file, which knows nothing of its origin, get the full
    scan.  So a catalog entry leaves at its probe certified, or bounded
    for every m by the binomial theorem or by the congruence theorem.
    """
    span = e.coefficient_span()
    t = min(T, math.isqrt(T) + 1)
    v = detect(e.expansion(t + 2), root_degree, prime_p, t, e.label, span)
    if e.congruence_flag == 'known-congruence' and root_degree == e.index:
        if v.status != 'BoundedSoFar':
            raise RuntimeError(f"{e.label} is flagged known-congruence, but "
                               f"its scan is {v.status} at m = "
                               f"{v.witness_index}")
        return v._replace(truncation_used=T)
    if t == T or v.certified() or not v.threshold and root_degree % prime_p:
        return v._replace(truncation_used=T)
    return detect(e.expansion(T + 2), root_degree, prime_p, T, e.label, span)


def analyze_catalog(entries, T=300, prime_p=None):
    """Run detect_entry over catalog entries, each at its index as root
    degree.

    The main theorem's index-p hypothesis is confirmed when every
    expected-noncongruence entry is certified; a known-congruence entry
    that is not BoundedSoFar stops detect_entry.  Entries that share one
    generator function (the three embeddings at index 2) are scanned once
    and relabelled.
    """
    verdicts, scanned = [], {}
    for e in entries:
        p = prime_p if prime_p is not None else e.index
        key = (id(e.generator_function), p)
        if key not in scanned:
            scanned[key] = detect_entry(e, e.index, p, T)
        verdicts.append(scanned[key]._replace(label=e.label))
    certified = sum(1 for v in verdicts if v.status == 'UnboundedCertified')
    bounded = sum(1 for v in verdicts if v.status == 'BoundedSoFar')
    inconclusive = sum(1 for v in verdicts if v.status == 'Inconclusive')
    ok = all(v.certified() for e, v in zip(entries, verdicts)
             if e.congruence_flag == 'expected-noncongruence')
    return CatalogReport(verdicts, certified, bounded, inconclusive,
                         ok and bool(entries))
