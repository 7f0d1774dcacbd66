"""Counting type II(A) character groups via rank-2 sublattices.

A finite-index sublattice of Z^2 has a unique basis <l*a + n*b, m*b> with
l > 0, 0 <= n < m, so groups of index < X correspond to triples (l, n, m)
with l*m < X.  Both counts are read off one kernel, the divisor summatory
function D_sigma(N) = sum_{n <= N} sigma(n) = sum_{k*j <= N} j, which
Dirichlet's hyperbola method gives in isqrt(N) steps and O(1) memory:
S(X) = D_sigma(X - 1), and the full joins with b combine D_sigma over the
squarefree divisors of s and v.  Enumeration is kept as a reference oracle.
"""

from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .exactnum import prime_factors


class LatticeTriple(namedtuple('LatticeTriple', 'l n m')):
    """<l*a + n*b, m*b> with l > 0 and 0 <= n < m; index = l*m."""
    __slots__ = ()

    def __new__(cls, l, n, m):
        if l < 1 or m < 1 or not 0 <= n < m:
            raise ValueError(f"not a canonical triple: {(l, n, m)}")
        return super().__new__(cls, l, n, m)

    @property
    def index(self):
        return self.l * self.m


class CensusResult(namedtuple('CensusResult', 'X count')):
    __slots__ = ()

    @property
    def ratio(self):
        return Fraction(self.count, self.X ** 2)


def enumerate_triples(X):
    """All triples with l*m < X, each exactly once (strict inequality)."""
    if X < 2:
        raise ValueError("X must be at least 2")
    return [LatticeTriple(l, n, m) for l in range(1, X)
            for m in range(1, (X - 1) // l + 1) for n in range(m)]


def _sigma_sum(N):
    """D_sigma(N) = sum_{k*j <= N} j by the hyperbola method, r = isqrt(N):
    sum_{k <= r} [T(N//k) + k*(N//k)] less r*T(r), the square k, j <= r."""
    r = isqrt(N)
    total = 0
    for k in range(1, r + 1):
        q = N // k
        total += q * (q + 1) // 2 + k * q
    return total - r * r * (r + 1) // 2


def s_count(X):
    """S(X) = sum_{l=1}^{X-1} c(c-1)/2, c = ceil(X/l): the triple count, which
    sums m over the pairs l*m <= X - 1, so D_sigma(X - 1)."""
    if X < 2:
        raise ValueError("X must be at least 2")
    return CensusResult(X, _sigma_sum(X - 1))


def euler_phi(n):
    for q in prime_factors(n):
        n -= n // q
    return n


class LowerBoundExperiment(namedtuple(
        'LowerBoundExperiment', 'X full_count restricted_count phi_bound')):
    __slots__ = ()

    @property
    def ratio(self):
        return Fraction(self.full_count, self.X ** 2)


def ubd_lower_bound_experiment(b, X):
    """Count triples joining fully with b, plus the restricted family l = 1,
    X/2 < m < X, gcd(s, m) = 1, of at least phi_bound triples: each s
    consecutive m hold phi(s) admissible ones, each with m > X/2 choices of n.

    For gcd(s, l) = 1 and each prime q | gcd(v, m), s*n = u*l mod q holds for
    one n mod q if q !| s, else for all or none as q | u or not; by CRT
    w(m) = m * prod_{q | gcd(v, m)} c_q of the n in [0, m) join fully, with
    c_q = 1 - 1/q or [q !| u] whatever l is.  So the count is the sum of
    H((X-1)//l) over l coprime to s, H(M) = sum_{d | rad v} d*w(d)*T(M//d),
    T(k) = k(k+1)/2.  Writing l = e*l' over e | rad s with weight mu(e), and
    summing T(N//l') over all l' >= 1 to D_sigma(N), the count is
    sum_{e, d} mu(e) * d*w(d) * D_sigma((X-1)//(e*d)), one kernel call per
    distinct e*d of O(sqrt(X)) steps.  The weights are built one prime at a
    time, so s and v sharing k primes take 3^k steps and kernel calls, not
    the 4^k pairs (e, d)."""
    if X < 4:
        raise ValueError("X must be at least 4")
    s, u = b.l, b.n
    mobius = [(1, 1)]  # (e, mu(e)) over e | rad s
    for q in prime_factors(s):
        mobius += [(e * q, -mu) for e, mu in mobius]
    # g -> sum of mu(e)*d*w(d) over e*d = g: mu(e) is the product of
    # (1 - [q]) over q | s and d*w(d) that of (1 + c*[q]) over q | v, where
    # [q]: g -> g*q and c = q*(c_q - 1), so multiply in one q | v at a time
    weight = dict(mobius)
    for q in prime_factors(b.m):
        c = -1 if s % q else -q if u % q == 0 else 0
        if c:
            for g, k in list(weight.items()):
                weight[g * q] = weight.get(g * q, 0) + c * k
    full = sum(k * _sigma_sum((X - 1) // g) for g, k in weight.items())
    restricted = sum(mu * e * ((X - 1) // e * ((X - 1) // e + 1)
                               - X // 2 // e * (X // 2 // e + 1)) // 2
                     for e, mu in mobius)
    phi_bound = ((X - 1 - X // 2) // s) * euler_phi(s) * (X // 2 + 1)
    if restricted < phi_bound:
        raise RuntimeError(f"restricted count {restricted} fell below the "
                           f"phi(s)/(2s) bound {phi_bound} at X={X}")
    return LowerBoundExperiment(X, full, restricted, phi_bound)
