"""Count the type II(A) character groups of a genus-1 group by counting
rank-2 sublattices <l*a + n*b, m*b> with index l*m < X.

The count S(X)/X^2 converges to pi^2/12 = zeta(2)/2, and restricting to
sublattices joining fully with a fixed one still leaves a positive fraction:
the quadratic lower bound behind the density of certified-unbounded groups.
"""

import math

from ubd.census import LatticeTriple, s_count, ubd_lower_bound_experiment

print("triples with index < 3:", s_count(3))
print()
print("     X      S(X)    S(X)/X^2")
for X in (10, 100, 500, 1000, 2000, 4000):
    r = s_count(X)
    print(f"{X:6d} {r.count:9d}    {float(r.ratio):.6f}")
print(f"            pi^2/12 = {math.pi**2/12:.6f}")
print()

b = LatticeTriple(2, 1, 2)
print(f"joins with b = (s,u,v) = ({b.l},{b.n},{b.m}):")
print("     X   full count   ratio      restricted  phi-bound")
for X in (50, 100, 200, 400):
    e = ubd_lower_bound_experiment(b, X)
    print(f"{X:6d} {e.full_count:12d}   {float(e.ratio):.6f} "
          f"{e.restricted_count:11d} {e.phi_bound:10d}")
print("\nthe full-join ratio stays a positive fraction of pi^2/12,")
print("and the restricted family alone already grows like c*X^2")
