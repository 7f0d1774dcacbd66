"""Build the index-2 and index-5 character-group catalogs and certify the
unbounded-denominator property of the roots of their generator functions.

Index 5 has six cyclic extensions: one for each order-5 subgroup of the
torsion of the curve.  The subgroup generated by the rational point [5,5]
gives f_P; the five others come from the point Q with x-coordinate
-1/2 + (11/10)sqrt(5), flattened into a single quartic field.  Exactly one
entry (fQ, the congruence one) is not certified: its root has bounded
denominators by theorem, so its scan ends at the probe.
The x-coordinate of each translate Q + iP is a root of one of psi_5's two
irreducible quartic factors, its minimal polynomial.
"""

from ubd.ellcurve import torsion_factors
from ubd.exactnum import dp_eval
from ubd.ubdetect import analyze_catalog
from ubd.x011 import CATALOG_INDICES, build_catalog, x11_curve

psi5_factors = torsion_factors(5, x11_curve())
fq = next(e for e in build_catalog(5) if e.label == "fQ")
print("flattened field of Q:", fq.generator_function.curve.field)
s = (10 * fq.point.x + 5) / 11
th = (10 * fq.point.y + 5) / 11
print("nested-radical check: S^2 =", s * s, ", TH^2 + 25 + 2S =",
      th * th + 25 + 2 * s)
print()

for index in CATALOG_INDICES:
    entries = build_catalog(index)
    print(f"index-{index} catalog: {[e.label for e in entries]}")
    for e in entries:
        if e.label.startswith("fQ+"):
            g = next(g for g in psi5_factors if not dp_eval(g, e.point.x))
            print(f"  {e.label}: x-coordinate minimal polynomial {list(g)}")
    rep = analyze_catalog(entries, T=120, prime_p=2 if index == 2 else None)
    for v in rep.verdicts:
        w = (f"m={v.witness_index}, -ord={v.witness_valuation}"
             if v.witness_index is not None else "-")
        print(f"  {v.label:8s} {v.status:20s} witness[{w}] "
              f"tau={v.threshold} T={v.truncation_used} mode={v.valuation_mode}")
    print(f"  certified {rep.certified}, bounded {rep.bounded}, "
          f"inconclusive {rep.inconclusive}; "
          f"hypothesis confirmed: {rep.hypothesis_confirmed}")
    print()
