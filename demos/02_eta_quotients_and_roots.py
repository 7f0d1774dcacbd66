"""Eta quotients, their formal roots, and the two classic controls.

zeta = (eta(z)/eta(13z))^2 is a Hauptmodul whose m-th roots pick up
denominators immediately; G5 = (eta(z/11)/eta(z))^12 has an honest
integer-coefficient 12th root but certifiably unbounded 7th roots.
"""

from fractions import Fraction

from ubd.exactnum import val_p
from ubd.qseries import EtaQuotient, eta_quotient_expand, root_coefficients
from ubd.ubdetect import detect

zeta = eta_quotient_expand(EtaQuotient([(1, 2), (13, -2)]), 1, 40)
print("zeta =", " + ".join(f"{c}q^{k}" for k, c in
                           zip(range(-1, 5), zeta.coefficients(-1, 5))), "+ ...")
unit, _, _ = zeta.unit_normalized()
# b_0 = 1, then b_1..b_40 of the formal cube root, one at a time
root = [unit.coeffs[0], *root_coefficients(unit, 3)]
print("cube root unit part:", root[:5])
print("detect(zeta, root 3, prime 3):", detect(zeta, 3, 3, 40))
print()

g5 = eta_quotient_expand(EtaQuotient([(Fraction(1, 11), 12), (1, -12)]), 11, 40)
print("G5 =", " + ".join(f"{c}w^{k}" for k, c in
                         zip(range(-5, 1), g5.coefficients(-5, 1))), "+ ...")
unit, lead, _ = g5.unit_normalized()
root12 = [unit.coeffs[0], *root_coefficients(unit, 12)]
# eta(z/11)/eta(z) has lead w^(-5/12): at width 132 = 12*11 it is a series in
# q^(1/132) whose unit part lives on the exponents divisible by 12
closed = eta_quotient_expand(EtaQuotient([(Fraction(1, 11), 1), (1, -1)]),
                             132, 12 * 40)
closed_unit = closed.coefficients(closed.lead, closed.prec)[::12]
print("unit part of G5^(1/12):", root12[:6])
print("closed-form eta quotient unit:", closed_unit[:6])
print("agree to truncation:", root12 == closed_unit)
print("(the stripped prefactor w^(-5/12) lives at width 132, not 11)")
print()

for p in (7, 11, 13):
    print(f"detect(G5, root {p}, prime {p}):", detect(g5, p, p, 40).status)
print("detect(G5, root 12, prime 11):", detect(g5, 12, 11, 40).status)

neg_ords = [0] + [-val_p(b, 3) if b else 0 for b in root[1:]]
print("\ngrowth of -ord_3(b_m/b_0) for zeta^(1/3):",
      [max(neg_ords[:m + 1]) for m in (1, 5, 10, 20, 40)])
