"""Expand the coordinate functions x(w), y(w) on the genus-1 modular curve
y^2 + y = x^3 - x^2 - 10x - 20 and rebuild the divisor function f_P.

x and y are pinned down jointly by the curve equation and by the derivation
relation D(x) = kappa*(2y+1)*eta(z)^2*eta(z/11)^2 with D = w*d/dw, where
kappa is the constant -1 that matches the forced leading terms
x = w^-2 + ..., y = w^-3 + ... .
"""

from fractions import Fraction

from ubd.ellcurve import function_with_divisor, verify_divisor
from ubd.x011 import KAPPA, expand_on_curve, expand_xy, x11_curve

T = 60
x, y = expand_xy(T)

print("x(w) =", " + ".join(f"{c}w^{k}" for k, c in
                           zip(range(-2, 7), x.coefficients(-2, 7))), "+ ...")
print("y(w) =", " + ".join(f"{c}w^{k}" for k, c in
                           zip(range(-3, 6), y.coefficients(-3, 6))), "+ ...")
print("kappa =", KAPPA)

ints = all(Fraction(c).denominator == 1
           for c in x.coefficients(x.lead, x.prec) + y.coefficients(y.lead, y.prec))
print(f"all coefficients integral to truncation {T}: {ints}")

# the curve relation holds identically to the precision of the products
y2, x2 = y * y, x * x
x3 = x2 * x
prec = min(s.prec for s in (y2, y, x3, x2, x))
print("y^2 + y - (x^3 - x^2 - 10x) == -20:",
      all(y2.coefficient(k) + y.coefficient(k) - x3.coefficient(k)
          + x2.coefficient(k) + 10 * x.coefficient(k) == (-20 if k == 0 else 0)
          for k in range(-6, prec)))

# f_P: the function with divisor 5(P) - 5(O) at the rational 5-torsion point
curve = x11_curve()
P = curve.point(5, 5)
print("\nP = [5,5];  3P =", 3 * P, ";  5P =", 5 * P)

f = function_with_divisor(5, P)
print("f_P reconstructed by line accumulation:", f)
print("divisor check:", verify_divisor(f, 5, P).detail)

s = expand_on_curve(f, 12)
print("f_P(w) =", " + ".join(f"{c}w^{k}" for k, c in
                             zip(range(-5, 3), s.coefficients(-5, 3))), "+ ...")
