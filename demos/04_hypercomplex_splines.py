"""Splines of hypercomplex order: paravector exponents in a Clifford
algebra carry several independent phase directions at once.

An order Y = x0 + v with scalar part x0 > 1 behaves like a fractional
spline of order x0 whose transform picks up an n-dimensional phase factor
along the unit direction u = v/|v|.  Everything happens inside the
commuting subalgebra spanned by 1 and u, which is a copy of the complex
plane, so the one-direction case reproduces the complex theory exactly.
"""

import math

import numpy as np

from fracspline import (
    DomainError,
    Paravector,
    eval_bupsilon,
    eval_bz,
    fit_decay_slope,
    gamma_hc,
    hat_bupsilon,
    hat_bupsilon_components,
    hc_power,
)

print("Clifford generators square to -1; distinct ones multiply to a")
print("bivector, which is not a paravector:")
e1 = Paravector(0.0, [1.0, 0.0])
e2 = Paravector(0.0, [0.0, 1.0])
print("  e1*e1 =", e1 * e1)
try:
    e1 * e2
except DomainError as exc:
    print("  e1*e2: DomainError:", exc)

print()
ups = Paravector(2.5, [1.0, 1.0])
print(f"Order Y = 2.5 + e1 + e2 (scalar 2.5, direction norm {ups.vector_norm():.4f})")
print("  hypercomplex Gamma(Y):", gamma_hc(ups))
print("  hypercomplex power 2^Y:", hc_power(2.0, ups))

print()
print("Time-domain values are real paravectors, one channel per direction:")
for x in (0.8, 1.7, 3.1):
    val = eval_bupsilon(ups, x)
    print(f"  B_Y({x:3.1f}) = {val.s: .8f} + {val.v[0]: .8f} e1 + {val.v[1]: .8f} e2")

print()
print("One vector direction is the complex case in disguise (e1 <-> i):")
ups1 = Paravector(2.5, [1.0])
for x in (0.8, 3.1):
    pv = eval_bupsilon(ups1, x)
    cz = eval_bz(2.5 + 1.0j, x)
    print(f"  x = {x}: paravector ({pv.s:.10f}, {pv.v[0]:.10f})"
          f"   complex ({cz.real:.10f}, {cz.imag:.10f})")

print()
print("The transform decays like |w|^-x0 and vanishes at nonzero")
print("multiples of 2 pi (the zeros behind polynomial reproduction):")


def modulus(w):
    alpha, beta, _ = hat_bupsilon_components(ups, w)
    return np.sqrt(np.abs(alpha) ** 2 + np.abs(beta) ** 2)


print(f"  fitted log-log slope on [1e2, 1e4]: {fit_decay_slope(modulus, 1e2, 1e4):.4f}")
for k in (1, 2):
    print(f"  |hat B_Y(2 pi * {k})| = {hat_bupsilon(ups, 2 * math.pi * k).norm():.2e}")

print()
print("No exponent semigroup: z^Y1 z^Y2 leaves the paravector space once")
print("the directions differ, while z^(Y1+Y2) stays in it, so the library")
print("never factors powers that way:")
y1 = Paravector(0.0, [1.0, 0.0])
y2 = Paravector(0.0, [0.0, 1.0])
try:
    hc_power(3.0, y1) * hc_power(3.0, y2)
except DomainError as exc:
    print("  z^Y1 z^Y2: DomainError:", exc)
print("  z^(Y1+Y2) =", hc_power(3.0, y1 + y2))
