"""Exponential B-splines: convolution of exponential segments, their
transform product formula, and the damped complex-order extension.

Exponential splines model growth and decay directly.  The weight tuple
(a_1..a_n) convolves the segments e^{a_k x} 1_[0,1); the transform is the
product of the corresponding damped ratios, and extending the exponent to
a complex order z > 1 with damping a > 0 gives a one-sided generator that
factorizes as e^{-ax} times the complex-order spline.
"""

import math

import numpy as np

from fracspline import (
    eval_bz,
    eval_exp_bspline,
    eval_ez,
    exp_difference_check,
    hat_en,
    hat_ez,
)

print("Two-weight exponential spline against its closed form on [0, 1]:")
a, b = 1.0, 2.0
for x in (0.2, 0.5, 0.8):
    got = eval_exp_bspline((a, b), x)
    ref = (math.exp(a * x) - math.exp(b * x)) / (a - b)
    print(f"  E(x={x:3.1f}) = {got:.10f}   closed form {ref:.10f}")

print()
print("Transform product formula (each segment contributes one factor):")
for w in (0.0, 1.0, 3.0):
    print(f"  w = {w:3.1f}: hat E = {hat_en((a, b), w):.6f}")

print()
print("Tiny equal weights recover the classical polynomial family:")
for x in (0.5, 1.5):
    print(f"  E_(3 x 1e-6)({x}) = {eval_exp_bspline((1e-6,) * 3, x):.9f}"
          f"   vs B_3({x}) = {eval_bz(3.0, x).real:.9f}")

print()
print("Damped complex order: E^a_z(x) = e^(-ax) B_z(x).")
az, zz = 1.0, 2.5 + 0.5j
for x in (0.7, 2.2):
    lhs = eval_ez(az, zz, x)
    rhs = math.exp(-az * x) * eval_bz(zz, x)
    print(f"  x = {x:3.1f}: {lhs: .8f}  factorized {rhs: .8f}")
print("  transform at w = 0:", hat_ez(az, zz, 0.0))

print()
print("The exponential difference operator turns the spline into a finite")
print("atom sum, the expansion of prod_k (1 - e^(a_k) e^(-iw)):")
rep = exp_difference_check((a, b), np.linspace(-8, 8, 401))
atoms = rep.atoms
for k, c in zip(atoms.shifts, atoms.components[:, 0]):
    print(f"  atom at x = {k}: {c.real: .6f}")
print(f"  identity residual over the grid: {rep.max_residual:.2e}")
