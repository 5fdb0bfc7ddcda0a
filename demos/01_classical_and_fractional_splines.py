"""Classical cardinal B-splines and their fractional-order relatives.

The classical family B_n lives on [0, n], is built by convolving unit
boxes, and jumps in smoothness one class at a time.  Allowing a real order
alpha > 1 fills the gaps: the same alternating truncated-power series
produces a spline of Hoelder smoothness alpha - 1 for every real alpha.
"""

import numpy as np

from fracspline import eval_bn, eval_bz
from fracspline.splines import series_terms

print("Classical B-splines at their midpoints (peak values)")
for n in range(1, 6):
    mid = n / 2
    print(f"  B_{n}({mid:.1f}) = {eval_bn(n, mid):.12f}")

print()
print("The order-3 spline at x = 1.5 from the closed-form sum:", eval_bn(3, 1.5))
print("The same value from the general complex-order series: ",
      eval_bz(3.0, 1.5).real)
print("(the series terminates for integer orders, so the two agree exactly)")

print()
print("Fractional orders interpolate between the integer families.")
print("Values at x = 1.5 as the order moves from 2 to 3:")
for alpha in (2.0, 2.25, 2.5, 2.75, 3.0):
    val = eval_bz(alpha, 1.5).real
    print(f"  order {alpha:4.2f}: B_alpha(1.5) = {val:.9f}")

print()
print("Unlike B_n, a fractional spline has unbounded support but decays")
print("algebraically, roughly like x^-(alpha+1):")
for x in (5.0, 10.0, 20.0, 40.0):
    print(f"  B_2.5({x:5.1f}) = {eval_bz(2.5, x).real: .3e}")

print()
print("A grid is one array call, which checks the order once; series_terms")
print("counts the truncated powers that reach each abscissa:")
xs = np.linspace(0, 4, 9)
for x, value, terms in zip(xs, eval_bz(2.5, xs).real, series_terms(xs)):
    print(f"  x = {x:4.1f}  value = {value: .9f}  terms = {terms}")
