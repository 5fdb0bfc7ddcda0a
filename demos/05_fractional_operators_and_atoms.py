"""Fractional operators on sampled signals and the atom identities that
make each spline family the fundamental solution of its operator.

Applying the right fractional derivative to a spline family collapses it
to a comb of point masses.  Point masses are not finite objects in the
time domain, so the identities are checked in the frequency domain, where
the comb becomes a bounded exponential sum and the check becomes a
residual bound.
"""

import math

import numpy as np

from fracspline import (
    Paravector,
    SampledSignal,
    classical_atom_check,
    frac_derivative,
    frac_integral,
    mellin_check,
    verify_atom_identity_complex,
    verify_atom_identity_expz,
    verify_atom_identity_hc,
)

print("Power rule: the half derivative of the ramp is (2/sqrt(pi)) sqrt(x).")
h = 1e-3
xs = h * np.arange(2001)
ramp = SampledSignal(0.0, h, xs.copy())
half = frac_derivative(0.5, ramp)
probe = np.searchsorted(half.x, [0.25, 1.0, 1.75])
for i in probe:
    ref = 2 / math.sqrt(math.pi) * math.sqrt(half.x[i])
    print(f"  x = {half.x[i]:4.2f}: got {half.values[i]:.8f}  expected {ref:.8f}")

print()
print("Semigroup: composing orders 0.3 and 0.7 reproduces order 1.")
f = SampledSignal(0.0, h, xs ** 2 * np.exp(-xs))
composed = frac_derivative(0.3, frac_derivative(0.7, f))
direct = frac_derivative(1.0, f)
m = composed.valid & direct.valid
dev = np.max(np.abs(composed.values[m] - direct.values[m]))
print(f"  sup deviation over the valid cells: {dev:.2e}")

print()
print("Half integral twice equals the ordinary antiderivative:")
twice = frac_integral(0.5, frac_integral(0.5, f))
once = frac_integral(1.0, f)
print(f"  sup deviation: {np.max(np.abs(twice.values - once.values)):.2e}")

print()
print("Atom identities, one residual report per family:")
om = np.linspace(-3, 3, 600)
rep_n = classical_atom_check(4, np.linspace(-20, 20, 801))
print(f"  classical n=4:       max residual {rep_n.max_residual:.2e}"
      f"  (tail bound {rep_n.tail_bound:.1e})")
rep_z = verify_atom_identity_complex(2.5 + 1j, 200, om)
print(f"  complex z=2.5+i:     max residual {rep_z.max_residual:.2e}"
      f"  (tail bound {rep_z.tail_bound:.1e})")
rep_e = verify_atom_identity_expz(1.0, 2.5, 100, om)
print(f"  damped a=1, z=2.5:   max residual {rep_e.max_residual:.2e}"
      f"  (tail bound {rep_e.tail_bound:.1e})")
rep_h = verify_atom_identity_hc(Paravector(2.5, [1.0, 1.0]), 200,
                                np.linspace(0.1, 3.0, 600))
print(f"  hypercomplex Cl(2):  max residual {rep_h.max_residual:.2e}"
      f"  (tail bound {rep_h.tail_bound:.1e})")

print()
print("Truncation convergence: the residual is the series tail, so it")
print("shrinks monotonically as more atoms are kept:")
for K in (50, 100, 200, 400):
    r = verify_atom_identity_complex(2.5 + 1j, K, om)
    print(f"  K = {K:3d}: max residual {r.max_residual:.3e}")

print()
print("The Mellin-type identity ties the powers to the Gamma function;")
print("the oscillatory side is a trapezoidal rule on a rotated ray:")
res = mellin_check(Paravector(0.9, [3.0]), 1.0)
print(f"  Y = 0.9 + 3 e1, w = 1: deviation {res.deviation:.2e}")
