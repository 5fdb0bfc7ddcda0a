"""Gamma function for real, complex and hypercomplex arguments, and
generalized binomial coefficients.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .clifford import HypercomplexExponent, Paravector
from .errors import DomainError, PoleError

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def gamma(z) -> complex:
    """Euler Gamma for complex argument (Lanczos, reflection for re z < 0.5).

    Raises PoleError at the poles (nonpositive integers).
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError(f"gamma has a pole at {z.real:g}")
    if z.real < 0.5:
        # reflection: gamma(z) gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    w = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (w + 0.5) * cmath.exp(-t) * acc


def gamma_hc(upsilon: Paravector) -> Paravector:
    """Gamma of a real paravector x0 + v with x0 > 0.

    The value lies in the commuting subalgebra span{1, u}: it equals
    Re Gamma(x0 + i|v|) + u Im Gamma(x0 + i|v|), matching the two defining
    cosine/sine integrals against t^{x0-1} e^{-t}.
    """
    dec = HypercomplexExponent.from_paravector(upsilon)
    if dec.x0 <= 0:
        raise DomainError(f"hypercomplex gamma needs scalar part > 0, got {dec.x0:g}")
    g = gamma(complex(dec.x0, dec.vnorm))
    return dec.paravector(g.real, g.imag)


def binom_complex_sequence(z, kmax: int) -> np.ndarray:
    """All binom(z, k) for k = 0..kmax in one cumulative pass.

    The multiplicative recurrence terminates exactly at zero when z is a
    nonnegative integer and k > z."""
    z = complex(z)
    out = np.empty(kmax + 1, dtype=complex)
    out[0] = 1.0
    for j in range(1, kmax + 1):
        out[j] = out[j - 1] * (z - j + 1) / j
    return out
