"""Gamma function for real, complex and hypercomplex arguments, and
generalized binomial coefficients and series.
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


def binom_hc(upsilon: Paravector, k: int) -> Paravector:
    """Hypercomplex binomial coefficient binom(Y, k).

    Y = x0 + |v| u lies in the commuting subalgebra span{1, u}, a copy of C
    under u -> i, so the value is binom(x0 + i|v|, k) mapped back along u.
    """
    if k < 0 or k != int(k):
        raise DomainError(f"binomial index must be a nonnegative integer, got {k!r}")
    alpha, beta, dec = binom_hc_pair_sequence(upsilon, int(k))
    return dec.paravector(alpha[-1], beta[-1])


def _binom_hc_order(upsilon: Paravector) -> HypercomplexExponent:
    dec = HypercomplexExponent.from_paravector(upsilon)
    if dec.x0 <= 0:
        raise DomainError(
            f"hypercomplex binomial needs scalar part > 0, got {dec.x0:g}"
        )
    return dec


def binom_hc_pair_sequence(upsilon: Paravector, kmax: int):
    """Component pairs (alpha_k, beta_k) of binom(Y, k) for k = 0..kmax.

    alpha + beta u are the coordinates in span{1, u}: the real and
    imaginary parts of binom(x0 + i|v|, k).  For a zero vector part all
    beta vanish.  Returns (alpha, beta, decomposition).
    """
    dec = _binom_hc_order(upsilon)
    b = binom_complex_sequence(complex(dec.x0, dec.vnorm), kmax)
    return b.real, b.imag, dec


def binomial_series(upsilon: Paravector, z, N: int):
    """Partial sum of (1 + z)^Y = sum_k binom(Y, k) z^k up to k = N.

    Requires |z| <= 1 and scalar part x0 > 0.  Returns the partial sum as a
    complexified paravector together with an estimate of the absolute tail
    sum_{k>N} |binom(Y, k) z^k|.
    """
    z = complex(z)
    if abs(z) > 1.0 + 1e-12:
        raise DomainError(f"binomial series needs |z| <= 1, got |z| = {abs(z):g}")
    alpha, beta, dec = binom_hc_pair_sequence(upsilon, N + 1)
    powers = z ** np.arange(N + 1)
    a_sum = np.sum(alpha[: N + 1] * powers)
    b_sum = np.sum(beta[: N + 1] * powers)

    next_mod = math.hypot(alpha[N + 1], beta[N + 1]) * abs(z) ** (N + 1)
    if next_mod == 0.0:
        remainder = 0.0
    else:
        # tail of a ~ k^{-x0-1} decay, with the geometric bound when |z| < 1
        poly_tail = 1.0 + (N + 1) / dec.x0
        geo_tail = 1.0 / (1.0 - abs(z)) if abs(z) < 1.0 else math.inf
        remainder = 1.25 * next_mod * min(poly_tail, geo_tail)

    return dec.paravector(a_sum, b_sum), float(remainder)
