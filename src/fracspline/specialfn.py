"""Gamma function for real, complex and hypercomplex arguments,
generalized binomial coefficients, and cis, the one complex exponential
kernel of the array code, with the power t^p = e^{p log t} of a positive
t built on it.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .clifford import HypercomplexExponent, Paravector
from .errors import DomainError, NumericError, PoleError

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

    Raises DomainError for a z that is not finite, PoleError at the poles
    (nonpositive integers) and NumericError where Gamma leaves the float
    range, from re z of about 171.6 for real z.  Where the Lanczos factor
    t**(w + 0.5) overflows first (from re z of about 142.6 for real z), it
    is taken as its square root twice, around e^{-t}.
    Left of re z = 0.5 at |im z| > 226, where sin(pi z) overflows, the
    reflection takes its decaying form; there Gamma is below 1e-150 and
    is 0 past |im z| of about 450.  Where the reflection's Gamma(1 - z)
    overflows, the NumericError names the z given, as it does where the
    reflected quotient overflows next to a pole (|z - n| below about
    1/DBL_MAX = 5.6e-309 for the nearest integer n, 0 included).
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"gamma needs a finite argument, got {z}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError(f"gamma has a pole at {z.real:g}")
    if z.real < 0.5:
        # reflection: gamma(z) gamma(1-z) = pi / sin(pi z), with
        # sin(pi z) = (-1)^n sin(pi (z - n)) for the nearest integer n: z - n
        # is exact, so near a pole the small sine keeps its relative precision
        n = round(z.real)
        try:
            sin_pz = cmath.sin(math.pi * (z - n))
        except OverflowError:
            # |im z| > 226: 1/sin(pi z) = 2is e^{is pi z} / (e^{2is pi z} - 1),
            # s = sign(im z), with e^{is pi z} = h^2 decaying.  |gamma(1 - z)|
            # is about 2.5 |h| |im z|^(1/2 - re z), so dividing by it before
            # the second h underflows no factor while h is a normal float.
            # |gamma(z)| is at most 2.6 |h|: 0 is returned once h is subnormal,
            # before gamma(1 - z) is formed (it may overflow there)
            s = math.copysign(1.0, z.imag)
            h = cmath.exp(0.5j * s * math.pi * z)
            if abs(h) < sys.float_info.min:
                return 0j
            return 2j * s * math.pi * h / _reflected_gamma(z) * h / (h ** 4 - 1.0)
        if n % 2:
            sin_pz = -sin_pz
        # the quotient overflows silently where |z - n| < 1/DBL_MAX
        g = math.pi / (sin_pz * _reflected_gamma(z))
        if not cmath.isfinite(g):
            raise NumericError(f"Gamma(z) overflows at z = {z}")
        return g
    w = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    try:
        g = _SQRT_TWO_PI * t ** (w + 0.5) * cmath.exp(-t) * acc
    except OverflowError:
        g = complex(math.inf)
    if not cmath.isfinite(g):
        # t^(w + 1/2) overflowed before Gamma did, or met e^{-t} as inf 0:
        # its square root on each side of e^{-t} keeps every factor in range
        try:
            h = t ** (0.5 * (w + 0.5))
        except OverflowError as exc:
            raise NumericError(f"Gamma(z) overflows at z = {z}") from exc
        g = _SQRT_TWO_PI * h * cmath.exp(-t) * h * acc
        if not cmath.isfinite(g):
            raise NumericError(f"Gamma(z) overflows at z = {z}")
    return g


def _reflected_gamma(z: complex) -> complex:
    """Gamma(1 - z) for the reflection of gamma(z); an overflow names z."""
    try:
        return gamma(1.0 - z)
    except NumericError as exc:
        raise NumericError(f"Gamma(z) at z = {z} takes Gamma(1 - z) in its "
                           f"reflection, and Gamma(1 - z) overflows") from exc


def gamma_hc(upsilon: Paravector) -> Paravector:
    """Gamma of a real paravector x0 + v with x0 > 0.

    The value lies in the commuting subalgebra span{1, u}: it equals
    Re Gamma(x0 + i|v|) + u Im Gamma(x0 + i|v|), matching the two defining
    cosine/sine integrals against t^{x0-1} e^{-t}.
    """
    dec = HypercomplexExponent.from_paravector(upsilon)
    if dec.x0 <= 0:
        raise DomainError(f"hypercomplex gamma needs scalar part > 0, got {dec.x0:g}")
    g = gamma(dec.z)
    return dec.paravector(g.real, g.imag)


# Elements per pass of cis: three float buffers of this length stay in the
# L2 cache, and a call holds no temporary that grows with its input.
_CIS_BLOCK = 8192
# Below this |theta|, 1 + i theta is cos theta + i sin theta correctly rounded.
_CIS_SMALL = 2.0 ** -27


def cis(theta, scale=None, out=None) -> np.ndarray:
    """scale (cos theta + i sin theta) elementwise, for finite theta and a
    scale that is a float or an array of theta's shape (1 when None).  The
    complex exp of w is cis(w.imag, exp(w.real)).

    From t = tan(theta/2), cos theta = (1 - t^2)/(1 + t^2) and
    sin theta = 2t/(1 + t^2): numpy runs tan in a SIMD loop where its sin,
    cos and complex exp are scalar libm loops.  The unit values are formed
    first and multiplied by scale last, so no step leaves the float range
    before the result does.  Where |theta| < 2^-27 the value is
    scale (1 + i theta): theta/2 is not exact for a subnormal theta.
    The stated bound is 4 eps |scale| = 8.9e-16 |scale|.  The error
    measured at most 3.3e-16 |scale| against 50-digit values, over theta
    from 5e-324 to 1e8, the floats next to k pi/2 and scales from e^-700 to
    e^700, and 3.5e-16 |scale| (numpy's complex exp: 3.8e-16) against
    80-bit values at 1M random theta up to 1e6, with or without numpy's
    AVX-512 loops.  tan is odd, so cis(-theta) is conj(cis(theta)) bit for
    bit.

    The work runs in blocks of _CIS_BLOCK elements through three buffers of
    that length, each op on contiguous memory, so a value does not depend
    on its place in the array.  out, a complex array of theta's shape, may
    be the array whose imaginary part is theta and whose real part is scale,
    as _principal_power calls it: each block is read before it is written.
    """
    theta = np.asarray(theta, dtype=float)
    if out is None:
        out = np.empty(theta.shape, dtype=complex)
    if not out.size:
        # numpy reports no shared memory for a view of no elements
        return out
    flat = out.reshape(-1)
    if not np.may_share_memory(flat, out):
        raise ValueError("cis writes into out only where out reshapes to one axis as a view")
    th, re, im = theta.reshape(-1), flat.real, flat.imag
    scaled = scale is not None
    if scaled:
        scale = np.asarray(scale, dtype=float)
        if scale.ndim:
            scale = scale.reshape(-1)
    size = min(_CIS_BLOCK, th.size)
    t_buf, u_buf, d_buf = np.empty(size), np.empty(size), np.empty(size)
    small_buf = np.empty(size, dtype=bool)
    for start in range(0, th.size, _CIS_BLOCK):
        stop = min(start + _CIS_BLOCK, th.size)
        n = stop - start
        t, u, d, small = t_buf[:n], u_buf[:n], d_buf[:n], small_buf[:n]
        np.absolute(th[start:stop], out=t)
        np.less(t, _CIS_SMALL, out=small)
        np.multiply(th[start:stop], 0.5, out=t)
        np.tan(t, out=t)
        np.multiply(t, t, out=u)
        np.add(u, 1.0, out=d)
        np.divide(1.0, d, out=d)
        np.subtract(1.0, u, out=u)
        np.add(t, t, out=t)
        if small.any():
            # t^2 < 2^-56 there makes d = 1 and 1 - t^2 = 1: only 2t needs theta
            np.copyto(t, th[start:stop], where=small)
        if scaled:
            # the imaginary part first: scale may be out.real
            part = scale[start:stop] if scale.ndim else scale
            np.multiply(t, d, out=t)
            np.multiply(t, part, out=im[start:stop])
            np.multiply(u, d, out=u)
            np.multiply(u, part, out=re[start:stop])
        else:
            np.multiply(t, d, out=im[start:stop])
            np.multiply(u, d, out=re[start:stop])
    return out


def _complex_power(t, p: complex, out=None) -> np.ndarray:
    """t^p for t > 0 as e^{re p log t} cis(im p log t), through two float
    arrays of t's length; out is as for cis."""
    log = np.log(t)
    mod = np.multiply(log, p.real)
    np.exp(mod, out=mod)
    return cis(np.multiply(log, p.imag, out=log), mod, out=out)


def binom_complex_sequence(z, kmax: int) -> np.ndarray:
    """All binom(z, k) for k = 0..kmax in one cumulative pass.

    The multiplicative recurrence terminates exactly at zero when z is a
    nonnegative integer and k > z."""
    z = complex(z)
    try:
        out = np.empty(kmax + 1, dtype=complex)
    except (MemoryError, ValueError, OverflowError) as exc:
        raise NumericError(f"binom(z, k) for k up to kmax = {kmax} needs an array "
                           "no memory can hold") from exc
    out[0] = 1.0
    for j in range(1, kmax + 1):
        out[j] = out[j - 1] * (z - j + 1) / j
    return out
