"""Frequency-domain evaluators for all spline families plus a certified
inverse-transform quadrature.

Transform convention: F f(w) = integral f(x) e^{-iwx} dx, inverse with
e^{+iwx} and the 1/(2 pi) factor.  All powers use the principal branch;
the base ratio Omega(w) = (1 - e^{-iw}) / (iw) never touches the negative
real axis, so its principal log is safe away from the zeros at nonzero
multiples of 2 pi.  omega_fn evaluates it in the half-angle form
e^{-iw/2} sin(w/2) / (w/2) (Unser and Blu, Fractional splines and
wavelets, SIAM Rev. 42, 2000), which keeps its relative precision, to a
few ulps, at every w, the floats next to 2 pi m included.

Operand order: a SIMD complex product can round differently with its
operands swapped, and numpy swaps the operands of a * b itself when b is
a temporary of 256 KiB or more.  So each complex product here is an
np.multiply with its operands in one fixed order, whatever the grid size:
a value must not depend on its grid.  Every complex exp, sin and cos is
specialfn.cis, which numpy runs as a SIMD tan where its complex exp, sin
and cos are scalar libm loops: e^{iwx} is cis(wx), and a principal power
b^z is e^{re(z log b)} cis(im(z log b)).  Every modulus is numpy's
complex abs, not hypot.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .clifford import Paravector, subalgebra_from_idempotent
from .errors import NumericError, ParameterError
from .specialfn import _CIS_BLOCK, cis
from .splines import (
    _abscissae,
    _in_float_range,
    _shaped,
    complex_order,
    exponential_weights,
    hypercomplex_exponent,
    positive_damping,
)

__all__ = [
    "FrequencyGrid",
    "InverseTransformResult",
    "omega_fn",
    "omega_a_fn",
    "hat_bz",
    "hat_en",
    "hat_ez",
    "hat_bupsilon",
    "hat_bupsilon_components",
    "inverse_quadrature",
    "fit_decay_slope",
]

def omega_fn(omega):
    """The base ratio (1 - e^{-iw}) / (iw) in its half-angle form
    e^{-ih} sin(h)/h with h = w/2, whose one special point is the limit 1
    at w = 0.

    cos h and sin h are one cis(h), whose sin keeps its relative precision
    next to the zeros of sin h, and no difference is formed: against
    50-digit values the relative error was at most 5.7e-16 (3.1e-16 with
    numpy's sin and cos) for |w| <= 60, within 1e-9 and 1e-4 of every
    2 pi m with |m| <= 20, for |w| down to 1e-310 and up to 1e8.  Negating
    w conjugates the value exactly."""
    w, shape = _abscissae(omega)
    h = 0.5 * w
    out = cis(h)
    sinc = np.divide(out.imag, h, out=np.ones_like(h), where=h != 0)
    out.real *= sinc
    out.imag *= sinc
    np.negative(out.imag, out=out.imag)
    return _shaped(out, shape)


def omega_a_fn(a: float, omega):
    """Damped base ratio (1 - e^{-a} e^{-iw}) / (iw + a) for a finite a;
    for a = 0 this is omega_fn, which owns the removable singularity.

    The numerator is taken as (-expm1(-a) + 2 e^{-a} sin^2(w/2))
    + i e^{-a} sin w, which forms no difference: near w = 2 pi m at small
    a, 1 - e^{-a} cos w would cancel to a relative error of 1e-9.  Both
    sines come from one cis(w/2) (_half_angle_sines).  Against 50-digit
    values the relative error was at most 6.5e-16 (4.5e-16 with numpy's
    sin) for a in {1e-8, 1e-5, 1e-2, 0.7, 20} and subnormal a, over the
    frequencies omega_fn was measured on."""
    a = float(a)
    if not math.isfinite(a):
        raise ParameterError(f"damping must be finite, got {a:g}")
    if a == 0.0:
        return omega_fn(omega)
    w, shape = _abscissae(omega)
    return _shaped(_damped_ratio(a, w, *_half_angle_sines(w)), shape)


def _half_angle_sines(w):
    """sin^2(w/2) and sin w = 2 sin(w/2) cos(w/2) from one cis(w/2).  Where
    w/2 is not exact (|w| < 2^-1021, subnormal halves) sin w is w, which is
    its correctly rounded value there."""
    half = cis(0.5 * w)
    sin_w = np.multiply(half.imag, half.real)
    sin_w *= 2.0
    np.copyto(sin_w, w, where=np.abs(w) < 2.0 * sys.float_info.min)
    return np.square(half.imag), sin_w


def _damped_ratio(a: float, w, sin2_half, sin_w):
    """omega_a_fn(a, w) for a finite a != 0, from sin^2(w/2) and sin w
    (_half_angle_sines), which _exp_ratios takes once for all weights.
    The parts are written in place and iw is formed per call, so a call
    holds no more memory than omega_a_fn did on its own: each further live
    temporary costs more in page faults than the shared sines save."""
    try:
        damping = math.exp(-a)
    except OverflowError as exc:
        raise NumericError(f"e^{-a:g} overflows a float") from exc
    num = np.empty(w.shape, dtype=complex)
    np.multiply(2.0 * damping, sin2_half, out=num.real)
    num.real -= math.expm1(-a)
    np.multiply(damping, sin_w, out=num.imag)
    den = 1j * w + a
    if abs(a) < sys.float_info.min:
        # numpy's complex division forms 1/den, which overflows where |den|
        # is below 1/DBL_MAX = 5.6e-309: a subnormal den and its num are
        # scaled by 2^600 first, which is exact
        tiny = np.abs(den) < sys.float_info.min
        num[tiny] *= 2.0 ** 600
        den[tiny] *= 2.0 ** 600
    num /= den
    return num


def _principal_log(base):
    """The principal log of base elementwise, log|b| + i arg b with arg in
    (-pi, pi], as log(abs(b)) + i atan2(im, re): a real log, numpy's SIMD
    complex abs and an atan2 cost about a fifth of numpy's complex log.
    Zeros have no log; their entries read 0 and the returned mask marks
    them."""
    b = np.atleast_1d(np.asarray(base, dtype=complex))
    zero = b == 0
    mod = np.abs(b)
    mod[zero] = 1.0
    log = np.empty(b.shape, dtype=complex)
    np.log(mod, out=log.real)
    np.arctan2(b.imag, b.real, out=log.imag)
    log.imag[zero] = 0.0
    log += 0.0  # an argument of -0.0 reads +0.0, as log + 1j * atan2 gave it
    return log, zero


def _log_iomega(omega):
    """_principal_log(1j * w) bit for bit, in closed form: log|w|
    + i copysign(pi/2, w), and 0 at w = 0 or -0.0, which the mask marks."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    zero = w == 0
    mod = np.abs(w)
    mod[zero] = 1.0
    log = np.empty(w.shape, dtype=complex)
    log.real = np.log(mod, out=mod)
    log.imag = np.copysign(0.5 * math.pi, w)
    log.imag[zero] = 0.0
    return log, zero


def _principal_power(log, zero, exponent):
    """base^exponent elementwise as exp(exponent log) for the principal log
    of base and the mask of its zeros, as _principal_log and _log_iomega
    give them, with 0 -> 0, which holds for an exponent with positive real
    part (mellin_check's -z meets no zero).  An array of exponents gives
    one row per exponent, each one np.multiply(exponent, log): numpy's
    outer product rounds a lone exponent times a lone frequency differently
    from the same product in a longer row, so a verifier's value at a lone
    frequency (a grid or a last chunk of one) would depend on its grid.
    The exp is e^{re} cis(im), taken in place; where the power leaves the
    float range it reads inf or NaN without a numpy warning, and the caller
    checks."""
    exponent = np.asarray(exponent, dtype=complex)
    out = np.empty(exponent.shape + log.shape, dtype=complex)
    for row, e in zip(out.reshape(exponent.size, log.size), exponent.reshape(-1)):
        np.multiply(e, log, out=row)
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(out.real, out=out.real)
        cis(out.imag, out.real, out=out)
    out[..., zero] = 0.0
    return out


def hat_bz(z, omega):
    """Fourier transform of the order-z spline: omega_fn(w)^z.  Where its
    modulus leaves the float range, a NumericError names z."""
    z = complex_order(z)
    w, shape = _abscissae(omega)
    return _shaped(_in_float_range(_principal_power(*_principal_log(omega_fn(w)), z),
                                   f"the transform of order {z}"), shape)


def hat_en(weights, omega):
    """Fourier transform of the exponential B-spline built from the
    convolution tuple (a_1..a_n): the product of the damped ratios at the
    negated weights.

    The sign flip lives here: eval_exp_bspline convolves e^{+a_k x} 1_[0,1)
    factors, and each such factor transforms to omega_a_fn(-a_k, w).  Where
    the product leaves the float range, a NumericError names the weights.
    """
    wts = exponential_weights(weights)
    w, shape = _abscissae(omega)
    out = np.ones(w.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for ratio in _exp_ratios(wts, w):
            # not in place, which rounds a single element differently
            out = np.multiply(out, ratio)
    return _shaped(_in_float_range(out, f"the transform of weights a = {wts}"), shape)


def _exp_ratios(weights, w):
    """The factors omega_a_fn(-a, w) of hat_en, one per weight in turn, for
    any float weights, all zero included: Omega(w) is taken once for all
    zero weights and sin^2(w/2), sin w once for all nonzero ones."""
    omega = omega_fn(w) if 0.0 in weights else None
    sines = _half_angle_sines(w) if any(weights) else None
    for a in weights:
        yield omega if a == 0.0 else _damped_ratio(-a, w, *sines)


def hat_ez(a: float, z, omega):
    """Fourier transform of the complex-order exponential spline:
    omega_a_fn(a, w)^z with a > 0 and re z > 1.  Where its modulus leaves
    the float range, a NumericError names z."""
    a = positive_damping(a)
    z = complex_order(z)
    w, shape = _abscissae(omega)
    return _shaped(_in_float_range(_principal_power(*_principal_log(omega_a_fn(a, w)), z),
                                   f"the transform of order {z}"), shape)


def hat_bupsilon_components(upsilon: Paravector, omega):
    """Component arrays (alpha, beta) of the hypercomplex transform
    Omega(w)^Y = Omega^{x0} (cos(|v| log Omega) + u sin(|v| log Omega)),
    meaning alpha + beta u.  Zeros of Omega map to (0, 0).

    The idempotent split takes Omega^Y to the pair of complex powers
    Omega^z and Omega^{conj z}, z = x0 + i|v|; where they leave the float
    range, a NumericError names the order."""
    dec = hypercomplex_exponent(upsilon)
    log, zero = _principal_log(omega_fn(np.atleast_1d(np.asarray(omega, dtype=float))))
    pair = _in_float_range(_principal_power(log, zero, [dec.z, dec.z.conjugate()]),
                           f"the transform of order {upsilon}")
    alpha, beta = subalgebra_from_idempotent(*pair)
    return alpha, beta, dec


def hat_bupsilon(upsilon: Paravector, omega: float) -> Paravector:
    """Hypercomplex spline transform at a single frequency."""
    alpha, beta, dec = hat_bupsilon_components(upsilon, [float(omega)])
    return dec.paravector(complex(alpha[0]), complex(beta[0]))


@dataclass(frozen=True)
class FrequencyGrid:
    """Symmetric uniform frequency grid for quadrature and sweeps.

    The point count is normalized up to the next 4m + 1 so that both the
    Simpson rule and its half-resolution comparison grid are valid.
    """

    omega_max: float
    count: int

    def __post_init__(self):
        omega_max = float(self.omega_max)
        if not 0 < omega_max < math.inf:
            raise ParameterError(f"omega_max must be positive and finite, got {self.omega_max!r}")
        try:
            c = max(5, int(self.count))
        except (ValueError, OverflowError) as exc:
            raise ParameterError(f"count must be a finite number, got {self.count!r}") from exc
        if (c - 1) % 4:
            c += 4 - (c - 1) % 4
        object.__setattr__(self, "count", c)
        object.__setattr__(self, "omega_max", omega_max)

    @property
    def step(self) -> float:
        return 2.0 * self.omega_max / (self.count - 1)

    @property
    def omegas(self) -> np.ndarray:
        return np.linspace(-self.omega_max, self.omega_max, self.count)


@dataclass(frozen=True)
class InverseTransformResult:
    value: complex
    error: float
    tail_bound: float
    quadrature_estimate: float


def _simpson(y: np.ndarray, dx: float):
    """Composite Simpson rule over an odd number of samples y spaced dx
    apart: the weighted panel sums first, then one product with dx / 3."""
    return np.sum(y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2]) * (dx / 3.0)


def inverse_quadrature(transform, x: float, grid: FrequencyGrid,
                       decay: float) -> InverseTransformResult:
    """Inverse Fourier transform (1/2pi) int value(w) e^{iwx} dw by composite
    Simpson on the grid, with a certified error.

    decay is the known algebraic decay exponent of |value| (the scalar part
    of the order); it must exceed 1.  The tail above omega_max is bounded
    by decade-averaged envelope constants: the envelope |value(w)| |w|^decay
    is 2pi-periodic for every family here, so its average over the outer
    decade bounds the average over the tail up to edge effects, which the
    25 percent safety margin absorbs.  The in-range quadrature error is
    estimated by Richardson comparison against the half-resolution rule.
    A transform value that is not finite is a NumericError: it would make
    the value and its certified error NaN.

    The grid is walked in blocks of _CIS_BLOCK = 8192 steps: the transform,
    which must be elementwise, is called once per block on at most 8193
    frequencies, bit for bit those of grid.omegas, and consecutive blocks
    share their end frequency.  Each block starts at a multiple of 4, so
    both Simpson rules split at block ends, and every sum runs block by
    block: a call holds about 1 MiB whatever the grid size.
    """
    if not math.isfinite(x):
        raise ParameterError(f"x must be finite, got {x!r}")
    if not 1 < decay < math.inf:
        raise ParameterError(f"tail certification needs a finite decay > 1, got {decay!r}")
    step, last = grid.step, grid.count - 1
    s_full = s_half = 0j
    env_pos = env_neg = 0.0
    n_pos = n_neg = 0
    peak = 0.0
    for start in range(0, last, _CIS_BLOCK):
        stop = min(start + _CIS_BLOCK, last)
        # linspace's points: start + i step, with the last one omega_max
        om = -grid.omega_max + step * np.arange(start, stop + 1)
        if stop == last:
            om[-1] = grid.omega_max
        vals = np.asarray(transform(om), dtype=complex)
        if vals.shape != om.shape:
            raise ParameterError("transform callable must evaluate elementwise")
        finite = np.isfinite(vals)
        if not finite.all():
            raise NumericError(f"the transform is not finite at w = {om[np.argmin(finite)]:g}")
        # e^{iwx} * vals, with e^{iwx} the first operand at every grid size
        integrand = cis(om * x)
        np.multiply(integrand, vals, out=integrand)
        s_full += _simpson(integrand, step)
        s_half += _simpson(integrand[::2], 2.0 * step)
        peak = max(peak, float(np.max(np.abs(integrand))))

        # the end frequency a block shares counts once, in the next block
        own = om.size if stop == last else om.size - 1
        om, vals = om[:own], vals[:own]
        env = np.abs(vals) * np.abs(om) ** decay
        outer = np.abs(om) >= grid.omega_max / 10.0
        pos, neg = outer & (om > 0), outer & (om < 0)
        env_pos += float(np.sum(env[pos]))
        env_neg += float(np.sum(env[neg]))
        n_pos += int(np.count_nonzero(pos))
        n_neg += int(np.count_nonzero(neg))

    quad_est = abs(s_full - s_half) / 15.0 / (2.0 * math.pi)
    c_pos, c_neg = env_pos / n_pos, env_neg / n_neg
    tail = 1.25 * (c_pos + c_neg) * grid.omega_max ** (1.0 - decay) / (
        (decay - 1.0) * 2.0 * math.pi
    )

    err = tail + quad_est + 1e-16 * peak * grid.count ** 0.5
    return InverseTransformResult(complex(s_full) / (2.0 * math.pi), float(err),
                                  float(tail), float(quad_est))


def fit_decay_slope(modulus_fn, omega_lo: float, omega_hi: float):
    """Least-squares slope of log |value| against log w.

    Samples at w = 2 pi (k + 1/2), the peaks of |1 - e^{-iw}| in
    [omega_lo, omega_hi], for up to 200 geometrically spaced k from the
    first peak's, ceil(omega_lo / 2 pi - 1/2), so the periodic envelope
    does not alias the fit near its zeros.  Fewer than two such peaks is a
    ParameterError, and a sampled modulus that is not positive and finite
    a NumericError.
    """
    if not 0 < omega_lo < omega_hi < math.inf:
        raise ParameterError("need 0 < omega_lo < omega_hi < inf")
    k_lo = math.ceil(omega_lo / (2 * math.pi) - 0.5)
    k_hi = int(math.ceil(omega_hi / (2 * math.pi)))
    # geomspace cannot start at k = 0, the first peak when omega_lo <= pi
    ks = np.unique(np.append(np.geomspace(max(k_lo, 1), k_hi, 200).astype(int), k_lo))
    om = 2.0 * math.pi * (ks + 0.5)
    om = om[(om >= omega_lo) & (om <= omega_hi)]
    if om.size < 2:
        raise ParameterError(f"fitting a slope needs two peaks 2 pi (k + 1/2) in "
                             f"[{omega_lo:g}, {omega_hi:g}]; found {om.size}")
    mods = np.asarray(modulus_fn(om), dtype=float)
    if not np.all((mods > 0.0) & (mods < math.inf)):
        raise NumericError("fitting a slope needs a positive, finite modulus at every peak")
    slope, _ = np.polyfit(np.log(om), np.log(mods), 1)
    return float(slope)
