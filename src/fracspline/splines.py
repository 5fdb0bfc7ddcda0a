"""Time-domain evaluation of the spline families.

Every evaluator takes one abscissa or an array of them.  An array is
evaluated in one numpy pass per shift k: Gamma and the atom coefficients
are computed once per call, and the term of shift k is added to all the
points it reaches at once, in compensated (Kahan) arithmetic kept as
arrays.  A single abscissa is the same code on a one-point array, so a
value does not depend on the grid it is evaluated on, bit for bit.

All families here are supported on the right half line and evaluate to an
exact 0 for x < 0.  The alternating truncated-power series are finite for
every x because (x - k)_+ vanishes once k exceeds x, so no truncation
heuristics are involved.

eval_bz holds the one series of the complex-order families.  The damped
family is e^{-ax} times it, and a hypercomplex order x0 + |v| u is
evaluated at the complex order x0 + i|v| and mapped back along u, through
the isomorphism of span{1, u} with C.

Each order rule has one check, a function that returns the checked
value and that every evaluator, transform and verifier calls:
integer_order (n >= 1), real_order (alpha > 1), complex_order (re z > 1),
exponential_weights (one nonzero weight at least), hypercomplex_exponent
(scalar part > 1) and positive_damping (a > 0).  Orders, weights and
dampings must also be finite; NaN fails every rule.

The exponential B-spline of weights (a_1..a_n) has the closed form
beta(x) = sum_{k <= x} p_k rho(x - k) (Unser & Blu, Cardinal exponential
splines: Part I, IEEE TSP 53(4), 2005), where p_k are the coefficients of
prod_i (1 - e^{a_i} q) and rho is the Green's function of prod_i (D - a_i):
rho(t) = [expm(t J)]_{n,1}, J lower bidiagonal with the weights on the
diagonal and ones below it.  That entry is the divided difference of
e^{at} at the weights, so repeated and near-equal weights need no
confluent special case.

Accuracy: every term carries a relative rounding error of about eps, so
the absolute error of a value is about eps * sum_k |t_k| however the
terms are summed; Kahan summation removes only the error of the
additions.  The terms alternate and cancel, so the relative error grows
with x and with re z.  Against a 60-digit oracle it is below 1e-9 at
x = 5.5 for z = 1.5, 2.5 + i and 4 + 0.5i, but at re z >= 3 every digit
is lost near x = 50 (z = 4 + 0.5i: relative error 1.07 at x = 50.5).
The loss is not reported.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.linalg import expm

from .clifford import HypercomplexExponent, Paravector
from .errors import NumericError, OrderError, ParameterError
from .specialfn import binom_complex_sequence, gamma

__all__ = [
    "integer_order",
    "real_order",
    "complex_order",
    "exponential_weights",
    "hypercomplex_exponent",
    "positive_damping",
    "eval_bn",
    "eval_bz",
    "eval_exp_bspline",
    "eval_ez",
    "eval_bupsilon",
    "eval_bupsilon_components",
    "exp_difference_coefficients",
]


def integer_order(n) -> int:
    """The classical order n as an int; it must be a whole number >= 1.
    NaN and +-inf fail the check before int() would raise on them."""
    if n != n or n in (math.inf, -math.inf) or n != int(n) or n < 1:
        raise OrderError(f"integer spline order must satisfy n >= 1, got {n!r}")
    return int(n)


def real_order(alpha) -> float:
    """The fractional order alpha as a float; it must be finite and
    exceed 1."""
    alpha = float(alpha)
    if not 1 < alpha < math.inf:
        raise OrderError(f"real spline order must be finite with alpha > 1, got {alpha:g}")
    return alpha


def complex_order(z) -> complex:
    """The complex order z as a complex; it must be finite with re z > 1."""
    z = complex(z)
    if not (z.real > 1 and cmath.isfinite(z)):
        raise OrderError(f"complex spline order must be finite with re z > 1, got {z!r}")
    return z


def exponential_weights(weights) -> tuple[float, ...]:
    """The weights (a_1..a_n) of an exponential B-spline as a float tuple,
    a single number being one weight; all must be finite and at least one
    nonzero."""
    if isinstance(weights, (int, float)):
        weights = (weights,)
    vals = tuple(float(a) for a in weights)
    if not vals:
        raise ParameterError("exponential B-spline needs at least one weight")
    if not all(math.isfinite(a) for a in vals):
        raise ParameterError(f"exponential weights must be finite, got {vals!r}")
    if all(a == 0.0 for a in vals):
        raise ParameterError("at least one exponential weight must be nonzero")
    return vals


def hypercomplex_exponent(upsilon: Paravector) -> HypercomplexExponent:
    """The decomposition x0 + |v| u of a hypercomplex order, which must
    have a finite scalar part x0 > 1 and a finite |v|."""
    dec = HypercomplexExponent.from_paravector(upsilon)
    if not (dec.x0 > 1 and math.isfinite(dec.vnorm)):
        raise OrderError(
            "hypercomplex spline order must be finite with scalar part > 1,"
            f" got scalar part {dec.x0:g} and |v| = {dec.vnorm:g}"
        )
    return dec


def positive_damping(a) -> float:
    """The damping a of the weight e^{-ax} as a float; it must be finite
    and positive."""
    a = float(a)
    if not 0 < a < math.inf:
        raise ParameterError(f"damping must be finite with a > 0, got {a:g}")
    return a


def _abscissae(x):
    """x as a flat float array, and the shape to give the values back."""
    xs = np.asarray(x, dtype=float)
    return xs.ravel(), xs.shape


def _shaped(values: np.ndarray, shape):
    """Values in the caller's shape; a Python number for a single abscissa.

    Values already in that shape are returned as they are, not as a view:
    numpy computes a * b into the buffer of a temporary b only when b owns
    its data, as b * a, and a complex product can round differently with
    its operands swapped."""
    if not shape:
        return values[0].item()
    return values if values.shape == shape else values.reshape(shape)


def series_terms(x):
    """Number of nonvanishing truncated-power terms at abscissa x (or at
    each abscissa of an array)."""
    xs, shape = _abscissae(x)
    return _shaped(np.where(xs < 0.0, 0.0, np.floor(xs) + 1.0).astype(int), shape)


def _shifted_sum(xs: np.ndarray, coeffs, kernel, closed: bool) -> np.ndarray:
    """sum_k coeffs[k] kernel(x - k) over the shifts k with x - k > 0
    (x - k >= 0 when closed) at every x of xs, by compensated summation.

    The points a shift reaches are a suffix of the sorted abscissae, so each
    shift is one array pass over a slice; every point sees its terms in the
    order k = 0, 1, ... whatever grid it sits in.
    """
    order = np.argsort(xs, kind="stable")
    xsorted = xs[order]
    total = np.zeros(xs.size, dtype=np.result_type(coeffs[0], float))
    comp = np.zeros_like(total)
    side = "left" if closed else "right"
    for k, c in enumerate(coeffs):
        start = int(np.searchsorted(xsorted, k, side))
        if start == xs.size:
            break
        tot, cmp = total[start:], comp[start:]
        y = c * kernel(xsorted[start:] - k) - cmp
        s = tot + y
        cmp[...] = (s - tot) - y
        tot[...] = s
    out = np.empty_like(total)
    out[order] = total
    return out


def eval_bn(n: int, x):
    """Classical cardinal B-spline of order n by its closed-form sum
    (1/Gamma(n)) sum_k (-1)^k C(n,k) (x-k)_+^{n-1}.

    Support is [0, n] with the half-open unit-box convention, so the value
    is exactly 0 outside [0, n) and at x = n.  The powers are libm pow
    (np.float_power), the rounding of Python's float power.

    Raises NumericError for n > 171, where (n-1)! overflows a float.
    """
    n = integer_order(n)
    if n > 171:
        raise NumericError(f"(n-1)! overflows at classical order n = {n}; "
                           "division is meaningless")
    xs, shape = _abscissae(x)
    out = np.zeros(xs.size)
    live = (xs >= 0.0) & (xs < n)
    coeffs = [float((-1) ** k * math.comb(n, k)) for k in range(n)]
    # t_+^0 = 1 at t = 0 too: the left-closed unit box
    total = _shifted_sum(xs[live], coeffs, lambda t: np.float_power(t, n - 1),
                         closed=True)
    out[live] = total / float(math.factorial(n - 1))
    return _shaped(out, shape)


def eval_bz(z, x):
    """B-spline of complex order z (re z > 1) by its alternating series
    (1/Gamma(z)) sum_{k<=x} (-1)^k binom(z,k) (x-k)_+^{z-1}.

    Raises NumericError when Gamma(z) underflows (large |im z|) or
    overflows: dividing by it is then meaningless.  The Lanczos factor
    t**(w + 0.5) of gamma overflows before Gamma itself does, near re z =
    143 for real z: gamma(142) is finite and gamma(143) overflows."""
    z = complex_order(z)
    xs, shape = _abscissae(x)
    out = np.zeros(xs.size, dtype=complex)
    live = xs >= 0.0
    if live.any():
        try:
            g = gamma(z)
        except OverflowError as exc:
            raise NumericError(f"Gamma(z) overflows at z = {z}; division is meaningless") from exc
        if g.real * g.real + g.imag * g.imag < 1e-300:
            raise NumericError(f"Gamma(z) too small at z = {z}; division is meaningless")
        coeffs = binom_complex_sequence(z, int(math.floor(xs[live].max())))
        coeffs[1::2] *= -1.0
        zm1 = z - 1.0
        total = _shifted_sum(xs[live], coeffs, lambda t: np.exp(zm1 * np.log(t)),
                             closed=False)
        out[live] = total / g
    return _shaped(out, shape)


def exp_difference_coefficients(weights) -> np.ndarray:
    """Coefficients p_0..p_n of prod_k (1 - e^{a_k} q) for the weights
    a_k: the atoms of the exponential difference operator, lowest power of
    the shift q first."""
    poly = np.array([1.0])
    for a in weights:
        poly = np.convolve(poly, np.array([1.0, -math.exp(a)]))
    return poly


def _exp_green_sum(weights: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """sum_{k <= t} p_k rho(t - k) at every t of ts, rho(t) = [expm(t J)]_{n,1}
    with one batched matrix exponential per shift (module docstring)."""
    n = weights.size
    bidiagonal = np.diag(weights) + np.eye(n, k=-1)
    return _shifted_sum(ts, exp_difference_coefficients(weights)[:n],
                        lambda t: expm(t[:, None, None] * bidiagonal)[:, n - 1, 0],
                        closed=True)


def eval_exp_bspline(weights, x):
    """Exponential B-spline: the n-fold convolution of e^{a_k x} 1_[0,1),
    by the closed form of the module docstring.

    The mean mu of the weights is factored out, beta_a(x) = e^{mu x}
    beta_s(x) with s = a - mu, and since sum s = 0 the right half is the
    mirror image beta_s(x) = beta_{-s}(n - x).  So each half is summed from
    its own end of the support, which keeps the cancellation of the terms
    near the right end away: against a 50-digit oracle the relative error
    is below 1e-12 for n <= 4, |a_k| <= 1.5, the accuracy of expm.

    The weight tuple is the one appearing inside the convolution product;
    the frequency-domain counterpart in the fourier module owns the sign
    flip between the two conventions.
    """
    w = np.array(exponential_weights(weights))
    n = w.size
    mu = float(np.mean(w))
    xs, shape = _abscissae(x)
    out = np.zeros(xs.size)
    left = (xs >= 0.0) & (xs < n / 2)
    right = (xs >= n / 2) & (xs < n)
    out[left] = _exp_green_sum(w - mu, xs[left])
    out[right] = _exp_green_sum(mu - w, n - xs[right])
    live = left | right
    out[live] *= np.exp(mu * xs[live])
    return _shaped(out, shape)


def eval_ez(a: float, z, x):
    """Exponential B-spline of complex order,
    (1/Gamma(z)) sum_l binom(z,l) (-1)^l e^{-la} e^{-a(x-l)} (x-l)_+^{z-1}.

    The two damping factors of every term multiply to e^{-ax}, so the value
    is e^{-ax} B_z(x).  Well defined only for damping a > 0."""
    a = positive_damping(a)
    xs, shape = _abscissae(x)
    # x by keyword: benchmarks/tracing.py reads a positional x as one abscissa
    value = eval_bz(z, x=xs)
    return _shaped(np.exp(-a * np.maximum(xs, 0.0)) * value, shape)


def eval_bupsilon_components(upsilon: Paravector, x):
    """Component arrays (alpha, beta) of the hypercomplex B-spline
    alpha + beta u at the abscissae x, with the order's decomposition.

    The order Y = x0 + |v| u and every quantity of its series live in the
    commuting subalgebra span{1, u}, a copy of C under u -> i, so
    alpha + i beta = B_{x0 + i|v|}(x).
    """
    dec = hypercomplex_exponent(upsilon)
    value = eval_bz(complex(dec.x0, dec.vnorm), x=np.atleast_1d(x))
    return value.real, value.imag, dec


def eval_bupsilon(upsilon: Paravector, x: float) -> Paravector:
    """Hypercomplex B-spline value at x; real components."""
    alpha, beta, dec = eval_bupsilon_components(upsilon, [float(x)])
    return dec.paravector(float(alpha[0]), float(beta[0]))

