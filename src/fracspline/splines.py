"""Time-domain evaluation of the spline families.

All families here are supported on the right half line and evaluate to an
exact 0 for x < 0.  The alternating truncated-power series are finite for
every x because (x - k)_+ vanishes once k exceeds x, so no truncation
heuristics are involved.

eval_bz holds the one series loop of the complex-order families.  The
damped family is e^{-ax} times it, and a hypercomplex order x0 + |v| u is
evaluated at the complex order x0 + i|v| and mapped back along u, through
the isomorphism of span{1, u} with C.

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
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .clifford import HypercomplexExponent, Paravector
from .errors import NumericError, OrderError, ParameterError
from .specialfn import gamma

__all__ = [
    "SplineOrder",
    "ExponentialWeights",
    "SplineEvalResult",
    "eval_bn",
    "eval_bz",
    "eval_exp_bspline",
    "eval_ez",
    "eval_bupsilon",
    "evaluate_on_grid",
]


@dataclass(frozen=True)
class ExponentialWeights:
    """Weight tuple (a_1..a_n) of an exponential B-spline; at least one
    weight must be nonzero."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(a) for a in self.values)
        if len(vals) < 1:
            raise ParameterError("exponential B-spline needs at least one weight")
        if all(a == 0.0 for a in vals):
            raise ParameterError("at least one exponential weight must be nonzero")
        object.__setattr__(self, "values", vals)

    @classmethod
    def coerce(cls, weights) -> "ExponentialWeights":
        if isinstance(weights, ExponentialWeights):
            return weights
        if isinstance(weights, (int, float)):
            return cls((float(weights),))
        return cls(tuple(weights))

    @property
    def order(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SplineEvalResult:
    """One grid sample: abscissa, family value, and series terms used."""

    x: float
    value: object
    terms_used: int


class SplineOrder:
    """Tagged spline order selecting the family.

    Kinds: "integer" (n >= 1), "real" (alpha > 1), "complex" (re z > 1),
    "hypercomplex" (real paravector with scalar part > 1).  The scalar-part
    constraint is enforced at construction.
    """

    __slots__ = ("kind", "value")

    _KINDS = ("integer", "real", "complex", "hypercomplex")

    def __init__(self, kind: str, value):
        if kind not in self._KINDS:
            raise OrderError(f"unknown spline order kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("SplineOrder is immutable")

    @classmethod
    def integer(cls, n: int) -> "SplineOrder":
        if n != int(n) or n < 1:
            raise OrderError(f"integer spline order must satisfy n >= 1, got {n!r}")
        return cls("integer", int(n))

    @classmethod
    def real(cls, alpha: float) -> "SplineOrder":
        alpha = float(alpha)
        if not alpha > 1:
            raise OrderError(f"real spline order must satisfy alpha > 1, got {alpha:g}")
        return cls("real", alpha)

    @classmethod
    def complex_order(cls, z) -> "SplineOrder":
        z = complex(z)
        if not z.real > 1:
            raise OrderError(f"complex spline order must satisfy re z > 1, got {z!r}")
        return cls("complex", z)

    @classmethod
    def hypercomplex(cls, upsilon: Paravector) -> "SplineOrder":
        dec = HypercomplexExponent.from_paravector(upsilon)
        if not dec.x0 > 1:
            raise OrderError(
                f"hypercomplex spline order must have scalar part > 1, got {dec.x0:g}"
            )
        return cls("hypercomplex", upsilon)

    def evaluate(self, x: float) -> SplineEvalResult:
        if self.kind == "integer":
            val = eval_bn(self.value, x)
        elif self.kind == "real":
            val = eval_bz(self.value, x).real
        elif self.kind == "complex":
            val = eval_bz(self.value, x)
        else:
            val = eval_bupsilon(self.value, x)
        return SplineEvalResult(float(x), val, series_terms(x))

    def label(self) -> str:
        if self.kind == "hypercomplex":
            p = self.value
            comps = ",".join(f"{c:g}" for c in [p.s, *p.v.tolist()])
            return f"upsilon=({comps})"
        return f"{self.kind[0]}={self.value}"

    def __repr__(self):
        return f"SplineOrder({self.kind!r}, {self.value!r})"


def series_terms(x: float) -> int:
    """Number of nonvanishing truncated-power terms at abscissa x."""
    return 0 if x < 0 else int(math.floor(x)) + 1


def _kahan(total, comp, term):
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def eval_bn(n: int, x: float) -> float:
    """Classical cardinal B-spline of order n by its closed-form sum
    (1/Gamma(n)) sum_k (-1)^k C(n,k) (x-k)_+^{n-1}.

    Support is [0, n] with the half-open unit-box convention, so the value
    is exactly 0 outside [0, n) and at x = n.
    """
    if n != int(n) or n < 1:
        raise OrderError(f"classical order must be an integer >= 1, got {n!r}")
    n = int(n)
    x = float(x)
    if x < 0.0 or x >= n:
        return 0.0
    total = 0.0
    comp = 0.0
    for k in range(min(n, int(math.floor(x))) + 1):
        t = x - k
        if t < 0:
            break
        if n == 1:
            power = 1.0  # t_+^0 with the left-closed convention 0^0 = 1
        elif t == 0.0:
            power = 0.0
        else:
            power = t ** (n - 1)
        term = power if k % 2 == 0 else -power
        total, comp = _kahan(total, comp, term * math.comb(n, k))
    return total / math.factorial(n - 1)


def eval_bz(z, x: float) -> complex:
    """B-spline of complex order z (re z > 1) by its alternating series
    (1/Gamma(z)) sum_{k<=x} (-1)^k binom(z,k) (x-k)^{z-1}."""
    z = complex(z)
    if not z.real > 1:
        raise OrderError(f"complex spline order must satisfy re z > 1, got {z!r}")
    x = float(x)
    if x < 0.0:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    binom = 1.0 + 0.0j
    zm1 = z - 1.0
    for k in range(int(math.floor(x)) + 1):
        if k > 0:
            binom *= (z - k + 1) / k
        t = x - k
        if t > 0.0:
            term = binom * cmath.exp(zm1 * math.log(t))
            if k % 2:
                term = -term
            total, comp = _kahan(total, comp, term)
    return total / gamma(z)


def eval_exp_bspline(weights, x: float, tol: float = 1e-10) -> float:
    """Exponential B-spline: the n-fold convolution of e^{a_k x} 1_[0,1),
    evaluated by recursive adaptive quadrature to accuracy ~tol.

    The weight tuple is the one appearing inside the convolution product;
    the frequency-domain counterpart in the fourier module owns the sign
    flip between the two conventions.
    """
    w = ExponentialWeights.coerce(weights).values
    n = len(w)
    x = float(x)
    if x < 0.0 or x >= n:
        return 0.0

    def level(k: int, t: float) -> float:
        if t < 0.0 or t >= k:
            return 0.0
        if k == 1:
            return math.exp(w[0] * t)
        lo = max(0.0, t - (k - 1))
        hi = min(1.0, t)
        if hi <= lo:
            return 0.0
        # kinks of the level below sit where t - s is an integer
        kinks = sorted(t - j for j in range(k) if lo < t - j < hi)
        val, _ = quad(
            lambda s: math.exp(w[k - 1] * s) * level(k - 1, t - s),
            lo,
            hi,
            points=kinks or None,
            epsabs=tol * 1e-2,
            epsrel=tol * 1e-2,
            limit=200,
        )
        return val

    return level(n, x)


def eval_ez(a: float, z, x: float) -> complex:
    """Exponential B-spline of complex order,
    (1/Gamma(z)) sum_l binom(z,l) (-1)^l e^{-la} e^{-a(x-l)} (x-l)_+^{z-1}.

    The two damping factors of every term multiply to e^{-ax}, so the value
    is e^{-ax} B_z(x).  Well defined only for damping a > 0."""
    a = float(a)
    if a <= 0:
        raise ParameterError(f"complex exponential spline needs a > 0, got {a:g}")
    x = float(x)
    value = eval_bz(z, x)
    return value if x < 0.0 else math.exp(-a * x) * value


def eval_bupsilon(upsilon: Paravector, x: float) -> Paravector:
    """Hypercomplex B-spline value at x.

    The order Y = x0 + |v| u and every quantity of its series live in the
    commuting subalgebra span{1, u}, a copy of C under u -> i, so the value
    is B_{x0 + i|v|}(x) mapped back along u.  The result has real components.
    """
    dec = HypercomplexExponent.from_paravector(upsilon)
    if not dec.x0 > 1:
        raise OrderError(
            f"hypercomplex spline order must have scalar part > 1, got {dec.x0:g}"
        )
    x = float(x)
    if x < 0.0:
        return Paravector(0.0, np.zeros(dec.n))
    z = complex(dec.x0, dec.vnorm)
    g = gamma(z)
    if g.real * g.real + g.imag * g.imag < 1e-300:
        raise NumericError("Gamma(Y) too small; division is meaningless")
    value = eval_bz(z, x)
    if dec.u is None:
        return Paravector(value.real, np.zeros(dec.n))
    return Paravector(value.real, value.imag * dec.u)


def evaluate_on_grid(order: SplineOrder, xs) -> list[SplineEvalResult]:
    """Evaluate a spline family on a sequence of abscissae."""
    if not isinstance(order, SplineOrder):
        raise OrderError(f"expected SplineOrder, got {type(order)!r}")
    return [order.evaluate(float(x)) for x in xs]
