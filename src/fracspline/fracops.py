"""Fractional integral/derivative operators on sampled half-line signals
and frequency-domain verification of the atom identities that define each
spline family.

Operators act on uniformly sampled signals that vanish left of their start;
this is the finitely checkable surrogate for the function class the
operators live on analytically (smooth, supported on the right half line,
all derivatives vanishing at 0).  Distributional identities are verified
only in the frequency domain, where a Dirac comb becomes a bounded
exponential sum and the identity becomes a machine-checkable inequality:

    classical            (iw)^n Omega(w)^n      = sum (-1)^k C(n,k) e^{-ikw}
    complex order        (iw)^z Omega(w)^z      = sum (-1)^k binom(z,k) e^{-ikw}
    damped complex order (a+iw)^z Omega_a(w)^z  = sum binom(z,l)(-1)^l e^{-la} e^{-ilw}
    hypercomplex         (iw)^Y Omega(w)^Y      = sum (-1)^k binom(Y,k) e^{-ikw}

Each verifier applies a branch-admissibility filter: the split of the
left-hand side into two principal powers is only valid where
arg(base1) + arg(base2) stays in (-pi, pi], and points where a factor
vanishes (so its log does not exist) are excluded and reported rather
than silently patched.

The three complex-order identities are one check: the damped one weights
atom k by e^{-ak}, and the hypercomplex one is the complex one at the
conjugate pair x0 +- i|v|, the idempotent split of span{1, u} (x) C.

Every identity is L^(w) B^(w) = sum_k c_k e^{-ikw}, and one report builder,
_residual_report, checks it for all five verifiers: each verifier gives
only its left-hand side, its atom coefficients and its tail rule.  Every
right-hand side is one AtomSum.evaluate: Horner's rule in q = e^{-iw}, so
a check over N frequencies and K atoms works in O(columns N) memory, and
the sum is rounded by at most gamma_{2K} sum_k |c_k| (Higham, Accuracy and
Stability of Numerical Algorithms, sec. 5.1).

The Mellin-type identity int_0^inf t^{Y-1} e^{-iwt} dt = Gamma(Y)/(iw)^Y
is checked in the same split, one complex integral per column x0 +- i|v|,
by the trapezoidal rule on the rotated ray t = r e^{-i pi/4}.  Its relative
error is about 1e-11 for |v| <= 3 and grows like e^{3 pi |v|/4}.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve

from .clifford import HypercomplexExponent, Paravector, subalgebra_from_idempotent
from .errors import (
    ConditioningWarning,
    DomainError,
    EmptyAdmissibleSetError,
    NumericError,
    ParameterError,
    RangeOverflowError,
    SignalFormatError,
)
from .fourier import FrequencyGrid, _principal_power, hat_en, omega_a_fn, omega_fn
from .specialfn import binom_complex_sequence, gamma
from .splines import (
    complex_order,
    exp_difference_coefficients,
    exponential_weights,
    hypercomplex_exponent,
    integer_order,
    positive_damping,
)

__all__ = [
    "SampledSignal",
    "AtomSum",
    "ResidualReport",
    "MellinCheckResult",
    "frac_integral",
    "frac_derivative",
    "shifted_frac_derivative",
    "verify_atom_identity_complex",
    "verify_atom_identity_expz",
    "verify_atom_identity_hc",
    "classical_atom_check",
    "exp_difference_check",
    "mellin_check",
]

# Factors with modulus below this have no usable principal log.
_LOG_FLOOR = 1e-14


class SampledSignal:
    """Uniformly sampled signal on [start, start + (count-1) step],
    understood to vanish left of start.

    valid marks cells whose values are trustworthy; finite-difference
    boundary cells get flagged invalid by the derivative operators.
    """

    __slots__ = ("start", "step", "values", "valid")

    def __init__(self, start: float, step: float, values, valid=None):
        start = float(start)
        step = float(step)
        if start < 0:
            raise SignalFormatError(f"signal must start at x >= 0, got {start:g}")
        if step <= 0:
            raise SignalFormatError(f"grid step must be positive, got {step:g}")
        arr = np.array(values)
        if arr.ndim != 1 or arr.size < 2:
            raise SignalFormatError("signal needs at least two samples on one axis")
        arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
        arr.setflags(write=False)
        if valid is None:
            vmask = np.ones(arr.size, dtype=bool)
        else:
            vmask = np.array(valid, dtype=bool)
            if vmask.shape != arr.shape:
                raise SignalFormatError("valid mask must match the sample count")
        vmask.setflags(write=False)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "valid", vmask)

    def __setattr__(self, name, value):
        raise AttributeError("SampledSignal is immutable")

    @property
    def count(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.values.size)

    def with_values(self, values, valid=None) -> "SampledSignal":
        return SampledSignal(self.start, self.step,
                             values, self.valid if valid is None else valid)


def _signed_power(p: np.ndarray, e: complex) -> np.ndarray:
    """p^e for nonnegative integers p with 0^e = 0 (re e > 0 throughout)."""
    out = np.zeros(p.shape, dtype=complex)
    nz = p > 0
    out[nz] = np.exp(e * np.log(p[nz].astype(float)))
    return out


def frac_integral(z, signal: SampledSignal) -> SampledSignal:
    """Fractional integral of order z (re z > 0): convolution with the
    one-sided power kernel t^{z-1}/Gamma(z), discretized by the
    product-trapezoidal rule that integrates the kernel weight exactly
    against the piecewise-linear interpolant of the signal.
    """
    z = complex(z)
    if not z.real > 0:
        raise DomainError(f"fractional integral needs re z > 0, got {z!r}")
    f = signal.values.astype(complex)
    n = f.size
    h = signal.step
    m = np.arange(n + 1)
    pz1 = _signed_power(m, z + 1.0)
    pz = _signed_power(m, z)

    out = np.zeros(n, dtype=complex)
    pref = np.exp(z * math.log(h)) / gamma(z + 2.0)
    ms = np.arange(1, n)
    w0 = pz1[ms - 1] - pz1[ms] + (z + 1.0) * pz[ms]
    out[1:] = w0 * f[0] + f[1:]
    if n > 2:
        wmid = pz1[2:n] - 2.0 * pz1[1 : n - 1] + pz1[: n - 2]  # p = 1..n-2
        conv = fftconvolve(f[1 : n - 1], wmid)
        out[2:] += conv[: n - 2]
    out *= pref
    if not np.iscomplexobj(signal.values) and z.imag == 0.0:
        out = out.real
    return signal.with_values(out, valid=signal.valid.copy())


def frac_derivative(z, signal: SampledSignal) -> SampledSignal:
    """Fractional derivative of order z (re z > 0): n-fold differencing of
    the (n - z)-order fractional integral, n = ceil(re z).

    Differencing is second-order accurate (one-sided at the edges); the n
    outermost cells at each end are flagged invalid.  On signals with a
    jump at the origin this realizes the convolve-then-differentiate
    ordering, which differs from differencing first by the atoms the jump
    generates.
    """
    z = complex(z)
    if not z.real > 0:
        raise DomainError(f"fractional derivative needs re z > 0, got {z!r}")
    n = int(math.ceil(z.real))
    if z == n:
        g = signal.values.astype(complex) if np.iscomplexobj(signal.values) \
            else signal.values.astype(float)
    else:
        g = frac_integral(n - z, signal).values
    d = g
    for _ in range(n):
        d = np.gradient(d, signal.step)

    noise = np.finfo(float).eps * float(np.max(np.abs(g))) * (2.0 / signal.step) ** n
    scale = float(np.max(np.abs(d))) if d.size else 0.0
    if noise > 0.1 * (scale + 1e-300):
        warnings.warn(
            f"order-{n} differencing amplifies rounding noise to "
            f"{noise:.2e} against signal scale {scale:.2e}",
            ConditioningWarning,
            stacklevel=2,
        )
    valid = signal.valid.copy()
    valid[:n] = False
    valid[-n:] = False
    return signal.with_values(d, valid=valid)


def shifted_frac_derivative(a: float, z, signal: SampledSignal) -> SampledSignal:
    """Damped fractional derivative: conjugation of the order-z derivative
    by the weight e^{-ax}, acting on the damped samples g = e^{-ax} f."""
    a = positive_damping(a)
    xs = signal.x
    if a * xs[-1] > 700.0:
        raise RangeOverflowError(
            f"e^(a x) overflows at grid end (a x = {a * xs[-1]:.1f})"
        )
    f = signal.values * np.exp(a * xs)
    deriv = frac_derivative(z, signal.with_values(f))
    return deriv.with_values(np.exp(-a * xs) * deriv.values, valid=deriv.valid)


# -- atom sums and residual reports ----------------------------------------


@dataclass(frozen=True)
class AtomSum:
    """Coefficients of a Dirac comb sum c_k delta(. - k), stored per shift.

    components has one row per shift and one column per sum; a sum with
    values in the commuting subalgebra span{1, u} is kept as two columns,
    either along (1, u) or as its idempotent parts (u -> i, u -> -i).
    Shifts are integers of either sign in any order; repeated shifts add up.

    evaluate() is Horner's rule in q = e^{-iw}: working memory is
    O(columns N) for N frequencies, whatever the number of shifts, and the
    rounding error is at most gamma_{2K} sum_k |c_k| with K the span of the
    shifts, because |q| = 1 (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 5.1).
    """

    shifts: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        comp = np.atleast_2d(np.asarray(self.components))
        if comp.shape[0] != np.asarray(self.shifts).size:
            raise ParameterError("one coefficient row per shift required")
        if not np.all(np.isfinite(comp)):
            raise ParameterError("atom coefficients must be a bounded sequence")
        object.__setattr__(self, "shifts", np.asarray(self.shifts, dtype=int).ravel())
        object.__setattr__(self, "components", comp)

    def sup_norm(self) -> float:
        return float(np.max(np.sqrt(np.sum(np.abs(self.components) ** 2, axis=1))))

    def evaluate(self, omegas: np.ndarray) -> np.ndarray:
        """Exponential sum sum_k c_k e^{-ik w}; returns one row per
        coefficient column.

        Horner's rule in q = e^{-iw}: one exp over the N frequencies, then
        one multiply-add pass per shift, from the highest down, over a
        (columns x N) accumulator.  The sum starts at the lowest shift m,
        and q^m multiplies the result when m != 0.
        """
        om = np.asarray(omegas, dtype=float).ravel()
        low = int(self.shifts.min())
        table = np.zeros((int(self.shifts.max()) - low + 1, self.components.shape[1]),
                         dtype=complex)
        np.add.at(table, self.shifts - low, self.components)
        q = np.exp(-1j * om)
        acc = np.zeros((table.shape[1], om.size), dtype=complex)
        for row in table[::-1]:
            acc *= q
            acc += row[:, None]
        if low:
            acc *= np.exp(-1j * low * om)
        return acc


@dataclass
class ResidualReport:
    """Residuals of a frequency-domain atom identity over a grid.

    residuals holds NaN at excluded frequencies; max_residual is taken over
    the admissible set and certifies the identity at this resolution when
    it does not exceed tail_bound.
    """

    family: str
    order: str
    K: int
    omegas: np.ndarray
    residuals: np.ndarray
    admissible: np.ndarray
    max_residual: float
    tail_bound: float
    excluded_omegas: list
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "order": self.order,
            "K": int(self.K),
            "grid": {
                "omega_min": float(np.min(self.omegas)),
                "omega_max": float(np.max(self.omegas)),
                "count": int(self.omegas.size),
            },
            "max_residual": float(self.max_residual),
            "tail_bound": float(self.tail_bound),
            "excluded_omegas": [float(w) for w in self.excluded_omegas],
        }

    def verified(self) -> bool:
        return self.max_residual <= self.tail_bound


def _as_omegas(grid) -> np.ndarray:
    if isinstance(grid, FrequencyGrid):
        return grid.omegas
    om = np.asarray(grid, dtype=float).ravel()
    if om.size == 0:
        raise ParameterError("empty frequency grid")
    return om


def _admissible_split(base1: np.ndarray, base2: np.ndarray) -> np.ndarray:
    """Branch filter for writing (base1 base2)^z as base1^z base2^z.

    The split is valid exactly where arg base1 + arg base2 stays in
    (-pi, pi]; frequencies where either factor is too small for a stable
    log are not decidable and are excluded as well.
    """
    undefined = (np.abs(base1) < _LOG_FLOOR) | (np.abs(base2) < _LOG_FLOOR)
    argsum = np.angle(base1) + np.angle(base2)
    violated = (argsum <= -math.pi) | (argsum > math.pi)
    admissible = ~undefined & ~violated
    if not np.any(admissible):
        raise EmptyAdmissibleSetError(
            "no admissible frequencies on this grid; every point failed the "
            "branch filter"
        )
    return admissible


def _float_fuzz(*scales: float) -> float:
    return 64.0 * np.finfo(float).eps * (1.0 + max(scales, default=0.0))


def _residual_report(family: str, order: str, om: np.ndarray, lhs: np.ndarray,
                     coeffs: np.ndarray, tail, admissible=None):
    """The report on lhs = sum_{k<=K} c_k e^{-ikw}: one row of lhs per
    column of coeffs, whose row k holds the atom c_k.

    The residual at a frequency is the root mean square of the column
    moduli (for the conjugate pair (z, conj z) that is the modulus of the
    (1, u) components), NaN off the admissible set (every frequency when
    admissible is None).  tail(lhs_scale, atom_scale) gives tail_bound from
    the largest admissible RMS modulus of lhs and the largest RMS modulus
    of an atom.  An lhs, an atom or a tail bound that overflowed is a
    NumericError.  Returns the report and the right-hand rows.
    """
    overflow = NumericError(f"the {family} identity at {order} overflows a float "
                            "on this grid")
    if not (np.isfinite(lhs).all() and np.isfinite(coeffs).all()):
        raise overflow
    atoms = AtomSum(np.arange(len(coeffs)), coeffs)
    rhs = atoms.evaluate(om)
    if admissible is None:
        admissible = np.ones(om.shape, dtype=bool)
    rms = math.sqrt(len(lhs))
    residuals = np.where(admissible, np.hypot.reduce(np.abs(lhs - rhs), axis=0) / rms, np.nan)
    lhs_scale = float(np.max(np.hypot.reduce(np.abs(lhs[:, admissible]), axis=0))) / rms
    tail_bound = float(tail(lhs_scale, atoms.sup_norm() / rms))
    if not math.isfinite(tail_bound):
        raise overflow
    report = ResidualReport(
        family, order, len(coeffs) - 1, om, residuals, admissible,
        max_residual=float(np.nanmax(residuals)), tail_bound=tail_bound,
        excluded_omegas=[float(w) for w in om[~admissible]],
        extras={"atom_sum": atoms})
    return report, rhs


def _verify_binomial_atoms(family: str, order: str, K: int, om: np.ndarray,
                           base1: np.ndarray, base2: np.ndarray, exponents,
                           damping: float = 0.0):
    """Check (base1 base2)^e = sum_{k<=K} (-1)^k binom(e,k) e^{-damping k}
    e^{-ikw} for each exponent e at once, one atom-sum column per exponent.

    The first dropped atom bounds the truncation tail: geometrically with
    ratio e^{-damping} once K + 1 >= 2|z|, else by the k^{-re z - 1} decay
    of the binomials.
    Returns the report and the left- and right-hand rows.
    """
    if K < 1:
        raise ParameterError("truncation K must be positive")
    admissible = _admissible_split(base1, base2)

    lhs = _principal_power(base1, exponents) * _principal_power(base2, exponents)
    binoms = np.stack([binom_complex_sequence(e, K + 1) for e in exponents], axis=1)
    k = np.arange(K + 1)
    weights = (-1.0) ** k * np.exp(-damping * k)

    z = exponents[0]
    next_mod = abs(binoms[K + 1, 0]) * math.exp(-damping * (K + 1))
    if damping > 0 and K + 1 >= 2.0 * abs(z):
        truncation = 1.1 * next_mod / (1.0 - math.exp(-damping))
    else:
        truncation = 1.1 * next_mod * (1.0 + (K + 1) / z.real)
    report, rhs = _residual_report(
        family, order, om, lhs, binoms[: K + 1] * weights[:, None],
        lambda lhs_scale, atom_scale: truncation + _float_fuzz(lhs_scale, atom_scale),
        admissible)
    return report, lhs, rhs


def _z_label(z: complex) -> str:
    return f"z={z.real:g}{z.imag:+g}i" if z.imag else f"z={z.real:g}"


def verify_atom_identity_complex(z, K: int, grid) -> ResidualReport:
    """Check (iw)^z Omega(w)^z against the truncated exponential sum of the
    alternating binomial atom coefficients."""
    z = complex_order(z)
    om = _as_omegas(grid)
    report, lhs, rhs = _verify_binomial_atoms(
        "complex", _z_label(z), K, om, 1j * om, omega_fn(om), (z,))
    report.extras.update(lhs=lhs[0], rhs=rhs[0])
    return report


def verify_atom_identity_expz(a: float, z, K: int, grid) -> ResidualReport:
    """Check (a+iw)^z Omega_a(w)^z against the exponentially damped
    binomial atom sum."""
    a = positive_damping(a)
    z = complex_order(z)
    om = _as_omegas(grid)
    return _verify_binomial_atoms(
        "complex-exponential", f"a={a:g}, {_z_label(z)}", K, om,
        a + 1j * om, omega_a_fn(a, om), (z,), damping=a)[0]


def verify_atom_identity_hc(upsilon: Paravector, K: int, grid) -> ResidualReport:
    """Check (iw)^Y Omega(w)^Y against the hypercomplex binomial atom sum.

    iw is the Fourier symbol of the derivative under the transform
    convention of the fourier module; the identity does not hold under -iw.
    """
    dec = hypercomplex_exponent(upsilon)
    om = _as_omegas(grid)
    z = complex(dec.x0, dec.vnorm)
    comps_label = ",".join(f"{c:g}" for c in [upsilon.s, *upsilon.v.tolist()])
    report, lhs, rhs = _verify_binomial_atoms(
        "hypercomplex", f"upsilon=({comps_label})", K, om,
        1j * om, omega_fn(om), (z, z.conjugate()))
    report.extras.update(
        lhs_pair=subalgebra_from_idempotent(*lhs),
        rhs_pair=subalgebra_from_idempotent(*rhs),
    )
    return report


def classical_atom_check(n: int, grid) -> ResidualReport:
    """Check (iw)^n Omega(w)^n = sum (-1)^k C(n,k) e^{-ikw}; integer powers,
    so the identity is polynomial and holds to rounding."""
    n = integer_order(n)
    if n > 1023:
        raise NumericError(f"the atoms of order n = {n} sum to 2^n, which overflows a float")
    om = _as_omegas(grid)
    lhs = (1j * om) ** n * omega_fn(om) ** n
    coeffs = np.array([(-1.0) ** k * math.comb(n, k) for k in range(n + 1)],
                      dtype=complex)
    return _residual_report(
        "classical", f"n={n}", om, lhs[None], coeffs[:, None],
        lambda lhs_scale, _: _float_fuzz(lhs_scale, 2.0 ** n) * 2.0 ** n)[0]


def exp_difference_check(weights, grid) -> ResidualReport:
    """Check the exponential difference identity in the frequency domain:
    prod_k (iw - a_k) times the transform of the weight-(a_k) exponential
    B-spline equals prod_k (1 - e^{a_k} e^{-iw}), whose expansion in e^{-iw}
    gives the atoms."""
    wts = exponential_weights(weights)
    om = _as_omegas(grid)
    lhs = hat_en(wts, om)
    for a in wts:
        np.multiply(lhs, 1j * om - a, out=lhs)  # fixed operand order, as in hat_en
    poly = exp_difference_coefficients(wts)
    return _residual_report(
        "exponential", "a=(" + ",".join(f"{a:g}" for a in wts) + ")", om, lhs[None],
        poly.astype(complex)[:, None],
        lambda lhs_scale, atom_scale: _float_fuzz(lhs_scale, atom_scale) * poly.size)[0]


# -- Mellin-type identity ----------------------------------------------------

# The rotated ray t = r e^{-i theta}, theta < pi/2, and the trapezoid with
# step h in u = log(w r) over [-40, 5].  Left of -40, e^u < 2^-57 and the
# terms are a geometric series in e^{-zh}; right of 5 they are below e^-100.
_MELLIN_THETA = math.pi / 4
_MELLIN_STEP = 0.1
_MELLIN_U = np.arange(-40.0, 5.0, _MELLIN_STEP)


@dataclass(frozen=True)
class MellinCheckResult:
    lhs: Paravector
    rhs: Paravector
    deviation: float


def mellin_check(upsilon: Paravector, omega: float) -> MellinCheckResult:
    """Numerically verify int_0^inf t^Y e^{-i t w} dt/t = Gamma(Y)/(iw)^Y
    for a scalar part x0 in (0, 1) and w > 0.

    Under the idempotent split of span{1, u} (x) C, Y is the column pair
    z = x0 +- i|v| and the identity is one complex integral per column.
    It converges only conditionally on the real axis; on the ray
    t = r e^{-i pi/4}, with r = e^u/w, the left side becomes

        e^{-i pi z/4} int exp(z (u - log w) - i e^u e^{-i pi/4}) du,

    whose integrand is analytic in a strip and decays exponentially on
    both sides, so the trapezoidal rule converges geometrically in the
    step (Trefethen and Weideman, SIAM Rev. 56, 2014).  The rule sums the
    whole grid: the terms left of u = -40 in closed form, so its cost does
    not depend on x0.  Against 40-digit values each column of the rule had
    a relative error of at most 8e-12 over x0 in [1e-8, 0.9], |v| <= 3 and
    w in [0.5, 5].  The error grows with |v| in the im z < 0 column, about
    like e^{3 pi |v|/4}, because that column is e^{-pi |v|} while its
    integrand reaches e^{-pi |v|/4}: at w = 1 and x0 = 0.05 it was 2e-9 at
    |v| = 6 and 2e-4 at |v| = 10.  The im z > 0 column loses about
    e^{pi |v|/4} (1e-11 at |v| = 10, 1e-2 at |v| = 40).  As alpha + beta u,
    lhs and rhs hold the im z < 0 column only to about 1e-16 e^{pi |v|} of
    its size.
    """
    dec = HypercomplexExponent.from_paravector(upsilon)
    if not 0.0 < dec.x0 < 1.0:
        raise DomainError(f"the Mellin check needs scalar part in (0, 1), got {dec.x0:g}")
    omega = float(omega)
    if not 0 < omega < math.inf:
        raise DomainError(f"the Mellin check needs finite omega > 0, got {omega:g}")
    z = np.array([complex(dec.x0, dec.vnorm), complex(dec.x0, -dec.vnorm)])
    log_omega = math.log(omega)
    terms = np.exp(np.outer(z, _MELLIN_U - log_omega - 1j * _MELLIN_THETA)
                   - 1j * np.exp(_MELLIN_U - 1j * _MELLIN_THETA))
    left = terms[:, 0] / -np.expm1(-_MELLIN_STEP * z)
    integrals = _MELLIN_STEP * (left + terms[:, 1:].sum(axis=1))
    g = gamma(z[0])
    columns = np.array([g, g.conjugate()]) * np.exp(-z * (log_omega + 0.5j * math.pi))
    lhs = dec.paravector(*subalgebra_from_idempotent(*integrals))
    rhs = dec.paravector(*subalgebra_from_idempotent(*columns))
    return MellinCheckResult(lhs, rhs, float((lhs - rhs).norm()))
