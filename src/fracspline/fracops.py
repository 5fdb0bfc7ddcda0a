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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.signal import fftconvolve

from .clifford import (
    HypercomplexExponent,
    Paravector,
    hc_power,
    subalgebra_from_idempotent,
)
from .errors import (
    ConditioningWarning,
    DomainError,
    EmptyAdmissibleSetError,
    OrderError,
    OscillatoryIntegralError,
    ParameterError,
    RangeOverflowError,
    SignalFormatError,
)
from .fourier import FrequencyGrid, _principal_power, hat_en, omega_a_fn, omega_fn
from .specialfn import binom_complex_sequence, gamma, gamma_hc
from .splines import ExponentialWeights, exp_difference_coefficients

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

    @classmethod
    def from_function(cls, fn, start: float, stop: float, step: float) -> "SampledSignal":
        n = int(round((stop - start) / step)) + 1
        xs = start + step * np.arange(n)
        return cls(start, step, np.asarray([fn(x) for x in xs]))


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
    a = float(a)
    if a <= 0:
        raise ParameterError(f"shifted derivative needs a > 0, got {a:g}")
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
    """

    shifts: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        comp = np.atleast_2d(np.asarray(self.components))
        if comp.shape[0] != np.asarray(self.shifts).size:
            raise ParameterError("one coefficient row per shift required")
        if not np.all(np.isfinite(comp.view(float))):
            raise ParameterError("atom coefficients must be a bounded sequence")
        object.__setattr__(self, "shifts", np.asarray(self.shifts, dtype=int))
        object.__setattr__(self, "components", comp)

    def sup_norm(self) -> float:
        return float(np.max(np.sqrt(np.sum(np.abs(self.components) ** 2, axis=1))))

    def evaluate(self, omegas: np.ndarray) -> np.ndarray:
        """Exponential sum sum_k c_k e^{-ik w}; returns one row per
        coefficient column."""
        phases = np.exp(-1j * np.outer(self.shifts, omegas))
        return self.components.T @ phases


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

    def grid_dict(self) -> dict:
        return {
            "omega_min": float(np.min(self.omegas)),
            "omega_max": float(np.max(self.omegas)),
            "count": int(self.omegas.size),
        }

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "order": self.order,
            "K": int(self.K),
            "grid": self.grid_dict(),
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


def _admissible_split(base1: np.ndarray, base2: np.ndarray, omegas: np.ndarray):
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
    excluded = [float(w) for w in omegas[~admissible]]
    return admissible, excluded


def _float_fuzz(*scales: float) -> float:
    return 64.0 * np.finfo(float).eps * (1.0 + max(scales, default=0.0))


def _verify_binomial_atoms(family: str, order: str, K: int, om: np.ndarray,
                           base1: np.ndarray, base2: np.ndarray, exponents,
                           damping: float = 0.0):
    """Check (base1 base2)^e = sum_{k<=K} (-1)^k binom(e,k) e^{-damping k}
    e^{-ikw} for each exponent e at once, one atom-sum column per exponent.

    The residual is the root mean square of the column moduli: for the
    conjugate pair (z, conj z) that is the modulus of the (1, u) components.
    The first dropped atom bounds the truncation tail: geometrically with
    ratio e^{-damping} once K + 1 >= 2|z|, else by the k^{-re z - 1} decay
    of the binomials.
    Returns the report and the left- and right-hand rows.
    """
    if K < 1:
        raise ParameterError("truncation K must be positive")
    admissible, excluded = _admissible_split(base1, base2, om)

    lhs = _principal_power(base1, exponents) * _principal_power(base2, exponents)
    binoms = np.stack([binom_complex_sequence(e, K + 1) for e in exponents], axis=1)
    k = np.arange(K + 1)
    weights = (-1.0) ** k * np.exp(-damping * k)
    atoms = AtomSum(k, binoms[: K + 1] * weights[:, None])
    rhs = atoms.evaluate(om)

    rms = math.sqrt(len(exponents))
    residuals = np.hypot.reduce(np.abs(lhs - rhs), axis=0) / rms
    residuals = np.where(admissible, residuals, np.nan)
    max_res = float(np.nanmax(np.where(admissible, residuals, -np.inf)))

    z = exponents[0]
    next_mod = abs(binoms[K + 1, 0]) * math.exp(-damping * (K + 1))
    if damping > 0 and K + 1 >= 2.0 * abs(z):
        tail = 1.1 * next_mod / (1.0 - math.exp(-damping))
    else:
        tail = 1.1 * next_mod * (1.0 + (K + 1) / z.real)
    lhs_scale = float(np.max(np.hypot.reduce(np.abs(lhs[:, admissible]), axis=0))) / rms
    tail += _float_fuzz(lhs_scale, atoms.sup_norm() / rms)
    report = ResidualReport(
        family=family,
        order=order,
        K=K,
        omegas=om,
        residuals=residuals,
        admissible=admissible,
        max_residual=max_res,
        tail_bound=float(tail),
        excluded_omegas=excluded,
        extras={"atom_sum": atoms},
    )
    return report, lhs, rhs


def _complex_order(z) -> complex:
    z = complex(z)
    if not z.real > 1:
        raise OrderError(f"verification needs re z > 1, got {z!r}")
    return z


def _z_label(z: complex) -> str:
    return f"z={z.real:g}{z.imag:+g}i" if z.imag else f"z={z.real:g}"


def verify_atom_identity_complex(z, K: int, grid) -> ResidualReport:
    """Check (iw)^z Omega(w)^z against the truncated exponential sum of the
    alternating binomial atom coefficients."""
    z = _complex_order(z)
    om = _as_omegas(grid)
    report, lhs, rhs = _verify_binomial_atoms(
        "complex", _z_label(z), K, om, 1j * om, omega_fn(om), (z,))
    report.extras.update(lhs=lhs[0], rhs=rhs[0])
    return report


def verify_atom_identity_expz(a: float, z, K: int, grid) -> ResidualReport:
    """Check (a+iw)^z Omega_a(w)^z against the exponentially damped
    binomial atom sum; also reports the partial-sum modulus entering the
    coefficient bound."""
    a = float(a)
    if a <= 0:
        raise ParameterError(f"damped atom identity needs a > 0, got {a:g}")
    z = _complex_order(z)
    om = _as_omegas(grid)
    report, _, _ = _verify_binomial_atoms(
        "complex-exponential", f"a={a:g}, {_z_label(z)}", K, om,
        a + 1j * om, omega_a_fn(a, om), (z,), damping=a)
    coeffs = report.extras["atom_sum"].components[:, 0]
    report.extras.update(
        partial_sum_modulus=float(abs(np.sum(coeffs))),
        coefficient_bound_scale=math.exp(abs(z - 1.0)),
    )
    return report


def verify_atom_identity_hc(upsilon: Paravector, K: int, grid,
                            multiplier: str = "iomega") -> ResidualReport:
    """Check (iw)^Y Omega(w)^Y against the hypercomplex binomial atom sum.

    multiplier selects the Fourier symbol of the derivative operator:
    "iomega" (the convention consistent with this identity, the default)
    or "minus_iomega" (the alternative sign, kept for comparison; the
    identity does not hold under it).
    """
    if multiplier not in ("iomega", "minus_iomega"):
        raise ParameterError(f"unknown multiplier convention {multiplier!r}")
    dec = HypercomplexExponent.from_paravector(upsilon)
    if not dec.x0 > 1:
        raise OrderError(
            f"verification needs scalar part > 1, got {dec.x0:g}"
        )
    om = _as_omegas(grid)
    sign = 1.0 if multiplier == "iomega" else -1.0
    z = complex(dec.x0, dec.vnorm)
    comps_label = ",".join(f"{c:g}" for c in [upsilon.s, *upsilon.v.tolist()])
    report, lhs, rhs = _verify_binomial_atoms(
        "hypercomplex", f"upsilon=({comps_label})", K, om,
        sign * 1j * om, omega_fn(om), (z, z.conjugate()))
    report.extras.update(
        multiplier=multiplier,
        lhs_pair=subalgebra_from_idempotent(*lhs),
        rhs_pair=subalgebra_from_idempotent(*rhs),
    )
    return report


def classical_atom_check(n: int, grid) -> ResidualReport:
    """Check (iw)^n Omega(w)^n = sum (-1)^k C(n,k) e^{-ikw}; integer powers,
    so the identity is polynomial and holds to rounding."""
    if n != int(n) or n < 1:
        raise OrderError(f"classical check needs integer n >= 1, got {n!r}")
    n = int(n)
    om = _as_omegas(grid)
    lhs = (1j * om) ** n * omega_fn(om) ** n
    coeffs = np.array([(-1.0) ** k * math.comb(n, k) for k in range(n + 1)],
                      dtype=complex)
    atoms = AtomSum(np.arange(n + 1), coeffs[:, None])
    rhs = atoms.evaluate(om)[0]
    residuals = np.abs(lhs - rhs)
    admissible = np.ones(om.shape, dtype=bool)
    tail = _float_fuzz(float(np.max(np.abs(lhs))), 2.0 ** n) * 2.0 ** n
    return ResidualReport(
        family="classical",
        order=f"n={n}",
        K=n,
        omegas=om,
        residuals=residuals,
        admissible=admissible,
        max_residual=float(np.max(residuals)),
        tail_bound=float(tail),
        excluded_omegas=[],
        extras={"atom_sum": atoms, "coefficient_sum": float(np.sum(coeffs).real)},
    )


def exp_difference_check(weights, grid) -> ResidualReport:
    """Check the exponential difference identity in the frequency domain:
    prod_k (iw - a_k) times the transform of the weight-(a_k) exponential
    B-spline equals prod_k (1 - e^{a_k} e^{-iw}).

    The atom coefficients are recovered two ways: analytically by expanding
    the product polynomial in e^{-iw}, and numerically by least squares on
    the grid samples; both are reported.
    """
    wts = ExponentialWeights.coerce(weights)
    om = _as_omegas(grid)
    lhs = hat_en(wts, om)
    for a in wts.values:
        lhs = lhs * (1j * om - a)

    poly = exp_difference_coefficients(wts.values)
    atoms = AtomSum(np.arange(poly.size), poly.astype(complex)[:, None])
    rhs = atoms.evaluate(om)[0]

    phases = np.exp(-1j * np.outer(om, np.arange(poly.size)))
    recovered, *_ = np.linalg.lstsq(phases, lhs, rcond=None)

    residuals = np.abs(lhs - rhs)
    admissible = np.ones(om.shape, dtype=bool)
    tail = _float_fuzz(float(np.max(np.abs(lhs))), atoms.sup_norm()) * poly.size
    return ResidualReport(
        family="exponential",
        order="a=(" + ",".join(f"{a:g}" for a in wts.values) + ")",
        K=poly.size - 1,
        omegas=om,
        residuals=residuals,
        admissible=admissible,
        max_residual=float(np.max(residuals)),
        tail_bound=float(tail),
        excluded_omegas=[],
        extras={
            "atom_sum": atoms,
            "analytic_coefficients": poly.tolist(),
            "recovered_coefficients": recovered.tolist(),
        },
    )


# -- Mellin-type identity ----------------------------------------------------


@dataclass(frozen=True)
class MellinCheckResult:
    lhs: Paravector
    rhs: Paravector
    deviation: float
    eps_deviations: tuple


def _damped_mellin_lhs(dec: HypercomplexExponent, omega: float, eps: float):
    """Damped oscillatory integrals int t^{x0-1} trig(|v| log t) e^{-eps t}
    e^{-i omega t} dt for trig = cos and sin, as a component pair.

    The unit interval is integrated after the substitution t = e^{-s},
    which removes both the algebraic endpoint singularity and the
    logarithmic oscillation; the remainder uses oscillatory-weighted
    quadrature up to a cutoff where the damping makes the tail negligible.
    """
    x0, vn = dec.x0, dec.vnorm
    cutoff = 1.0 + 45.0 / eps

    def head(sign, trig, osc):
        # t in (0, 1]; under t = e^{-s}, trig(|v| log t) = sign * trig(|v| s)
        def f(s):
            t = math.exp(-s)
            return (math.exp(-x0 * s) * sign * trig(vn * s)
                    * math.exp(-eps * t) * osc(omega * t))
        val, _ = quad(f, 0.0, np.inf, epsabs=1e-12, epsrel=1e-11, limit=300)
        return val

    def tail(trig, weight):
        def f(t):
            return t ** (x0 - 1.0) * trig(vn * math.log(t)) * math.exp(-eps * t)
        val, _ = quad(f, 1.0, cutoff, weight=weight, wvar=omega,
                      epsabs=1e-12, epsrel=1e-11, limit=500)
        return val

    i_cos = complex(
        head(1.0, math.cos, math.cos) + tail(math.cos, "cos"),
        -(head(1.0, math.cos, math.sin) + tail(math.cos, "sin")),
    )
    i_sin = complex(
        head(-1.0, math.sin, math.cos) + tail(math.sin, "cos"),
        -(head(-1.0, math.sin, math.sin) + tail(math.sin, "sin")),
    )
    return i_cos, i_sin


def mellin_check(upsilon: Paravector, omega: float,
                 eps_values=(0.2, 0.1, 0.05)) -> MellinCheckResult:
    """Numerically verify int_0^inf t^Y e^{-i t w} dt/t = Gamma(Y)/(iw)^Y.

    The left side is an oscillatory integral that converges only
    conditionally for scalar part in (0, 1); it is computed with damping
    e^{-eps t} and Richardson extrapolation of the damping to zero.  The
    right side uses the hypercomplex Gamma and power with division in the
    commuting subalgebra.
    """
    dec = HypercomplexExponent.from_paravector(upsilon)
    if not 0.0 < dec.x0 < 1.0:
        raise DomainError(
            f"damped-quadrature check needs scalar part in (0, 1), got {dec.x0:g}"
        )
    omega = float(omega)
    if omega <= 0:
        raise DomainError(f"check requires omega > 0, got {omega:g}")
    eps_values = tuple(sorted(set(float(e) for e in eps_values), reverse=True))
    if len(eps_values) < 2:
        raise ParameterError("need at least two damping values to extrapolate")

    pairs = [_damped_mellin_lhs(dec, omega, e) for e in eps_values]

    # polynomial extrapolation of the damping parameter to zero
    lag = []
    for i, ei in enumerate(eps_values):
        li = 1.0
        for j, ej in enumerate(eps_values):
            if j != i:
                li *= ej / (ej - ei)
        lag.append(li)
    lhs_a = sum(l * p[0] for l, p in zip(lag, pairs))
    lhs_b = sum(l * p[1] for l, p in zip(lag, pairs))

    diffs = [abs(pairs[i][0] - pairs[i + 1][0]) + abs(pairs[i][1] - pairs[i + 1][1])
             for i in range(len(pairs) - 1)]
    if len(diffs) >= 2 and diffs[-1] > 1.2 * diffs[-2] + 1e-12:
        raise OscillatoryIntegralError(
            "damped quadrature values are not converging as eps decreases"
        )

    rhs = gamma_hc(upsilon) / hc_power(1j * omega, upsilon)
    if dec.u is None:
        lhs = Paravector(lhs_a, np.zeros(dec.n, dtype=complex))
    else:
        lhs = Paravector(lhs_a, lhs_b * dec.u)
    deviation = (lhs - rhs).norm()
    eps_devs = []
    for (pa, pb) in pairs:
        if dec.u is None:
            val = Paravector(pa, np.zeros(dec.n, dtype=complex))
        else:
            val = Paravector(pa, pb * dec.u)
        eps_devs.append((val - rhs).norm())
    return MellinCheckResult(lhs, rhs, float(deviation), tuple(eps_devs))
