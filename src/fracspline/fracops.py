"""Fractional integral/derivative operators on sampled half-line signals
and frequency-domain verification of the atom identities that define each
spline family.

Operators act on uniformly sampled signals that vanish left of their start;
this is the finitely checkable surrogate for the function class the
operators live on analytically (smooth, supported on the right half line,
all derivatives vanishing at 0).  Distributional identities are verified
only in the frequency domain, where a Dirac comb becomes a bounded
exponential sum and the identity becomes a machine-checkable inequality:

    exponential          prod (iw - a_k) Omega_{-a_k}(w) = prod (1 - e^{a_k} e^{-iw})
    classical            (iw)^n Omega(w)^n      = sum (-1)^k C(n,k) e^{-ikw}
    complex order        (iw)^z Omega(w)^z      = sum (-1)^k binom(z,k) e^{-ikw}
    damped complex order (a+iw)^z Omega_a(w)^z  = sum binom(z,l)(-1)^l e^{-la} e^{-ilw}
    hypercomplex         (iw)^Y Omega(w)^Y      = sum (-1)^k binom(Y,k) e^{-ikw}

The classical identity is the exponential one at n zero weights
(L = D^n; Unser and Blu, Cardinal exponential splines: Part I, IEEE TSP 53,
2005), and both are one exact check.  Its left side is taken one factor
(iw - a_k) Omega_{-a_k}(w) = 1 - e^{a_k} e^{-iw} at a time, so each partial
product is bounded by prod_k (1 + e^{a_k}), 2^n for the classical one,
whose atoms sum to 2^n in modulus: n <= 1023.  The atoms are the
coefficients of prod_k (1 - e^{a_k} q), and the tail is the rounding fuzz
of the n + 1 atoms.

A verifier admits every frequency where neither base is 0; where one is,
it has no log, and the frequency is excluded and reported rather than
silently patched.  No branch test is needed to split the left-hand side
into two principal powers.  base1 is iw or a + iw, and the product
base1 base2 = 1 - e^{-a-iw} (a = 0 for the undamped pair) has real part
1 - e^{-a} cos w, which is > 0 unless the product is 0.  So
arg(base1 base2) lies in (-pi/2, pi/2) and arg base1 in [-pi/2, pi/2];
their difference, in (-pi, pi), is the principal arg base2, and
arg base1 + arg base2 = arg(base1 base2) (Unser and Blu, SIAM Rev. 42,
2000; Forster, Blu and Unser, Appl. Comput. Harmon. Anal. 20, 2006).
The principal log of each base is taken once, and the left-hand side is
exp(z (log base1 + log base2)).

The three complex-order identities are one check: the damped one weights
atom k by e^{-ak}, and the hypercomplex one is the complex one at the
conjugate pair x0 +- i|v|, the idempotent split of span{1, u} (x) C.

Every identity is L^(w) B^(w) = sum_k c_k e^{-ikw}, and _residual_report,
the one block loop of the verifiers, checks it for all five: each gives a
function that returns its left-hand rows on one block of frequencies with
the zeros it excludes there, its atom coefficients and its tail rule.  The
report holds the AtomSum and one row of lhs and rhs per atom column, the
pair (z, conj z) for the hypercomplex one.  Every right-hand side is one
AtomSum.evaluate: Horner's rule in q = e^{-iw}, split into baby and giant
steps so that the inner sums of a block of frequencies are one matrix
product.  The left-hand sides, admissible set, moduli and residuals are
formed in one pass over blocks of _CHUNK frequencies, so a check over N
frequencies and K atoms holds its report, 41 bytes per frequency (73 for
the pair), and the fixed blocks of AtomSum.evaluate, 16 (B + 1 + columns J)
_CHUNK bytes with B and J about sqrt K.
The sum is rounded by at most gamma_{2K} sum_k |c_k| (Higham,
Accuracy and Stability of Numerical Algorithms, sec. 5.1;
AtomSum.rounding_bound).  The truncation tail of the binomial atoms is
bounded by their explicit sum up to where they decay, then by a power
majorant (_binomial_tail), so tail_bound, that bound plus the rounding
bound of the atom sum and 64 eps (1 + lhs scale) for the left side, is an
upper bound on the dropped atoms and the rounding for every order.  A
report verifies, without a tolerance of its own, when max_residual <=
tail_bound < the largest admissible RMS modulus of lhs: a bound as large
as the identity itself says nothing about it.

A value of a verifier or an operator that leaves the float range is a
NumericError naming the order (splines._in_float_range), formed under
np.errstate so that no numpy warning comes first.

The Mellin-type identity int_0^inf t^{Y-1} e^{-iwt} dt = Gamma(Y)/(iw)^Y
is checked in the same split, one complex integral per column x0 +- i|v|,
by the trapezoidal rule on the rotated ray t = r e^{-i pi/4}.  Its relative
error is about 1e-11 for |v| <= 3 and grows like e^{3 pi |v|/4}, so |v|
is limited to 20.

Operand order: as in the fourier module, each complex product whose bits
reach an output is an np.multiply or an in-place product with its
operands in one fixed order, because a SIMD complex product can round
differently with its operands swapped.  q = e^{-iw} is specialfn.cis(-w),
m^z is specialfn._complex_power, e^{re z log m} cis(im z log m), and
every modulus is numpy's complex abs, not hypot.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .clifford import HypercomplexExponent, Paravector, _scaled_norm, subalgebra_from_idempotent
from .errors import (
    ConditioningWarning,
    DomainError,
    EmptyAdmissibleSetError,
    NumericError,
    ParameterError,
    SignalFormatError,
)
from .fourier import (FrequencyGrid, _exp_ratios, _log_iomega, _principal_log,
                      _principal_power, omega_a_fn, omega_fn)
from .specialfn import _complex_power, binom_complex_sequence, cis, gamma
from .splines import (
    _abscissae,
    _in_float_range,
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
        if not (math.isfinite(start) and math.isfinite(step)):
            raise SignalFormatError(
                f"signal start and step must be finite, got {start:g} and {step:g}")
        if start < 0:
            raise SignalFormatError(f"signal must start at x >= 0, got {start:g}")
        if step <= 0:
            raise SignalFormatError(f"grid step must be positive, got {step:g}")
        arr = np.array(values)
        if arr.ndim != 1 or arr.size < 2:
            raise SignalFormatError("signal needs at least two samples on one axis")
        arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)
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


def _fft_length(m: int) -> int:
    """The least length >= m whose prime factors all lie in {2, 3, 5, 7, 11},
    the lengths pocketfft transforms fastest."""
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The full linear convolution of a and a complex b, as the product of
    their transforms zero-padded to a fast length L.  A real a is
    transformed at half length (rfft); its spectrum multiplies both halves
    of b's in place, the upper one through the Hermitian mirror
    A[L - k] = conj A[k], and the inverse is taken in place: 24 L bytes of
    transforms where a complex a holds 48 L.  The result differs from the
    complex product's only in rounding, by at most 0.5 eps log2(L) of its
    largest value in tests; a complex a keeps the product's bits."""
    m = a.size + b.size - 1
    length = _fft_length(m)
    if np.iscomplexobj(a):
        return np.fft.ifft(np.fft.fft(a, length) * np.fft.fft(b, length))[:m]
    spec = np.fft.fft(b, length)
    half = np.fft.rfft(a, length)
    spec[:half.size] *= half
    spec[half.size:] *= np.conjugate(half, out=half)[length - half.size:0:-1]
    return np.fft.ifft(spec, out=spec)[:m]


def frac_integral(z, signal: SampledSignal) -> SampledSignal:
    """Fractional integral of order z (re z > 0): convolution with the
    one-sided power kernel t^{z-1}/Gamma(z), discretized by the
    product-trapezoidal rule that integrates the kernel weight exactly
    against the piecewise-linear interpolant of the signal.

    m^z takes one log and one exponential per sample m >= 1, m^{z+1} is
    m m^z, each weight array is freed once used, and a real signal enters
    the convolution as it is, at half length: the peak is about 80 bytes
    per sample.  A sample that is not finite is a SignalFormatError, and a
    value that leaves the float range a NumericError naming z.
    """
    _require_finite_samples(signal)
    return signal.with_values(_integral_values(z, signal, 0.0))


def _require_finite_samples(signal: SampledSignal) -> None:
    """Raise SignalFormatError at the first sample that is not finite: the
    convolution would spread it into every cell, earlier ones included."""
    finite = np.isfinite(signal.values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise SignalFormatError(
            f"samples must be finite, got {signal.values[i]} at sample {i}")


def _operator_order(z, operator: str) -> complex:
    """The order z of a fractional operator as a complex; it must be
    finite with re z > 0."""
    z = complex(z)
    if not (z.real > 0 and cmath.isfinite(z)):
        raise DomainError(f"{operator} needs a finite z with re z > 0, got {z!r}")
    return z


@np.errstate(over="ignore", invalid="ignore")
def _integral_values(z, signal: SampledSignal, damping: float) -> np.ndarray:
    """The values of frac_integral, or with damping a > 0 those of
    e^{-ax} I^z[e^{ax} f] on the damped samples f: the weight at lag m is
    multiplied by e^{-amh} = e^{-a x_j} e^{a x_{j-m}}, so e^{ax} is never
    formed.  A damping of 0 leaves every weight as it is.

    Raises NumericError when Gamma(z + 2) overflows or underflows (large
    |im z|): dividing by it is then meaningless, and where a value leaves
    the float range, which the transforms of the convolution can do on
    samples near 1e307 though the integral fits."""
    z = _operator_order(z, "fractional integral")
    f = signal.values
    n = f.size
    try:
        g = gamma(z + 2.0)
    except NumericError as exc:
        raise NumericError(f"fractional integral of order z = {z!r} overflows: "
                           "Gamma(z + 2) is out of range") from exc
    if g.real * g.real + g.imag * g.imag < 1e-300:
        raise NumericError(f"fractional integral of order z = {z!r} underflows: "
                           "Gamma(z + 2) is too small to divide by")
    pref = cmath.exp(z * math.log(signal.step)) / g
    pz = np.zeros(n + 1, dtype=complex)  # m^z, with 0^z = 0
    _complex_power(np.arange(1.0, n + 1), z, out=pz[1:])
    pz1 = np.arange(n + 1.0) * pz  # m^{z+1}
    out = np.zeros(n, dtype=complex)
    # the weight of f[0] at m = 1..n-1, then the diagonal weight 1^{z+1} = 1
    np.subtract(pz1[:n - 1], pz1[1:n], out=out[1:])
    out[1:] += (z + 1.0) * pz[1:n]
    del pz
    if damping:
        damp = np.exp(-damping * signal.step * np.arange(1.0, n))  # lags 1..n-1
        out[1:] *= damp
    out[1:] *= f[0]
    out[1:] += f[1:]
    wmid = pz1[2:n] - 2.0 * pz1[1:n - 1]  # p = 1..n-2
    wmid += pz1[:n - 2]
    del pz1
    if damping:
        wmid *= damp[:n - 2]
        del damp
    if n > 2:
        out[2:] += _fft_convolve(f[1:n - 1], wmid)[:n - 2]
    del wmid
    out *= pref
    _in_float_range(out, f"the fractional integral of order z = {z!r}")
    if not np.iscomplexobj(f) and z.imag == 0.0:
        out = out.real
    return out


def frac_derivative(z, signal: SampledSignal) -> SampledSignal:
    """Fractional derivative of order z (re z > 0): n-fold differencing of
    the (n - z)-order fractional integral, n = floor(re z) + 1, or n = z
    with no integral for a whole real z.

    Each pass is np.gradient: central differences, second order, inside,
    and its default first-order one-sided difference (edge_order=1) at
    each end, an error that compounds over the passes; the n outermost
    cells at each end are flagged invalid.  On signals with a jump at the
    origin this realizes the convolve-then-differentiate ordering, which
    differs from differencing first by the atoms the jump generates.

    z must be finite with re z > 0 (DomainError).  Raises NumericError
    when the rounding noise bound eps (2/h)^n of n passes at step h leaves
    the float range, SignalFormatError when the signal has at most 2n
    samples, which leaves no valid cell, or a sample that is not finite,
    NumericError where a value leaves the float range, and
    ConditioningWarning when the noise swamps the result.
    """
    return _derivative(z, signal, 0.0)


def shifted_frac_derivative(a: float, z, signal: SampledSignal) -> SampledSignal:
    """Damped fractional derivative (D + a)^z on the damped samples
    g = e^{-ax} f, equal to e^{-ax} D^z f: the integral takes the damped
    weights and each differencing pass is d/dx + a, so e^{ax} is never
    formed."""
    return _derivative(z, signal, positive_damping(a))


def _derivative(z, signal: SampledSignal, damping: float) -> SampledSignal:
    """frac_derivative, damped by a = damping > 0 as in
    shifted_frac_derivative; its ConditioningWarning names their caller."""
    z = _operator_order(z, "fractional derivative")
    n = math.floor(z.real)
    if z != n:
        n += 1
    # n passes amplify a rounding error of eps by up to (2/h + a)^n; the log
    # of that bound is taken first, so an order no float can difference
    # fails before the first pass
    log_bound = math.log(np.finfo(float).eps) + n * math.log(2.0 / signal.step + damping)
    if log_bound > math.log(np.finfo(float).max):
        raise NumericError(
            f"order-{n} differencing at step h = {signal.step:g} amplifies rounding "
            "noise beyond the float range")
    if 2 * n >= signal.count:
        raise SignalFormatError(
            f"order-{n} differencing flags the {n} outermost cells at each end "
            f"invalid, which leaves no valid cell of the {signal.count} samples")
    _require_finite_samples(signal)
    try:
        g = signal.values if z == n else _integral_values(n - z, signal, damping)
    except NumericError as exc:
        raise NumericError(f"fractional derivative of order z = {z!r}: {exc}") from exc
    d = g
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            dd = np.gradient(d, signal.step)
            if damping:
                dd += damping * d
            d = dd
    _in_float_range(d, f"the fractional derivative of order z = {z!r}")

    noise = float(np.max(np.abs(g))) * math.exp(log_bound)
    scale = float(np.max(np.abs(d)))
    if noise > 0.1 * (scale + 1e-300):
        warnings.warn(
            f"order-{n} differencing amplifies rounding noise to "
            f"{noise:.2e} against signal scale {scale:.2e}",
            ConditioningWarning,
            stacklevel=3,
        )
    valid = signal.valid.copy()
    valid[:n] = False
    valid[-n:] = False
    return signal.with_values(d, valid=valid)


# -- atom sums and residual reports ----------------------------------------


# Frequencies per block of AtomSum.evaluate and of the verifiers' left-hand
# sides and residuals, and terms per step of the explicit sum in
# _binomial_tail.  The last block of frequencies of AtomSum.evaluate is
# padded to it, so every matrix product has one shape and a value does not
# depend on the grid around it.
_CHUNK = 4096


@dataclass(frozen=True)
class AtomSum:
    """Coefficients of a Dirac comb sum c_k delta(. - k), stored per shift.

    components has one row per shift and one column per sum; a sum with
    values in the commuting subalgebra span{1, u} is kept as two columns,
    either along (1, u) or as its idempotent parts (u -> i, u -> -i).
    Shifts are integers of either sign in any order; repeated shifts add up.
    A sum of no atoms, or a shift that is not a finite integer, is a
    ParameterError.

    evaluate() is Horner's rule in q = e^{-iw}, split into B baby steps and
    J giant steps (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973): with
    M the span of the shifts, B = ceil(sqrt M) and J = ceil(M / B),

        sum_k c_k q^k = sum_j (sum_{r<B} c_{jB+r} q^r) (q^B)^j,

    so the J inner sums of every column are one matrix product of the
    (columns J x B) coefficient table with the powers q^0..q^{B-1}, and
    Horner's rule runs over the J blocks in q^B.  The frequencies go in
    blocks of 4096, so the working memory is O((B + columns J) 4096) for
    the powers and inner sums plus the (columns x N) result, whatever the
    number of shifts.  Because |q| = 1, the rounding error is at most
    gamma_{2K} sum_k |c_k| with K the span of the shifts, as for the plain
    rule (Higham, Accuracy and Stability of Numerical Algorithms, sec. 5.1):
    atom jB + r passes through the products that build q^r and q^B (about
    log2 B each), its own product, B - 1 sums inside its block and j
    products and sums in the outer rule, at most 2K roundings in all for
    every K but K = 2, where it is 5.  rounding_bound() gives that bound.
    """

    shifts: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        shifts = np.asarray(self.shifts).ravel()
        comp = np.atleast_2d(np.asarray(self.components))
        if comp.shape[0] != shifts.size:
            raise ParameterError("one coefficient row per shift required")
        if not shifts.size:
            raise ParameterError("an atom sum needs at least one atom")
        if shifts.dtype.kind not in "iuf" or not np.all(
                (np.abs(shifts) < 2.0 ** 63) & (shifts == np.trunc(shifts))):
            raise ParameterError("atom shifts must be finite integers")
        if not np.all(np.isfinite(comp)):
            raise ParameterError("atom coefficients must be a bounded sequence")
        object.__setattr__(self, "shifts", shifts.astype(int))
        object.__setattr__(self, "components", comp)

    def sup_norm(self) -> float:
        """The largest Euclidean norm of a row of coefficients, scaled by
        _scaled_norm so that the squares of its moduli cannot overflow."""
        return float(np.max(_scaled_norm(np.abs(self.components), axis=1)))

    def rounding_bound(self) -> float:
        """gamma_n sum_k |c_k| = n eps / (1 - n eps) sum_k |c_k|, n = 2K
        roundings (5 at K = 2) for the span K of the shifts, taken with
        eps = 2^-52 per rounding: the bound on the rounding error of
        evaluate() stated above, as the root mean square of the columns'
        bounds, through _scaled_norm so that no square overflows."""
        span = int(self.shifts.max()) - int(self.shifts.min()) + 1
        n = max(2 * span, 5) * np.finfo(float).eps
        sums = np.sum(np.abs(self.components), axis=0)
        return n / (1.0 - n) * float(_scaled_norm(sums)) / math.sqrt(sums.size)

    def evaluate(self, omegas: np.ndarray) -> np.ndarray:
        """Exponential sum sum_k c_k e^{-ik w}; returns one row per
        coefficient column.

        Per block of frequencies: q^0..q^B by repeated doubling, the inner
        sums of all J blocks as one matrix product, then Horner's rule in
        q^B over the blocks.  The sum starts at the lowest shift m, and q^m
        multiplies the result when m != 0.  A single shift (M = 1) is c 1.
        """
        om = np.asarray(omegas, dtype=float).ravel()
        low = int(self.shifts.min())
        span = int(self.shifts.max()) - low + 1
        cols = self.components.shape[1]
        B = math.isqrt(span - 1) + 1
        J = -(-span // B)
        table = np.zeros((J * B, cols), dtype=complex)
        np.add.at(table, self.shifts - low, self.components)
        # row c J + j holds block j of column c: c_{jB}..c_{jB+B-1}
        blocks = np.ascontiguousarray(table.reshape(J, B, cols).transpose(2, 0, 1)
                                      ).reshape(cols * J, B)
        out = np.empty((cols, om.size), dtype=complex)
        w = np.zeros(_CHUNK)
        powers = np.empty((B + 1, _CHUNK), dtype=complex)
        powers[0] = 1.0
        inner = np.empty((cols, J, _CHUNK), dtype=complex)
        for start in range(0, om.size, _CHUNK):
            n = min(_CHUNK, om.size - start)
            np.negative(om[start:start + n], out=w[:n])  # w holds -omega
            w[n:] = 0.0
            cis(w, out=powers[1])
            m = 1
            while m < B:  # q^{m+1}..q^{2m} from q^1..q^m and q^m
                top = min(2 * m, B)
                np.multiply(powers[1:top - m + 1], powers[m], out=powers[m + 1:top + 1])
                m = top
            np.matmul(blocks, powers[:B], out=inner.reshape(cols * J, _CHUNK))
            for c in range(cols):
                # Horner in q^B over the blocks, in place on the column's
                # contiguous rows; every row keeps the block's full length
                acc = inner[c, J - 1]
                for j in range(J - 2, -1, -1):
                    acc *= powers[B]
                    acc += inner[c, j]
                if low:
                    acc *= cis(low * w)
                out[c, start:start + n] = acc[:n]
        return out


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of a frequency-domain atom identity over a grid.

    atoms is the right-hand AtomSum; lhs and rhs hold one row per atom
    column, the pair (z, conj z) for the hypercomplex check.  residuals
    holds NaN at excluded frequencies; max_residual is taken over the
    admissible set and certifies the identity at this resolution when it
    does not exceed tail_bound, and tail_bound is below lhs_scale, the
    largest admissible RMS modulus of lhs: a bound as large as the identity
    itself says nothing about it.  lhs_scale is not part of the JSON report.
    """

    family: str
    order: str
    K: int
    omegas: np.ndarray
    residuals: np.ndarray
    admissible: np.ndarray
    max_residual: float
    tail_bound: float
    lhs_scale: float
    atoms: AtomSum
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def excluded_omegas(self) -> list:
        return [float(w) for w in self.omegas[~self.admissible]]

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
            "excluded_omegas": self.excluded_omegas,
        }

    def verified(self, tol: float | None = None) -> bool:
        """Whether max_residual meets tol; without one, whether it meets
        tail_bound and tail_bound is below lhs_scale."""
        if tol is None:
            return self.max_residual <= self.tail_bound < self.lhs_scale
        return self.max_residual <= tol


def _float_fuzz(*scales: float) -> float:
    return 64.0 * np.finfo(float).eps * (1.0 + max(scales, default=0.0))


@np.errstate(over="ignore", invalid="ignore")
def _residual_report(family: str, order: str, grid, block_lhs,
                     coeffs: np.ndarray, tail) -> ResidualReport:
    """The report on L^(w) B^(w) = sum_{k<=K} c_k e^{-ikw} over the grid,
    an array or a FrequencyGrid of at least one frequency, all finite: one
    row of lhs per column of coeffs, whose row k holds the atom c_k.

    block_lhs(w) gives the left-hand rows on a block of frequencies w and
    the mask of the zeros the verifier excludes there.  One pass over the
    blocks of _CHUNK frequencies forms lhs, the admissible set, the
    residuals and the lhs scale, so the only full-grid arrays are the
    report's.  The residual at a frequency is the root mean square of the
    column moduli (for the conjugate pair (z, conj z) that is the modulus
    of the (1, u) components), NaN off the admissible set; an empty
    admissible set is an EmptyAdmissibleSetError.  tail(lhs_scale, atoms)
    gives tail_bound from the largest admissible RMS modulus of lhs and the
    AtomSum.  An atom, an lhs or a tail bound that left the float range is
    a NumericError, and none of them raises a numpy warning first.
    """
    om, _ = _abscissae(grid.omegas if isinstance(grid, FrequencyGrid) else grid)
    if not om.size:
        raise ParameterError("empty frequency grid")
    what = f"the {family} identity at {order}"
    atoms = AtomSum(np.arange(len(coeffs)), _in_float_range(coeffs, what))
    rhs = atoms.evaluate(om)
    lhs = np.empty(rhs.shape, dtype=complex)
    admissible = np.empty(om.shape, dtype=bool)
    residuals = np.empty(om.shape)
    rms = math.sqrt(len(lhs))
    lhs_scale = 0.0
    for start in range(0, om.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        block, zero = block_lhs(om[part])
        lhs[:, part] = _in_float_range(block, what)
        ok = np.logical_not(zero, out=admissible[part])
        residuals[part] = np.where(
            ok, _column_norms(np.abs(block - rhs[:, part])) / rms, np.nan)
        if ok.any():
            lhs_scale = max(lhs_scale, float(np.max(_column_norms(np.abs(block))[ok])))
    if not admissible.any():
        raise EmptyAdmissibleSetError(
            f"no admissible frequencies on this grid: all {om.size} are zeros of a base")
    lhs_scale /= rms
    tail_bound = float(_in_float_range(tail(lhs_scale, atoms), what))
    return ResidualReport(
        family, order, len(coeffs) - 1, om, residuals, admissible,
        max_residual=float(np.nanmax(residuals)), tail_bound=tail_bound,
        lhs_scale=lhs_scale, atoms=atoms, lhs=lhs, rhs=rhs)


def _column_norms(moduli: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each column of one or two rows of moduli: for
    two rows, numpy's SIMD complex abs of the pair (row 0, row 1).  The
    caller takes the moduli, so that its complex rows are freed first."""
    if len(moduli) == 1:
        return moduli[0]
    pair = np.empty(moduli.shape[1], dtype=complex)
    pair.real, pair.imag = moduli
    return np.abs(pair)


def _binomial_tail(z: complex, K: int, first: float, damping: float) -> float:
    """An upper bound on sum_{k>K} |binom(z, k)| e^{-damping k}, given its
    first term first = |binom(z, K+1)| e^{-damping (K+1)}; re z > 1.

    The term ratio is |k - z|/(k + 1) e^{-damping}.  For k > re z,
    log sqrt(1 + u) <= u/2 and log(1 + 1/k) <= 1/k give |k - z|/(k + 1)
    <= (k/(k + 1))^p for every p <= rate(k) = k ((re z + 1)/(k + 1)
    - (im z)^2 / (2 (k - re z)^2)), which increases with k towards
    re z + 1: the binomials decay like k^{-re z - 1}.  The terms are summed
    explicitly, from k = K + 1, up to the first k1 > re z with
    rate(k1) >= (re z + 2)/2; that is at or past the index where the
    ratio drops below 1, (im z)^2 < (re z + 1)(2k + 1 - re z).  From k1 on
    |c_k| <= |c_k1| (k1/k)^p e^{-damping (k - k1)} with p = rate(k1) > 1,
    whose sum is at most |c_k1| min(1 + k1/(p - 1), 1/(1 - e^{-damping})).
    Returns inf once the explicit sum overflows; _residual_report, which
    calls it, runs under np.errstate, so the overflow raises no warning.
    """
    x, y2 = z.real, z.imag ** 2
    decay = math.exp(-damping)

    def rate(k):
        return k * ((x + 1.0) / (k + 1.0) - y2 / (2.0 * (k - x) ** 2))

    k, mod, explicit = K + 1, first, 0.0
    while k <= x or rate(k) < (x + 2.0) / 2.0:
        if not math.isfinite(explicit + mod):
            return math.inf
        ks = np.arange(k, k + _CHUNK, dtype=float)
        mods = mod * np.cumprod(np.abs(ks - z) / (ks + 1.0) * decay)
        explicit += mod + float(np.sum(mods[:-1]))
        k, mod = k + _CHUNK, float(mods[-1])
    majorant = 1.0 + k / (rate(k) - 1.0)
    if damping > 0:
        majorant = min(majorant, 1.0 / -math.expm1(-damping))
    return explicit + mod * majorant


def _verify_binomial_atoms(family: str, order: str, K: int, grid,
                           base_logs, exponents, damping: float = 0.0):
    """Check (base1 base2)^e = sum_{k<=K} (-1)^k binom(e,k) e^{-damping k}
    e^{-ikw} for each exponent e at once, one atom-sum column per exponent.

    base_logs(w) gives the principal logs of the two bases at the
    frequencies w with the masks of their zeros, as _principal_log gives
    them.  The left side is the principal power of their sum:
    exp(a) exp(b) = exp(a + b), so it is base1^e base2^e, and 0 where a
    base is 0, and the frequencies excluded are those zeros.  It is formed
    one block at a time, so no log outlives its block.  The exponents are z
    or the pair (z, conj z), whose binomials have the same moduli.  The
    tail is _binomial_tail's bound on the atoms past K, plus the rounding
    of the atom sum, AtomSum.rounding_bound(), and that of the left side,
    _float_fuzz(lhs_scale).
    """
    if K < 1:
        raise ParameterError("truncation K must be positive")

    def block_lhs(w):
        (log1, zero), (log2, zero2) = base_logs(w)
        log1 += log2
        zero |= zero2
        return _principal_power(log1, zero, exponents), zero

    binoms = np.stack([binom_complex_sequence(e, K + 1) for e in exponents], axis=1)
    k = np.arange(K + 1)
    weights = (-1.0) ** k * np.exp(-damping * k)

    first = abs(binoms[K + 1, 0]) * math.exp(-damping * (K + 1))
    return _residual_report(
        family, order, grid, block_lhs, binoms[: K + 1] * weights[:, None],
        lambda lhs_scale, atoms: (_binomial_tail(exponents[0], K, first, damping)
                                  + atoms.rounding_bound() + _float_fuzz(lhs_scale)))


def _z_label(z: complex) -> str:
    return f"z={z.real:g}{z.imag:+g}i" if z.imag else f"z={z.real:g}"


def verify_atom_identity_complex(z, K: int, grid) -> ResidualReport:
    """Check (iw)^z Omega(w)^z against the truncated exponential sum of the
    alternating binomial atom coefficients."""
    z = complex_order(z)
    return _verify_binomial_atoms(
        "complex", _z_label(z), K, grid,
        lambda w: (_log_iomega(w), _principal_log(omega_fn(w))), (z,))


def verify_atom_identity_expz(a: float, z, K: int, grid) -> ResidualReport:
    """Check (a+iw)^z Omega_a(w)^z against the exponentially damped
    binomial atom sum."""
    a = positive_damping(a)
    z = complex_order(z)
    return _verify_binomial_atoms(
        "complex-exponential", f"a={a:g}, {_z_label(z)}", K, grid,
        lambda w: (_principal_log(a + 1j * w), _principal_log(omega_a_fn(a, w))), (z,),
        damping=a)


def verify_atom_identity_hc(upsilon: Paravector, K: int, grid) -> ResidualReport:
    """Check (iw)^Y Omega(w)^Y against the hypercomplex binomial atom sum.

    iw is the Fourier symbol of the derivative under the transform
    convention of the fourier module; the identity does not hold under -iw.
    The report's lhs and rhs rows are the pair (z, conj z), which
    subalgebra_from_idempotent maps to the (1, u) components.
    """
    dec = hypercomplex_exponent(upsilon)
    comps_label = ",".join(f"{c:g}" for c in [upsilon.s, *upsilon.v.tolist()])
    return _verify_binomial_atoms(
        "hypercomplex", f"upsilon=({comps_label})", K, grid,
        lambda w: (_log_iomega(w), _principal_log(omega_fn(w))), (dec.z, dec.z.conjugate()))


def classical_atom_check(n: int, grid) -> ResidualReport:
    """Check (iw)^n Omega(w)^n = (1 - e^{-iw})^n = sum (-1)^k C(n,k) e^{-ikw}:
    the exponential check at n zero weights.  Its atoms sum to 2^n in
    modulus, so n must not exceed 1023."""
    n = integer_order(n)
    if n > 1023:
        raise NumericError(f"the atoms of order n = {n} sum to 2^n, which overflows a float")
    return _exact_atom_check("classical", f"n={n}", (0.0,) * n, grid)


def exp_difference_check(weights, grid) -> ResidualReport:
    """Check the exponential difference identity in the frequency domain:
    prod_k (iw - a_k) times the transform of the weight-(a_k) exponential
    B-spline equals prod_k (1 - e^{a_k} e^{-iw}), whose expansion in e^{-iw}
    gives the atoms."""
    wts = exponential_weights(weights)
    return _exact_atom_check("exponential", "a=(" + ",".join(f"{a:g}" for a in wts) + ")",
                             wts, grid)


def _exact_atom_check(family: str, order: str, weights, grid) -> ResidualReport:
    """The exact identity prod_k (iw - a_k) Omega_{-a_k}(w) = prod_k
    (1 - e^{a_k} e^{-iw}) for any float weights, zero ones included.  The
    left side is taken one factor (iw - a_k) Omega_{-a_k}(w) at a time, so
    each partial product is bounded by prod_k (1 + e^{a_k}), and no
    frequency is excluded.  The tail is _float_fuzz times the n + 1 atoms."""
    def block_lhs(w):
        lhs = np.ones(w.shape, dtype=complex)
        for a, ratio in zip(weights, _exp_ratios(weights, w)):
            lhs = np.multiply(lhs, np.multiply(1j * w - a, ratio))
        return lhs[None], np.zeros(w.shape, dtype=bool)

    poly = exp_difference_coefficients(weights)
    return _residual_report(
        family, order, grid, block_lhs, poly.astype(complex)[:, None],
        lambda lhs_scale, atoms: _float_fuzz(lhs_scale, atoms.sup_norm()) * poly.size)


# -- Mellin-type identity ----------------------------------------------------

# The rotated ray t = r e^{-i theta}, theta < pi/2, and the trapezoid with
# step h in u = log(w r) over [-40, 5].  Left of -40, e^u < 2^-57 and the
# terms are a geometric series in e^{-zh}; right of 5 they are below e^-100.
_MELLIN_THETA = math.pi / 4
_MELLIN_STEP = 0.1
_MELLIN_U = np.arange(-40.0, 5.0, _MELLIN_STEP)
# Past this |v| the rule loses more than about 1e-7 (see mellin_check).
_MELLIN_VMAX = 20.0


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
    its size.  So |v| must not exceed 20: there the deviation was at most
    about 1e-7 of |rhs| over x0 in {0.05, 0.5, 0.9} and w in {0.5, 1, 5},
    against 6e-2 at |v| = 35 and NaN from overflowing terms at |v| = 1000.
    Below x0 of about 5.6e-308 the left tail's 1/(1 - e^{-z h}) or the
    columns' sum overflows, though Gamma(x0) is finite down to 5.6e-309:
    there the check raises NumericError.
    """
    dec = HypercomplexExponent.from_paravector(upsilon)
    if not 0.0 < dec.x0 < 1.0:
        raise DomainError(f"the Mellin check needs scalar part in (0, 1), got {dec.x0:g}")
    if dec.vnorm > _MELLIN_VMAX:
        raise DomainError(f"the Mellin check needs |v| <= {_MELLIN_VMAX:g}, got {dec.vnorm:g}")
    omega = float(omega)
    if not 0 < omega < math.inf:
        raise DomainError(f"the Mellin check needs finite omega > 0, got {omega:g}")
    g = gamma(dec.z)
    z = np.array([dec.z, dec.z.conjugate()])
    log_omega = math.log(omega)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(np.outer(z, _MELLIN_U - log_omega - 1j * _MELLIN_THETA)
                       - 1j * np.exp(_MELLIN_U - 1j * _MELLIN_THETA))
        left = terms[:, 0] / -np.expm1(-_MELLIN_STEP * z)
        integrals = _MELLIN_STEP * (left + terms[:, 1:].sum(axis=1))
        columns = np.array([g, g.conjugate()]) * _principal_power(*_log_iomega(omega), -z)[:, 0]
        pairs = [subalgebra_from_idempotent(*integrals), subalgebra_from_idempotent(*columns)]
    _in_float_range(pairs, f"the Mellin check at scalar part {dec.x0:g}")
    lhs, rhs = (dec.paravector(*pair) for pair in pairs)
    return MellinCheckResult(lhs, rhs, float((lhs - rhs).norm()))
