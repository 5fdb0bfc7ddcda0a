import cmath
import math
import re
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracspline import (
    NumericError,
    OrderError,
    ParameterError,
    Paravector,
    eval_bn,
    eval_bupsilon,
    eval_bupsilon_components,
    eval_bz,
    eval_exp_bspline,
    eval_ez,
    frac_integral,
    gamma,
    gamma_hc,
    hat_bupsilon,
    hat_bupsilon_components,
    hat_bz,
    hat_en,
    hat_ez,
    hc_power,
    mellin_check,
    omega_a_fn,
    omega_fn,
    shifted_frac_derivative,
    verify_atom_identity_expz,
)
from fracspline.fracops import SampledSignal
from fracspline.splines import (
    _MAX_CLASSICAL_ORDER,
    complex_order,
    exponential_weights,
    hypercomplex_exponent,
    integer_order,
    real_order,
    series_terms,
)


# -- classical family -------------------------------------------------------------

def test_b1_is_unit_box():
    assert eval_bn(1, 0.5) == 1.0
    assert eval_bn(1, 0.0) == 1.0
    assert eval_bn(1, 1.0) == 0.0  # half-open convention
    assert eval_bn(1, -0.2) == 0.0
    assert eval_bn(1, 1.2) == 0.0


def test_bn_closed_form_values():
    assert abs(eval_bn(2, 1.0) - 1.0) < 1e-15
    assert abs(eval_bn(3, 1.5) - 0.75) < 1e-15
    # hat function is piecewise linear
    for x in (0.25, 0.75):
        assert abs(eval_bn(2, x) - x) < 1e-15
        assert abs(eval_bn(2, 2 - x) - x) < 1e-15


def _exact_bn(n: int, x: float) -> Fraction:
    """B_n(x) for 0 <= x < n as an exact rational: the truncated-power sum in
    integers, taken at n - x right of the centre (exact there, and B_n is
    symmetric), where it has fewer terms."""
    if x > n / 2:
        x = n - x
    num, den = Fraction(x).as_integer_ratio()
    total = sum((-1) ** k * math.comb(n, k) * (num - k * den) ** (n - 1)
                for k in range(math.floor(x) + 1))
    return Fraction(total, math.factorial(n - 1) * den ** (n - 1))


def test_bn_keeps_its_relative_accuracy_near_the_right_end():
    # the alternating series summed from the left read B_5(5 - 1e-6) as
    # 4.3e-15 against 4.2e-26
    for n in (3, 5, 8, 12):
        for gap in (1e-6, 1e-4, 1e-2, 0.1, 0.25, 0.5):
            x = n - gap
            exact = _exact_bn(n, x)
            assert abs(Fraction(eval_bn(n, x)) - exact) <= Fraction(1e-13) * exact, (n, x)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 20, 40, 80, 100, 150, 171, _MAX_CLASSICAL_ORDER])
def test_bn_is_within_half_n_eps_of_the_exact_rational(n):
    # the recurrence adds nonnegative terms, so the relative error grows with
    # the n steps alone: measured at most 0.29 n eps (at n = 5); the
    # alternating series read B_100(49.3) as 0.0309 against 0.134 and could
    # not take n > 171.  Points that underflow (B_n(x) < 2^-1022) are only
    # held to that bound; the exact sums at the cap take a second
    eps = 2.0 ** -52
    rng = np.random.default_rng(n)
    flanks = [1e-3, 0.25, 1.5]
    points = (flanks + [n - f for f in flanks] + list(range(0, n, max(1, n // 8)))
              + rng.uniform(0.0, n, 32 if n <= 171 else 6).tolist())
    xs = np.array([x for x in points if 0.0 <= x < n])
    for x, value in zip(xs.tolist(), eval_bn(n, xs).tolist()):
        exact = _exact_bn(n, x)
        if exact < Fraction(2.0 ** -1022):
            assert abs(Fraction(value) - exact) <= Fraction(2.0 ** -1022), (n, x)
        else:
            assert abs(Fraction(value) - exact) <= Fraction(0.5 * n * eps) * exact, (n, x)


def test_bn_order_past_the_cap_fails_by_name_before_any_work():
    # the recurrence takes n^2/2 steps per point; the classical verifier's cap
    # is the same n <= 1023
    for n in (_MAX_CLASSICAL_ORDER + 1, 10 ** 12):
        t0 = time.perf_counter()
        with pytest.raises(NumericError, match=f"^classical order n = {n} is past the cap "
                                               f"n <= {_MAX_CLASSICAL_ORDER}"):
            eval_bn(n, np.linspace(0.0, 1e4, 100_001))
        assert time.perf_counter() - t0 < 0.5


def test_bn_matches_convolution_recursion():
    # B_n(x) = integral_0^1 B_{n-1}(x - t) dt
    for n in (2, 3, 4):
        for x in (0.3, 1.1, 1.9, 2.5, 3.3):
            ref, _ = quad(lambda t: eval_bn(n - 1, x - t), 0, 1,
                          points=[x - k for k in range(n) if 0 < x - k < 1] or None,
                          limit=100)
            assert abs(eval_bn(n, x) - ref) < 1e-9, (n, x)


def test_bn_support():
    for n in (1, 2, 5):
        assert eval_bn(n, -0.01) == 0.0
        assert eval_bn(n, n) == 0.0
        assert eval_bn(n, n + 0.5) == 0.0


def test_bn_order_validation():
    with pytest.raises(OrderError):
        eval_bn(0, 0.5)


# -- complex order ------------------------------------------------------------------

def test_bz_terminating_matches_bn():
    xs = np.linspace(0, 3, 301)
    for x in xs:
        assert abs(eval_bz(3.0, x) - eval_bn(3, x)) <= 1e-12


def test_bz_support():
    assert eval_bz(2.5 + 1j, -0.1) == 0.0
    assert eval_bz(2.5 + 1j, -100.0) == 0.0


def test_bz_order_validation():
    with pytest.raises(OrderError):
        eval_bz(1.0, 0.5)
    with pytest.raises(OrderError):
        eval_bz(0.5 + 2j, 0.5)


def test_series_terms():
    assert series_terms(-1.0) == 0
    assert series_terms(0.0) == 1
    assert series_terms(2.7) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_series_terms_past_int64_is_a_numeric_error():
    # 2^63 - 1024, the last float below 2^63, still counts; a cast of 2^63
    # or more would wrap to -2^63
    last = 2.0 ** 63 - 1024.0
    assert series_terms(last) == 2 ** 63 - 1024
    for x, named in ((2.0 ** 63, 2.0 ** 63), ([0.5, 1e300, 1e301], 1e300)):
        with pytest.raises(NumericError, match=re.escape(f"x = {named:g} does not fit")):
            series_terms(x)


def test_bz_decay_slope():
    z = 2.5 + 1.0j
    xs = np.geomspace(20, 200, 40)
    mods = np.array([abs(eval_bz(z, x)) for x in xs])
    slope, _ = np.polyfit(np.log(xs), np.log(mods), 1)
    assert slope <= -(z.real + 0.5)


# -- family reduction chain ----------------------------------------------------------

def test_family_reduction_chain():
    rng = np.random.default_rng(19)
    xs = rng.uniform(0, 6, 100)
    alpha = 2.5
    n = 3
    for x in xs:
        hyper = eval_bupsilon(Paravector(alpha, [0.0]), x)
        real = eval_bz(alpha, x)
        assert abs(hyper.s - real.real) <= 1e-12
        assert abs(real.imag) <= 1e-12
        cplx = eval_bz(complex(n, 0.0), x)
        integer = eval_bn(n, x)
        assert abs(cplx - integer) <= 1e-12


# -- exponential family ----------------------------------------------------------------

def test_exp_bspline_single_segment():
    a = 0.7
    for x in (0.0, 0.25, 0.99):
        assert abs(eval_exp_bspline((a,), x) - math.exp(a * x)) < 1e-14
    assert eval_exp_bspline((a,), 1.0) == 0.0
    assert eval_exp_bspline((a,), -0.5) == 0.0


def test_exp_bspline_two_weights_closed_form():
    # direct convolution integral gives (e^{ax} - e^{bx})/(a - b) on [0, 1]
    a, b = 1.0, 2.0
    for x in np.linspace(0.05, 0.95, 7):
        ref = (math.exp(a * x) - math.exp(b * x)) / (a - b)
        assert abs(eval_exp_bspline((a, b), x) - ref) < 1e-8


def test_exp_bspline_classical_limit():
    # continuity in the weights: tiny equal weights approach B_n
    eps = 1e-6
    n = 3
    max_slope = 1.0  # B_3' peaks at 1 in modulus
    tol = 5 * eps * n * max_slope
    for x in (0.5, 1.5, 2.2):
        assert abs(eval_exp_bspline((eps,) * n, x) - eval_bn(n, x)) <= tol


def test_exp_bspline_support():
    assert eval_exp_bspline((1.0, 2.0), -0.3) == 0.0
    assert eval_exp_bspline((1.0, 2.0), 2.0) == 0.0
    assert eval_exp_bspline((1.0, 2.0), 2.4) == 0.0


def test_exp_weights_validation():
    with pytest.raises(ParameterError):
        exponential_weights((0.0, 0.0))
    with pytest.raises(ParameterError):
        exponential_weights(())
    assert exponential_weights((0, 1.0)) == (0.0, 1.0)
    assert exponential_weights(2) == (2.0,)


def quad_exp_bspline(weights, x, tol=1e-10):
    """The n-fold convolution of e^{a_k x} 1_[0,1) by recursive adaptive
    quadrature: an oracle independent of the closed form."""
    w = tuple(float(a) for a in weights)

    def level(k, t):
        if t < 0.0 or t >= k:
            return 0.0
        if k == 1:
            return math.exp(w[0] * t)
        lo, hi = max(0.0, t - (k - 1)), min(1.0, t)
        # kinks of the level below sit where t - s is an integer
        kinks = sorted(t - j for j in range(k) if lo < t - j < hi)
        val, _ = quad(lambda s: math.exp(w[k - 1] * s) * level(k - 1, t - s), lo, hi,
                      points=kinks or None, epsabs=tol * 1e-2, epsrel=tol * 1e-2, limit=200)
        return val

    return level(len(w), float(x))


def mp_exp_bspline(weights, x):
    """sum_{k<=x} p_k [expm((x-k) J)]_{n,1} at 40 digits."""
    n = len(weights)
    with mpmath.workdps(40):
        a = [mpmath.mpf(w) for w in weights]
        bidiagonal = mpmath.zeros(n)
        for i in range(n):
            bidiagonal[i, i] = a[i]
            if i:
                bidiagonal[i, i - 1] = 1
        poly = [mpmath.mpf(1)]
        for ai in a:
            poly = [c - mpmath.exp(ai) * d for c, d in zip(poly + [0], [0] + poly)]
        xx = mpmath.mpf(x)
        total = mpmath.fsum(poly[k] * mpmath.expm(bidiagonal * (xx - k))[n - 1, 0]
                            for k in range(int(math.floor(x)) + 1))
        return float(total)


# repeated, near-equal, nearly zero and mixed-sign weights, and six and
# eight weights with spreads up to 7
EXP_WEIGHTS = [(0.7,), (1.0, 2.0), (-0.4, -0.4), (0.3, 0.3 + 1e-9), (1e-6,) * 3,
               (1.0, 1.0, 1.0, -1.0), (-1.3, 0.2, 0.9, 1.4), (1.5,) * 4,
               (3.0, -2.5, 0.5, 1.0, -4.0, 2.0), (-1.2, 0.8, 0.3, 0.3, -0.5, 1.1, -2.0, 0.9)]


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("weights", EXP_WEIGHTS)
def test_exp_bspline_closed_form_matches_oracles(weights):
    n = len(weights)
    xs = np.array([1e-9, 0.3, 1.0, n / 2, n - 0.7, n - 1e-9]
                  + [k + 0.45 for k in range(n)])
    got = eval_exp_bspline(weights, xs)
    for x, g in zip(xs, got):
        if n <= 4:  # n nested quad calls: past four weights they take minutes
            assert abs(g - quad_exp_bspline(weights, x)) <= 1e-10, (x, g)
        ref = mp_exp_bspline(weights, x)
        # the tolerance eval_exp_bspline states
        assert abs(g - ref) <= 2e-13 * max(1.0, abs(ref)), (x, g, ref)


def test_exp_bspline_exact_zeros_off_support():
    for weights in EXP_WEIGHTS:
        n = len(weights)
        xs = np.array([-1e300, -0.5, -5e-324, n, n + 0.5, 1e9])
        got = eval_exp_bspline(weights, xs)
        assert np.all(got == 0.0) and not np.any(np.signbit(got)), weights


def test_exp_bspline_weights_past_the_float_range():
    # e^800 overflows a float: the same NumericError as hat_en's, not a
    # bare OverflowError from the difference coefficients
    for call in (lambda: eval_exp_bspline((800.0, -800.0), 0.5),
                 lambda: eval_exp_bspline((800.0, -800.0), [-1.0, 0.5, 3.0]),
                 lambda: hat_en((800.0, -800.0), 0.5)):
        with pytest.raises(NumericError, match=r"^e\^800 overflows a float$"):
            call()


# -- one code path for grids and points ------------------------------------------------

UPS = Paravector(2.5, [1.0, -1.0, 0.0])


def _hc_rows(xs):
    alpha, beta, dec = eval_bupsilon_components(UPS, xs)
    return np.column_stack([alpha] + [beta * uj for uj in dec.u])


FAMILY_CALLS = {
    "classical": (lambda xs: eval_bn(4, xs), lambda x: eval_bn(4, x)),
    "fractional": (lambda xs: eval_bz(2.7, xs).real, lambda x: eval_bz(2.7, x).real),
    "complex": (lambda xs: eval_bz(2.5 - 1j, xs), lambda x: eval_bz(2.5 - 1j, x)),
    "exponential": (lambda xs: eval_exp_bspline((1.0, -0.5, -0.5), xs),
                    lambda x: eval_exp_bspline((1.0, -0.5, -0.5), x)),
    "complex-exponential": (lambda xs: eval_ez(0.7, 3.1 + 1.2j, xs),
                            lambda x: eval_ez(0.7, 3.1 + 1.2j, x)),
    "hypercomplex": (_hc_rows, lambda x: np.array([eval_bupsilon(UPS, x).s,
                                                   *eval_bupsilon(UPS, x).v])),
}

GRIDS = {
    "negative and integer x": np.array([-2.0, -0.5, 0.0, 0.25, 1.0, 1.5, 2.0, 2.75,
                                        3.0, 4.0, 7.5, 12.0]),
    "descending": np.linspace(9.0, -1.0, 41),
    "one point": np.array([1.25]),
    "no points": np.array([]),
}


@pytest.mark.parametrize("family", FAMILY_CALLS)
@pytest.mark.parametrize("grid", GRIDS)
def test_array_call_equals_scalar_calls_bit_for_bit(family, grid):
    array_call, scalar_call = FAMILY_CALLS[family]
    xs = GRIDS[grid]
    got = np.asarray(array_call(xs))
    want = np.array([scalar_call(float(x)) for x in xs], dtype=got.dtype)
    assert got.shape[0] == xs.size
    assert got.tobytes() == want.reshape(got.shape).tobytes()


def test_array_calls_keep_the_shape():
    xs = np.linspace(-1.0, 5.0, 12).reshape(3, 4)
    assert eval_bz(2.5 + 1j, xs).shape == (3, 4)
    assert eval_bn(3, xs).shape == (3, 4)
    assert series_terms(xs).tolist() == [[series_terms(x) for x in row] for row in xs.tolist()]
    assert isinstance(eval_bz(2.5 + 1j, 1.5), complex)
    assert isinstance(eval_exp_bspline((1.0, 2.0), 0.5), float)


def test_gamma_underflow_and_overflow_are_numeric_errors():
    # |Gamma(2.5 + 1000i)| underflows to 0; dividing by it is meaningless
    with pytest.raises(NumericError):
        eval_bz(2.5 + 1000j, [0.0, 1.5])
    with pytest.raises(NumericError):
        eval_ez(0.5, 2.5 + 1000j, 1.5)
    with pytest.raises(NumericError):
        eval_bupsilon(Paravector(2.5, [600.0, 800.0]), 1.5)
    with pytest.raises(NumericError):  # Gamma(200) overflows
        eval_bz(200.0, 1.5)
    # gamma owns that rule: Gamma overflows from re z of about 171.6, which
    # used to end in a bare OverflowError outside eval_bz
    for call in (lambda: gamma(200),
                 lambda: gamma_hc(Paravector(200.0, [1.0])),
                 lambda: frac_integral(200, SampledSignal(0.0, 0.1, np.ones(8)))):
        with pytest.raises(NumericError):
            call()
    # left of the support nothing is divided
    assert eval_bz(2.5 + 1000j, -1.0) == 0.0


# -- complex exponential family ------------------------------------------------------

def test_ez_support():
    assert eval_ez(1.0, 2.5, -1.0) == 0.0


def test_ez_single_term_value():
    got = eval_ez(1.0, 2.0, 0.5)
    assert abs(got - 0.5 * math.exp(-0.5)) < 1e-14


def test_ez_integer_order_matches_convolution():
    # order n with damping a is the n-fold convolution of e^{-a x} 1_[0,1)
    a = 1.0
    for x in (0.4, 1.3, 1.8):
        ref = eval_exp_bspline((-a, -a), x)
        assert abs(eval_ez(a, 2.0, x) - ref) < 1e-8, x


def _mp_series(z, x, a=0.0):
    """(1/Gamma(z)) sum_l binom(z,l) (-1)^l e^{-la} e^{-a(x-l)} (x-l)_+^{z-1}
    summed term by term at 30 digits."""
    with mpmath.workdps(30):
        z = mpmath.mpc(z.real, z.imag)
        x, a = mpmath.mpf(x), mpmath.mpf(a)
        total = mpmath.mpf(0)
        for ell in range(int(math.floor(x)) + 1):
            t = x - ell
            if t > 0:
                total += (mpmath.binomial(z, ell) * (-1) ** ell * mpmath.exp(-ell * a)
                          * mpmath.exp(-a * t) * t ** (z - 1))
        return complex(total / mpmath.gamma(z))


def test_bz_far_from_the_origin_matches_the_oracle():
    # the terms cancel more as x grows; eps * sum |t_k| bounds the error
    for z, x, tol in ((1.5, 20.5, 1e-8), (1.5, 50.5, 1e-8), (2.5 + 1j, 50.5, 1e-5)):
        ref = _mp_series(complex(z), x)
        assert abs(eval_bz(z, x) - ref) <= tol * abs(ref), (z, x)


def test_ez_equals_damped_bz():
    # the series factorizes as e^{-ax} B_z(x)
    a, z = 0.8, 2.5 + 0.5j
    for x in (0.7, 2.2, 4.9):
        assert abs(eval_ez(a, z, x) - math.exp(-a * x) * eval_bz(z, x)) < 1e-12
    # and matches the damped series summed in high precision
    for a in (0.8, 1.9):
        for x in (0.7, 2.2, 4.9, 7.5):
            ref = _mp_series(z, x, a)
            assert abs(eval_ez(a, z, x) - ref) <= 1e-9 * abs(ref), (a, x)


def test_ez_parameter_validation():
    with pytest.raises(ParameterError):
        eval_ez(0.0, 2.5, 1.0)
    with pytest.raises(ParameterError):
        eval_ez(-1.0, 2.5, 1.0)
    with pytest.raises(OrderError):
        eval_ez(1.0, 0.9, 1.0)


# -- hypercomplex family ----------------------------------------------------------------

def test_bupsilon_complex_oracle():
    ups = Paravector(2.5, [1.0])
    for x in (0.4, 1.7, 3.2, 6.8):
        got = eval_bupsilon(ups, x)
        ref = eval_bz(2.5 + 1.0j, x)
        assert abs(got.s - ref.real) <= 1e-12
        assert abs(got.v[0] - ref.imag) <= 1e-12
    # Cl(3), direction off the axes: the u part is Im B_{x0+i|v|} along v/|v|
    v = np.array([0.6, -0.8, 0.5])
    ups = Paravector(2.5, v)
    vn = float(np.linalg.norm(v))
    for x in (0.4, 1.7, 3.2, 6.8, 7.9):
        got = eval_bupsilon(ups, x)
        ref = _mp_series(complex(2.5, vn), x)
        assert abs(got.s - ref.real) <= 1e-13, x
        assert np.max(np.abs(got.v - ref.imag * v / vn)) <= 1e-13, x


def test_bupsilon_support_and_domain():
    ups = Paravector(2.5, [1.0, 1.0])
    assert eval_bupsilon(ups, -0.5).norm() == 0.0
    with pytest.raises(OrderError):
        eval_bupsilon(Paravector(1.0, [1.0]), 0.5)


def test_bupsilon_values_are_real_components():
    got = eval_bupsilon(Paravector(2.2, [0.6, 0.8]), 2.3)
    assert not isinstance(got.s, complex)


# -- order checks -------------------------------------------------------------------------

def test_spline_order_validation():
    nan = float("nan")
    for bad in (0, 2.5):
        with pytest.raises(OrderError):
            integer_order(bad)
    for bad in (1.0, nan):
        with pytest.raises(OrderError):
            real_order(bad)
    for bad in (1.0 + 1j, complex(nan, 1.0)):
        with pytest.raises(OrderError):
            complex_order(bad)
    for bad in (0.9, nan):
        with pytest.raises(OrderError):
            hypercomplex_exponent(Paravector(bad, [1.0]))
    assert (integer_order(3.0), real_order(2), complex_order(2)) == (3, 2.0, 2 + 0j)
    assert type(integer_order(3.0)) is int


def test_nan_and_infinite_orders_are_rejected():
    # int() of them raises ValueError or OverflowError, not the check's error
    inf, nan = float("inf"), float("nan")
    for bad in (nan, inf, -inf):
        with pytest.raises(OrderError):
            integer_order(bad)
        with pytest.raises(OrderError):
            eval_bn(bad, 1.0)
        with pytest.raises(OrderError):
            real_order(bad)
        with pytest.raises(ParameterError):
            exponential_weights((1.0, bad))
        for z in (complex(2.0, bad), complex(bad, 1.0)):
            with pytest.raises(OrderError):
                complex_order(z)
        for ups in (Paravector(2.5, [1.0, bad]), Paravector(bad, [1.0])):
            with pytest.raises(OrderError):
                hypercomplex_exponent(ups)
        # the Gamma, the power and the Mellin check reject it as well,
        # rather than divide by zero, return NaN or fail in math.log
        for ups in (Paravector(0.5, [bad]), Paravector(bad, [1.0])):
            for call in (lambda: gamma_hc(ups),
                         lambda: hc_power(2.0, ups),
                         lambda: mellin_check(ups, 1.0)):
                with pytest.raises(OrderError):
                    call()
    # Gamma used to divide by zero at an infinite imaginary part, and a
    # NaN weight used to give NaN values
    with pytest.raises(OrderError):
        eval_bz(complex(2.0, inf), 1.0)
    with pytest.raises(ParameterError):
        eval_exp_bspline((nan,), 0.5)
    # NaN and +inf are no finite damping a > 0: the damped evaluator,
    # transform, verifier and operator reject them rather than return NaN
    # or 0
    signal = SampledSignal(0.0, 0.1, np.linspace(0.0, 1.0, 11) ** 2)
    for a in (nan, inf):
        for call in (lambda: eval_ez(a, 2.5, x=1.0),
                     lambda: hat_ez(a, 2.5, 1.0),
                     lambda: verify_atom_identity_expz(a, 2.5, 20, [0.5, 1.0]),
                     lambda: shifted_frac_derivative(a, 0.5, signal)):
            with pytest.raises(ParameterError):
                call()


def test_non_finite_points_are_rejected():
    # no value is defined at NaN or +-inf: eval_bz(2.5, nan) used to be 0j,
    # eval_bn and eval_exp_bspline gave 0.0, eval_ez NaN, and eval_bz(2.5, inf)
    # a bare OverflowError; one bad point fails a whole grid
    ups = Paravector(2.5, [1.0, -1.0])
    grid_calls = (lambda x: eval_bn(3, x),
                  lambda x: eval_bz(2.5, x),
                  lambda x: eval_bz(2.5 + 1j, x),
                  lambda x: eval_exp_bspline((1.0, -0.5), x),
                  lambda x: eval_ez(0.5, 2.5, x),
                  lambda x: eval_bupsilon_components(ups, x),
                  lambda x: series_terms(x),
                  lambda x: omega_fn(x),
                  lambda x: omega_a_fn(0.7, x),
                  lambda x: hat_bz(2.5 + 1j, x),
                  lambda x: hat_en((1.0, -0.5), x),
                  lambda x: hat_ez(0.7, 2.5, x),
                  lambda x: hat_bupsilon_components(ups, x))
    point_calls = (lambda x: eval_bupsilon(ups, x), lambda x: hat_bupsilon(ups, x))
    for bad in (float("nan"), float("inf"), -float("inf")):
        for call in grid_calls:
            for x in (bad, np.array([0.5, bad, 1.5]), np.array([[bad]])):
                with pytest.raises(ParameterError):
                    call(x)
        for call in point_calls:
            with pytest.raises(ParameterError):
                call(bad)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-100.0, max_value=-1e-9))
def test_left_support_is_exact_zero(x):
    assert eval_bn(3, x) == 0.0
    assert eval_bz(2.5 + 1j, x) == 0.0
    assert eval_ez(1.0, 2.5, x) == 0.0
    assert eval_exp_bspline((1.0, 2.0), x) == 0.0
    assert eval_bupsilon(Paravector(2.5, [1.0]), x).norm() == 0.0


def per_shift_sum(xs, coeffs, kernel):
    """The plain per-shift pass with new arrays per shift."""
    order = np.argsort(xs, kind="stable")
    xsorted = xs[order]
    total = np.zeros(xs.size, dtype=np.result_type(coeffs[0], float))
    for k, c in enumerate(coeffs):
        start = int(np.searchsorted(xsorted, k, "left"))
        if start == xs.size:
            break
        total[start:] = total[start:] + np.multiply(c, kernel(xsorted[start:] - k))
    out = np.empty_like(total)
    out[order] = total
    return out


def test_shifted_sum_keeps_the_bits_of_per_shift_arrays():
    # one term buffer allocated once, with the coefficient the left operand
    # of every product: complex and real coefficients and kernels, shuffled
    # and repeated points, integers, where x - k = 0 takes its term
    from fracspline.specialfn import binom_complex_sequence
    from fracspline.splines import _shifted_sum

    rng = np.random.default_rng(20)
    xs = np.concatenate([rng.permutation(np.linspace(0.0, 40.0, 6001)),
                         [3.0, 3.0, 0.0, 12.5, 39.999]])
    z = 4.0 + 0.5j
    complex_coeffs = binom_complex_sequence(z, 40) * (-1.0) ** np.arange(41)
    cases = [(complex_coeffs, lambda t: np.exp((z - 1.0) * np.log1p(t))),
             ([float((-1) ** k * math.comb(6, k)) for k in range(6)],
              lambda t: np.float_power(t, 5)),
             (rng.normal(size=30), lambda t: np.exp(-t) * t)]
    for coeffs, kernel in cases:
        got = _shifted_sum(xs, coeffs, kernel)
        assert np.array_equal(got.view(np.uint64),
                              per_shift_sum(xs, coeffs, kernel).view(np.uint64))


# -- the cell form of eval_bz ------------------------------------------------------

EPS = 2.0 ** -52


def _mp_series_and_mass(z, x):
    """B_z(x) by its series in 50 digits, and sum_k |t_k| / |Gamma(z)|, the
    scale of the rounding error of any summation of the terms t_k."""
    with mpmath.workdps(50):
        zz, xx = mpmath.mpc(z.real, z.imag), mpmath.mpf(x)
        total, mass, c = mpmath.mpc(0), mpmath.mpf(0), mpmath.mpc(1)
        for k in range(int(math.floor(x)) + 1):
            if xx - k > 0:
                term = c * (xx - k) ** (zz - 1)
                total += term
                mass += abs(term)
            c *= -(zz - k) / (k + 1)
        g = mpmath.gamma(zz)
        return complex(total / g), float(mass / abs(g))


# time-grid orders: 1.1 <= re z <= 6, |im z| <= 2, and a real one
ERROR_MODEL_ORDERS = (1.1 + 0.3j, 1.8 - 1.9j, 2.5 + 1.0j, 3.3 - 0.4j, 3.7 + 0j,
                      4.6 + 2.0j, 5.9 - 1.2j)
# the rounding error stays within this many eps * sum |t_k| / |Gamma(z)|; the
# draws below measure at most 4.8, with the cell form and with a plain
# per-shift sum, and 690 random draws at most 8.5
ERROR_MODEL_C = 16.0


@pytest.mark.parametrize("z", ERROR_MODEL_ORDERS)
def test_bz_error_is_eps_times_the_mass_of_its_terms(z):
    rng = np.random.default_rng([30, int(10 * z.real), int(10 * z.imag) % 100])
    xs = np.concatenate([rng.uniform(0.0, 60.0, 14), [0.37, 7.0, 59.999]])
    got = eval_bz(z, xs)
    for x, value in zip(xs, got):
        ref, mass = _mp_series_and_mass(z, x)
        assert abs(value - ref) <= ERROR_MODEL_C * EPS * mass, (z, x)


@pytest.mark.parametrize("z", [20.0, 20.0 + 1.5j, 80.0 + 0.5j])
def test_bz_left_flank_of_high_orders_keeps_its_digits(z):
    # x <= re z / 4 + 0.1: the terms barely cancel and the value keeps all but
    # a few of its digits, at about 6e-14 relative
    xs = np.linspace(0.35, z.real / 4 + 0.1, 7)
    for x, value in zip(xs, eval_bz(z, xs)):
        ref, _ = _mp_series_and_mass(complex(z), x)
        assert abs(value - ref) <= 2e-13 * abs(ref), (z, x)


@pytest.mark.parametrize("z", [2.5 - 1.0j, 3.7 + 0j, 4.6 + 1.3j])
def test_cell_table_leaves_each_point_its_bits(z):
    # a point's value depends on (z, x) alone: alone, in a dense 60-cell grid,
    # in a shifted sub-grid, descending and shuffled
    from fracspline.splines import _cell_form

    assert _cell_form(complex(z) - 1.0)[0] >= 2
    dense = np.linspace(0.0, 60.0, 6001)
    want = eval_bz(z, dense)
    probes = np.arange(0, dense.size, 97)
    alone = np.array([eval_bz(z, float(dense[i])) for i in probes])
    assert alone.tobytes() == want[probes].tobytes()
    sub = np.arange(2503, dense.size, 7)
    assert eval_bz(z, dense[sub]).tobytes() == want[sub].tobytes()
    assert eval_bz(z, dense[::-1]).tobytes() == want[::-1].tobytes()
    order = np.random.default_rng(31).permutation(dense.size)
    assert eval_bz(z, dense[order]).tobytes() == want[order].tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_time_domain_overflow_is_a_numeric_error():
    # a term (x-k)^{n-1} C(n,k) past the float range next to the centre
    with pytest.raises(NumericError, match=r"order \(120\+0j\)"):
        eval_bz(120, [200.0, 250.0])
    with pytest.raises(NumericError):
        eval_ez(0.5, 120, [250.0])
    # below the float range the same calls stay quiet
    assert cmath.isfinite(eval_bz(150, 2.5))
    # the classical family forms no such term: the alternating series
    # overflowed here from n = 160 on, and the recurrence gives the value
    for n, xs in ((170, [85.0]), (160, [10.0, 80.0]), (159, [79.5])):
        for x, value in zip(xs, eval_bn(n, xs).tolist()):
            exact = _exact_bn(n, x)
            assert abs(Fraction(value) - exact) <= Fraction(0.5 * n * 2.0 ** -52) * exact


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_far_abscissa_fails_by_name_before_any_work():
    for x in (1e9, 1e300):
        t0 = time.perf_counter()
        with pytest.raises(NumericError, match=re.escape(f"x = {x:g} needs")):
            eval_bz(2.5 + 1j, [0.5, x])
        assert time.perf_counter() - t0 < 1.0


def test_order_next_to_one_takes_one_near_shift():
    # 2^{1/|z - 1|} overflows a float here; J is 1 and the value is B_z, which
    # tends to the unit box as z -> 1
    from fracspline.splines import _cell_form

    z = 1.0 + 1e-7
    assert _cell_form(complex(z) - 1.0)[0] == 1
    xs = np.array([0.25, 0.75, 1.5, 7.25, 30.5])
    got = eval_bz(z, xs)
    assert abs(got[0] - 1.0) < 1e-6 and abs(got[1] - 1.0) < 1e-6
    assert np.all(np.abs(got[2:]) < 1e-6)
