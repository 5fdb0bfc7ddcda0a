import cmath
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, simpson

from fracspline import (
    FrequencyGrid,
    NumericError,
    OrderError,
    ParameterError,
    Paravector,
    eval_bn,
    eval_ez,
    eval_exp_bspline,
    fit_decay_slope,
    hat_bupsilon,
    hat_bupsilon_components,
    hat_bz,
    hat_en,
    hat_ez,
    inverse_quadrature,
    omega_a_fn,
    omega_fn,
)
from fracspline.specialfn import _CIS_BLOCK

# -- base ratio ----------------------------------------------------------------

def test_omega_at_zero():
    assert omega_fn(0.0) == 1.0


def test_omega_at_pi():
    assert abs(omega_fn(math.pi) - (-2j / math.pi)) < 1e-15
    assert abs(abs(omega_fn(math.pi)) - 2 / math.pi) < 1e-15


def test_omega_zeros():
    for k in (1, -1, 2, -2):
        assert abs(omega_fn(2 * math.pi * k)) < 1e-15


def test_omega_matches_mpmath_to_an_ulp():
    # the floats next to every zero 2 pi m and 1e-9 and 1e-4 away, tiny |w|,
    # both sides of |w| = 1e-2 and large |w|, against 40-digit values of
    # (1 - e^{-iw}) / (iw): the quotient itself loses up to 1e-9 near 2 pi m
    centres = 2 * math.pi * np.arange(-20, 21)
    ws = np.concatenate([
        np.linspace(-60.0, 60.0, 1200),
        (centres[:, None] + [-1e-4, -1e-9, 1e-9, 1e-4]).ravel(),
        np.nextafter(centres, math.inf), np.nextafter(centres, -math.inf),
        [1e-300, -1e-300, 1e-20, -1e-15, 1e-8, 0.999e-2, 1.001e-2, -1e-2, 1e8, -1e8],
    ])
    got = omega_fn(ws)
    with mpmath.workdps(40):
        for w, value in zip(ws, got):
            iw = mpmath.mpc(0, float(w))
            ref = (1 - mpmath.exp(-iw)) / iw
            assert abs(mpmath.mpc(complex(value)) - ref) <= 1e-15 * abs(ref), w


def test_omega_conjugate_symmetry():
    ws = np.concatenate([np.linspace(0.1, 30, 57), 2 * math.pi * np.arange(1, 6),
                         [1e-300, 1e-15, 1e-2, 1e8]])
    assert np.array_equal(omega_fn(-ws), np.conj(omega_fn(ws)))


@pytest.mark.parametrize("transform", [
    omega_fn,
    lambda w: omega_a_fn(0.7, w),
    lambda w: hat_bz(2.5 + 1j, w),
    lambda w: hat_ez(0.7, 2.5 + 1j, w),
])
def test_one_frequency_gets_the_bits_of_its_grid(transform):
    ws = np.linspace(-12.0, 12.0, 5001)
    grid = transform(ws)
    for i in range(0, ws.size, 7):
        assert transform(ws[i]) == grid[i], ws[i]
        assert transform(ws[i:i + 1])[0] == grid[i], ws[i]


def test_omega_a_values():
    a = 0.8
    assert abs(omega_a_fn(a, 0.0) - (1 - math.exp(-a)) / a) < 1e-15
    assert omega_a_fn(0.0, 1.3) == omega_fn(1.3)
    got = omega_a_fn(1.0, math.pi)
    ref = (1 + math.exp(-1)) / (1j * math.pi + 1)
    assert abs(got - ref) < 1e-15


def test_omega_a_near_the_zeros_of_omega_at_small_damping():
    # 1 - e^{-a} cos w once cancelled here, to a relative error of 1.1e-9 at
    # a = 1e-8 and w = 10 pi; without a difference the worst measured against
    # 50-digit values is 2.4e-16
    ws = (2 * math.pi * np.arange(1, 6)[:, None] + [-1e-3, 0.0, 1e-3]).ravel()
    ws = np.concatenate([ws, -ws])
    with mpmath.workdps(50):
        for a in (1e-2, 1e-5, 1e-8):
            for w, value in zip(ws.tolist(), omega_a_fn(a, ws).tolist()):
                ref = (1 - mpmath.exp(-a) * mpmath.exp(mpmath.mpc(0, -w))) / mpmath.mpc(a, w)
                assert abs(mpmath.mpc(value) - ref) <= 1e-15 * abs(ref), (a, w)


@pytest.mark.parametrize("a", [5e-324, -5e-324, 1e-310, -1e-310, 5e-309])
def test_omega_a_at_a_subnormal_damping(a):
    # 1/(a + iw) overflowed in numpy's complex division below 1/DBL_MAX, which
    # made omega_a_fn(a, 0) inf+nanj where it is 1
    ws = np.array([0.0, 1e-310, -1e-310, 1e-300, -1e-300, 0.5, 2 * math.pi])
    with mpmath.workdps(50):
        for w, value in zip(ws.tolist(), omega_a_fn(a, ws).tolist()):
            s = mpmath.mpc(a, w)
            ref = -mpmath.expm1(-s) / s
            assert abs(mpmath.mpc(value) - ref) <= 1e-15 * abs(ref), (a, w)
    assert abs(hat_en((a, 1.0), 0.0) - math.expm1(1.0)) <= 1e-15
    if a > 0:
        assert abs(hat_ez(a, 2.5, 0.0) - 1.0) <= 1e-15


def test_omega_a_rejects_a_non_finite_damping():
    for a in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            omega_a_fn(a, np.linspace(-3, 3, 7))


# -- transforms -----------------------------------------------------------------

def test_hat_bz_at_zero_is_one():
    assert hat_bz(2.5 + 1j, 0.0) == 1.0


def test_hat_bz_integer_matches_classical_form():
    ws = np.linspace(-15, 15, 101)
    ws = ws[np.abs(ws) > 0.2]
    got = hat_bz(4.0, ws)
    ref = ((1 - np.exp(-1j * ws)) / (1j * ws)) ** 4
    assert np.max(np.abs(got - ref)) < 1e-14


def test_hat_bz_principal_branch_value():
    z = 2.5 + 1j
    got = hat_bz(z, math.pi)
    ref = cmath.exp(z * cmath.log(-2j / math.pi))
    assert abs(got - ref) < 1e-14


def test_hat_bz_order_check():
    with pytest.raises(OrderError):
        hat_bz(1.0, 0.5)


def test_hat_bz_conjugate_symmetry_real_order():
    ws = np.linspace(0.05, 20, 77)
    assert np.allclose(hat_bz(2.5, -ws), np.conj(hat_bz(2.5, ws)),
                       rtol=0, atol=1e-14)


def test_hat_en_single_factor_against_quadrature_dft():
    # definitive convention check: the transform of e^{a x} 1_[0,1) is
    # computed directly as a quadrature DFT and must equal hat_en((a,), w)
    a = 1.0
    for w in (0.0, 1.0, 4.0, -3.0):
        re, _ = quad(lambda x: math.exp(a * x) * math.cos(w * x), 0, 1)
        im, _ = quad(lambda x: -math.exp(a * x) * math.sin(w * x), 0, 1)
        assert abs(complex(re, im) - hat_en((a,), w)) < 1e-12, w


def test_hat_en_is_product_of_negated_ratios():
    ws = np.linspace(-8, 8, 33)
    got = hat_en((-1.0,), ws)
    assert np.max(np.abs(got - omega_a_fn(1.0, ws))) < 1e-15
    got2 = hat_en((-1.0, -1.0), ws)
    assert np.max(np.abs(got2 - omega_a_fn(1.0, ws) ** 2)) < 1e-15


def test_hat_en_does_not_depend_on_grid_size():
    # a grid past numpy's 256 KiB temporary-elision threshold used to round
    # its complex products with the operands swapped, and a single
    # frequency rounded an in-place product differently
    ws = np.linspace(-40.0, 40.0, 73333)
    weights = (1.119155, -0.369429)
    grid = hat_en(weights, ws)
    assert np.array_equal(grid[:1000], hat_en(weights, ws[:1000]))
    for i in range(0, 1000, 7):
        assert hat_en(weights, ws[i]) == grid[i], ws[i]


def test_hat_en_dft_consistency():
    h = 1 / 256
    xs = np.arange(0, 2 + h / 2, h)
    samples = np.array([eval_exp_bspline((1.0, 2.0), x) for x in xs])
    from scipy.integrate import simpson
    ws = np.linspace(-8, 8, 33)
    dft = np.array([simpson(samples * np.exp(-1j * w * xs), dx=h) for w in ws])
    assert np.max(np.abs(dft - hat_en((1.0, 2.0), ws))) < 1e-4


def test_hat_ez_integer_power_reduction():
    ws = np.linspace(-6, 6, 25)
    got = hat_ez(1.0, 2.0, ws)
    ref = hat_en((-1.0, -1.0), ws)
    assert np.max(np.abs(got - ref)) < 1e-14


def test_hat_ez_at_zero():
    a, z = 1.0, 2.5 + 0.5j
    ref = ((1 - math.exp(-a)) / a) ** z
    assert abs(hat_ez(a, z, 0.0) - ref) < 1e-14


def test_hat_ez_decay_slope():
    slope = fit_decay_slope(lambda w: np.abs(hat_ez(1.0, 2.5, w)), 1e2, 1e4)
    assert abs(slope + 2.5) < 0.15


def test_hat_ez_parameter_check():
    with pytest.raises(ParameterError):
        hat_ez(0.0, 2.5, 1.0)
    with pytest.raises(ParameterError):
        hat_ez(-1.0, 2.5, 1.0)


# -- hypercomplex transform -------------------------------------------------------

def test_hat_bupsilon_at_zero():
    v = hat_bupsilon(Paravector(2.5, [1.0, 1.0]), 0.0)
    assert abs(v.s - 1.0) < 1e-15
    assert np.all(np.abs(v.v) < 1e-15)


def test_hat_bupsilon_modulus_and_sphere_decomposition():
    # the scalar modulus factor is the real-order transform and the phase
    # factor lies on the complexified unit sphere: cos^2 + sin^2 = 1
    ups = Paravector(2.5, [1.0, 1.0])
    ws = np.linspace(0.2, 5.5, 41)
    alpha, beta, dec = hat_bupsilon_components(ups, ws)
    mod = hat_bz(2.5, ws)
    assert np.max(np.abs(np.abs(mod) - np.sqrt(np.abs(alpha) ** 2 + np.abs(beta) ** 2)
                         / np.sqrt(np.abs(np.cosh(2 * dec.vnorm * np.angle(omega_fn(ws)))))
                         )) < 1e-10
    phase_a = alpha / mod
    phase_b = beta / mod
    sphere = phase_a ** 2 + phase_b ** 2
    assert np.max(np.abs(sphere - 1.0)) < 1e-12


def test_hat_bupsilon_cl1_complex_oracle():
    ups = Paravector(2.5, [1.0])
    ws = np.linspace(-7, 7, 53)
    alpha, beta, _ = hat_bupsilon_components(ups, ws)
    ref = hat_bz(2.5 + 1.0j, ws)
    assert np.max(np.abs((alpha + 1j * beta) - ref)) < 1e-12
    # Cl(3) against Omega^{x0} (cos(|v| log Omega), sin(|v| log Omega)) at 30 digits
    v = np.array([0.6, -0.8, 0.5])
    vn = float(np.linalg.norm(v))
    ws = [-5.3, -0.7, 0.004, 1.1, 2.9, 9.4]
    alpha, beta, dec = hat_bupsilon_components(Paravector(2.5, v), ws)
    assert np.allclose(dec.u, v / vn)
    with mpmath.workdps(30):
        for w, a, b in zip(ws, alpha, beta):
            w = mpmath.mpf(w)
            om = (1 - mpmath.exp(-1j * w)) / (1j * w)
            log_om = mpmath.log(om)
            assert abs(a - complex(om ** 2.5 * mpmath.cos(vn * log_om))) < 1e-14
            assert abs(b - complex(om ** 2.5 * mpmath.sin(vn * log_om))) < 1e-14


def test_hat_bupsilon_componentwise_conjugate_symmetry():
    # real paravector orders have real-valued time-domain components, so
    # each transform component obeys value(-w) = conj(value(w))
    ups = Paravector(2.5, [1.0, 0.5])
    ws = np.linspace(0.1, 9.0, 67)
    ap, bp, _ = hat_bupsilon_components(ups, ws)
    am, bm, _ = hat_bupsilon_components(ups, -ws)
    assert np.max(np.abs(am - np.conj(ap))) < 1e-13
    assert np.max(np.abs(bm - np.conj(bp))) < 1e-13


def test_hat_bupsilon_strang_fix_zeros():
    ups = Paravector(2.5, [1.0, 1.0])
    for k in (1, -1, 2, -2):
        assert hat_bupsilon(ups, 2 * math.pi * k).norm() <= 1e-12


def test_hat_bupsilon_order_check():
    with pytest.raises(OrderError):
        hat_bupsilon(Paravector(1.0, [1.0]), 1.0)


def test_branch_safety_no_negative_axis_crossing():
    ws = np.concatenate([np.linspace(0.01, 40, 20011),
                         -np.linspace(0.01, 40, 20011)])
    om = omega_fn(ws)
    om = om[np.abs(om) > 1e-13]
    imlog = np.imag(np.log(om))
    assert np.max(np.abs(imlog)) < math.pi


def test_decay_slope_complex_transform():
    z = 2.5 + 1.0j
    slope = fit_decay_slope(lambda w: np.abs(hat_bz(z, w)), 1e2, 1e4)
    assert abs(slope + 2.5) < 0.15


def test_frequency_functions_of_no_frequencies_are_empty():
    # as eval_bz of no abscissae is
    from fracspline import eval_bz

    ups = Paravector(2.5, [1.0])
    calls = [("omega_fn", lambda w: omega_fn(w)), ("omega_a_fn", lambda w: omega_a_fn(0.7, w)),
             ("hat_bz", lambda w: hat_bz(2.5 + 1j, w)), ("hat_ez", lambda w: hat_ez(0.7, 2.5, w)),
             ("hat_en", lambda w: hat_en((1.0, 0.0, -0.5), w)),
             ("alpha", lambda w: hat_bupsilon_components(ups, w)[0]),
             ("beta", lambda w: hat_bupsilon_components(ups, w)[1]),
             ("eval_bz", lambda x: eval_bz(2.5 + 1j, x))]
    for name, call in calls:
        got = call([])
        assert got.shape == (0,) and got.dtype == complex, name


# -- frequency grid and inverse quadrature ------------------------------------------

def test_frequency_grid_normalization():
    g = FrequencyGrid(10.0, 100)
    assert (g.count - 1) % 4 == 0
    assert g.count >= 100
    om = g.omegas
    assert om[0] == -10.0 and om[-1] == 10.0
    assert np.allclose(om, -om[::-1])
    with pytest.raises(ParameterError):
        FrequencyGrid(-1.0, 100)


def test_inverse_quadrature_hat_function_peak():
    grid = FrequencyGrid(200.0, 40001)
    res = inverse_quadrature(lambda w: hat_bz(2.0, w), 1.0, grid, decay=2.0)
    assert abs(res.value - eval_bn(2, 1.0)) <= res.error
    assert res.error < 0.05


def test_inverse_quadrature_left_support():
    grid = FrequencyGrid(200.0, 40001)
    res = inverse_quadrature(lambda w: hat_bz(2.5, w), -1.0, grid, decay=2.5)
    assert abs(res.value) <= res.error


def test_inverse_quadrature_damped_family():
    grid = FrequencyGrid(1e4, 400001)
    res = inverse_quadrature(lambda w: hat_ez(1.0, 2.0, w), 0.5, grid, decay=2.0)
    ref = eval_ez(1.0, 2.0, 0.5)
    assert res.error <= 1e-4
    assert abs(res.value - ref) <= 1e-4


def test_inverse_quadrature_needs_decay():
    grid = FrequencyGrid(20.0, 101)
    with pytest.raises(ParameterError):
        inverse_quadrature(lambda w: hat_bz(2.5, w), 0.5, grid, decay=1.0)


def test_inverse_quadrature_hypercomplex_components():
    # componentwise inversion reproduces the time-domain paravector values
    from fracspline import eval_bupsilon
    ups = Paravector(2.5, [1.0])
    grid = FrequencyGrid(1e3, 200001)
    x = 1.5
    res_a = inverse_quadrature(
        lambda w: hat_bupsilon_components(ups, w)[0], x, grid, decay=2.5)
    res_b = inverse_quadrature(
        lambda w: hat_bupsilon_components(ups, w)[1], x, grid, decay=2.5)
    ref = eval_bupsilon(ups, x)
    assert abs(res_a.value - ref.s) <= res_a.error
    assert abs(res_b.value - ref.v[0]) <= res_b.error


@pytest.mark.parametrize("count", [5, 401, 40001])
def test_simpson_equals_scipy_bit_for_bit(count):
    from fracspline.fourier import _simpson

    rng = np.random.default_rng(count)
    y = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    for samples, dx in ((y, 0.0123), (y[::2], 0.0246)):
        assert _simpson(samples, dx) == simpson(samples, dx=dx)


# -- rewritten steps against their old formulas, bit for bit ----------------------

def old_principal_log(base):
    """_principal_log as it was, log|b| + 1j atan2 as two arrays, with the
    modulus now numpy's complex abs as in _principal_log."""
    b = np.atleast_1d(np.asarray(base, dtype=complex))
    zero = b == 0
    re = np.where(zero, 1.0, b.real)
    return np.log(np.abs(re + 1j * b.imag)) + 1j * np.arctan2(b.imag, re), zero


def old_omega_a_fn(a, w):
    """omega_a_fn as it was, for a finite a != 0: its sines taken per call,
    now from one cis(w/2) as in omega_a_fn."""
    from fracspline.fourier import _half_angle_sines

    damping = math.exp(-a)
    sin2_half, sin_w = _half_angle_sines(w)
    num = np.empty(w.shape, dtype=complex)
    num.real = 2.0 * damping * sin2_half - math.expm1(-a)
    num.imag = damping * sin_w
    return num / (1j * w + a)


def same_bits(a, b):
    """Equal as bytes, so that -0.0 and +0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def edge_frequencies():
    near = 2 * math.pi * np.arange(-6, 7)
    return np.concatenate([
        np.linspace(-40.0, 40.0, 8001),
        near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf),
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
         1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]])


def test_log_iomega_is_the_principal_log_of_iw_bit_for_bit():
    from fracspline.fourier import _log_iomega, _principal_log

    om = edge_frequencies()
    log, zero = _log_iomega(om)
    for ref_log, ref_zero in (old_principal_log(1j * om), _principal_log(1j * om)):
        assert same_bits(log, ref_log)
        assert np.array_equal(zero, ref_zero)
    assert np.array_equal(np.flatnonzero(zero), np.flatnonzero(om == 0))


def test_principal_log_keeps_the_bits_of_its_old_formula():
    # one complex array, with +0.0 added so that an argument of -0.0 reads
    # +0.0 as 0 + 1j atan2 gave it: omega_fn(0) = 1 - 0i is such a base
    from fracspline.fourier import _principal_log

    om = edge_frequencies()
    finite = om[np.abs(om) < 1e300]
    bases = [omega_fn(finite), omega_a_fn(0.7, finite), 0.7 + 1j * finite, 1j * om,
             np.array([0, -0.0, complex(-0.0, -0.0), complex(1, -0.0), complex(-1, 0.0),
                       complex(-1, -0.0), complex(5e-324, -0.0), complex(-2, 5e-324)])]
    for base in bases:
        log, zero = _principal_log(base)
        ref_log, ref_zero = old_principal_log(base)
        assert same_bits(log, ref_log)
        assert np.array_equal(zero, ref_zero)
    assert same_bits(_principal_log(omega_fn(0.0))[0], np.array([0j]))


def test_hat_en_keeps_the_bits_of_its_product_of_damped_ratios():
    # sin^2(w/2) and sin w taken once for all weights change no bit; a
    # zero weight is still omega_fn, taken once for all zero weights, and so
    # is w = 0
    om = np.concatenate([edge_frequencies()[:-6], np.linspace(-3.0, 3.0, 20001)])
    for weights in ((1.119155, -0.369429), (1.0, 0.0, -0.5), (0.0, 2.5), (-1.0,),
                    (0.3, 0.3, -0.3, 1e-9), (0.0, 0.0, 1.0, 0.0)):
        ref = np.ones(om.shape, dtype=complex)
        for a in weights:
            ref = np.multiply(ref, omega_fn(om) if a == 0.0 else old_omega_a_fn(-a, om))
        assert same_bits(hat_en(weights, om), ref), weights
        for i in (0, 8000, 8001, 8002, 8003, om.size - 1):
            assert same_bits(hat_en(weights, om[i]), ref[i]), (weights, om[i])
    for a in (0.7, -1.5, 1e-8):
        assert same_bits(omega_a_fn(a, om), old_omega_a_fn(a, om)), a


def family_transforms():
    """(transform, decay) for one order of each frequency-domain family."""
    ups = Paravector(2.5, [1.0, -0.5])
    return [(lambda w: hat_bz(2.5 + 1j, w), 2.5), (lambda w: hat_ez(0.7, 3.2, w), 3.2),
            (lambda w: hat_en((1.0, 0.0, -0.5), w), 3.0),
            (lambda w: hat_bupsilon_components(ups, w)[1], 2.5)]


def old_inverse_quadrature_payload(transform, x, grid, decay, block=_CIS_BLOCK):
    """inverse_quadrature's value, error, tail bound and quadrature estimate
    as it computed them over the whole grid, with the integrand vals * e^{iwx},
    e^{iwx} now cis(om x) as in inverse_quadrature, and each sum now taken
    over spans of block steps that share their end frequency, as
    inverse_quadrature takes them.  block = grid.count - 1 is the one-pass
    rule."""
    from fracspline.fourier import _simpson
    from fracspline.specialfn import cis

    om = grid.omegas
    vals = np.asarray(transform(om), dtype=complex)
    integrand = vals * cis(om * x)
    outer = np.abs(om) >= grid.omega_max / 10.0
    env = np.abs(vals) * np.abs(om) ** decay
    pos, neg = outer & (om > 0), outer & (om < 0)
    s_full = s_half = 0j
    env_pos = env_neg = 0.0
    last = grid.count - 1
    for start in range(0, last, block):
        stop = min(start + block, last)
        s_full += _simpson(integrand[start:stop + 1], grid.step)
        s_half += _simpson(integrand[start:stop + 1:2], 2.0 * grid.step)
        own = slice(start, stop + 1 if stop == last else stop)
        env_pos += float(np.sum(env[own][pos[own]]))
        env_neg += float(np.sum(env[own][neg[own]]))
    quad_est = abs(s_full - s_half) / 15.0 / (2.0 * math.pi)
    c_pos = env_pos / np.count_nonzero(pos)
    c_neg = env_neg / np.count_nonzero(neg)
    tail = 1.25 * (c_pos + c_neg) * grid.omega_max ** (1.0 - decay) / (
        (decay - 1.0) * 2.0 * math.pi)
    err = tail + quad_est + 1e-16 * float(np.max(np.abs(integrand))) * om.size ** 0.5
    value = complex(s_full) / (2.0 * math.pi)
    return [value.real, value.imag, float(err), float(tail), float(quad_est)]


@pytest.mark.parametrize("count", [20001, 200001])
def test_inverse_quadrature_payload_keeps_the_bits_of_its_old_integrand(count):
    # e^{iwx} = cis(wx), multiplied into vals as e^{iwx} * vals, the
    # order numpy gives vals * cis(...) on these grids (its
    # temporary elision swaps the operands of arrays of 16384 or more
    # complex values)
    grid = FrequencyGrid(300.0, count)
    for transform, decay in family_transforms():
        for x in (1.5, -0.75, 0.0, 7.25):
            res = inverse_quadrature(transform, x, grid, decay)
            got = [res.value.real, res.value.imag, res.error, res.tail_bound,
                   res.quadrature_estimate]
            assert repr(got) == repr(old_inverse_quadrature_payload(transform, x, grid, decay))


@pytest.mark.parametrize("count", [5, 8193, 8197, 16385, 100001])
def test_inverse_quadrature_agrees_with_its_one_pass_sums(count):
    # the blocks change the order of each sum and nothing else: every entry
    # stays within 2 (log2 count + 2) eps of the scale of its sum, for value
    # and quadrature estimate the Simpson weights' bound (4/3) step sum |vals|
    # over 2 pi (|e^{iwx}| = 1), for the tail bound the tail bound itself
    grid = FrequencyGrid(300.0, count)
    tol = 2.0 * (math.log2(count) + 2.0) * np.finfo(float).eps
    for transform, decay in family_transforms():
        scale = 4.0 / 3.0 * grid.step * float(np.sum(np.abs(transform(grid.omegas)))) / (
            2.0 * math.pi)
        for x in (1.5, -0.75, 0.0, 7.25):
            res = inverse_quadrature(transform, x, grid, decay)
            ref = old_inverse_quadrature_payload(transform, x, grid, decay, count - 1)
            value = complex(ref[0], ref[1])
            assert abs(res.value - value) <= tol * scale
            assert abs(res.quadrature_estimate - ref[4]) <= tol * scale
            assert abs(res.tail_bound - ref[3]) <= tol * ref[3]
            assert abs(res.error - ref[2]) <= tol * (scale + ref[3] + ref[2])


def test_inverse_quadrature_calls_its_transform_on_blocks_of_grid_points():
    # at most _CIS_BLOCK + 1 frequencies a call; the blocks, each sharing
    # its first frequency with the end of the one before, are grid.omegas
    # bit for bit
    for count, omega_max in ((5, 300.0), (8193, 300.0), (8197, 1e3 / 7), (16389, 1e3 / 7),
                             (400001, 300.0), (400001, math.pi)):
        grid = FrequencyGrid(omega_max, count)
        seen = []

        def spy(om):
            seen.append(om.copy())
            return 1.0 / (1.0 + om * om) + 0j

        inverse_quadrature(spy, 0.5, grid, decay=2.0)
        assert len(seen) == -(-(count - 1) // _CIS_BLOCK)
        assert max(om.size for om in seen) <= _CIS_BLOCK + 1
        for before, after in zip(seen, seen[1:]):
            assert before[-1] == after[0]
        joined = np.concatenate([seen[0]] + [om[1:] for om in seen[1:]])
        assert same_bits(joined, grid.omegas), (count, omega_max)


def test_inverse_quadrature_names_a_value_that_is_not_finite_in_a_later_block():
    grid = FrequencyGrid(1e3, 40001)
    bad = float(grid.omegas[2 * _CIS_BLOCK + 1234])
    with pytest.raises(NumericError, match=re.escape(f"not finite at w = {bad:g}") + "$"):
        inverse_quadrature(lambda om: np.where(om == bad, np.nan, 1.0 / (1.0 + om * om)), 0.5,
                           grid, decay=2.0)


def test_inverse_quadrature_memory_does_not_grow_with_the_grid():
    # one call holds its blocks' temporaries, about 1 MiB at any grid size;
    # the whole-grid rule held 66 B per frequency, 25 MiB at 400001
    for transform, decay in family_transforms():
        for count in (100001, 400001):
            grid = FrequencyGrid(300.0, count)
            inverse_quadrature(transform, 1.5, grid, decay)
            tracemalloc.start()
            try:
                inverse_quadrature(transform, 1.5, grid, decay)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * 2 ** 20, (count, peak)


@pytest.mark.parametrize("omega_max", [math.nan, math.inf])
def test_frequency_grid_rejects_a_non_finite_omega_max(omega_max):
    with pytest.raises(ParameterError, match="omega_max"):
        FrequencyGrid(omega_max, 101)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_inverse_quadrature_rejects_a_non_finite_x(x):
    # a non-finite x would return a NaN value with a NaN certified error,
    # which compares False against any bound a caller sets
    grid = FrequencyGrid(20.0, 101)
    with pytest.raises(ParameterError, match="x must be finite"):
        inverse_quadrature(lambda w: hat_bz(2.5, w), x, grid, decay=2.5)


def test_inverse_quadrature_rejects_a_transform_that_is_not_finite():
    # a NaN sample would give the value nan+nanj with a NaN certified
    # error, which compares False against any bound a caller sets
    grid = FrequencyGrid(40.0, 4001)
    with pytest.raises(NumericError, match="not finite at w = 0"):
        inverse_quadrature(lambda om: np.where(om == 0, np.nan, 1 / (1 + om ** 2)), 0.5, grid,
                           decay=2.0)


@pytest.mark.parametrize("decay", [math.nan, math.inf])
def test_inverse_quadrature_rejects_a_non_finite_decay(decay):
    grid = FrequencyGrid(20.0, 101)
    with pytest.raises(ParameterError, match="decay"):
        inverse_quadrature(lambda w: hat_bz(2.5, w), 0.5, grid, decay=decay)


def test_public_branches_behave_as_documented():
    # branches of the public API that no other test runs
    grid = FrequencyGrid(20.0, 101)
    cases = [
        ("a transform that drops a frequency",
         lambda: inverse_quadrature(lambda w: hat_bz(2.5, w)[:-1], 0.5, grid, decay=2.5),
         "must evaluate elementwise"),
        ("a transform that returns one value",
         lambda: inverse_quadrature(lambda w: 1.0, 0.5, grid, decay=2.5),
         "must evaluate elementwise"),
        ("omega_lo = omega_hi", lambda: fit_decay_slope(np.abs, 1e2, 1e2), "omega_lo < omega_hi"),
        ("omega_lo > omega_hi", lambda: fit_decay_slope(np.abs, 1e4, 1e2), "omega_lo < omega_hi"),
        ("omega_lo = 0", lambda: fit_decay_slope(np.abs, 0.0, 1e2), "0 < omega_lo"),
        ("omega_hi = inf", lambda: fit_decay_slope(np.abs, 1e2, math.inf), "omega_hi < inf"),
        ("a count that is NaN", lambda: FrequencyGrid(1.0, math.nan), "count must be"),
        ("a count that is infinite", lambda: FrequencyGrid(1.0, math.inf), "count must be"),
    ]
    for label, call, message in cases:
        with pytest.raises(ParameterError, match=message):
            call()


def test_fit_decay_slope_needs_two_peaks_and_a_positive_modulus():
    # the peaks 2 pi (k + 1/2): none lie in [1, 2] or [100, 101], and one,
    # pi, in [1, 4]
    modulus = lambda w: np.abs(hat_bz(2.5, w))  # noqa: E731
    for lo, hi, found in ((1.0, 2.0, 0), (100.0, 101.0, 0), (1.0, 4.0, 1)):
        with pytest.raises(ParameterError, match=f"two peaks .* found {found}$"):
            fit_decay_slope(modulus, lo, hi)
    # |Omega(w)| = 2/w at a peak, so two peaks give the slope -2.5: pi and
    # 3 pi in [1, 10], where the first peak, k = 0, counts too
    for hi in (10.0, 20.0):
        assert abs(fit_decay_slope(modulus, 1.0, hi) + 2.5) < 1e-12, hi
    # [90, 1000] starts at its first peak, 2 pi 14.5 = 91.1
    seen = []
    fit_decay_slope(lambda w: seen.append(w) or modulus(w), 90.0, 1000.0)
    assert seen[0][0] == 2 * math.pi * 14.5
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(NumericError, match="positive, finite modulus"):
            fit_decay_slope(lambda w: np.where(w > 50.0, bad, modulus(w)), 1e1, 1e2)


def test_transforms_that_leave_the_float_range_raise_naming_the_order():
    # |Omega^z| = e^{re z log|Omega| - im z arg Omega} overflows at |im z| = 300:
    # 454 of these 4001 values of hat_bz, and 908 per component of the
    # hypercomplex pair, read inf or NaN; the damped family stays finite
    om = FrequencyGrid(40.0, 4001).omegas
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match=r"order \(2\+300j\) leaves the float range"):
            hat_bz(2 + 300j, om)
        with pytest.raises(NumericError, match=r"order Paravector\(s=2\.0, v=\[300\.0\]\) "
                                               "leaves the float range"):
            hat_bupsilon_components(Paravector(2.0, [300.0]), om)
        assert np.isfinite(hat_ez(0.7, 2 + 300j, om)).all()
        assert np.isfinite(hat_bz(2 + 30j, om)).all()
