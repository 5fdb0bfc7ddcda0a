import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracspline import (
    ExponentialWeights,
    OrderError,
    ParameterError,
    Paravector,
    SplineOrder,
    eval_bn,
    eval_bupsilon,
    eval_bz,
    eval_exp_bspline,
    eval_ez,
    evaluate_on_grid,
)
from fracspline.splines import series_terms


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
        ExponentialWeights((0.0, 0.0))
    with pytest.raises(ParameterError):
        ExponentialWeights(())
    w = ExponentialWeights.coerce((0.0, 1.0))
    assert w.order == 2


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


# -- order dispatch -----------------------------------------------------------------------

def test_spline_order_validation():
    with pytest.raises(OrderError):
        SplineOrder.integer(0)
    with pytest.raises(OrderError):
        SplineOrder.real(1.0)
    with pytest.raises(OrderError):
        SplineOrder.complex_order(1.0 + 1j)
    with pytest.raises(OrderError):
        SplineOrder.hypercomplex(Paravector(0.9, [1.0]))


def test_evaluate_on_grid():
    order = SplineOrder.integer(3)
    rows = evaluate_on_grid(order, [0.0, 1.5, 3.0])
    assert [r.value for r in rows] == [0.0, 0.75, 0.0]
    assert rows[1].terms_used == 2

    rows_c = evaluate_on_grid(SplineOrder.complex_order(2.5 + 1j), [1.0])
    assert isinstance(rows_c[0].value, complex)

    rows_h = evaluate_on_grid(
        SplineOrder.hypercomplex(Paravector(2.5, [1.0])), [1.0])
    assert isinstance(rows_h[0].value, Paravector)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-100.0, max_value=-1e-9))
def test_left_support_is_exact_zero(x):
    assert eval_bn(3, x) == 0.0
    assert eval_bz(2.5 + 1j, x) == 0.0
    assert eval_ez(1.0, 2.5, x) == 0.0
    assert eval_exp_bspline((1.0, 2.0), x) == 0.0
    assert eval_bupsilon(Paravector(2.5, [1.0]), x).norm() == 0.0
