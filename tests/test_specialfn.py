import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fracspline import (
    DomainError,
    Paravector,
    PoleError,
    gamma,
    gamma_hc,
)
from fracspline.specialfn import binom_complex_sequence

mpmath.mp.dps = 30


# -- Gamma ----------------------------------------------------------------------

def test_gamma_one():
    assert abs(gamma(1.0) - 1.0) < 1e-14


def test_gamma_half_against_quadrature():
    # independent oracle: the defining integral of Gamma(1/2)
    ref, _ = quad(lambda t: t ** (-0.5) * math.exp(-t), 0, np.inf)
    got = gamma(0.5)
    assert abs(got - ref) < 1e-10
    assert abs(got - math.sqrt(math.pi)) < 1e-12


def test_gamma_recurrence():
    rng = np.random.default_rng(2)
    for _ in range(100):
        z = complex(rng.uniform(0.5, 15.0), rng.uniform(-8.0, 8.0))
        ratio = gamma(z + 1) / gamma(z)
        assert abs(ratio - z) <= 1e-10 * abs(z)


def test_gamma_accuracy_against_mpmath():
    rng = np.random.default_rng(4)
    for _ in range(300):
        z = complex(rng.uniform(0.5, 20.0), rng.uniform(-10.0, 10.0))
        ref = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
        assert abs(gamma(z) - ref) <= 1e-12 * abs(ref)


def test_gamma_reflection_region():
    rng = np.random.default_rng(6)
    for _ in range(100):
        z = complex(rng.uniform(-8.0, 0.4), rng.uniform(0.1, 5.0))
        ref = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
        assert abs(gamma(z) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("pole", [0.0, -1.0, -5.0])
def test_gamma_poles(pole):
    with pytest.raises(PoleError):
        gamma(pole)


# -- hypercomplex Gamma -----------------------------------------------------------

def _gamma_hc_quadrature(x0, vnorm):
    """Direct quadrature of the two defining integrals, under t = e^s."""
    def part(s, trig):
        if s > 50.0:
            return 0.0  # e^{-e^s} underflows to zero long before here
        expo = x0 * s - math.exp(s)
        if expo < -745.0:
            return 0.0
        return math.exp(expo) * trig(vnorm * s)

    c, _ = quad(part, -np.inf, np.inf, args=(math.cos,),
                epsabs=1e-12, epsrel=1e-12, limit=400)
    s, _ = quad(part, -np.inf, np.inf, args=(math.sin,),
                epsabs=1e-12, epsrel=1e-12, limit=400)
    return c, s


def test_gamma_hc_scalar_reduction():
    r = gamma_hc(Paravector(1.0, [0.0]))
    assert abs(r.s - 1.0) < 1e-14 and np.all(r.v == 0)


def test_gamma_hc_against_defining_integrals():
    p = Paravector(2.0, [1.0])
    got = gamma_hc(p)
    c, s = _gamma_hc_quadrature(2.0, 1.0)
    assert abs(got.s - c) < 1e-8
    assert abs(got.v[0] - s) < 1e-8
    ref = complex(mpmath.gamma(mpmath.mpc(2.0, 1.0)))
    assert abs(got.s - ref.real) < 1e-13 and abs(got.v[0] - ref.imag) < 1e-13


def test_gamma_hc_parity_in_v():
    p = Paravector(1.7, [0.8, -0.6])
    plus = gamma_hc(p)
    minus = gamma_hc(Paravector(1.7, [-0.8, 0.6]))
    assert abs(plus.s - minus.s) < 1e-14          # scalar part even
    assert np.allclose(plus.v, -minus.v, atol=1e-14)  # vector part odd


def test_gamma_hc_commutes_with_argument():
    p = Paravector(2.3, [1.0, 0.5])
    g = gamma_hc(p)
    lhs = g * p
    rhs = p * g
    assert (lhs - rhs).norm() <= 1e-13 * (1 + lhs.norm())


def test_gamma_hc_domain():
    with pytest.raises(DomainError):
        gamma_hc(Paravector(0.0, [1.0]))
    with pytest.raises(DomainError):
        gamma_hc(Paravector(-1.0, [1.0]))


# -- binomial coefficients ---------------------------------------------------------

def test_binom_complex_values():
    # the recurrence terminates exactly past a nonnegative integer order
    assert np.array_equal(binom_complex_sequence(3, 6), [1, 3, 3, 1, 0, 0, 0])
    assert binom_complex_sequence(2.5 + 1j, 0).tolist() == [1.0]


def test_binom_complex_against_gamma_ratio():
    z = 2.5 + 1.0j
    seq = binom_complex_sequence(z, 45)
    for k in (1, 3, 7, 20, 45):
        direct = gamma(z + 1) / (gamma(k + 1.0) * gamma(z - k + 1))
        assert abs(seq[k] - direct) <= 1e-10 * abs(direct)


def test_binom_complex_asymptotic_slope():
    # |binom(z, k)| ~ k^{-re z - 1} for large k
    z = 2.5 + 1.0j
    ks = np.unique(np.geomspace(50, 500, 40).astype(int))
    seq = binom_complex_sequence(z, int(ks[-1]))
    mods = np.abs(seq[ks])
    slope, _ = np.polyfit(np.log(ks), np.log(mods), 1)
    assert -3.8 <= slope <= -3.2


# -- power kernels -------------------------------------------------------------------
#
# The kernel t_+^{z-1}/Gamma(z) of the fractional integral, written out with
# gamma: these identities check the Beta-function relations gamma has to meet.

def power_kernel(z, x):
    return x ** (z - 1) / gamma(z)


def test_kernel_antiderivative_identity():
    # integral over [0,1] of K_{1/2} equals K_{3/2}(1) = 1/Gamma(1.5)
    val, _ = quad(lambda x: power_kernel(0.5, x).real, 0, 1, points=[0.0], limit=200)
    assert abs(val - 1.0 / gamma(1.5).real) < 1e-8


@pytest.mark.parametrize("z,w", [(0.6, 0.9), (0.5, 0.5), (1.3, 0.7)])
def test_kernel_convolution_semigroup(z, w):
    # (K_z * K_w)(x) = K_{z+w}(x), by weighted quadrature honoring both
    # endpoint singularities
    gz = gamma(z).real
    gw = gamma(w).real
    for x in np.linspace(0.3, 3.0, 10):
        val, _ = quad(lambda t: 1.0, 0, x, weight="alg", wvar=(z - 1, w - 1))
        conv = val / (gz * gw)
        ref = power_kernel(z + w, x).real
        assert abs(conv - ref) < 1e-6 * max(1.0, abs(ref))


def test_kernel_convolution_semigroup_complex():
    z = 0.8 + 0.4j
    w = 0.9 - 0.2j
    x = 1.7

    def integrand(t, part):
        val = t ** (z - 1) * (x - t) ** (w - 1) / (gamma(z) * gamma(w))
        return val.real if part == "re" else val.imag

    re, _ = quad(integrand, 0, x, args=("re",), points=[0.0, x], limit=400)
    im, _ = quad(integrand, 0, x, args=("im",), points=[0.0, x], limit=400)
    ref = power_kernel(z + w, x)
    assert abs(complex(re, im) - ref) < 1e-6
