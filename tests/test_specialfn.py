import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fracspline import (
    DomainError,
    NumericError,
    Paravector,
    PoleError,
    gamma,
    gamma_hc,
    mellin_check,
)
from fracspline.specialfn import _CIS_BLOCK, binom_complex_sequence, cis

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


@pytest.mark.parametrize("imag", [226.0, -226.0, 230.0, -230.0, 400.0, -400.0])
def test_gamma_reflection_where_sin_overflows(imag):
    # sin(pi z) overflows past |im z| of about 226, while Gamma is tiny there
    for real in (0.49, 0.3, 0.0, -0.7, -3.2, -10.5):
        ref = complex(mpmath.gamma(mpmath.mpc(real, imag)))
        got = gamma(complex(real, imag))
        assert abs(got - ref) <= 1e-12 * abs(ref), (real, got, ref)


def test_gamma_reflection_overflow_names_the_argument_given():
    # Gamma(1 - z) = Gamma(300.7 - 440i), about e^1153, overflows inside the
    # reflection; the message is about the z the caller passed
    with pytest.raises(NumericError) as info:
        gamma(complex(-299.7, 440))
    message = str(info.value)
    assert message.startswith("Gamma(z) at z = (-299.7+440j) "), message
    assert "Gamma(1 - z)" in message and "overflows" in message
    assert "300.7" not in message


def test_gamma_reflection_underflow_returns_zero_before_gamma_1_minus_z():
    # sin(pi z) overflows and |h| = e^-785 underflows, so the value is 0j,
    # although Gamma(1 - z) = Gamma(1001 - 500i) would overflow
    assert gamma(complex(-1000, 500)) == 0j
    assert gamma(complex(-1000, -500)) == 0j


@pytest.mark.parametrize("z", [1e-310, -1e-310, 1e-310j, 1e-320 + 1e-320j, -1 + 1e-320j])
def test_gamma_past_the_float_range_next_to_a_pole_is_an_error(z):
    # |z - n| < 1/DBL_MAX: pi / (sin(pi z) Gamma(1 - z)) overflows silently
    with pytest.raises(NumericError, match="overflows at z = "):
        gamma(z)


def test_gamma_next_to_zero_keeps_its_value_in_range():
    assert gamma(1e-308) == 1.0000000000000002e+308
    assert gamma(6e-309) == 1.6666666666666662e+308
    with pytest.raises(NumericError):
        gamma_hc(Paravector(1e-310, [0.0]))
    with pytest.raises(NumericError):
        mellin_check(Paravector(1e-310, [0.0]), 1.0)


def test_gamma_near_its_poles_against_mpmath():
    # 1e-14 ... 1e-1 from each pole -1 ... -30, on both sides and off the
    # real axis: the small sin(pi z) there must keep its relative precision
    worst = 0.0
    with mpmath.workdps(40):
        for m in range(1, 31):
            for d in (10.0 ** -e for e in range(1, 15)):
                for z in (-m + d, -m - d, complex(-m, d), complex(-m, -d)):
                    ref = complex(mpmath.gamma(mpmath.mpmathify(z)))
                    worst = max(worst, abs(gamma(z) - ref) / abs(ref))
    assert worst <= 1e-13


def test_gamma_where_its_lanczos_power_overflows_against_mpmath():
    # t^(w + 1/2) overflows before Gamma does: from re z of about 142.6 on the
    # real axis (142.59 read nan), and lower off it (139 + 100i, 127 + 250i
    # and 119 + 400i raised NumericError)
    points = [complex(142.59), 139 + 100j, 127 + 250j, 119 + 400j]
    points += [complex(re, im) for re in np.linspace(140.0, 171.5, 64)
               for im in (0.0, 0.5, -0.5, -3.0, 30.0, -100.0, 250.0)]
    worst = 0.0
    with mpmath.workdps(40):
        for z in points:
            ref = complex(mpmath.gamma(mpmath.mpmathify(z)))
            worst = max(worst, abs(gamma(z) - ref) / abs(ref))
    assert worst <= 1e-12
    with pytest.raises(NumericError, match="overflows"):  # Gamma(171.7) = 2.2e308
        gamma(171.7)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(-3.5, math.inf),
                               complex(math.nan, 1.0), complex(2.0, -math.inf)])
def test_gamma_rejects_an_argument_that_is_not_finite(z):
    with pytest.raises(DomainError, match="finite"):
        gamma(z)


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


# -- cis ------------------------------------------------------------------------

# the bound cis's docstring states, relative to |scale|
CIS_TOL = 4 * np.finfo(float).eps
# numpy's AVX-512 dispatch targets; with them disabled its tan runs another loop
AVX512_FEATURES = "AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR X86_V4"


def cis_sweep():
    """Angles with both signs: 0, subnormal and tiny ones, 2^-27 and its
    neighbours, 1e-300 to 1e8, and the floats next to k pi/2 for |k| <= 40;
    with a unit scale, pi, and scales e^-700 to e^700."""
    k = np.arange(-40, 41) * (0.5 * math.pi)
    edge = 2.0 ** -27
    theta = np.concatenate([
        [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, edge, np.nextafter(edge, 0.0),
         np.nextafter(edge, 1.0), 2.0 * edge],
        np.geomspace(1e-300, 1e8, 400), k, np.nextafter(k, math.inf), np.nextafter(k, -math.inf)])
    theta = np.concatenate([theta, -theta])
    scales = [None, math.pi, np.exp(np.linspace(-700.0, 700.0, theta.size))]
    return theta, scales


def cis_sweep_error():
    """The largest |cis(theta, scale) - scale e^{i theta}| / |scale| over
    cis_sweep, against 50-digit values."""
    theta, scales = cis_sweep()
    worst = 0.0
    with mpmath.workdps(50):
        refs = [mpmath.expj(t) for t in theta.tolist()]
        for scale in scales:
            sc = np.broadcast_to(1.0 if scale is None else scale, theta.shape)
            for value, ref, s in zip(cis(theta, scale).tolist(), refs, sc.tolist()):
                err = abs(mpmath.mpc(value) - s * ref) / s
                worst = max(worst, float(err))
    return worst


def test_cis_meets_its_stated_bound_against_mpmath():
    assert cis_sweep_error() <= CIS_TOL


def test_cis_of_minus_theta_is_the_conjugate_bit_for_bit():
    theta, scales = cis_sweep()
    for scale in scales:
        got = cis(-theta, scale)
        assert np.conj(cis(theta, scale)).tobytes() == got.tobytes()
    # the small-angle branch keeps the sign of a zero angle
    assert np.signbit(cis(np.array([-0.0, 0.0])).imag).tolist() == [True, False]


def test_cis_value_does_not_depend_on_its_place_or_the_array_length():
    theta, scales = cis_sweep()
    rng = np.random.default_rng(7)
    for scale in scales:
        ref = cis(theta, scale)
        for i in range(0, theta.size, 37):
            one = scale[i:i + 1] if np.ndim(scale) else scale
            assert cis(theta[i:i + 1], one).tobytes() == ref[i:i + 1].tobytes()
        # the sweep across a block boundary, inside longer arrays
        for offset, size in ((_CIS_BLOCK - 100, 3 * _CIS_BLOCK + 7), (5, theta.size + 11)):
            padded = rng.uniform(-10.0, 10.0, size)
            padded[offset:offset + theta.size] = theta
            if np.ndim(scale):
                pad_scale = rng.uniform(0.5, 2.0, size)
                pad_scale[offset:offset + theta.size] = scale
            else:
                pad_scale = scale
            got = cis(padded, pad_scale)[offset:offset + theta.size]
            assert got.tobytes() == ref.tobytes(), (offset, size)


def test_cis_writes_in_place_over_its_own_arguments():
    # _principal_power passes out.imag as theta and out.real as the scale
    rng = np.random.default_rng(3)
    w = rng.uniform(-3.0, 3.0, 2 * _CIS_BLOCK + 5) + 1j * rng.uniform(-1e3, 1e3, 2 * _CIS_BLOCK + 5)
    ref = cis(w.imag, np.exp(w.real))
    out = w.copy()
    np.exp(out.real, out=out.real)
    assert cis(out.imag, out.real, out=out) is out
    assert out.tobytes() == ref.tobytes()
    with pytest.raises(ValueError, match="view"):
        cis(np.zeros((3, 4)), out=np.zeros((4, 3), dtype=complex).T)


def test_cis_of_no_angles_is_empty():
    # numpy reports no shared memory for an empty view, which the view check
    # would take for a copy
    for theta, out in ((np.array([]), None), (np.zeros((0, 3)), None),
                       (np.zeros((3, 0)), np.zeros((0, 3), dtype=complex).T)):
        got = cis(theta, 2.0, out=out)
        assert got.shape == theta.shape and got.dtype == complex
        assert out is None or got is out


def avx512_dispatch() -> bool:
    """Whether numpy dispatches its AVX-512 loops: AVX512F stays listed
    when it is disabled, the dispatch targets do not."""
    from numpy._core._multiarray_umath import __cpu_features__ as features

    return any(features.get(name, False) for name in ("AVX512_SKX", "X86_V4"))


def test_cis_meets_its_bound_with_numpy_avx512_loops_disabled():
    # numpy's tan runs an AVX-512 loop on machines that have one, and a
    # scalar loop with these features disabled: both must meet the bound
    child = (
        "import json, sys\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "import test_specialfn\n"
        "print(json.dumps([test_specialfn.avx512_dispatch(),"
        " test_specialfn.cis_sweep_error()]))\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_FEATURES)
    done = subprocess.run([sys.executable, "-c", child, str(here.parent / "src"), str(here)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    child_avx512, child_error = json.loads(done.stdout.splitlines()[-1])
    assert not child_avx512
    if not avx512_dispatch():
        print("numpy dispatches no AVX-512 loop on this machine: both runs took one path")
    assert child_error <= CIS_TOL
    assert cis_sweep_error() <= CIS_TOL
