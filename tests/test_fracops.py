import cmath
import dataclasses
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import fftconvolve

from fracspline import (
    AtomSum,
    ConditioningWarning,
    DomainError,
    EmptyAdmissibleSetError,
    FrequencyGrid,
    NumericError,
    OrderError,
    ParameterError,
    Paravector,
    SampledSignal,
    SignalFormatError,
    classical_atom_check,
    eval_exp_bspline,
    exp_difference_check,
    frac_derivative,
    frac_integral,
    gamma,
    hat_en,
    mellin_check,
    omega_a_fn,
    omega_fn,
    shifted_frac_derivative,
    verify_atom_identity_complex,
    verify_atom_identity_expz,
    verify_atom_identity_hc,
)
from fracspline.clifford import subalgebra_from_idempotent
from fracspline.specialfn import binom_complex_sequence, cis


def make_signal(fn, stop=2.0, h=1e-3, start=0.0):
    n = int(round((stop - start) / h)) + 1
    xs = start + h * np.arange(n)
    return SampledSignal(start, h, fn(xs))


# -- SampledSignal ----------------------------------------------------------------

def test_signal_validation():
    with pytest.raises(SignalFormatError):
        SampledSignal(-1.0, 0.1, np.ones(5))
    with pytest.raises(SignalFormatError):
        SampledSignal(0.0, 0.0, np.ones(5))
    with pytest.raises(SignalFormatError):
        SampledSignal(0.0, 0.1, np.ones(1))
    with pytest.raises(SignalFormatError):
        SampledSignal(0.0, 0.1, np.ones(5), valid=np.ones(4, dtype=bool))
    # a start or step that is not finite once gave all-NaN operator output
    for start, step in ((math.nan, 0.1), (0.0, math.nan), (0.0, math.inf), (math.inf, 0.1)):
        with pytest.raises(SignalFormatError, match="must be finite"):
            SampledSignal(start, step, np.ones(5))


def test_signal_abscissae():
    s = SampledSignal(0.5, 0.25, np.zeros(3))
    assert np.allclose(s.x, [0.5, 0.75, 1.0])
    assert s.count == 3


# -- fractional integral -------------------------------------------------------------

def test_integral_order_one_antiderivative():
    sig = make_signal(lambda x: np.ones_like(x), stop=2.0, h=0.01)
    out = frac_integral(1.0, sig)
    assert np.max(np.abs(out.values - out.x)) < 1e-12


def test_integral_power_rule():
    # I^z x^mu = Gamma(mu+1)/Gamma(mu+1+z) x^{mu+z}
    sig = make_signal(lambda x: x, stop=2.0, h=1e-3)
    out = frac_integral(0.5, sig)
    ref = (gamma(2.0) / gamma(2.5)).real * out.x ** 1.5
    interior = out.x >= 0.1
    rel = np.abs(out.values[interior] - ref[interior]) / np.abs(ref[interior])
    assert np.max(rel) < 1e-3


def test_integral_semigroup():
    sig = make_signal(lambda x: x ** 2 * np.exp(-x), stop=4.0, h=2e-3)
    twice = frac_integral(0.5, frac_integral(0.5, sig))
    once = frac_integral(1.0, sig)
    scale = np.max(np.abs(once.values))
    assert np.max(np.abs(twice.values - once.values)) < 1e-3 * scale


def test_integral_domain_and_dtypes():
    sig = make_signal(lambda x: x, stop=1.0, h=0.01)
    with pytest.raises(DomainError):
        frac_integral(0.0, sig)
    with pytest.raises(DomainError):
        frac_integral(-0.5, sig)
    assert frac_integral(0.5, sig).values.dtype == np.float64
    assert frac_integral(0.5 + 0.1j, sig).values.dtype == np.complex128


# -- fractional derivative ------------------------------------------------------------

def test_derivative_power_rule():
    sig = make_signal(lambda x: x, stop=2.0, h=1e-3)
    out = frac_derivative(0.5, sig)
    ref = 2.0 / math.sqrt(math.pi) * np.sqrt(out.x)
    m = out.valid & (out.x >= 0.1) & (out.x <= 1.9)
    rel = np.abs(out.values[m] - ref[m]) / ref[m]
    assert np.max(rel) < 1e-3


def test_derivative_integer_order_is_gradient():
    sig = make_signal(lambda x: np.sin(x), stop=3.0, h=1e-3)
    out = frac_derivative(1.0, sig)
    m = out.valid
    assert np.max(np.abs(out.values[m] - np.cos(out.x[m]))) < 1e-5


def test_derivative_boundary_flags():
    sig = make_signal(lambda x: x ** 2, stop=1.0, h=0.01)
    out = frac_derivative(1.0, sig)
    assert not out.valid[0] and not out.valid[-1]
    assert out.valid[1:-1].all()
    out2 = frac_derivative(1.5, sig)
    assert not out2.valid[:2].any() and not out2.valid[-2:].any()


def test_derivative_inverts_integral():
    sig = make_signal(lambda x: x ** 2 * np.exp(-x), stop=5.0, h=1e-3)
    roundtrip = frac_derivative(0.5, frac_integral(0.5, sig))
    m = roundtrip.valid
    scale = np.max(np.abs(sig.values))
    assert np.max(np.abs(roundtrip.values[m] - sig.values[m])) < 1e-2 * scale


def test_derivative_semigroup():
    sig = make_signal(lambda x: x ** 2 * np.exp(-x), stop=10.0, h=1e-3)
    composed = frac_derivative(0.3, frac_derivative(0.7, sig))
    direct = frac_derivative(1.0, sig)
    m = composed.valid & direct.valid
    dev = np.max(np.abs(composed.values[m] - direct.values[m]))
    assert dev / np.max(np.abs(direct.values[m])) < 1e-2


def test_derivative_whole_real_part_with_imaginary_part():
    # n = floor(re z) + 1 differencing passes: n = re z would leave an
    # integral of order -i im z, which has no re > 0
    sig = make_signal(lambda x: x ** 2, stop=2.0, h=1e-3)
    for z in (1 + 0.2j, 2 - 0.5j):
        out = frac_derivative(z, sig)
        m = out.valid & (out.x >= 0.1) & (out.x <= 1.9)
        ref = gamma(3.0) / gamma(3.0 - z) * np.exp((2.0 - z) * np.log(out.x[m]))
        dev = np.max(np.abs(out.values[m] - ref)) / np.max(np.abs(ref))
        assert dev < 1e-4, (z, dev)


def test_derivative_conditioning_warning():
    # second difference of a constant on a very fine grid: the rounding
    # amplification dwarfs the (zero) true derivative
    sig = SampledSignal(0.0, 1e-6, np.ones(64))
    with pytest.warns(ConditioningWarning):
        frac_derivative(2.0, sig)


def test_operators_reject_orders_they_cannot_take():
    # one check for both operators: a finite z with re z > 0
    sig = make_signal(lambda x: x * x, stop=2.0, h=0.01)
    inf = math.inf
    for z in (0.0, -0.5, 0.5j, inf, complex(0.5, inf), complex(inf, 1.0), math.nan):
        for call in (frac_integral, frac_derivative,
                     lambda z, s: shifted_frac_derivative(0.7, z, s)):
            with pytest.raises(DomainError, match="finite z with re z > 0"):
                call(z, sig)


def test_derivative_orders_no_float_can_difference():
    # eps (2/h)^n leaves the float range at n = 150 and h = 0.01: the error
    # names n and h before the first pass, so n = 1e9 runs no pass at all
    sig = make_signal(lambda x: x * x, stop=2.0, h=0.01)
    for z in (150, 150.5 + 2j, 1e9):
        n = math.floor(z.real) + (z != math.floor(z.real))
        for call in (frac_derivative, lambda z, s: shifted_frac_derivative(0.7, z, s)):
            with pytest.raises(NumericError, match=f"order-{n} differencing at step h = 0.01"):
                call(z, sig)
    with pytest.warns(ConditioningWarning):
        frac_derivative(100, sig)


def test_derivative_that_leaves_no_valid_cell_is_an_error():
    # n passes flag the n outermost cells at each end invalid: a signal of
    # at most 2n samples would keep no valid cell, so it is an error
    for z, n, count in ((0.5, 1, 2), (2, 2, 4), (101, 101, 201)):
        sig = SampledSignal(0.0, 0.01, np.linspace(0.0, 1.0, count) ** 2)
        for call in (frac_derivative, lambda z, s: shifted_frac_derivative(0.7, z, s)):
            with pytest.raises(SignalFormatError,
                               match=f"order-{n} differencing .* of the {count} samples"):
                call(z, sig)
    sig = make_signal(lambda x: x * x, stop=2.0, h=0.01)
    with pytest.warns(ConditioningWarning):
        assert frac_derivative(100, sig).valid.sum() == 1


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_operators_reject_a_sample_that_is_not_finite(bad):
    # the convolution spread a bad sample 3 into cells 1 and 2 as nan, cells
    # that depend on samples 0..2 alone
    sig = SampledSignal(0.0, 0.1, [0.0, 1.0, 2.0, bad, 4.0, 5.0])
    for call in (lambda z: frac_integral(z, sig), lambda z: frac_derivative(z, sig),
                 lambda z: shifted_frac_derivative(0.7, z, sig)):
        for z in (0.5, 1, 0.5 + 0.2j):
            with pytest.raises(SignalFormatError,
                               match=f"samples must be finite, got {bad} at sample 3"):
                call(z)


def test_integral_gamma_underflow_is_a_numeric_error():
    # Gamma(z + 2) underflows at large |im z|: dividing by it would give NaN
    sig = make_signal(lambda x: x * x, stop=2.0, h=0.01)
    with pytest.raises(NumericError, match="Gamma"):
        frac_integral(0.5 + 1000j, sig)
    with pytest.raises(NumericError, match=r"derivative of order z = \(0.5\+600j\):.*Gamma"):
        frac_derivative(0.5 + 600j, sig)


def test_values_past_the_float_range_are_an_error_without_a_warning():
    # the exponential spline and its transform, the operators and the
    # binomial tail used to return inf or NaN, or overflow, with numpy
    # RuntimeWarnings that only the command line silenced; each names its
    # order or weights now.  Samples of 1e307 overflow the convolution's
    # transforms, and a jump between +-1e307 overflows the gradient
    weights = (700, 700, -1)
    huge = make_signal(lambda x: np.full(x.shape, 1e307), h=0.01)
    jump = make_signal(lambda x: np.where(x < 1.0, 1e307, -1e307), h=0.01)
    integral = "the fractional integral of order z = (0.5+0j)"
    calls = [
        (lambda: eval_exp_bspline(weights, [0.3, 1.2, 1.9]),
         "the series of weights a = (700.0, 700.0, -1.0)"),
        (lambda: hat_en(weights, [0.3, 1.2, 1.9]),
         "the transform of weights a = (700.0, 700.0, -1.0)"),
        (lambda: frac_integral(0.5, huge), integral),
        (lambda: frac_derivative(0.5, huge),
         f"fractional derivative of order z = (0.5+0j): {integral}"),
        (lambda: shifted_frac_derivative(0.7, 0.5, huge),
         f"fractional derivative of order z = (0.5+0j): {integral}"),
        (lambda: frac_derivative(1, jump), "the fractional derivative of order z = (1+0j)"),
        # the binomials overflow from k = 506: at K = 504 the atoms fit and the
        # tail bound does not
        (lambda: verify_atom_identity_complex(2 + 700j, 504, np.arange(1, 51) * 0.01),
         "the complex identity at z=2+700i"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, named in calls:
            with pytest.raises(NumericError, match="^" + re.escape(
                    f"{named} leaves the float range on this grid") + "$"):
                call()


def test_conditioning_warning_names_the_caller():
    # both derivatives report the line that called them, not their own
    flat = SampledSignal(0.0, 1e-6, np.ones(64))
    for call in (lambda: frac_derivative(2.0, flat),
                 lambda: shifted_frac_derivative(1e-9, 2.0, flat)):
        with pytest.warns(ConditioningWarning) as caught:
            call()
        assert [w.filename for w in caught] == [__file__]


# -- shifted derivative -----------------------------------------------------------------

def test_shifted_derivative_order_one_product_rule():
    # (D + aI) g = g' + a g for smooth g
    a = 0.5
    sig = make_signal(lambda x: np.sin(x) * np.exp(-0.3 * x), stop=4.0, h=1e-3)
    out = shifted_frac_derivative(a, 1.0, sig)
    x = out.x
    ref = (np.cos(x) - 0.3 * np.sin(x)) * np.exp(-0.3 * x) + a * sig.values
    m = out.valid
    assert np.max(np.abs(out.values[m] - ref[m])) < 1e-5


def test_shifted_derivative_muentz_kernel():
    # x^{z-1} e^{-ax} is annihilated away from the origin
    a, z = 1.0, 1.5
    sig = make_signal(lambda x: x ** (z - 1) * np.exp(-a * x), stop=6.0, h=2e-3)
    out = shifted_frac_derivative(a, z, sig)
    m = out.valid & (out.x >= 0.5)
    scale = np.max(np.abs(sig.values))
    assert np.max(np.abs(out.values[m])) < 2e-3 * scale


def test_shifted_derivative_exponential_weight():
    # The damped constant: differencing after convolution sees the unit jump
    # at the origin, so e^{-ax} maps to e^{-ax} x^{-z}/Gamma(1-z) rather than
    # to zero; the result still dies off in the far field.
    a, z = 2.0, 1.5
    sig = make_signal(lambda x: np.exp(-a * x), stop=8.0, h=2e-3)
    out = shifted_frac_derivative(a, z, sig)
    x = out.x
    ref = np.zeros_like(x)
    ref[1:] = np.exp(-a * x[1:]) * x[1:] ** (-z) / gamma(1.0 - z).real
    m = out.valid & (x >= 0.5) & (x <= 7.5)
    assert np.max(np.abs(out.values[m] - ref[m])) < 2e-3
    far = out.valid & (x >= 4.0) & (x <= 7.5)
    assert np.max(np.abs(out.values[far])) < 2e-3


def test_shifted_derivative_parameters():
    sig = make_signal(lambda x: np.exp(-x), stop=2.0, h=0.01)
    with pytest.raises(ParameterError):
        shifted_frac_derivative(0.0, 0.5, sig)
    # a x reaches 1000 on this grid: the damped weights never form e^{ax}
    a, z = 1.0, 0.5
    far = make_signal(lambda x: np.exp(-a * x) * x ** 2, stop=1000.0, h=0.01)
    out = shifted_frac_derivative(a, z, far)
    x = out.x
    ref = np.exp(-a * x) * (gamma(3.0) / gamma(3.0 - z)).real * x ** (2.0 - z)
    m = out.valid & (x >= 0.5) & (x <= 30.0)
    assert np.max(np.abs(out.values[m] - ref[m])) < 1e-4


# -- atom identity: complex ---------------------------------------------------------------

def test_atom_complex_terminating_is_exact():
    om = np.linspace(-3, 3, 600)
    rep = verify_atom_identity_complex(3.0, 3, om)
    assert rep.max_residual < 1e-12
    assert rep.max_residual <= rep.tail_bound


def test_atom_complex_reference_run():
    om = np.linspace(-3, 3, 600)
    rep = verify_atom_identity_complex(2.5, 200, om)
    assert rep.max_residual <= 1e-4
    assert rep.max_residual <= rep.tail_bound
    # oracle: a much longer reference sum leaves only a tiny residual
    rep_ref = verify_atom_identity_complex(2.5, 2000, om)
    assert rep_ref.max_residual <= rep.max_residual / 50


def test_atom_complex_monotone_in_truncation():
    om = np.linspace(-3, 3, 600)
    last = math.inf
    for K in (50, 100, 200, 400):
        rep = verify_atom_identity_complex(2.5 + 1j, K, om)
        assert rep.max_residual <= last + 1e-12
        last = rep.max_residual


def test_atom_complex_zero_frequency_excluded():
    om = np.linspace(-3, 3, 601)  # contains 0
    rep = verify_atom_identity_complex(2.5, 100, om)
    assert 0.0 in rep.excluded_omegas


def test_atom_complex_order_check():
    with pytest.raises(OrderError):
        verify_atom_identity_complex(1.0, 100, np.linspace(-3, 3, 100))


def test_atom_complex_empty_admissible():
    # w = 0 is a zero of iw
    with pytest.raises(EmptyAdmissibleSetError, match="^no admissible frequencies on this "
                       "grid: all 1 are zeros of a base$"):
        verify_atom_identity_complex(2.5, 100, np.array([0.0]))


# -- atom identity: damped complex ---------------------------------------------------------

def test_atom_expz_integer_exact():
    om = np.linspace(-3, 3, 600)
    rep = verify_atom_identity_expz(1.0, 3.0, 10, om)
    assert rep.max_residual < 1e-12


def test_atom_expz_reference_run():
    om = np.linspace(-3, 3, 600)
    rep = verify_atom_identity_expz(1.0, 2.5, 100, om)
    assert rep.max_residual <= 1e-6
    assert rep.max_residual <= rep.tail_bound


def test_atom_expz_zero_frequency_value():
    # at w = 0 the atom sum collapses to the binomial series of (1-e^{-a})^z
    a, z, K = 1.0, 2.5, 400
    om = np.array([0.0])
    rep = verify_atom_identity_expz(a, z, K, om)
    atoms = rep.atoms
    total = complex(atoms.evaluate(om)[0][0])
    ref = (1 - math.exp(-a)) ** z
    assert abs(total - ref) < 1e-10


def test_atom_expz_coefficient_bound():
    rep = verify_atom_identity_expz(1.0, 2.5 + 1j, 100, np.linspace(-3, 3, 100))
    atoms = rep.atoms
    assert atoms.sup_norm() < math.inf
    # the summed coefficients stay under the e^{|z-1|}-scale cap
    assert abs(np.sum(atoms.components[:, 0])) <= 10.0 * math.exp(abs(2.5 + 1j - 1.0))


def test_atom_expz_parameters():
    with pytest.raises(ParameterError):
        verify_atom_identity_expz(0.0, 2.5, 10, np.linspace(-3, 3, 10))
    for K in (0, -3):
        with pytest.raises(ParameterError):
            verify_atom_identity_expz(1.0, 2.5, K, np.linspace(-3, 3, 10))


# -- atom identity: hypercomplex -------------------------------------------------------------

def test_atom_hc_scalar_reduces_to_exact():
    om = np.linspace(-3, 3, 300)
    rep = verify_atom_identity_hc(Paravector(3.0, [0.0]), 3, om)
    assert rep.max_residual < 1e-12


def test_atom_hc_cl1_matches_complex_under_isomorphism():
    om = np.linspace(-8, 8, 601)
    rep_h = verify_atom_identity_hc(Paravector(2.5, [1.0]), 200, om)
    rep_c = verify_atom_identity_complex(2.5 + 1.0j, 200, om)
    la, lb = subalgebra_from_idempotent(*rep_h.lhs)
    ra, rb = subalgebra_from_idempotent(*rep_h.rhs)
    mapped = np.abs((la - ra) + 1j * (lb - rb))
    cres = np.abs(rep_c.lhs[0] - rep_c.rhs[0])
    m = rep_h.admissible & rep_c.admissible
    assert np.max(np.abs(mapped[m] - cres[m])) <= 1e-12


def test_atom_hc_cl2_reference_run():
    ups = Paravector(2.5, [1.0, 1.0])
    om = np.linspace(0.1, 3.0, 600)
    rep = verify_atom_identity_hc(ups, 200, om)
    assert rep.max_residual <= 5e-3
    assert rep.max_residual <= rep.tail_bound
    rep_ref = verify_atom_identity_hc(ups, 2000, om)
    assert rep_ref.max_residual <= rep.max_residual / 50


def test_atom_hc_excludes_zero_and_reports():
    om = np.linspace(-8, 8, 801)  # contains 0 and brackets +-2pi
    rep = verify_atom_identity_hc(Paravector(2.5, [1.0, 1.0]), 200, om)
    assert 0.0 in rep.excluded_omegas
    assert rep.max_residual <= 5e-3


def test_atom_hc_parameters():
    om = np.linspace(-3, 3, 10)
    with pytest.raises(ParameterError):
        verify_atom_identity_hc(Paravector(2.5, [1.0]), -1, om)


def test_atom_hc_empty_admissible():
    with pytest.raises(EmptyAdmissibleSetError, match="^no admissible frequencies on this "
                       "grid: all 1 are zeros of a base$"):
        verify_atom_identity_hc(Paravector(2.5, [1.0]), 50, np.array([0.0]))


# -- classical and exponential difference ----------------------------------------------------

def test_classical_atom_first_order():
    om = np.linspace(-20, 20, 801)
    rep = classical_atom_check(1, om)
    assert rep.max_residual < 1e-14


def test_classical_atom_fourth_order():
    om = np.linspace(-20, 20, 801)
    rep = classical_atom_check(4, om)
    assert rep.max_residual < 1e-13
    assert np.sum(rep.atoms.components[:, 0]) == 0.0


def test_exp_difference_single_weight_atoms():
    # frequency identity fixes the atoms of (D - aI) e^{a x} 1_[0,1):
    # unit mass at 0 and -e^a at 1; cross-checked against a quadrature DFT
    a = 0.7
    rep = exp_difference_check((a,), np.linspace(-8, 8, 401))
    b = rep.atoms.components[:, 0]
    assert abs(b[0] - 1.0) < 1e-12 and abs(b[1] + math.exp(a)) < 1e-12
    for w in (0.7, 2.3):
        re, _ = quad(lambda x: math.exp(a * x) * math.cos(w * x), 0, 1)
        im, _ = quad(lambda x: -math.exp(a * x) * math.sin(w * x), 0, 1)
        lhs = (1j * w - a) * complex(re, im)
        rhs = 1 - math.exp(a) * cmath.exp(-1j * w)
        assert abs(lhs - rhs) < 1e-12


def test_exp_difference_recovered_equals_polynomial_expansion():
    weights = (1.0, -0.5, 2.0)
    om = np.linspace(-8, 8, 501)
    rep = exp_difference_check(weights, om)
    # brute-force polynomial multiplication oracle
    poly = [1.0]
    for a in weights:
        new = [0.0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i] += c
            new[i + 1] -= c * math.exp(a)
        poly = new
    atoms = rep.atoms
    assert np.array_equal(atoms.shifts, np.arange(len(poly)))
    assert np.allclose(atoms.components[:, 0], poly, rtol=1e-12)
    # the transform samples determine the atoms: least squares on
    # prod (iw - a_k) hat_en(w) recovers them
    samples = hat_en(weights, om) * np.prod([1j * om - a for a in weights], axis=0)
    phases = np.exp(-1j * np.outer(om, np.arange(len(poly))))
    recovered, *_ = np.linalg.lstsq(phases, samples, rcond=None)
    assert np.allclose(recovered, atoms.components[:, 0], rtol=1e-9, atol=1e-9)
    assert rep.max_residual < 1e-10


def test_exp_difference_residuals_do_not_depend_on_grid_size():
    ws = np.linspace(-40.0, 40.0, 73333)
    weights = (1.119155, -0.369429)
    whole = exp_difference_check(weights, ws).residuals
    assert np.array_equal(whole[:1000], exp_difference_check(weights, ws[:1000]).residuals)
    for i in range(0, 1000, 7):
        assert exp_difference_check(weights, [ws[i]]).residuals[0] == whole[i], ws[i]


# the default grid of `verify --family classical`
CLASSICAL_GRID = np.linspace(-20.0, 20.0, 801)


@pytest.mark.parametrize("n", [1, 3, 8, 20, 40, 120, 300, 1023])
def test_classical_check_sits_in_a_stated_band_below_its_bound(n):
    # the classical check is the exponential one at n zero weights: its left
    # side prod (iw) Omega(w) = (1 - e^{-iw})^n is formed one factor at a
    # time, and its tail is the rounding fuzz of n + 1 atoms, about 2^n.  The
    # ratio max_residual / tail_bound measured 0.013-0.036 for every n up
    # to 1023; the band's floor keeps the bound within 200 times the
    # residual, which a bound of 64 eps (1 + 2^n) 2^n misses from n = 5
    rep = classical_atom_check(n, CLASSICAL_GRID)
    assert rep.atoms.shifts.size == n + 1
    assert 0.005 <= rep.max_residual / rep.tail_bound <= 0.1, rep.max_residual / rep.tail_bound


def test_classical_check_refuses_a_left_side_off_by_a_billionth(monkeypatch):
    # with the first ratio Omega(w) scaled by 1 + 1e-9 the left side is off
    # by 1e-9 of itself, about 1e3 at n = 40, against a tail bound of 0.64
    from fracspline import fourier, fracops

    assert classical_atom_check(40, CLASSICAL_GRID).verified()

    def scaled(weights, w):
        ratios = fourier._exp_ratios(weights, w)
        yield next(ratios) * (1.0 + 1e-9)
        yield from ratios

    monkeypatch.setattr(fracops, "_exp_ratios", scaled)
    rep = classical_atom_check(40, CLASSICAL_GRID)
    assert rep.max_residual > 1e3 * rep.tail_bound, (rep.max_residual, rep.tail_bound)
    assert not rep.verified()


def test_exp_difference_classical_limit():
    eps = 1e-6
    rep = exp_difference_check((eps, eps, eps), np.linspace(-8, 8, 201))
    b = rep.atoms.components[:, 0]
    ref = np.array([1.0, -3.0, 3.0, -1.0])
    assert np.max(np.abs(b - ref)) < 1e-4


# -- Mellin-type identity -----------------------------------------------------------------------

def test_mellin_scalar_closed_form():
    res = mellin_check(Paravector(0.5, [0.0]), 1.0)
    ref = math.sqrt(math.pi) * cmath.exp(-1j * math.pi / 4)
    assert abs(complex(res.rhs.s) - ref) < 1e-12
    assert res.deviation <= 1e-3
    assert abs(complex(res.lhs.s) - ref) <= 1e-3


def test_mellin_sweep_against_mpmath():
    # both columns z = x0 +- i|v| of the idempotent split, mapped back along
    # u, against 40-digit Gamma(z) / (iw)^z; the Cl(2) order exercises a
    # direction u other than e1
    with mpmath.workdps(40):
        for x0 in (0.05, 0.3, 0.5, 0.9):
            for vn in (0.0, 0.4, 2.0, 3.0):
                for ups in (Paravector(x0, [vn]), Paravector(x0, [0.6 * vn, 0.8 * vn])):
                    u = ups.v / vn if vn else np.zeros(ups.n)
                    for w in (0.5, 1.0, 2.0, 5.0):
                        res = mellin_check(ups, w)
                        p, q = (complex(mpmath.gamma(mpmath.mpc(x0, y))
                                        / mpmath.power(mpmath.mpc(0, w), mpmath.mpc(x0, y)))
                                for y in (vn, -vn))
                        ref = Paravector((p + q) / 2, (p - q) / 2j * u)
                        assert (res.lhs - ref).norm() <= 1e-10 * ref.norm(), (x0, vn, w)
                        assert (res.rhs - ref).norm() <= 1e-10 * ref.norm(), (x0, vn, w)


def test_mellin_domain_checks():
    with pytest.raises(DomainError):
        mellin_check(Paravector(1.5, [0.0]), 1.0)
    with pytest.raises(DomainError):
        mellin_check(Paravector(0.5, [0.0]), -1.0)
    with pytest.raises(DomainError):
        mellin_check(Paravector(0.5, [0.0]), float("nan"))
    # past |v| = 20 the rule loses its digits: a deviation of 2e-2 at
    # |v| = 40, NaN after overflow warnings at |v| = 1000
    mellin_check(Paravector(0.5, [20.0]), 1.0)
    for v in (40.0, 1000.0):
        with pytest.raises(DomainError):
            mellin_check(Paravector(0.5, [0.6 * v, 0.8 * v]), 1.0)


def test_mellin_check_that_overflows_next_to_zero_is_an_error():
    # Gamma(x0) is finite from 5.6e-309, but below about 5.6e-308 the left
    # tail's 1/(1 - e^{-0.1 z}) or the columns' sum p + q overflows
    for x0 in (6e-309, 1e-308, 2e-308, 5e-308):
        with pytest.raises(NumericError, match=f"^the Mellin check at scalar part {x0:g} "
                                               "leaves the float range"):
            mellin_check(Paravector(x0, [0.0]), 1.0)
    # where neither overflows, the check keeps its values
    res = mellin_check(Paravector(1e-307, [0.0]), 1.0)
    assert res.rhs.norm() == pytest.approx(1e307, rel=1e-15)
    assert res.deviation <= 1e-15 * res.rhs.norm()
    assert mellin_check(Paravector(1e-308, [1.0]), 1.0).deviation == pytest.approx(4.0e-14,
                                                                                    rel=0.05)


# -- report plumbing ------------------------------------------------------------------------------

def test_atom_sum_container():
    atoms = AtomSum(np.arange(3), np.array([[1.0], [2.0], [-3.0]], dtype=complex))
    assert atoms.sup_norm() == 3.0
    vals = atoms.evaluate(np.array([0.0]))
    assert abs(vals[0][0] - 0.0) < 1e-15
    with pytest.raises(ParameterError):
        AtomSum(np.arange(2), np.array([[1.0]]))


def test_atom_sum_refuses_bad_shifts_and_an_empty_sum():
    # a shift of 0.5 used to be truncated to 0, and an empty sum failed in
    # evaluate with numpy's "zero-size array to reduction operation"
    for shifts in ([0.5], [math.nan], [math.inf], [1e300], ["1"], [True], [1 + 0j]):
        with pytest.raises(ParameterError, match="^atom shifts must be finite integers"):
            AtomSum(shifts, [[1.0]])
    with pytest.raises(ParameterError, match="^an atom sum needs at least one atom$"):
        AtomSum([], np.empty((0, 1)))
    # integral floats and any integer dtype are shifts
    for shifts in ([2.0], np.array([2], dtype=np.uint8), [-3, 2]):
        atoms = AtomSum(shifts, np.ones((len(shifts), 1)))
        assert atoms.shifts.dtype == int and atoms.shifts.tolist() == list(map(int, shifts))


def test_atom_sum_sup_norm_scales_before_it_squares():
    # an atom above about 1.3e154 squared to inf with a RuntimeWarning
    for big in (1e200, 1.7e308):
        atoms = AtomSum([0, 1], np.array([[1.0, big], [-big, 0.5]]))
        assert atoms.sup_norm() == pytest.approx(big, rel=1e-15)
        assert AtomSum([0], [[big]]).sup_norm() == big
    # in range it keeps the bits of the plain sum of squares
    rng = np.random.default_rng(33)
    for cols in (1, 2):
        comps = rng.normal(size=(50, cols)) * 10.0 ** rng.uniform(-100, 100, (50, 1))
        comps = comps + 1j * rng.normal(size=(50, cols))
        plain = float(np.max(np.sqrt(np.sum(np.abs(comps) ** 2, axis=1))))
        assert AtomSum(np.arange(50), comps).sup_norm() == plain
    assert AtomSum([0], [[0.0]]).sup_norm() == 0.0


def test_atom_sum_accepts_every_finite_dtype():
    # int, float32 and complex64 coefficients used to be misread through a
    # float view of their bits: -1 as a NaN, float32 as a raw ValueError
    om = np.array([0.0, 1.0])
    for coeffs in ([[-1]], np.array([[-1.5]], dtype=np.float32),
                   np.array([[-1 + 2j]], dtype=np.complex64)):
        vals = AtomSum([0], coeffs).evaluate(om)
        assert np.array_equal(vals, np.broadcast_to(np.asarray(coeffs, complex), (1, 2)))
    for bad in (np.nan, np.inf, complex(1.0, -np.inf)):
        with pytest.raises(ParameterError):
            AtomSum([0], [[bad]])


# -- atom sums: Horner's rule against oracles -----------------------------------------------------

def phase_matrix_sum(shifts, components, omegas):
    """The K x N phase-matrix product that AtomSum.evaluate replaced."""
    return np.asarray(components).T @ np.exp(-1j * np.outer(shifts, omegas))


def mp_atom_sum(column, omegas):
    """sum_k c_k e^{-ikw} for shifts 0..K, in 30-digit arithmetic."""
    out = []
    with mpmath.workdps(30):
        for w in omegas:
            q = mpmath.expj(-mpmath.mpf(float(w)))
            acc = mpmath.mpc(0)
            for c in column[::-1]:
                acc = acc * q + mpmath.mpc(complex(c))
            out.append(complex(acc))
    return np.array(out)


def atom_columns(K, ncols):
    """The verifiers' alternating binomial atoms: z, or the pair (z, conj z)."""
    z = 2.5 + 1.0j
    cols = [binom_complex_sequence(e, K) * (-1.0) ** np.arange(K + 1)
            for e in (z, z.conjugate())[:ncols]]
    return np.stack(cols, axis=1)


# the edges of the block rule for M = K + 1 atoms, B = ceil(sqrt M): K = 0 is
# one atom, K = 3 and 15 fill a B x B square, and K = 2, 16 and 17 leave the
# last block part-filled
@pytest.mark.parametrize("K", [0, 1, 2, 3, 15, 16, 17, 50, 400])
@pytest.mark.parametrize("ncols", [1, 2])
def test_atom_sum_horner_matches_mpmath(K, ncols):
    special = np.array([0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 1e3, -1e3])
    om = np.concatenate([special, np.linspace(-12.0, 12.0, 65)])
    rng = np.random.default_rng(K)
    random = rng.normal(size=(K + 1, ncols)) + 1j * rng.normal(size=(K + 1, ncols))
    for comps in (atom_columns(K, ncols), random):
        vals = AtomSum(np.arange(K + 1), comps).evaluate(om)
        assert vals.shape == (ncols, om.size)
        for j in range(ncols):
            tol = (2 * K + 2) * np.finfo(float).eps * np.sum(np.abs(comps[:, j]))
            err = np.abs(vals[j] - mp_atom_sum(comps[:, j], om))
            assert np.max(err) <= tol, (K, ncols, j, np.max(err) / tol)


def test_atom_sum_shift_layouts_match_phase_matrix():
    # shifts in any order, repeated or negative reach the same sum
    rng = np.random.default_rng(7)
    om = np.linspace(-7.0, 7.0, 301)
    for shifts in ([3, 0, 1, 2], [0, 2, 2, 5], [-2, 1, 4], [6]):
        comps = rng.normal(size=(len(shifts), 2)) + 1j * rng.normal(size=(len(shifts), 2))
        vals = AtomSum(np.array(shifts), comps).evaluate(om)
        ref = phase_matrix_sum(shifts, comps, om)
        assert np.max(np.abs(vals - ref)) <= 1e-13 * np.sum(np.abs(comps)), shifts


def test_atom_sum_value_does_not_depend_on_its_grid():
    # blocks of 4096 frequencies, the last one padded: a frequency's value
    # is the same bits on any grid and at any place in a block
    # (the one-column Horner loop it replaced differed in 60% of them)
    om = np.linspace(-12.0, 12.0, 10001)
    cases = [AtomSum(np.arange(K + 1), atom_columns(K, ncols))
             for K, ncols in ((400, 2), (50, 1), (3, 1))]
    cases.append(AtomSum([-2, 1, 4], np.array([[1.0 + 2j], [-0.5], [3j]])))
    for atoms in cases:
        vals = atoms.evaluate(om)
        for i in (0, 4095, 4096, 4097, 10000):
            assert np.array_equal(atoms.evaluate(om[i:i + 1])[:, 0], vals[:, i]), i
        assert np.array_equal(atoms.evaluate(om[4000:8200]), vals[:, 4000:8200])


def test_atom_sum_horner_memory_is_linear_in_frequencies():
    K, N = 400, 100_000
    atoms = AtomSum(np.arange(K + 1), atom_columns(K, 1))
    om = np.linspace(-12.0, 12.0, N)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        atoms.evaluate(om)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # a handful of length-N complex rows; the K x N phase matrix is 640 MB
    assert peak < 16 * N * 8, peak


def traced_peak(call):
    """The result of call() and the tracemalloc peak it reached above what
    was allocated before it; a first untraced call does numpy's lazy set-up."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


VERIFIERS = {
    "complex": lambda K, om: verify_atom_identity_complex(2.5 + 1j, K, om),
    "complex-exponential": lambda K, om: verify_atom_identity_expz(0.7, 2.5 + 1j, K, om),
    "fractional": lambda K, om: verify_atom_identity_complex(2.5, K, om),
    "hypercomplex": lambda K, om: verify_atom_identity_hc(Paravector(2.5, [1.0, 1.0]), K, om),
    "classical": lambda K, om: classical_atom_check(3, om),
    "exponential": lambda K, om: exp_difference_check((1.0, -0.5, -0.5), om),
}


@pytest.mark.parametrize("family, K", [(fam, K) for fam in VERIFIERS for K in (50, 400)
                                       if K == 50 or fam not in ("classical", "exponential")])
def test_verifier_memory_is_its_report_and_the_atom_sum_blocks(family, K):
    # every full-grid array a verifier makes is one of its report's: the left
    # side is formed and the residuals taken one chunk of 4096 frequencies at
    # a time.  The slack is 16 chunk-length complex rows (1 MiB, 10.5 B per
    # frequency here); the report arrays are 41 B per frequency (73 B for
    # the hypercomplex pair) and the blocks 5-43 B.  Full-grid logs and
    # moduli would put the binomial verifiers 17-48 B per frequency above
    # this bound.
    N = 100_001
    om = np.linspace(-50.0, 50.0, N)
    rep, peak = traced_peak(lambda: VERIFIERS[family](K, om))
    report = sum(a.nbytes for a in (rep.residuals, rep.admissible, rep.lhs, rep.rhs))
    rhs, evaluate_peak = traced_peak(lambda: rep.atoms.evaluate(om))
    blocks = evaluate_peak - rhs.nbytes
    slack = 16 * 4096 * 16
    assert peak <= report + blocks + slack, (peak / N, report / N, blocks / N)


@pytest.mark.parametrize("family", VERIFIERS)
def test_verifier_value_does_not_depend_on_its_grid(family):
    # the left side and the residual of a frequency are the same bits alone,
    # last in a grid of two, and inside the grid of 4097, whose last chunk
    # holds one frequency
    om = np.linspace(-50.0, 50.0, 4097)
    whole = VERIFIERS[family](50, om)
    for i in (0, 4095, 4096):
        for start in {i, max(i - 1, 0)}:
            rep = VERIFIERS[family](50, om[start:i + 1])
            assert np.array_equal(rep.lhs[:, -1], whole.lhs[:, i]), (family, start, i)
            assert np.array_equal(rep.residuals[-1], whole.residuals[i], equal_nan=True)


@pytest.mark.parametrize("z", [1.1, 2.5 + 1j, 3.7 - 2j, 5.2 + 0.5j, 5.9 + 0.3j, 5.99])
def test_verifiers_certify_on_a_fine_grid(z):
    # near re z = 6 the tail bound is down to the rounding fuzz, so the
    # atom sum's own rounding decides whether the identity certifies
    om = np.linspace(-12.0, 12.0, 40_001)
    for K in (50, 160, 400):
        rep = verify_atom_identity_complex(z, K, om)
        assert rep.verified(), (z, K, rep.max_residual, rep.tail_bound)
    if z == 5.99:
        assert verify_atom_identity_expz(0.7, 2.5 + 0.5j, 400, om).verified()
        assert verify_atom_identity_hc(Paravector(5.9, [0.3]), 400, om).verified()


def test_fused_lhs_equals_the_product_of_principal_powers():
    # exp(z (log b1 + log b2)) = b1^z b2^z everywhere: next to the zeros
    # of Omega at 2 pi m and at w = 0, where b1 = 0.
    # Both forms round z log b, so they agree to 1e-14, or to a few
    # eps |z| |log b| where Omega(2 pi m) ~ 1e-17 has |log Omega| ~ 37
    from fracspline.fourier import _principal_log, _principal_power
    from fracspline.fracops import _verify_binomial_atoms
    om = np.concatenate([np.linspace(-30.0, 30.0, 6001),
                         2 * math.pi * np.arange(-4, 5), [1e-300, -1e-300]])
    for z, a in ((2.5 + 1j, 0.0), (1.1 + 8j, 0.0), (5.9 - 0.3j, 0.0), (2.5 + 1j, 0.7)):
        base1 = a + 1j * om
        base2 = omega_a_fn(a, om)
        exps = (z, z.conjugate())
        rep = _verify_binomial_atoms(
            "complex", "z", 20, om,
            lambda w: (_principal_log(a + 1j * w), _principal_log(omega_a_fn(a, w))),
            exps, damping=a)
        lhs = rep.lhs
        assert a > 0 or not rep.admissible.all()  # w = 0 is excluded
        product = (_principal_power(*_principal_log(base1), exps)
                   * _principal_power(*_principal_log(base2), exps))
        zero = product == 0
        assert np.array_equal(lhs == 0, zero)
        rel = np.abs(lhs[~zero] - product[~zero]) / np.abs(product[~zero])
        logs = np.abs(_principal_log(base1)[0]) + np.abs(_principal_log(base2)[0])
        tol = np.maximum(1e-14, 4 * np.finfo(float).eps * abs(z) * (1 + logs))
        assert np.all(rel <= np.broadcast_to(tol, zero.shape)[~zero]), (z, a, np.max(rel))


def test_verifiers_admit_every_nonzero_frequency():
    # Omega keeps its relative precision at the floats next to its zeros
    # 2 pi m and at tiny |w|, so only w = 0, where iw = 0, is excluded, and
    # there the residual, about the whole tail sum_{k>K} c_k, is in bound;
    # neither damped base is 0 anywhere, so the damped check admits w = 0 too
    near = 2 * math.pi * np.arange(-5, 6)[:, None] + [-3e-15, -1e-15, 0.0, 1e-15, 3e-15]
    om = np.concatenate([np.linspace(-33.0, 33.0, 6601), near.ravel(),
                         [1e-300, -1e-20, 1e-15]])
    reports = [(verify_atom_identity_complex(2.5 + 1j, 200, om), om != 0),
               (verify_atom_identity_complex(1.1 + 8j, 200, om), om != 0),
               (verify_atom_identity_complex(1.5, 200, om), om != 0),
               (verify_atom_identity_hc(Paravector(2.5, [1.0, 1.0]), 200, om), om != 0)]
    reports += [(verify_atom_identity_expz(a, 2.5 + 1j, 200, om), np.ones(om.shape, bool))
                for a in (1e-310, 1e-12, 0.7, 20.0)]
    for rep, admitted in reports:
        assert np.array_equal(rep.admissible, admitted), rep.order
        assert rep.max_residual <= rep.tail_bound, (rep.order, rep.max_residual / rep.tail_bound)


def test_principal_args_of_the_two_bases_sum_into_the_right_half_plane():
    # base1 base2 = 1 - e^{-a-iw} has real part >= 0, so wherever neither
    # base is 0 the two principal args sum to its arg, in [-pi/2, pi/2], and
    # writing (base1 base2)^z as base1^z base2^z needs no branch test: on a
    # uniform sweep of +-1e6, within 1e-9 of 2 pi m and at the floats next
    # to it, and for |w| from 1e-300 to 1e300
    from fracspline.fourier import _log_iomega, _principal_log
    rng = np.random.default_rng(28)
    zeros = 2 * math.pi * np.arange(-2000, 2001)
    mags = np.logspace(-300, 300, 6001)
    om = np.concatenate([rng.uniform(-1e6, 1e6, 100_000), zeros - 1e-9, zeros + 1e-9,
                         np.nextafter(zeros, -np.inf), np.nextafter(zeros, np.inf),
                         mags, -mags, [0.0]])
    pairs = [(_log_iomega(om), _principal_log(omega_fn(om)))]
    pairs += [(_principal_log(a + 1j * om), _principal_log(omega_a_fn(a, om)))
              for a in (5e-324, 1e-310, 1e-12, 0.7, 20.0, 700.0)]
    for (log1, zero1), (log2, zero2) in pairs:
        argsum = (log1.imag + log2.imag)[~(zero1 | zero2)]
        assert np.all(np.abs(argsum) <= math.pi / 2), np.max(np.abs(argsum))


# the truncation tail, sum_{k>K} |c_k|, bounds the residual of an exact
# identity at every frequency; K = 5 at z = 1.1+8i is 7 times past the
# first-dropped-atom estimate, where the binomials still grow
TAIL_ORDERS = [1.1 + 8j, 1.5 + 5j, 1.1 - 10j, 2.5 + 10j, 3.3 - 6j, 4.0 + 0j, 5.9 + 2j]


@pytest.mark.parametrize("z", TAIL_ORDERS)
def test_tail_bound_bounds_the_residual(z):
    om = np.linspace(-12.0, 12.0, 4001)
    for K in (1, 2, 5, 12, 20, 37, 60, 150, 400):
        reports = [verify_atom_identity_complex(z, K, om),
                   verify_atom_identity_expz(0.05, z, K, om),
                   verify_atom_identity_expz(1.5, z, K, om),
                   verify_atom_identity_hc(Paravector(z.real, [0.6 * z.imag, 0.8 * z.imag]),
                                           K, om)]
        for rep in reports:
            assert rep.max_residual <= rep.tail_bound, (rep.family, rep.order, K,
                                                        rep.max_residual / rep.tail_bound)


def test_report_json_schema():
    rep = classical_atom_check(2, np.linspace(-5, 5, 101))
    doc = rep.to_json_dict()
    assert set(doc) == {"family", "order", "K", "grid", "max_residual",
                        "tail_bound", "excluded_omegas"}
    assert set(doc["grid"]) == {"omega_min", "omega_max", "count"}
    assert doc["family"] == "classical"
    assert rep.verified()
    # an explicit tolerance replaces tail_bound, and a residual meets itself
    assert 0 < rep.max_residual < rep.tail_bound
    assert rep.verified(rep.max_residual) and not rep.verified(0.0)


def test_every_verifier_returns_one_frozen_report():
    # atoms, lhs and rhs are fields of every report, one row per atom
    # column, and rhs is the atom sum's evaluate, bit for bit; an infinite
    # frequency is a ParameterError before any arithmetic can warn
    om = np.linspace(-6.0, 6.0, 241)
    verifiers = {
        "complex": lambda g: verify_atom_identity_complex(2.5 + 1j, 20, g),
        "complex-exponential": lambda g: verify_atom_identity_expz(0.5, 2.5, 50, g),
        "hypercomplex": lambda g: verify_atom_identity_hc(Paravector(2.5, [1.0, 1.0]), 20, g),
        "classical": lambda g: classical_atom_check(3, g),
        "exponential": lambda g: exp_difference_check((1.0, -0.5), g),
    }
    for name, verify in verifiers.items():
        rep = verify(om)
        rows = 2 if name == "hypercomplex" else 1
        assert rep.atoms.components.shape[1] == rows, name
        assert rep.lhs.shape == rep.rhs.shape == (rows, om.size), name
        assert np.array_equal(rep.rhs.view(np.uint64),
                              rep.atoms.evaluate(rep.omegas).view(np.uint64)), name
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.tail_bound = 0.0
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ParameterError, match="must be finite"):
                verify([0.5, bad])


def test_multiplier_inverts_integral_symbol():
    # the frequency symbols of the derivative and integral of equal order
    # multiply to one wherever both are defined
    from fracspline.fourier import _principal_log, _principal_power
    om = np.linspace(-10, 10, 201)
    om = om[om != 0]
    z = 0.7 + 0.3j
    product = (_principal_power(*_principal_log(1j * om), z)
               * _principal_power(*_principal_log(1j * om), -z))
    assert np.max(np.abs(product - 1.0)) < 1e-13


def test_residual_bounded_under_grid_refinement():
    z = 2.5 + 1j
    coarse = verify_atom_identity_complex(z, 200, np.linspace(-3, 3, 300))
    fine = verify_atom_identity_complex(z, 200, np.linspace(-3, 3, 1200))
    assert coarse.max_residual <= coarse.tail_bound
    assert fine.max_residual <= fine.tail_bound
    # shared endpoints evaluate identically
    assert abs(coarse.residuals[0] - fine.residuals[0]) < 1e-15


@pytest.mark.parametrize("n", [7, 1001, 50000])
def test_fft_convolve_equals_fftconvolve_bit_for_bit(n):
    # the same transform length (11-smooth) and order of operations
    from fracspline.fracops import _fft_convolve

    rng = np.random.default_rng(n)
    a, b = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
    got, want = _fft_convolve(a, b), fftconvolve(a, b)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# transform lengths 1, 3, 5, 7, 9, 14, 15, 21, 200, ..., 800000: odd and even,
# the two shapes of the Hermitian mirror
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 11, 100, 1001, 4097, 50000, 399998])
def test_fft_convolve_of_a_real_signal_is_fftconvolve_to_rounding(n):
    # a real a is transformed at half length; only rounding separates it
    # from the complex product
    from fracspline.fracops import _fft_convolve, _fft_length

    rng = np.random.default_rng(n)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got, want = _fft_convolve(a, b), fftconvolve(a.astype(complex), b)
    length = _fft_length(2 * n - 1)
    assert got.shape == want.shape
    err = float(np.max(np.abs(got - want)))
    assert err <= 4 * np.finfo(float).eps * math.log2(length) * np.max(np.abs(want)), err


def test_operator_memory_per_sample_is_bounded():
    # the output and the half-length transforms of a real signal peak at
    # about 80 bytes per sample for all three operators: the damped one
    # takes damped weights and forms no e^{ax} and no x grid
    n = 2 ** 17
    h = 4.0 / (n - 1)
    sig = SampledSignal(0.0, h, (h * np.arange(n)) ** 2)
    ops = (lambda s: frac_integral(0.7 + 0.2j, s),
           lambda s: frac_derivative(1.5 + 0.2j, s),
           lambda s: shifted_frac_derivative(0.7, 0.5 + 0.2j, s))
    for op in ops:
        op(sig)  # numpy's lazy set-up is not the operator's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            op(sig)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / n <= 96, peak / n


def broadcast_horner(atoms, omegas):
    """AtomSum.evaluate as it was before its giant steps ran one column at a
    time: Horner's rule on all columns at once, broadcasting q^B.  Its
    complex exps are cis, as in AtomSum.evaluate."""
    om = np.asarray(omegas, dtype=float).ravel()
    low = int(atoms.shifts.min())
    span = int(atoms.shifts.max()) - low + 1
    cols = atoms.components.shape[1]
    B = math.isqrt(span - 1) + 1
    J = -(-span // B)
    table = np.zeros((J * B, cols), dtype=complex)
    np.add.at(table, atoms.shifts - low, atoms.components)
    blocks = np.ascontiguousarray(table.reshape(J, B, cols).transpose(2, 0, 1)
                                  ).reshape(cols * J, B)
    out = np.empty((cols, om.size), dtype=complex)
    w = np.zeros(4096)
    powers = np.empty((B + 1, 4096), dtype=complex)
    powers[0] = 1.0
    inner = np.empty((cols * J, 4096), dtype=complex)
    inner3 = inner.reshape(cols, J, 4096)
    acc = np.empty((cols, 4096), dtype=complex)
    for start in range(0, om.size, 4096):
        n = min(4096, om.size - start)
        w[:n] = om[start:start + n]
        w[n:] = 0.0
        cis(-w, out=powers[1])
        m = 1
        while m < B:
            top = min(2 * m, B)
            np.multiply(powers[1:top - m + 1], powers[m], out=powers[m + 1:top + 1])
            m = top
        np.matmul(blocks, powers[:B], out=inner)
        acc[...] = inner3[:, J - 1]
        for j in range(J - 2, -1, -1):
            acc *= powers[B]
            acc += inner3[:, j]
        if low:
            acc *= cis(-low * w)
        out[:, start:start + n] = acc[:, :n]
    return out


def test_atom_sum_keeps_the_bits_of_the_broadcast_horner():
    # q = cis(-w) and one column at a time change no bit: 1 to 3
    # columns, J = 1 (one and two atoms), a part-filled last block, negative
    # shifts, and frequencies at 0, -0.0, subnormal, near 2 pi m and large
    near = 2 * math.pi * np.arange(-4, 5)
    om = np.concatenate([np.linspace(-40.0, 40.0, 9001), [0.0, -0.0, 5e-324, -5e-324, 1e6],
                         np.nextafter(near, np.inf), np.nextafter(near, -np.inf)])
    rng = np.random.default_rng(20)
    for ncols in (1, 2, 3):
        for shifts in (np.arange(1), np.arange(2), np.arange(17), np.arange(401),
                       np.array([-3, 0, 5, 5, 2])):
            comps = (rng.normal(size=(shifts.size, ncols))
                     + 1j * rng.normal(size=(shifts.size, ncols)))
            atoms = AtomSum(shifts, comps)
            assert np.array_equal(atoms.evaluate(om).view(np.uint64),
                                  broadcast_horner(atoms, om).view(np.uint64)), (ncols, shifts)


def test_public_branches_behave_as_documented():
    # branches of the public API that no other test runs
    sig = SampledSignal(0.0, 0.1, np.ones(5))
    grid = FrequencyGrid(6.0, 41)
    verifiers = {
        "complex": lambda g: verify_atom_identity_complex(2.5 + 1j, 20, g),
        "complex-exponential": lambda g: verify_atom_identity_expz(0.7, 2.5 + 1j, 20, g),
        "hypercomplex": lambda g: verify_atom_identity_hc(Paravector(2.5, [1.0, 1.0]), 20, g),
        "classical": lambda g: classical_atom_check(3, g),
        "exponential": lambda g: exp_difference_check((1.0, -0.5), g),
    }
    errors = [("set a SampledSignal attribute", lambda: setattr(sig, "step", 0.2),
               AttributeError, "immutable")]
    errors += [(f"{name} on an empty grid", lambda v=verify: v([]), ParameterError,
                "empty frequency grid") for name, verify in verifiers.items()]
    for label, call, error, message in errors:
        with pytest.raises(error, match=message):
            call()
    # a FrequencyGrid reads as its omegas
    for name, verify in verifiers.items():
        by_grid, by_omegas = verify(grid), verify(grid.omegas)
        assert by_grid.to_json_dict() == by_omegas.to_json_dict(), name
        assert np.array_equal(by_grid.residuals, by_omegas.residuals, equal_nan=True), name
