import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fracspline import (
    AtomSum,
    ConditioningWarning,
    DomainError,
    EmptyAdmissibleSetError,
    OrderError,
    ParameterError,
    Paravector,
    RangeOverflowError,
    SampledSignal,
    SignalFormatError,
    classical_atom_check,
    exp_difference_check,
    frac_derivative,
    frac_integral,
    gamma,
    hat_en,
    mellin_check,
    shifted_frac_derivative,
    verify_atom_identity_complex,
    verify_atom_identity_expz,
    verify_atom_identity_hc,
)
from fracspline.specialfn import binom_complex_sequence


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


def test_derivative_conditioning_warning():
    # second difference of a constant on a very fine grid: the rounding
    # amplification dwarfs the (zero) true derivative
    sig = SampledSignal(0.0, 1e-6, np.ones(64))
    with pytest.warns(ConditioningWarning):
        frac_derivative(2.0, sig)


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
    big = make_signal(lambda x: np.exp(-x), stop=2000.0, h=1.0)
    with pytest.raises(RangeOverflowError):
        shifted_frac_derivative(1.0, 0.5, big)


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
    with pytest.raises(EmptyAdmissibleSetError):
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
    atoms = rep.extras["atom_sum"]
    total = complex(atoms.evaluate(om)[0][0])
    ref = (1 - math.exp(-a)) ** z
    assert abs(total - ref) < 1e-10


def test_atom_expz_coefficient_bound():
    rep = verify_atom_identity_expz(1.0, 2.5 + 1j, 100, np.linspace(-3, 3, 100))
    atoms = rep.extras["atom_sum"]
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
    la, lb = rep_h.extras["lhs_pair"]
    ra, rb = rep_h.extras["rhs_pair"]
    mapped = np.abs((la - ra) + 1j * (lb - rb))
    cres = np.abs(rep_c.extras["lhs"] - rep_c.extras["rhs"])
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
    with pytest.raises(EmptyAdmissibleSetError):
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
    assert np.sum(rep.extras["atom_sum"].components[:, 0]) == 0.0


def test_exp_difference_single_weight_atoms():
    # frequency identity fixes the atoms of (D - aI) e^{a x} 1_[0,1):
    # unit mass at 0 and -e^a at 1; cross-checked against a quadrature DFT
    a = 0.7
    rep = exp_difference_check((a,), np.linspace(-8, 8, 401))
    b = rep.extras["atom_sum"].components[:, 0]
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
    atoms = rep.extras["atom_sum"]
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


def test_exp_difference_classical_limit():
    eps = 1e-6
    rep = exp_difference_check((eps, eps, eps), np.linspace(-8, 8, 201))
    b = rep.extras["atom_sum"].components[:, 0]
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


# -- report plumbing ------------------------------------------------------------------------------

def test_atom_sum_container():
    atoms = AtomSum(np.arange(3), np.array([[1.0], [2.0], [-3.0]], dtype=complex))
    assert atoms.sup_norm() == 3.0
    vals = atoms.evaluate(np.array([0.0]))
    assert abs(vals[0][0] - 0.0) < 1e-15
    with pytest.raises(ParameterError):
        AtomSum(np.arange(2), np.array([[1.0]]))


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


@pytest.mark.parametrize("K", [1, 50, 400])
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


def test_report_json_schema():
    rep = classical_atom_check(2, np.linspace(-5, 5, 101))
    doc = rep.to_json_dict()
    assert set(doc) == {"family", "order", "K", "grid", "max_residual",
                        "tail_bound", "excluded_omegas"}
    assert set(doc["grid"]) == {"omega_min", "omega_max", "count"}
    assert doc["family"] == "classical"
    assert rep.verified()


def test_multiplier_inverts_integral_symbol():
    # the frequency symbols of the derivative and integral of equal order
    # multiply to one wherever both are defined
    from fracspline.fourier import _principal_power
    om = np.linspace(-10, 10, 201)
    om = om[om != 0]
    z = 0.7 + 0.3j
    product = _principal_power(1j * om, z) * _principal_power(1j * om, -z)
    assert np.max(np.abs(product - 1.0)) < 1e-13


def test_residual_bounded_under_grid_refinement():
    z = 2.5 + 1j
    coarse = verify_atom_identity_complex(z, 200, np.linspace(-3, 3, 300))
    fine = verify_atom_identity_complex(z, 200, np.linspace(-3, 3, 1200))
    assert coarse.max_residual <= coarse.tail_bound
    assert fine.max_residual <= fine.tail_bound
    # shared endpoints evaluate identically
    assert abs(coarse.residuals[0] - fine.residuals[0]) < 1e-15
