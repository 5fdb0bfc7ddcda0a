import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspline import (
    BranchCutError,
    DimensionMismatchError,
    DomainError,
    HypercomplexExponent,
    Paravector,
    hc_power,
)


def rand_paravector(rng, n, complex_coeffs=False):
    s, v = rng.standard_normal(), rng.standard_normal(n)
    if complex_coeffs:
        s, v = s + 1j * rng.standard_normal(), v + 1j * rng.standard_normal(n)
    return Paravector(s, v)


def same_direction(rng, u, complex_coeffs=False):
    """A random paravector alpha + beta u."""
    alpha, beta = rng.standard_normal(2)
    if complex_coeffs:
        alpha, beta = alpha + 1j * rng.standard_normal(), beta + 1j * rng.standard_normal()
    return Paravector(alpha, beta * u)


def e(n, i):
    return Paravector(0.0, np.eye(n)[i - 1])


def minus_one(n):
    return Paravector.scalar(-1.0, n)


# -- generator relations ------------------------------------------------------

def test_generator_squares_to_minus_one():
    for n in range(1, 6):
        for i in range(1, n + 1):
            assert (e(n, i) * e(n, i)).allclose(minus_one(n))


def test_generators_anticommute():
    # (e_i + e_j)^2 = e_i^2 + (e_i e_j + e_j e_i) + e_j^2 is the scalar -2
    # exactly when the cross terms cancel
    for n in range(2, 6):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                x = e(n, i) + e(n, j)
                sq = x * x
                assert sq.s == -2.0 and np.all(sq.v == 0.0)


def test_unit_element():
    rng = np.random.default_rng(1)
    one = Paravector.scalar(1.0, 3)
    for k in range(10):
        x = rand_paravector(rng, 3, complex_coeffs=bool(k % 2))
        assert (one * x).allclose(x)
        assert (x * one).allclose(x)


QUATERNION_TABLE = {
    # Cl(2) realizes the quaternions: 1, i = e1, j = e2, k = e1e2.
    # Independent oracle: the classical multiplication table.
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}


def hamilton(p, q):
    """Quaternion product of coefficient 4-vectors (1, i, j, k) from the table."""
    out = np.zeros(4, dtype=np.result_type(p, q))
    for (i, j), (k, sign) in QUATERNION_TABLE.items():
        out[k] += sign * p[i] * q[j]
    return out


def test_cl2_matches_quaternion_table():
    rng = np.random.default_rng(37)
    cases = [(Paravector(*a), Paravector(*b)) for a, b in (
        ((1.0, [0.0, 0.0]), (0.0, [1.0, 0.0])),
        ((0.0, [1.0, 0.0]), (0.0, [1.0, 0.0])),
        ((0.0, [1.0, 0.0]), (0.0, [0.0, 1.0])),
        ((0.0, [0.0, 1.0]), (0.0, [1.0, 0.0])),
        ((1.0, [2.0, -3.0]), (0.5, [-4.0, 6.0])),
        ((1.0, [2.0, -3.0]), (0.5, [-4.0, 6.0 + 1e-6])),
        ((1.0, [1.0, 1j]), (2.0, [1.0, 1j])),  # bilinear: v.w = 0 here
    )]
    for k in range(200):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        cplx = bool(k % 2)
        if k % 4 < 2:
            cases.append((same_direction(rng, u, cplx), same_direction(rng, u, cplx)))
        else:
            cases.append((rand_paravector(rng, 2, cplx), rand_paravector(rng, 2, cplx)))
    raised = 0
    for p, q in cases:
        ref = hamilton(np.r_[p.s, p.v, 0.0], np.r_[q.s, q.v, 0.0])
        if abs(ref[3]) > 1e-10 * np.max(np.abs(ref)):
            with pytest.raises(DomainError):
                p * q
            raised += 1
        else:
            r = p * q
            assert np.allclose(np.r_[r.s, r.v], ref[:3], rtol=1e-13, atol=1e-15)
    assert 50 < raised < len(cases) - 50


def test_same_direction_product_is_the_complex_product():
    # alpha + beta u -> alpha + i beta maps products in span{1, u} to C,
    # and in the complexified space each of the two idempotent images does
    rng = np.random.default_rng(41)
    for n in range(1, 6):
        for k in range(40):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            cplx = bool(k % 2)
            p, q = same_direction(rng, u, cplx), same_direction(rng, u, cplx)
            r = p * q
            pa, pb = p.s, complex(p.v @ u)
            qa, qb = q.s, complex(q.v @ u)
            for sign in (1j, -1j):
                got = r.s + sign * (r.v @ u)
                ref = (pa + sign * pb) * (qa + sign * qb)
                assert abs(got - ref) <= 1e-13 * (1 + p.norm() * q.norm())
            assert np.allclose(r.v, (r.v @ u) * u, atol=1e-13 * (1 + p.norm() * q.norm()))


def test_associativity_random_triples():
    rng = np.random.default_rng(7)
    count = 0
    for n in range(1, 5):
        for _ in range(250):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            a, b, c = (same_direction(rng, u, complex_coeffs=bool(count % 2))
                       for _ in range(3))
            left = (a * b) * c
            right = a * (b * c)
            scale = a.norm() * b.norm() * c.norm() + 1e-300
            assert (left - right).norm() <= 1e-12 * scale
            count += 1
    assert count == 1000


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        e(2, 1) * e(3, 1)
    with pytest.raises(DimensionMismatchError):
        e(2, 1) + e(3, 1)


# -- conjugation --------------------------------------------------------------

def test_conjugation_examples():
    assert e(3, 1).conjugate().allclose(-e(3, 1))
    one = Paravector.scalar(1.0, 3)
    assert one.conjugate().allclose(one)
    pc = Paravector(1 + 2j, [0.5j, 1.0])
    assert pc.conjugate().allclose(Paravector(1 - 2j, [0.5j, -1.0]))


def test_conjugation_is_anti_involution():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        for _ in range(50):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            a, b = same_direction(rng, u), same_direction(rng, u)
            assert a.conjugate().conjugate().allclose(a)
            lhs = (a * b).conjugate()
            rhs = b.conjugate() * a.conjugate()
            assert (lhs - rhs).norm() <= 1e-12 * (a.norm() * b.norm() + 1)


# -- norms ---------------------------------------------------------------------

def test_norm_examples():
    x = Paravector(1.0, [1.0, 0.0])
    assert math.isclose(x.norm(), math.sqrt(2.0), rel_tol=1e-15)
    assert Paravector.scalar(0.0, 3).norm() == 0.0


def test_paravector_norm_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = Paravector(rng.standard_normal(), rng.standard_normal(3))
        prod = p * p.conjugate()
        # Y conj(Y) is the squared modulus times the unit
        assert abs(prod.s - p.norm() ** 2) <= 1e-12 * (1 + p.norm() ** 2)
        assert np.max(np.abs(prod.v)) <= 1e-12


def test_unit_direction_squares_to_minus_one():
    rng = np.random.default_rng(5)
    for _ in range(25):
        v = rng.standard_normal(4)
        p = Paravector(0.0, v)
        u = Paravector(0.0, p.direction())
        assert (u * u).allclose(minus_one(4), atol=1e-14)


# -- hypercomplex power --------------------------------------------------------

def test_hc_power_unit_direction_example():
    r = hc_power(math.e, Paravector(0.0, [1.0]))
    assert abs(r.s - math.cos(1.0)) < 1e-15
    assert abs(r.v[0] - math.sin(1.0)) < 1e-15


def test_hc_power_scalar_exponent():
    r = hc_power(2.0, Paravector(3.0, [0.0]))
    assert abs(r.s - 8.0) < 1e-13
    assert abs(r.s.imag) == 0.0
    assert np.all(r.v == 0)


def test_hc_power_matches_complex_exponential_on_iw():
    # span{1, u} is a complex plane: z^Y corresponds to z^{x0 + i|v|}
    rng = np.random.default_rng(13)
    for _ in range(40):
        w = rng.uniform(0.1, 50.0)
        x0 = rng.uniform(-2.0, 3.0)
        v = rng.standard_normal(2)
        p = Paravector(x0, v)
        vn = p.vector_norm()
        got = hc_power(1j * w, p)
        ref = cmath.exp(complex(x0, vn) * complex(math.log(w), math.pi / 2))
        beta = complex(got.v @ p.direction()) if vn > 0 else 0.0
        got_c = complex(got.s) + 1j * beta
        assert abs(got_c - ref) <= 1e-12 * (1.0 + abs(ref))


def test_hc_power_real_reduction():
    rng = np.random.default_rng(17)
    for _ in range(50):
        base = rng.uniform(0.1, 10.0)
        x0 = rng.uniform(-3.0, 3.0)
        r = hc_power(base, Paravector(x0, [0.0, 0.0]))
        assert abs(r.s - base ** x0) <= 1e-13 * abs(base ** x0)


def test_hc_power_zero_base():
    assert hc_power(0.0, Paravector(1.5, [1.0])).norm() == 0.0
    with pytest.raises(DomainError):
        hc_power(0.0, Paravector(-0.5, [1.0]))
    with pytest.raises(DomainError):
        hc_power(0.0, Paravector(0.0, [1.0]))


def test_hc_power_negative_axis_raises():
    with pytest.raises(BranchCutError):
        hc_power(-2.0, Paravector(2.0, [1.0]))


def test_hc_power_rejects_complexified_exponent():
    with pytest.raises(DomainError):
        hc_power(2.0, Paravector(1.0 + 1.0j, [1.0]))


def test_hc_power_semigroup_fails_for_orthogonal_directions():
    # the exponent law z^{Y1} z^{Y2} = z^{Y1+Y2} must NOT be assumed: the
    # left side has an e1e2 part, the right side is a paravector
    y1 = Paravector(0.0, [1.0, 0.0])
    y2 = Paravector(0.0, [0.0, 1.0])
    z = 3.0
    with pytest.raises(DomainError):
        hc_power(z, y1) * hc_power(z, y2)
    assert isinstance(hc_power(z, y1 + y2), Paravector)


# -- hypercomplex exponential e^Y = hc_power(e, Y) ---------------------------------

def hc_exp(p):
    return hc_power(math.e, p)


def test_hc_exp_zero():
    r = hc_exp(Paravector(0.0, [0.0, 0.0]))
    assert abs(r.s - 1.0) < 1e-15 and np.all(np.abs(r.v) < 1e-15)


def test_hc_exp_quarter_turn():
    # u^2 = -1 gives exp((pi/2) u) = cos(pi/2) + u sin(pi/2) = u
    r = hc_exp(Paravector(0.0, [math.pi / 2]))
    assert abs(r.s) < 1e-14
    assert abs(r.v[0] - 1.0) < 1e-14


def test_hc_exp_norm_bound():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = Paravector(rng.uniform(-2, 2), rng.standard_normal(3))
        assert hc_exp(p).norm() <= math.exp(p.norm()) * (1 + 1e-12)


def test_hc_exp_matches_complex_exponential():
    rng = np.random.default_rng(29)
    for _ in range(40):
        x0 = rng.uniform(-2, 2)
        v = rng.standard_normal(2)
        p = Paravector(x0, v)
        ref = cmath.exp(complex(x0, p.vector_norm()))
        got = hc_exp(p)
        u = p.direction()
        got_c = complex(got.s) + 1j * complex(got.v @ u)
        assert abs(got_c - ref) <= 1e-12 * abs(ref)


# -- exponent decomposition ------------------------------------------------------

def test_hypercomplex_exponent_roundtrip():
    p = Paravector(2.5, [3.0, 4.0])
    dec = HypercomplexExponent.from_paravector(p)
    assert dec.x0 == 2.5 and abs(dec.vnorm - 5.0) < 1e-15
    assert abs(np.linalg.norm(dec.u) - 1.0) < 1e-15
    dec0 = HypercomplexExponent.from_paravector(Paravector(1.5, [0.0]))
    assert dec0.u is None and dec0.vnorm == 0.0


def test_components_lift_alpha_plus_beta_u():
    # z is the image x0 + i|v|; components maps alpha + beta u back, for
    # numbers and arrays alike
    dec = HypercomplexExponent.from_paravector(Paravector(2.5, [3.0, -0.0, -4.0]))
    assert dec.z == complex(2.5, 5.0)
    u = [0.6, -0.0, -0.8]
    betas = np.array([complex(re, im) for re in (0.0, -0.0, 1.5, -1.5)
                      for im in (0.0, -0.0, 2.0, -2.0)])
    alpha, *vector = dec.components(betas + 1.0, betas)
    assert np.array_equal(alpha, betas + 1.0) and len(vector) == 3
    for comp, uj in zip(vector, u):
        for b, got in zip(betas.tolist(), comp.tolist()):
            # beta (u_j + 0i) with the signed zeros of scalar complex arithmetic
            want = (b.real * uj - b.imag * 0.0, b.real * 0.0 + b.imag * uj)
            assert struct.pack("<2d", got.real, got.imag) == struct.pack("<2d", *want), (b, uj)
    # a real beta gives real components, and one value gives numbers
    real = dec.components(np.array([-2.0, 0.0]), np.array([-2.0, 0.0]))
    assert all(c.dtype == float for c in real)
    assert np.array_equal(np.signbit(real[2]), [False, True])
    p = dec.paravector(1.5, -2.0)
    assert p.is_real and p.s == 1.5 and p.v.tolist() == [-1.2, 0.0, 1.6]
    # v = 0 leaves u undefined: the vector part is +0.0, not beta * 0
    dec0 = HypercomplexExponent.from_paravector(Paravector(1.5, [0.0, 0.0]))
    assert dec0.z == 1.5
    for beta in (-2.0, complex(-2.0, -1.0), np.array([-1.0, complex(0.0, -3.0)])):
        _, *vector = dec0.components(0.0, beta)
        assert len(vector) == 2
        for comp in vector:
            parts = np.concatenate([np.ravel(np.real(comp)), np.ravel(np.imag(comp))])
            assert np.all(parts == 0.0) and not np.any(np.signbit(parts)), beta


def test_vector_norm_does_not_overflow():
    assert math.isclose(Paravector(2.5, [1e200, 1e200]).vector_norm(),
                        math.sqrt(2.0) * 1e200, rel_tol=1e-15)
    assert math.isclose(Paravector(2.5, [3e-200, 4e-200]).vector_norm(), 5e-200,
                        rel_tol=1e-15)
    assert Paravector(2.5, [0.0, 0.0]).vector_norm() == 0.0


def test_norm_does_not_overflow():
    # abs(s) ** 2 on Python floats used to raise OverflowError
    assert math.isclose(Paravector(1e200, [1e200]).norm(), math.sqrt(2.0) * 1e200,
                        rel_tol=1e-15)
    assert math.isclose(Paravector(3e200j, [4e200 + 0j]).norm(), 5e200, rel_tol=1e-15)
    assert math.isclose(Paravector(3e-200, [0.0, 4e-200]).norm(), 5e-200, rel_tol=1e-15)
    assert Paravector(1 + 2j, [2.0, 4.0]).norm() == 5.0
    assert Paravector(0.0, [0.0]).norm() == 0.0


def test_vector_norm_keeps_the_bits_of_the_plain_sum_in_range():
    # scaling by a power of two is exact: orders like the CLI's get the
    # same |v|, so their outputs keep their bits
    rng = np.random.default_rng(31)
    for _ in range(2000):
        n = int(rng.integers(1, 6))
        v = np.round(rng.uniform(0.0, 2.0) * rng.standard_normal(n), 6)
        assert Paravector(2.5, v).vector_norm() == float(np.sqrt(np.sum(v * v))), v


def test_immutability():
    p = Paravector(1.0, [2.0])
    with pytest.raises(AttributeError):
        p.s = 0.0
    with pytest.raises(ValueError):
        p.v[0] = 3.0


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_scalar_multiplication_commutes(n, seed):
    rng = np.random.default_rng(seed)
    x = rand_paravector(rng, n, complex_coeffs=bool(seed % 2))
    c = rng.standard_normal()
    assert (c * x).allclose(x * c)
    assert (Paravector.scalar(c, n) * x).allclose(x * Paravector.scalar(c, n))


def test_paravector_product_same_direction_stays_paravector():
    p = Paravector(1.0, [2.0, 0.0])
    q = Paravector(-0.5, [4.0, 0.0])
    r = p * q
    assert isinstance(r, Paravector)
    # (1 + 2e1)(-0.5 + 4e1) = -0.5 + 4e1 - e1 + 8 e1^2 = -8.5 + 3e1
    assert abs(r.s + 8.5) < 1e-14 and abs(r.v[0] - 3.0) < 1e-14


def test_paravector_product_orthogonal_directions_rejected():
    p = Paravector(1.0, [1.0, 0.0])
    q = Paravector(1.0, [0.0, 1.0])
    with pytest.raises(DomainError):
        p * q


def test_public_branches_behave_as_documented():
    # branches of the public API that no other test runs, each with the
    # exact value it returns or the error it raises
    p = Paravector(1.0, [2.0, -1.0])
    cases = [
        ("p + 2", lambda: p + 2, (3.0, [2.0, -1.0])),
        ("p - 2", lambda: p - 2, (-1.0, [2.0, -1.0])),
        ("2 - p", lambda: 2 - p, (1.0, [-2.0, 1.0])),
        ("repr(p)", lambda: repr(p), "Paravector(s=1.0, v=[2.0, -1.0])"),
        ('p * "x"', lambda: p * "x", TypeError),
        ('"x" * p', lambda: "x" * p, TypeError),
        ('p + "x"', lambda: p + "x", TypeError),
        ("vector part of length 0", lambda: Paravector(1.0, []), DomainError),
        ("vector part of length 6", lambda: Paravector(1.0, np.ones(6)), DomainError),
        ("vector_norm of a complexified paravector",
         lambda: Paravector(1.0j, [1.0]).vector_norm(), DomainError),
        ("direction of a zero vector", lambda: Paravector(1.0, [0.0, 0.0]).direction(),
         DomainError),
        ("from_paravector(1.0)", lambda: HypercomplexExponent.from_paravector(1.0), TypeError),
    ]
    for label, call, expected in cases:
        if isinstance(expected, type):
            with pytest.raises(expected):
                call()
        elif isinstance(expected, tuple):
            got = call()
            assert isinstance(got, Paravector) and got.is_real, label
            assert (got.s, got.v.tolist()) == expected, label
        else:
            assert call() == expected, label
