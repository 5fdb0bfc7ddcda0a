"""Paravectors (hypercomplex numbers s + v in Cl(n), whose generators
anticommute and square to -1), the hypercomplex power, and the map back
from the idempotent split of the complexified subalgebra span{1, u}.

The library needs no more of Cl(n) than this: the powers, Gamma values,
binomials and B-splines of an order x0 + |v| u all lie in span{1, u},
which is a copy of C, so two paravectors are multiplied in closed form and
a product that leaves the paravector space is an error.  Every value is
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchCutError, DimensionMismatchError, DomainError, OrderError

MAX_DIMENSION = 5

# Relative tolerance of the paravector check on a product: an e_i e_j part
# above this (relative to the largest coefficient) means the product
# genuinely left the paravector space.
_PURITY_RTOL = 1e-10


class Paravector:
    """Hypercomplex number: scalar part plus a grade-1 vector part.

    The vector part is an n-array; components may be complex, in which
    case the value lives in the complexified paravector space.
    """

    __slots__ = ("s", "v")

    def __init__(self, s, v):
        varr = np.atleast_1d(np.array(v))
        if varr.ndim != 1 or varr.size < 1 or varr.size > MAX_DIMENSION:
            raise DomainError(
                f"vector part must be a 1-d array of length 1..{MAX_DIMENSION}"
            )
        if np.iscomplexobj(varr) or isinstance(s, complex):
            varr = varr.astype(np.complex128)
            s = complex(s)
        else:
            varr = varr.astype(np.float64)
            s = float(s)
        varr.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "v", varr)

    def __setattr__(self, name, value):
        raise AttributeError("Paravector is immutable")

    @classmethod
    def scalar(cls, value, n: int = 1) -> "Paravector":
        return cls(value, np.zeros(n))

    @property
    def n(self) -> int:
        return self.v.size

    @property
    def is_real(self) -> bool:
        return not (np.iscomplexobj(self.v) or isinstance(self.s, complex))

    def vector_norm(self) -> float:
        """Euclidean modulus of the vector part; real paravectors only.

        The components are scaled by a power of two near the largest, so
        the squares cannot overflow or underflow; the scaling is exact, so
        in range the value has the bits of sqrt(sum v*v).
        """
        if not self.is_real:
            raise DomainError("vector modulus of a complexified paravector is undefined")
        scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(self.v))))[1] - 1)
        w = self.v / scale
        return float(np.sqrt(np.sum(w * w))) * scale

    def direction(self) -> np.ndarray:
        """Unit vector v/|v|; requires a nonzero real vector part."""
        vn = self.vector_norm()
        if vn == 0:
            raise DomainError("zero vector part has no direction")
        return self.v / vn

    def norm(self) -> float:
        return float(np.sqrt(abs(self.s) ** 2 + np.sum(np.abs(self.v) ** 2)))

    def conjugate(self) -> "Paravector":
        if self.is_real:
            return Paravector(self.s, -self.v)
        return Paravector(complex(self.s).conjugate(), -np.conj(self.v))

    def __add__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return Paravector(self.s + other, self.v)
        self._check_peer(other)
        return Paravector(self.s + other.s, self.v + other.v)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return Paravector(self.s - other, self.v)
        self._check_peer(other)
        return Paravector(self.s - other.s, self.v - other.v)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Paravector(-self.s, -self.v)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return Paravector(self.s * other, self.v * other)
        if not isinstance(other, Paravector):
            return NotImplemented
        # (s + v)(t + w) = (st - v.w) + (sw + tv) + sum_{i<j} b_ij e_i e_j
        # with b_ij = v_i w_j - v_j w_i; bilinear, so complexified values
        # multiply by the same formula.
        self._check_peer(other)
        outer = np.outer(self.v, other.v)
        b_max = float(np.max(np.abs(outer - outer.T)))
        scalar = self.s * other.s - self.v @ other.v
        vector = self.s * other.v + other.s * self.v
        scale = max(1e-300, abs(scalar), float(np.max(np.abs(vector))), b_max)
        if b_max > _PURITY_RTOL * scale:
            raise DomainError("product has an e_i e_j part and is not a paravector")
        return Paravector(scalar, vector)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return Paravector(other * self.s, other * self.v)
        return NotImplemented

    def _check_peer(self, other):
        if not isinstance(other, Paravector):
            raise TypeError(f"expected Paravector, got {type(other)!r}")
        if other.n != self.n:
            raise DimensionMismatchError(
                f"mixing paravectors over Cl({self.n}) and Cl({other.n})"
            )

    def allclose(self, other: "Paravector", rtol=1e-12, atol=1e-14) -> bool:
        self._check_peer(other)
        return bool(
            np.isclose(self.s, other.s, rtol=rtol, atol=atol)
            and np.allclose(self.v, other.v, rtol=rtol, atol=atol)
        )

    def __repr__(self):
        return f"Paravector(s={self.s!r}, v={self.v.tolist()!r})"


@dataclass(frozen=True)
class HypercomplexExponent:
    """Decomposition x0 + |v| u of a real paravector exponent.

    u is the unit direction of the vector part, present exactly when the
    vector part is nonzero.
    """

    x0: float
    vnorm: float
    u: np.ndarray | None
    n: int

    @classmethod
    def from_paravector(cls, p: Paravector) -> "HypercomplexExponent":
        if not isinstance(p, Paravector):
            raise TypeError(f"expected Paravector, got {type(p)!r}")
        if not p.is_real:
            raise DomainError(
                "hypercomplex exponents must be real paravectors; "
                "complexified exponents are unsupported"
            )
        if not (math.isfinite(p.s) and np.isfinite(p.v).all()):
            raise OrderError("hypercomplex order must be finite, got scalar part "
                             f"{p.s:g} and vector part {p.v.tolist()}")
        vn = p.vector_norm()
        if vn == 0.0:
            return cls(float(p.s), 0.0, None, p.n)
        u = p.v / vn
        u.setflags(write=False)
        return cls(float(p.s), vn, u, p.n)

    def paravector(self, alpha, beta) -> Paravector:
        """alpha + beta u, the value of the pair (alpha, beta) of span{1, u};
        beta is dropped when the vector part is zero and u is undefined."""
        return Paravector(alpha, np.zeros(self.n) if self.u is None else beta * self.u)


# -- commuting subalgebra -------------------------------------------------
#
# For a fixed unit direction u (u^2 = -1) the span of {1, u} is closed under
# multiplication and is a copy of C under u -> i; values in it are kept as
# component pairs (alpha, beta) meaning alpha + beta u.

def subalgebra_from_idempotent(p, q):
    """Pair (alpha, beta) of the complexified element alpha + beta u whose
    images under u -> i and u -> -i are p and q (the idempotent split
    C (x) span{1, u} = C + C): alpha = (p + q)/2, beta = (p - q)/(2i)."""
    return (p + q) / 2, (p - q) / 2j


def _principal_log(z: complex) -> complex:
    if z == 0:
        raise DomainError("log of zero")
    if z.imag == 0 and z.real < 0:
        raise BranchCutError(
            f"base {z!r} lies on the negative real axis; principal power undefined"
        )
    return cmath.log(z)


def hc_power(z, upsilon: Paravector) -> Paravector:
    """Hypercomplex power z^Y = z^{x0} (cos(|v| log z) + u sin(|v| log z)).

    Uses the principal branch of log z.  z = 0 maps to 0 when x0 > 0 (the
    modulus factor dominates the bounded oscillation) and is a domain error
    otherwise.
    """
    dec = HypercomplexExponent.from_paravector(upsilon)
    z = complex(z)
    if z == 0:
        if dec.x0 > 0:
            return Paravector(0.0 + 0.0j, np.zeros(dec.n, dtype=complex))
        raise DomainError("0 cannot be raised to an exponent with scalar part <= 0")
    logz = _principal_log(z)
    mod = cmath.exp(dec.x0 * logz)
    if dec.u is None:
        return Paravector(mod, np.zeros(dec.n, dtype=complex))
    theta = dec.vnorm * logz
    return Paravector(mod * cmath.cos(theta), (mod * cmath.sin(theta)) * dec.u)
