"""Clifford algebra Cl(n) with anticommuting generators squaring to -1,
paravector (hypercomplex number) arithmetic, the hypercomplex power and
exponential, and the map back from the idempotent split of the
complexified subalgebra span{1, u}.

Basis elements are indexed by subsets A of {1..n} encoded as bitmasks, so
coefficient index 0 is the scalar unit, index 1 is e1, index 2 is e2,
index 3 is e1e2, and so on.  Every value is immutable after construction
and every operation is a pure function.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BranchCutError, DimensionMismatchError, DomainError

MAX_DIMENSION = 5

# Relative tolerance used when projecting an algebra element back onto the
# paravector subspace: components above this (relative to the norm) mean
# the element genuinely left the subspace.
_PURITY_RTOL = 1e-10


@lru_cache(maxsize=None)
def _product_tables(n: int):
    """Sign and index tables for basis products in Cl(n).

    Entry (a, b) describes e_a * e_b under the generator relations
    e_i e_j + e_j e_i = -2 delta_ij: the resulting basis index is a XOR b
    and the sign follows from sorting the concatenated generator word and
    cancelling repeated generators with e_i^2 = -1.
    """
    dim = 1 << n
    signs = np.empty((dim, dim), dtype=np.int8)
    for a in range(dim):
        for b in range(dim):
            swaps = 0
            for k in range(n):
                if b >> k & 1:
                    # generators of b pass every generator of a above them
                    swaps += bin(a >> (k + 1)).count("1")
            squares = bin(a & b).count("1")
            signs[a, b] = -1 if (swaps + squares) % 2 else 1
    index = np.bitwise_xor.outer(np.arange(dim), np.arange(dim))
    return signs, index


@lru_cache(maxsize=None)
def _conjugation_signs(n: int) -> np.ndarray:
    # conj(e_A) = (-1)^{k(k+1)/2} e_A for grade k = |A|
    grades = np.array([bin(i).count("1") for i in range(1 << n)])
    return np.where((grades * (grades + 1) // 2) % 2, -1.0, 1.0)


def _check_dimension(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_DIMENSION:
        raise DomainError(
            f"algebra dimension must be an integer in [1, {MAX_DIMENSION}], got {n!r}"
        )


class CliffordElement:
    """Element of Cl(n) stored as a dense array of 2^n coefficients.

    Coefficients may be real or complex (the complexified algebra); the
    subset order is canonical bitmask order.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        _check_dimension(n)
        arr = np.array(coeffs)
        if arr.shape != (1 << n,):
            raise DomainError(
                f"Cl({n}) needs {1 << n} coefficients, got shape {arr.shape}"
            )
        if np.iscomplexobj(arr):
            arr = arr.astype(np.complex128)
        else:
            arr = arr.astype(np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("CliffordElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "CliffordElement":
        return cls(n, np.zeros(1 << n))

    @classmethod
    def scalar(cls, n: int, value) -> "CliffordElement":
        coeffs = np.zeros(1 << n, dtype=complex if isinstance(value, complex) else float)
        coeffs[0] = value
        return cls(n, coeffs)

    @classmethod
    def basis_vector(cls, n: int, i: int) -> "CliffordElement":
        """The generator e_i, 1-based."""
        _check_dimension(n)
        if not 1 <= i <= n:
            raise DomainError(f"generator index must be in [1, {n}], got {i}")
        coeffs = np.zeros(1 << n)
        coeffs[1 << (i - 1)] = 1.0
        return cls(n, coeffs)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return CliffordElement(self.n, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return CliffordElement(self.n, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = self._coerce(other)
        return CliffordElement(self.n, other.coeffs - self.coeffs)

    def __neg__(self):
        return CliffordElement(self.n, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return CliffordElement(self.n, self.coeffs * other)
        if not isinstance(other, CliffordElement):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatchError(
                f"cannot multiply Cl({self.n}) by Cl({other.n}) elements"
            )
        signs, index = _product_tables(self.n)
        dtype = np.result_type(self.coeffs, other.coeffs)
        out = np.zeros(1 << self.n, dtype=dtype)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            # index[i] is a permutation (XOR), so plain fancy addition is safe
            out[index[i]] += (signs[i] * a) * other.coeffs
        return CliffordElement(self.n, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return CliffordElement(self.n, other * self.coeffs)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return CliffordElement(self.n, self.coeffs / other)
        return NotImplemented

    def conjugate(self) -> "CliffordElement":
        """Anti-involution: reverses basis words and negates generators."""
        out = _conjugation_signs(self.n) * self.coeffs
        if np.iscomplexobj(out):
            out = out.conj()
        return CliffordElement(self.n, out)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    @property
    def scalar_part(self):
        return self.coeffs[0]

    def _coerce(self, other) -> "CliffordElement":
        if isinstance(other, CliffordElement):
            if other.n != self.n:
                raise DimensionMismatchError(
                    f"mixing Cl({self.n}) and Cl({other.n}) elements"
                )
            return other
        if isinstance(other, (int, float, complex, np.number)):
            return CliffordElement.scalar(self.n, other)
        raise TypeError(f"cannot combine CliffordElement with {type(other)!r}")

    def allclose(self, other, rtol=1e-12, atol=1e-14) -> bool:
        other = self._coerce(other)
        return bool(np.allclose(self.coeffs, other.coeffs, rtol=rtol, atol=atol))

    def __repr__(self):
        return f"CliffordElement(n={self.n}, coeffs={self.coeffs.tolist()})"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        if np.iscomplexobj(self.coeffs):
            entries = [[float(c.real), float(c.imag)] for c in self.coeffs]
        else:
            entries = [float(c) for c in self.coeffs]
        return {"n": self.n, "coeffs": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "CliffordElement":
        entries = data["coeffs"]
        if any(isinstance(e, (list, tuple)) for e in entries):
            coeffs = [complex(e[0], e[1]) if isinstance(e, (list, tuple)) else complex(e)
                      for e in entries]
        else:
            coeffs = [float(e) for e in entries]
        return cls(int(data["n"]), coeffs)

    @classmethod
    def from_json(cls, text: str) -> "CliffordElement":
        return cls.from_json_dict(json.loads(text))


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
        """Euclidean modulus of the vector part; real paravectors only."""
        if not self.is_real:
            raise DomainError("vector modulus of a complexified paravector is undefined")
        return float(np.sqrt(np.sum(self.v * self.v)))

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
        if isinstance(other, Paravector):
            self._check_peer(other)
            prod = self.as_clifford() * other.as_clifford()
            return Paravector.from_clifford(prod)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return Paravector(other * self.s, other * self.v)
        return NotImplemented

    def inverse(self) -> "Paravector":
        """Inverse (s - v) / (s^2 + sum v_i^2); the denominator is the
        bilinear square, which can vanish for complexified values."""
        den = self.s * self.s + np.sum(self.v * self.v)
        den = complex(den) if not self.is_real else float(den)
        if abs(den) < 1e-300 * max(1.0, self.norm() ** 2):
            raise DomainError("paravector is not invertible (bilinear square ~ 0)")
        return Paravector(self.s / den, -self.v / den)

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return Paravector(self.s / other, self.v / other)
        if isinstance(other, Paravector):
            return self * other.inverse()
        return NotImplemented

    def _check_peer(self, other):
        if not isinstance(other, Paravector):
            raise TypeError(f"expected Paravector, got {type(other)!r}")
        if other.n != self.n:
            raise DimensionMismatchError(
                f"mixing paravectors over Cl({self.n}) and Cl({other.n})"
            )

    def as_clifford(self, n: int | None = None) -> CliffordElement:
        n = self.n if n is None else n
        if n < self.n:
            raise DomainError("target algebra dimension smaller than vector part")
        dtype = np.complex128 if not self.is_real else np.float64
        coeffs = np.zeros(1 << n, dtype=dtype)
        coeffs[0] = self.s
        for i in range(self.n):
            coeffs[1 << i] = self.v[i]
        return CliffordElement(n, coeffs)

    @classmethod
    def from_clifford(cls, x: CliffordElement, rtol: float = _PURITY_RTOL) -> "Paravector":
        coeffs = x.coeffs
        mask = np.zeros(coeffs.size, dtype=bool)
        mask[0] = True
        for i in range(x.n):
            mask[1 << i] = True
        rest = np.max(np.abs(coeffs[~mask])) if coeffs.size > x.n + 1 else 0.0
        scale = max(1e-300, float(np.max(np.abs(coeffs))))
        if rest > rtol * scale:
            raise DomainError(
                "element has grade >= 2 components and is not a paravector"
            )
        v = np.array([coeffs[1 << i] for i in range(x.n)])
        return cls(coeffs[0], v)

    def allclose(self, other: "Paravector", rtol=1e-12, atol=1e-14) -> bool:
        self._check_peer(other)
        return bool(
            np.isclose(self.s, other.s, rtol=rtol, atol=atol)
            and np.allclose(self.v, other.v, rtol=rtol, atol=atol)
        )

    def __repr__(self):
        return f"Paravector(s={self.s!r}, v={self.v.tolist()!r})"

    def to_json_dict(self) -> dict:
        def enc(c):
            if isinstance(c, complex):
                return [float(c.real), float(c.imag)]
            return float(c)
        return {"s": enc(self.s), "v": [enc(c) for c in self.v.tolist()]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "Paravector":
        def dec(e):
            return complex(e[0], e[1]) if isinstance(e, (list, tuple)) else float(e)
        return cls(dec(data["s"]), [dec(e) for e in data["v"]])

    @classmethod
    def from_json(cls, text: str) -> "Paravector":
        return cls.from_json_dict(json.loads(text))


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
        vn = p.vector_norm()
        if vn == 0.0:
            return cls(float(p.s), 0.0, None, p.n)
        u = p.v / vn
        u.setflags(write=False)
        return cls(float(p.s), vn, u, p.n)

    def reconstruct(self) -> Paravector:
        return self.paravector(self.x0, self.vnorm)

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


def hc_exp(x) -> "Paravector | CliffordElement":
    """Exponential by its power series, summed to machine tolerance.

    Accepts a Paravector or a CliffordElement and returns the same kind;
    for real paravectors the norm of the result is bounded by exp(norm(x)).
    """
    para = isinstance(x, Paravector)
    elem = x.as_clifford() if para else x
    if not isinstance(elem, CliffordElement):
        raise TypeError(f"expected Paravector or CliffordElement, got {type(x)!r}")
    term = CliffordElement.scalar(elem.n, 1.0)
    total = term
    for k in range(1, 256):
        term = term * elem / k
        total = total + term
        if term.norm() <= 1e-17 * max(1.0, total.norm()):
            break
    if para:
        return Paravector.from_clifford(total, rtol=1e-8)
    return total
