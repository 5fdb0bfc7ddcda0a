"""Time-domain evaluation of the spline families.

Every evaluator takes one abscissa or an array of them, and a value does
not depend on the grid it is evaluated on, bit for bit: a single abscissa
is the same code on a one-point array, every per-point step is an
elementwise array pass, and nothing a point reads depends on the other
points.

All families here are supported on the right half line and evaluate to an
exact 0 for x < 0.  The alternating truncated-power series are finite for
every x because (x - k)_+ vanishes once k exceeds x, so no truncation
heuristics are involved.

eval_bn and eval_exp_bspline take one numpy pass per shift k: the term of
shift k is added to all the points it reaches at once, into one running
total (_shifted_sum).

eval_bz holds the one series of the complex-order families,
B_z(x) = (1/Gamma(z)) sum_{k <= x} c_k (x - k)_+^w with c_k = (-1)^k C(z, k)
and w = z - 1.  The damped family is e^{-ax} times it, and a hypercomplex
order x0 + |v| u is evaluated at the complex order x0 + i|v| and mapped
back along u, through the isomorphism of span{1, u} with C.

The cell form.  On a unit cell [m, m+1) the series is a fixed sum of
truncated powers, the solutions of Ly = 0 between the knots, so every point
of a cell shares its far atoms: de Boor's piecewise-polynomial form
(A Practical Guide to Splines, 1978) carried over to the series of
Forster, Blu & Unser (Complex B-splines, ACHA 20, 2006).  With
g = x - m - 1/2 and j = m - k, each x in cell m splits its series in two:

- the J nearest shifts j = 0..J-1 are taken per point, one complex power
  each, in the order of k;
- the far shifts j >= J are one polynomial P_m(g) = sum_{n <= N} G[m,n] g^n,
  G[m,n] = sum_{j=J}^{m} c_{m-j} C(w,n) (j + 1/2)^{w-n}, the Taylor series
  of (j + 1/2 + g)^w, evaluated by Horner's rule and added first.

J and N depend on z alone:

- J is the least J >= 1 with ((2J + 1)/(2J))^{2|w|} <= 4.  Since
  sum_n |C(w,n)| r^n <= (1 - r)^{-|w|} at r = |g|/(j + 1/2) <= 1/(2J + 1),
  and (j + 1/2)/(j + 1/2 + g) <= (2J + 1)/(2J), the terms of the
  polynomial are then at most 4 sum_{far} |t_k| in modulus, t_k the terms
  of the series.  J is 1 to 4 for re z <= 6 and |im z| <= 2, and 108 at
  z = 150.
- N is the least N with sum_{n>N} |C(w,n)| (2J + 1)^{-n} <= eps/4, a bound
  taken from the first dropped term and the ratio bound
  max(1, (|w| + n)/(n + 1))/(2J + 1) of the terms past it.  It is 12 to
  31 for those orders.  Atom j drops the orders past its own N_j, the least
  N with that bound at (2j + 1)^{-n}: far atoms keep fewer orders.

The table has one row per cell m >= J that holds a point, built once per
call; (j + 1/2)^w is taken once per j.  Each row is summed over
j = J, J+1, ... in that order, one array pass per j, whatever the other
rows are.  A cell m < J has no row: its value is the sum of its near
terms.  Points are taken _CELL_BLOCK at a time, so that
the temporaries stay small whatever the grid.  The far atoms of one call
are capped at 2^24 (a 256 MiB coefficient table, and as much again for
the powers (j + 1/2)^w): a larger x is a NumericError naming it, raised
before any per-cell work.

The same table built from |c_k| and re w would give each point's
sum_k |t_k|, the scale of its rounding error.

Each order rule has one check, a function that returns the checked
value and that every evaluator, transform and verifier calls:
integer_order (n >= 1), real_order (alpha > 1), complex_order (re z > 1),
exponential_weights (one nonzero weight at least), hypercomplex_exponent
(scalar part > 1) and positive_damping (a > 0).  Orders, weights and
dampings must also be finite; NaN fails every rule.

The exponential B-spline of weights (a_1..a_n) has the closed form
beta(x) = sum_{k <= x} p_k rho(x - k) (Unser & Blu, Cardinal exponential
splines: Part I, IEEE TSP 53(4), 2005), where p_k are the coefficients of
prod_i (1 - e^{a_i} q) and rho is the Green's function of prod_i (D - a_i):
rho(t) = [exp(t J)]_{n,1}, J lower bidiagonal with the weights on the
diagonal and ones below it.  That entry is the divided difference of
e^{at} at the weights (McCurdy, Ng & Parlett, Math. Comp. 43, 1984), so
repeated and near-equal weights need no confluent special case.  It is
taken for all the points of a shift at once by Taylor scaling and
squaring in numpy (_bidiagonal_corner).

Accuracy: every term carries a relative rounding error of about eps, so
the absolute error of a value is about eps * sum_k |t_k| however the
terms are summed (Higham, Accuracy and Stability of Numerical Algorithms,
sec. 4).  Each addition into the one running total errs by at most eps
times a partial sum, and no partial sum exceeds sum_k |t_k|; compensated
summation would remove only these errors, and against the oracle it
changes no measured error.  The cell form keeps this model: its table
entries, Horner steps and dropped orders err by eps times at most
4 sum_k |t_k| (the J and N rules).  Against a 50-digit series at 690
random x <= 60 and orders with 1.1 <= re z <= 6, |im z| <= 2, the error
of eval_bz measured at most 8.5 eps sum_k |t_k| / |Gamma(z)| (a plain
per-shift sum of the same terms: 7.9), with medians of 0.7 to 1.3 for
both; the tests hold it to 16.  The terms alternate and cancel, so the relative
error grows with x and with re z.  Against a 60-digit oracle it is below
1e-9 at x = 5.5 for z = 1.5, 2.5 + i and 4 + 0.5i, but at re z >= 3 every
digit is lost near x = 50.  The loss is not reported.  Where a term or the
sum leaves the float range, eval_bn, eval_bz and eval_exp_bspline raise
NumericError naming the order or the weights: _in_float_range, the one
float-range check of every evaluator, transform, operator and verifier.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .clifford import HypercomplexExponent, Paravector
from .errors import NumericError, OrderError, ParameterError
from .specialfn import _complex_power, binom_complex_sequence, gamma

__all__ = [
    "integer_order",
    "real_order",
    "complex_order",
    "exponential_weights",
    "hypercomplex_exponent",
    "positive_damping",
    "eval_bn",
    "eval_bz",
    "eval_exp_bspline",
    "eval_ez",
    "eval_bupsilon",
    "eval_bupsilon_components",
    "exp_difference_coefficients",
]


def integer_order(n) -> int:
    """The classical order n as an int; it must be a whole number >= 1.
    NaN and +-inf fail the check before int() would raise on them."""
    if n != n or n in (math.inf, -math.inf) or n != int(n) or n < 1:
        raise OrderError(f"integer spline order must satisfy n >= 1, got {n!r}")
    return int(n)


def real_order(alpha) -> float:
    """The fractional order alpha as a float; it must be finite and
    exceed 1."""
    alpha = float(alpha)
    if not 1 < alpha < math.inf:
        raise OrderError(f"real spline order must be finite with alpha > 1, got {alpha:g}")
    return alpha


def complex_order(z) -> complex:
    """The complex order z as a complex; it must be finite with re z > 1."""
    z = complex(z)
    if not (z.real > 1 and cmath.isfinite(z)):
        raise OrderError(f"complex spline order must be finite with re z > 1, got {z!r}")
    return z


def exponential_weights(weights) -> tuple[float, ...]:
    """The weights (a_1..a_n) of an exponential B-spline as a float tuple,
    a single number being one weight; all must be finite and at least one
    nonzero."""
    if isinstance(weights, (int, float)):
        weights = (weights,)
    vals = tuple(float(a) for a in weights)
    if not vals:
        raise ParameterError("exponential B-spline needs at least one weight")
    if not all(math.isfinite(a) for a in vals):
        raise ParameterError(f"exponential weights must be finite, got {vals!r}")
    if all(a == 0.0 for a in vals):
        raise ParameterError("at least one exponential weight must be nonzero")
    return vals


def hypercomplex_exponent(upsilon: Paravector) -> HypercomplexExponent:
    """The decomposition x0 + |v| u of a hypercomplex order, which must
    have a finite scalar part x0 > 1 and a finite |v|."""
    dec = HypercomplexExponent.from_paravector(upsilon)
    if not (dec.x0 > 1 and math.isfinite(dec.vnorm)):
        raise OrderError(
            "hypercomplex spline order must be finite with scalar part > 1,"
            f" got scalar part {dec.x0:g} and |v| = {dec.vnorm:g}"
        )
    return dec


def positive_damping(a) -> float:
    """The damping a of the weight e^{-ax} as a float; it must be finite
    and positive."""
    a = float(a)
    if not 0 < a < math.inf:
        raise ParameterError(f"damping must be finite with a > 0, got {a:g}")
    return a


def _abscissae(x):
    """x as a flat array of finite floats, and the shape to give the values back."""
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise ParameterError("abscissae must be finite")
    return xs.ravel(), xs.shape


def _in_float_range(values, what: str):
    """values, or a NumericError naming what where one of them is inf or
    NaN.  Each evaluator, transform, operator and verifier computes the
    values under its own np.errstate, so no numpy warning comes first."""
    if not np.isfinite(values).all():
        raise NumericError(f"{what} leaves the float range on this grid")
    return values


def _shaped(values: np.ndarray, shape):
    """Values in the caller's shape; a Python number for a single abscissa.

    Values already in that shape are returned as they are, not as a view:
    numpy computes a * b into the buffer of a temporary b only when b owns
    its data, as b * a, and a complex product can round differently with
    its operands swapped."""
    if not shape:
        return values[0].item()
    return values if values.shape == shape else values.reshape(shape)


def series_terms(x):
    """Number of nonvanishing truncated-power terms at abscissa x (or at
    each abscissa of an array), counted _CELL_BLOCK abscissae at a time,
    so that no float temporary grows with the grid.  A count past the
    int64 range is a NumericError naming its abscissa."""
    xs, shape = _abscissae(x)
    terms = np.empty(xs.size, dtype=int)
    for start in range(0, xs.size, _CELL_BLOCK):
        part = xs[start:start + _CELL_BLOCK]
        count = np.where(part < 0.0, 0.0, np.floor(part) + 1.0)
        too_many = count >= 2.0 ** 63
        if too_many.any():
            raise NumericError(f"the term count at x = {part[np.argmax(too_many)]:g} "
                               "does not fit in a 64-bit integer")
        terms[start:start + _CELL_BLOCK] = count
    return _shaped(terms, shape)


def _shifted_sum(xs: np.ndarray, coeffs, kernel) -> np.ndarray:
    """sum_k coeffs[k] kernel(x - k) over the shifts k with x - k >= 0 at
    every x of xs, in one running total.

    The points a shift reaches are a suffix of the sorted abscissae, so each
    shift is one array pass over a slice; every point sees its terms in the
    order k = 0, 1, ... whatever grid it sits in.  Compensated summation
    would buy no accuracy: the terms' own rounding already bounds the error
    (module docstring).
    """
    order = np.argsort(xs, kind="stable")
    xsorted = xs[order]
    total = np.zeros(xs.size, dtype=np.result_type(coeffs[0], float))
    term = np.empty_like(total)
    for k, c in enumerate(coeffs):
        start = int(np.searchsorted(xsorted, k))
        if start == xs.size:
            break
        # c stays the left operand: a complex product can round differently
        # with its operands swapped
        np.multiply(c, kernel(xsorted[start:] - k), out=term[start:])
        total[start:] += term[start:]
    out = np.empty_like(total)
    out[order] = total
    return out


def eval_bn(n: int, x):
    """Classical cardinal B-spline of order n by its closed-form sum
    (1/Gamma(n)) sum_k (-1)^k C(n,k) (x-k)_+^{n-1}.

    Support is [0, n] with the half-open unit-box convention, so the value
    is exactly 0 outside [0, n) and at x = n.  The powers are libm pow
    (np.float_power), the rounding of Python's float power.

    B_n is symmetric, B_n(x) = B_n(n - x) on (0, n), and n - x is exact
    for x > n/2 (Sterbenz's lemma), so the right half is summed from the
    right end as that mirror image, where its terms do not cancel to a
    value far below them.

    Raises NumericError for n > 171, where (n-1)! overflows a float, and
    where a term or the sum leaves the float range: from n = 160 on, the
    terms (x-k)^{n-1} C(n,k) overflow next to the centre of the support.
    """
    n = integer_order(n)
    if n > 171:
        raise NumericError(f"(n-1)! overflows at classical order n = {n}; "
                           "division is meaningless")
    xs, shape = _abscissae(x)
    out = np.zeros(xs.size)
    live = (xs >= 0.0) & (xs < n)
    folded = xs[live]
    folded = np.where(folded > n / 2, n - folded, folded)
    coeffs = [float((-1) ** k * math.comb(n, k)) for k in range(n)]
    # t_+^0 = 1 at t = 0 too: the left-closed unit box
    with np.errstate(over="ignore", invalid="ignore"):
        total = _shifted_sum(folded, coeffs, lambda t: np.float_power(t, n - 1))
    out[live] = (_in_float_range(total, f"the series of classical order n = {n}")
                 / float(math.factorial(n - 1)))
    return _shaped(out, shape)


_EPS = 2.0 ** -52
# the atom table c_0..c_M of one call holds at most this many coefficients,
# 256 MiB of complex128, and the powers (j + 1/2)^{z-1} as many again
_MAX_ATOMS = 2 ** 24
# points, or (near shift, point) pairs, are taken this many at a time, so that
# the per-point temporaries of the cell form stay small whatever the grid
_CELL_BLOCK = 4096
# the table takes far atoms a block at a time, with at most this many entries
# in its gathered coefficients and expansions
_TABLE_BLOCK = 2 ** 16


def _tail_bound(binom_mods: np.ndarray, w_abs: float, degree: int, r: float) -> float:
    """A bound on sum_{n > degree} |C(w, n)| r^n, from |C(w, n+1)| r^{n+1} and
    the ratio bound r max(1, (|w| + n)/(n + 1)) of the terms past it."""
    n = degree + 1
    ratio = r * max(1.0, (w_abs + n) / (n + 1))
    if ratio >= 1.0:
        return math.inf
    return binom_mods[n] * r ** n / (1.0 - ratio)


@functools.lru_cache(maxsize=64)
def _cell_form(w: complex) -> tuple[int, np.ndarray, np.ndarray]:
    """The split of the series of exponent w = z - 1 (module docstring): the
    number J of near shifts, the binomials C(w, n) for n = 0..N of the cell
    polynomial, and cut[d] for d = 0..N, the first atom distance j at which
    the orders past d may be dropped (cut[N] = J)."""
    w_abs = abs(w)
    # ((2J + 1)/(2J))^{2|w|} <= 4, that is 1 + 1/(2J) <= 2^{1/|w|}; J = 1
    # wherever 2^{1/|w|} passes e^700
    near = max(1, math.ceil(0.5 / math.expm1(min(math.log(2.0) / w_abs, 700.0))))
    r = 1.0 / (2 * near + 1)
    degree, binom_len = 0, 32
    binoms = binom_complex_sequence(w, binom_len)
    mods = np.abs(binoms)
    while _tail_bound(mods, w_abs, degree, r) > _EPS / 4:
        degree += 1
        if degree + 1 >= binom_len:
            binom_len *= 2
            binoms = binom_complex_sequence(w, binom_len)
            mods = np.abs(binoms)
    cut = np.empty(degree + 1, dtype=np.int64)
    cut[degree] = near
    for d in range(degree - 1, -1, -1):
        # r^{d+1} <= eps/4 / |C(w, d+1)| to first order, then step out
        # until the bound holds; no atom lies past _MAX_ATOMS
        if mods[d + 1] == 0.0:
            cut[d] = near
            continue
        r_d = (_EPS / 4 / mods[d + 1]) ** (1.0 / (d + 1))
        j = min(max(int(cut[d + 1]), math.ceil((1.0 / r_d - 1.0) / 2)), _MAX_ATOMS)
        while j < _MAX_ATOMS and _tail_bound(mods, w_abs, d, 1.0 / (2 * j + 1)) > _EPS / 4:
            j = min(j + 1 + j // 16, _MAX_ATOMS)
        cut[d] = j
    binoms = binoms[:degree + 1]
    binoms.flags.writeable = cut.flags.writeable = False
    return near, binoms, cut


def _cell_table(powers: np.ndarray, coeffs: np.ndarray, cells: np.ndarray, near: int,
                binoms: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """G[n, r], the coefficients of the cell polynomial of each cell m of the
    ascending array cells (all m >= near), one column per cell and a last
    column of zeros: the far atoms k <= m - near,
    sum_{j = near}^{m} c_{m-j} C(w, n) (j + 1/2)^{w - n}, atom j keeping
    the orders n <= N_j of cut, from powers[j - near] = (j + 1/2)^w.  Column
    m is summed over j = near, near+1, ... whatever the other cells are."""
    degree = binoms.size - 1
    table = np.zeros((degree + 1, cells.size + 1), dtype=complex)
    last = int(cells[-1])
    orders = np.arange(degree + 1)
    rev_cut = cut[::-1]
    span = max(1, _TABLE_BLOCK // (cells.size + degree + 1))
    for j0 in range(near, last + 1, span):
        js = np.arange(j0, min(j0 + span, last + 1))
        # C(w, n) (j + 1/2)^{-n} (j + 1/2)^w for each order
        expansion = np.power(js[:, None] + 0.5, -orders) * binoms
        expansion *= powers[j0 - near:js[-1] + 1 - near, None]
        keep = cut.size - np.searchsorted(rev_cut, js, side="right") + 1
        starts = np.searchsorted(cells, js)
        first = int(starts[0])
        # c_{m-j} of every cell the block reaches, one row per j; the
        # entries with j > m are never read
        atoms = coeffs.take(np.maximum(cells[first:] - js[:, None], 0))
        for atom, row, start, kept in zip(atoms, expansion[:, :, None],
                                          (starts - first).tolist(), keep.tolist()):
            part = table[:kept, first + start:-1]
            part += atom[start:] * row[:kept]
    return table


def _near_chunks(x: np.ndarray, cell: np.ndarray, m: np.ndarray, reach: int):
    """The near shifts k = m-j for j = reach-1 down to 0, that is in the
    order of k, up to _CELL_BLOCK (shift, point) pairs at a time: the shifts
    k, the arguments t = x - k, the mask of the pairs without a term, and
    whether it has any.  Cells m < j have no shift m - j, and (x - k)_+ = 0
    at k = x; those pairs read k = 0 and t = 1."""
    rows_at_once = max(1, _CELL_BLOCK // x.size)
    for top in range(reach - 1, -1, -rows_at_once):
        shifts = np.arange(top, max(top - rows_at_once, -1), -1)[:, None]
        k = m - shifts
        t = x - (cell - shifts)
        dead = (t <= 0.0) | (k < 0)
        some_dead = bool(dead.any())
        if some_dead:
            t[dead] = 1.0
            k[dead] = 0
        yield k, t, dead, some_dead


def _cell_sum(xs: np.ndarray, w: complex, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] (x - k)_+^w at every x >= 0 of xs, cell by cell: the
    polynomial of the far atoms of x's cell m, then the near shifts
    k = m-J+1..m, one array pass each in the order of k."""
    near, binoms, cut = _cell_form(w)
    degree = binoms.size - 1
    present = np.zeros(coeffs.size, dtype=bool)
    for start in range(0, xs.size, _CELL_BLOCK):
        present[np.floor(xs[start:start + _CELL_BLOCK]).astype(np.int64)] = True
    cells = np.flatnonzero(present[near:]) + near
    # (j + 1/2)^w once per far atom j; the last column of the table is the
    # zero polynomial of the cells m < J
    half = np.arange(near, cells[-1] + 1) + 0.5 if cells.size else np.empty(0)
    table = None
    out = np.empty(xs.size, dtype=complex)
    for start in range(0, xs.size, _CELL_BLOCK):
        x = xs[start:start + _CELL_BLOCK]
        cell = np.floor(x)
        m = cell.astype(np.int64)
        highest = int(m.max())
        reach = min(near, highest + 1)
        chunks, powers = _near_chunks(x, cell, m, reach), None
        if table is None and half.size:
            # a lone near chunk takes its powers in the table's pass: a
            # scalar call pays the fixed cost of cis once
            if reach * x.size <= _CELL_BLOCK:
                chunks = [next(chunks)]
                t = chunks[0][1]
                both = _complex_power(np.concatenate([half, t.ravel()]), w)
                far, powers = both[:half.size], both[half.size:].reshape(t.shape)
            else:
                far = _complex_power(half, w)
            table = _cell_table(far, coeffs, cells, near, binoms, cut)
        total = out[start:start + _CELL_BLOCK]
        if highest < near:
            # no point of the block has a far atom: Horner's rule would
            # give +0 at each
            total.fill(0.0)
        else:
            rows = np.where(m >= near, np.searchsorted(cells, m), cells.size)
            g = x - cell
            g -= 0.5
            # Horner's rule in g, which is real: the product scales the real
            # and imaginary parts, as one float array of (re, im) pairs
            table[degree].take(rows, out=total)
            pairs, scale = total.view(float), np.repeat(g, 2)
            for n in range(degree - 1, -1, -1):
                np.multiply(pairs, scale, out=pairs)
                np.add(total, table[n].take(rows), out=total)
        for k, t, dead, some_dead in chunks:
            terms = coeffs.take(k) * (_complex_power(t, w) if powers is None else powers)
            for term, gone in zip(terms, dead):
                np.add(total, term, out=total, where=~gone if some_dead else True)
    return out


def eval_bz(z, x):
    """B-spline of complex order z (re z > 1) by its alternating series
    (1/Gamma(z)) sum_{k<=x} (-1)^k binom(z,k) (x-k)_+^{z-1}, summed by
    cells (module docstring).

    Raises NumericError when Gamma(z) underflows (large |im z|) or
    overflows (see gamma): dividing by it is then meaningless; where the
    largest x needs more than 2^24 atoms, before any per-cell work; and
    where a term or the sum leaves the float range."""
    z = complex_order(z)
    xs, shape = _abscissae(x)
    out = np.zeros(xs.size, dtype=complex)
    live = xs >= 0.0
    if live.any():
        g = gamma(z)
        if g.real * g.real + g.imag * g.imag < 1e-300:
            raise NumericError(f"Gamma(z) too small at z = {z}; division is meaningless")
        xmax = float(xs.max())
        if xmax >= _MAX_ATOMS:
            raise NumericError(f"x = {xmax:g} needs {math.floor(xmax) + 1:.4g} series atoms; "
                               f"one evaluation holds at most {_MAX_ATOMS}")
        coeffs = binom_complex_sequence(z, math.floor(xmax))
        coeffs[1::2] *= -1.0
        with np.errstate(over="ignore", invalid="ignore"):
            if live.all():
                out = _cell_sum(xs, z - 1.0, coeffs)
                out /= g
            else:
                out[live] = _cell_sum(xs[live], z - 1.0, coeffs) / g
        _in_float_range(out, f"the series of order {z}")
    return _shaped(out, shape)


def exp_difference_coefficients(weights) -> np.ndarray:
    """Coefficients p_0..p_n of prod_k (1 - e^{a_k} q) for the weights
    a_k: the atoms of the exponential difference operator, lowest power of
    the shift q first.  Raises NumericError where e^{a_k} overflows."""
    poly = np.array([1.0])
    for a in weights:
        try:
            root = math.exp(a)
        except OverflowError as exc:
            raise NumericError(f"e^{a:g} overflows a float") from exc
        poly = np.convolve(poly, np.array([1.0, -root]))
    return poly


_TAYLOR_DEGREE = 16


def _bidiagonal_corner(bidiagonal: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """[exp(t J)]_{n,1} at every t of ts, for the n x n matrix J.

    Scaling and squaring with a Taylor polynomial (Higham, SIAM J. Matrix
    Anal. Appl. 26, 2005): each t J / 2^s lies in the 1-norm ball of
    radius 1/2, where the degree-16 Taylor remainder is below 1e-19.  The
    polynomial is one Horner pass over the (N, n, n) stack, and the points
    that take s squarings are squared s times."""
    n = bidiagonal.shape[0]
    eye = np.eye(n)
    with np.errstate(divide="ignore"):  # t = 0 takes s = 0
        scale = np.log2(np.abs(ts) * (2.0 * np.linalg.norm(bidiagonal, 1)))
    squarings = np.maximum(0.0, np.ceil(scale)).astype(int)
    a = np.ldexp(ts, -squarings)[:, None, None] * bidiagonal
    p = eye + a / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        p = eye + a @ p / k
    for s in range(1, squarings.max(initial=0) + 1):
        more = squarings >= s
        p[more] = p[more] @ p[more]
    return p[:, n - 1, 0]


def _exp_green_sum(weights: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """sum_{k <= t} p_k rho(t - k) at every t of ts, rho(t) = [exp(t J)]_{n,1}
    (module docstring)."""
    n = weights.size
    bidiagonal = np.diag(weights) + np.eye(n, k=-1)
    return _shifted_sum(ts, exp_difference_coefficients(weights)[:n],
                        lambda t: _bidiagonal_corner(bidiagonal, t))


def eval_exp_bspline(weights, x):
    """Exponential B-spline: the n-fold convolution of e^{a_k x} 1_[0,1),
    by the closed form of the module docstring.

    The mean mu of the weights is factored out, beta_a(x) = e^{mu x}
    beta_s(x) with s = a - mu, and since sum s = 0 the right half is the
    mirror image beta_s(x) = beta_{-s}(n - x).  So each half is summed from
    its own end of the support, which keeps the cancellation of the terms
    near the right end away.  Against a 40-digit oracle the error is below
    2e-13 relative to max(1, |beta|) for up to eight weights spread over
    up to 7, repeated and near-equal ones included.  The worst measured,
    on grids of step 1/40, is 1.3e-13 for eight weights spread over 6;
    it grows with the spread, as the terms cancel more.

    The weight tuple is the one appearing inside the convolution product;
    the frequency-domain counterpart in the fourier module owns the sign
    flip between the two conventions.  Where a term or a value leaves the
    float range (e^{mu x} past e^709, say), a NumericError names the weights.
    """
    wts = exponential_weights(weights)
    w = np.array(wts)
    n = w.size
    mu = float(np.mean(w))
    xs, shape = _abscissae(x)
    out = np.zeros(xs.size)
    left = (xs >= 0.0) & (xs < n / 2)
    right = (xs >= n / 2) & (xs < n)
    with np.errstate(over="ignore", invalid="ignore"):
        out[left] = _exp_green_sum(w - mu, xs[left])
        out[right] = _exp_green_sum(mu - w, n - xs[right])
        live = left | right
        out[live] *= np.exp(mu * xs[live])
    return _shaped(_in_float_range(out, f"the series of weights a = {wts}"), shape)


def eval_ez(a: float, z, x):
    """Exponential B-spline of complex order,
    (1/Gamma(z)) sum_l binom(z,l) (-1)^l e^{-la} e^{-a(x-l)} (x-l)_+^{z-1}.

    The two damping factors of every term multiply to e^{-ax}, so the value
    is e^{-ax} B_z(x).  Well defined only for damping a > 0.  e^{-ax} and
    its product with B_z are formed in place, the real factor on the left."""
    a = positive_damping(a)
    xs, shape = _abscissae(x)
    # x by keyword: benchmarks/tracing.py reads a positional x as one abscissa
    value = eval_bz(z, x=xs)
    decay = np.maximum(xs, 0.0)
    decay *= -a
    np.exp(decay, out=decay)
    return _shaped(np.multiply(decay, value, out=value), shape)


def eval_bupsilon_components(upsilon: Paravector, x):
    """Component arrays (alpha, beta) of the hypercomplex B-spline
    alpha + beta u at the abscissae x, with the order's decomposition.

    The order Y = x0 + |v| u and every quantity of its series live in the
    commuting subalgebra span{1, u}, a copy of C under u -> i, so
    alpha + i beta = B_{x0 + i|v|}(x).
    """
    dec = hypercomplex_exponent(upsilon)
    value = eval_bz(dec.z, x=np.atleast_1d(x))
    return value.real, value.imag, dec


def eval_bupsilon(upsilon: Paravector, x: float) -> Paravector:
    """Hypercomplex B-spline value at x; real components."""
    alpha, beta, dec = eval_bupsilon_components(upsilon, [float(x)])
    return dec.paravector(float(alpha[0]), float(beta[0]))

