"""Independent reference values and the per-job output checks.

References never call the package under test:

- B_z(x), e^{-ax} B_z(x) and the hypercomplex spline (through its complex
  image B_{x0 + i|v|}) come from the alternating series summed in mpmath at
  50 digits, raised adaptively when the sum cancels more than 30 of them;
- classical B-splines from the same truncated-power sum in exact rationals;
- exponential B-splines from the Green's function of prod (D - a_i),
  beta(x) = sum_k p_k rho(x - k), in mpmath;
- transforms from Omega(w)^z (and its damped and product forms) in mpmath;
- fractional operators from the power rule on x^p signals;
- verifier residuals from the exact atom identity in mpmath.

Reference values depend only on the plan, so they are computed before the
timed loop and cached per seed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from workloads import grid_points, hc_image

# Stated tolerances.  The spline tolerance is the "about five accurate
# digits" of the splines module docstring; the operator tolerance is the
# one acceptance criterion 6 uses for the power rule.
SPLINE_RTOL = 1e-5
TRANSFORM_RTOL, TRANSFORM_ATOL = 1e-9, 1e-14
FRACOP_RTOL = 1e-3
BASE_DPS = 50


def _cplx(v) -> list:
    v = complex(v)
    return [v.real, v.imag]


# -- time domain ---------------------------------------------------------------


def bz_ref(z: complex, x: float) -> complex:
    """(1/Gamma(z)) sum_{k<=x} (-1)^k binom(z,k) (x-k)^{z-1}, in mpmath."""
    if x <= 0.0:
        return 0j
    dps = BASE_DPS
    while True:
        with mp.workdps(dps):
            zz, xx = mp.mpc(z.real, z.imag), mp.mpf(x)
            total, size, binom = mp.mpc(0), mp.mpf(0), mp.mpc(1)
            for k in range(int(math.floor(x)) + 1):
                if k:
                    binom *= (zz - k + 1) / k
                t = xx - k
                if t > 0:
                    term = binom * mp.exp((zz - 1) * mp.log(t))
                    total += -term if k % 2 else term
                    size += abs(term)
            lost = float(mp.log10(size / abs(total))) if total != 0 else dps
            if dps - lost >= 30 or dps > 400:
                return complex(total / mp.gamma(zz))
            dps = int(lost) + 40


def classical_ref(n: int, x: float) -> float:
    """Classical B-spline of order n in exact rational arithmetic."""
    if x < 0.0 or x >= n:
        return 0.0
    if n == 1:
        return 1.0
    xq = Fraction(x)
    total = Fraction(0)
    for k in range(min(n, math.floor(x)) + 1):
        t = xq - k
        if t > 0:
            total += (-1) ** k * math.comb(n, k) * t ** (n - 1)
    return float(total / math.factorial(n - 1))


def exp_ref(weights, x: float) -> float:
    """Exponential B-spline (convolution of e^{a_i x} 1_[0,1)) for distinct
    weights: sum_k p_k rho(x - k), with p the coefficients of
    prod (1 - e^{a_i} q) and rho(t) = sum_i e^{a_i t} / prod_{j!=i} (a_i - a_j)."""
    n = len(weights)
    if x < 0.0 or x >= n:
        return 0.0
    with mp.workdps(BASE_DPS):
        a = [mp.mpf(w) for w in weights]
        poly = [mp.mpf(1)]
        for ai in a:
            nxt = poly + [mp.mpf(0)]
            for k in range(1, len(nxt)):
                nxt[k] -= mp.exp(ai) * poly[k - 1]
            poly = nxt
        denom = [mp.fprod(ai - aj for j, aj in enumerate(a) if j != i)
                 for i, ai in enumerate(a)]
        xx, total = mp.mpf(x), mp.mpf(0)
        for k, pk in enumerate(poly):
            t = xx - k
            if t >= 0:
                total += pk * mp.fsum(mp.exp(ai * t) / d for ai, d in zip(a, denom))
        return float(total)


def eval_ref(family: str, order: dict, x: float) -> complex:
    if family == "classical":
        return classical_ref(order["n"], x)
    if family == "exponential":
        return exp_ref(order["weights"], x)
    if family == "fractional":
        return bz_ref(complex(order["alpha"]), x).real
    if family == "complex":
        return bz_ref(complex(*order["z"]), x)
    if family == "complex-exponential":
        return math.exp(-order["a"] * x) * bz_ref(complex(*order["z"]), x)
    if family == "hypercomplex":
        return bz_ref(hc_image(order["upsilon"]), x)
    raise ValueError(family)


# -- frequency domain ----------------------------------------------------------


def _omega(w, a=0):
    """(1 - e^{-a} e^{-iw}) / (iw + a) in mpmath, with the w -> 0 limit."""
    if w == 0 and a == 0:
        return mp.mpc(1)
    return (1 - mp.exp(-a) * mp.expj(-w)) / (mp.mpc(a, w))


def _power(base, z):
    return mp.mpc(0) if base == 0 else mp.exp(z * mp.log(base))


def transform_ref(family: str, order: dict, w: float) -> complex:
    with mp.workdps(40):
        ww = mp.mpf(w)
        if family == "classical":
            return complex(_omega(ww) ** order["n"])
        if family == "fractional":
            return complex(_power(_omega(ww), mp.mpf(order["alpha"])))
        if family == "complex":
            return complex(_power(_omega(ww), mp.mpc(*order["z"])))
        if family == "complex-exponential":
            return complex(_power(_omega(ww, mp.mpf(order["a"])), mp.mpc(*order["z"])))
        if family == "exponential":
            return complex(mp.fprod(_omega(ww, -mp.mpf(a)) for a in order["weights"]))
    raise ValueError(family)


def _atom_residual(base1, base2, z, coeffs, w):
    """|base1^z base2^z - sum_k c_k e^{-ikw}| as an mpc difference."""
    lhs = _power(base1, z) * _power(base2, z)
    rhs = mp.fsum(c * mp.expj(-k * w) for k, c in enumerate(coeffs))
    return lhs - rhs


def _binoms(z, K):
    out, b = [], mp.mpc(1)
    for k in range(K + 1):
        if k:
            b *= (z - k + 1) / k
        out.append(b)
    return out


def verify_residual_ref(family: str, order: dict, K: int | None, w: float) -> float:
    """Exact residual of the family's atom identity at w, truncated at K."""
    with mp.workdps(30):
        ww = mp.mpf(w)
        if family == "classical":
            n = order["n"]
            lhs = (mp.mpc(0, ww) * _omega(ww)) ** n
            rhs = mp.fsum((-1) ** k * math.comb(n, k) * mp.expj(-k * ww) for k in range(n + 1))
            return float(abs(lhs - rhs))
        if family == "exponential":
            lhs = mp.mpf(1)
            for a in order["weights"]:
                lhs *= _omega(ww, -mp.mpf(a)) * (mp.mpc(0, ww) - a)
            rhs = mp.fprod(1 - mp.exp(a) * mp.expj(-ww) for a in order["weights"])
            return float(abs(lhs - rhs))
        if family == "hypercomplex":
            z = hc_image(order["upsilon"])
            zs = [mp.mpc(z.real, z.imag), mp.mpc(z.real, -z.imag)]
        elif family == "fractional":
            zs = [mp.mpc(order["alpha"])]
        else:
            zs = [mp.mpc(*order["z"])]
        damping = mp.mpf(order.get("a", 0))
        base1 = mp.mpc(damping, ww)
        base2 = _omega(ww, damping)
        diffs = []
        for z in zs:
            coeffs = [(-1) ** k * b * mp.exp(-damping * k) for k, b in enumerate(_binoms(z, K))]
            diffs.append(_atom_residual(base1, base2, z, coeffs, ww))
        if family == "hypercomplex":
            # idempotent split: components along 1 and u of the paired values
            alpha = (diffs[0] + diffs[1]) / 2
            beta = (diffs[0] - diffs[1]) / mp.mpc(0, 2)
            return float(mp.sqrt(abs(alpha) ** 2 + abs(beta) ** 2))
        return float(abs(diffs[0]))


def iq_ref(job: dict) -> complex:
    """The time-domain value whose transform the quadrature job inverts."""
    p, x = job["params"], job["x"]
    if job["transform"] == "hat_bz":
        return bz_ref(complex(*p["z"]), x)
    if job["transform"] == "hat_ez":
        return math.exp(-p["a"] * x) * bz_ref(complex(*p["z"]), x)
    if job["transform"] == "hat_bupsilon_components":
        return bz_ref(hc_image(p["upsilon"]), x).real
    if job["transform"] == "hat_en":
        return exp_ref(p["weights"], x)
    raise ValueError(job["transform"])


def fracop_ref(op: str, z: complex, p: int, damping: float, x: float) -> complex:
    with mp.workdps(30):
        zz, xx = mp.mpc(z.real, z.imag), mp.mpf(x)
        if op == "integral":
            val = mp.gamma(p + 1) / mp.gamma(p + 1 + zz) * mp.exp((p + zz) * mp.log(xx))
        else:
            val = mp.gamma(p + 1) / mp.gamma(p + 1 - zz) * mp.exp((p - zz) * mp.log(xx))
            val *= mp.exp(-damping * xx)
        return complex(val)


# -- reference tables ------------------------------------------------------------


def _sample_rows(rng, count: int, k: int, lo: int = 0) -> list[int]:
    """k stratified row indices in [lo, count)."""
    edges = np.linspace(lo, count, min(k, count - lo) + 1)
    return sorted({int(rng.integers(int(a), max(int(a) + 1, int(b))))
                   for a, b in zip(edges[:-1], edges[1:])})


def build(plan: list[dict], seed: int) -> dict:
    """Reference values for every job of the plan, keyed by job id."""
    rng = np.random.default_rng([int(seed), 99])
    table = {}
    for job in plan:
        jid = job["id"]
        if job["kind"] == "iq":
            table[jid] = {"ref": _cplx(iq_ref(job))}
            continue
        cmd = job["cmd"]
        if cmd in ("eval", "transform", "verify"):
            pts = grid_points(job["grid"])
            rows = _sample_rows(rng, pts.size, job["checks"])
            if cmd == "eval":
                refs = [eval_ref(job["family"], job["order"], float(pts[i])) for i in rows]
            elif cmd == "transform":
                refs = [transform_ref(job["family"], job["order"], float(pts[i])) for i in rows]
            else:
                refs = [verify_residual_ref(job["family"], job["order"], job.get("K"),
                                            float(pts[i])) for i in rows]
            table[jid] = {"rows": rows, "ref": [_cplx(r) for r in refs]}
        elif cmd == "fracop":
            sig = job["signal"]
            lo = int(math.ceil(0.05 * (sig["count"] - 1)))
            rows = _sample_rows(rng, sig["count"], job["checks"], lo)
            op = job["argv"][job["argv"].index("--op") + 1]
            z = complex(*job["order"]["z"])
            refs = [fracop_ref(op, z, sig["p"], sig["damping"], sig["step"] * i) for i in rows]
            table[jid] = {"rows": rows, "ref": [_cplx(r) for r in refs]}
    return table


# -- output checks ---------------------------------------------------------------


class Malformed(ValueError):
    """Output that does not parse, has the wrong shape or is non-finite."""


def _parse_csv(text: str, header: list[str] | None = None):
    lines = text.splitlines()
    if not lines:
        raise Malformed("empty output")
    cols = lines[0].split(",")
    if header is not None and cols != header:
        raise Malformed(f"header {cols} != {header}")
    body = lines[1:]
    if text.count(",") != len(lines) * (len(cols) - 1):
        raise Malformed("ragged rows")
    try:
        data = np.array(",".join(body).split(","), dtype=float).reshape(len(body), len(cols))
    except ValueError as exc:
        raise Malformed(str(exc)) from exc
    return cols, data


def _parse_records(text: str):
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise Malformed(str(exc)) from exc
    if not isinstance(records, list) or not records:
        raise Malformed("expected a non-empty JSON list")
    return records


def _eval_table(job, text):
    if job["format"] == "json":
        records = _parse_records(text)
        cols = list(records[0])
        try:
            data = np.array([[float(r[c]) for c in cols] for r in records])
        except (KeyError, TypeError, ValueError) as exc:
            raise Malformed(str(exc)) from exc
        return cols, data
    return _parse_csv(text)


def _eval_values(job, cols, data, rows):
    """Complex values at the sampled rows, plus any part that must vanish."""
    fam = job["family"]
    if fam in ("classical", "fractional", "exponential"):
        return data[rows, cols.index("value")].astype(complex), np.zeros(len(rows))
    if fam in ("complex", "complex-exponential"):
        return (data[rows, cols.index("value_re")]
                + 1j * data[rows, cols.index("value_im")]), np.zeros(len(rows))
    ups = np.array(job["order"]["upsilon"][1:])
    u = ups / np.linalg.norm(ups)
    v = data[rows][:, [cols.index(f"v{i + 1}_re") for i in range(u.size)]]
    imag = data[rows][:, [cols.index("s_im")] + [cols.index(f"v{i + 1}_im")
                                                   for i in range(u.size)]]
    along = v @ u
    leak = np.linalg.norm(v - np.outer(along, u), axis=1) + np.linalg.norm(imag, axis=1)
    return data[rows, cols.index("s_re")] + 1j * along, leak


class Check:
    """Outcome of checking one job's output: counters the metrics sum up."""

    def __init__(self):
        self.malformed = None
        self.checked = 0
        self.missed = 0
        self.err_log10 = []      # spline relative errors, log10
        self.ratio = None        # verifier max_residual / tail_bound
        self.rows_in = self.rows_out = self.points = self.cells = 0
        self.bytes_out = 0

    def count(self, miss_mask):
        miss_mask = np.asarray(miss_mask, dtype=bool)
        self.checked += int(miss_mask.size)
        self.missed += int(np.sum(miss_mask))


def _close(got, ref, rtol, atol=0.0):
    return np.abs(got - ref) <= rtol * np.abs(ref) + atol


def check_output(job: dict, payload, ref: dict) -> Check:
    """Validate one job's first output against the plan and the reference.

    payload is the output file's text for CLI jobs and the result tuple
    (value_re, value_im, error, tail_bound, quadrature_estimate) for
    quadrature jobs.
    """
    res = Check()
    try:
        _check(job, payload, ref, res)
    except Malformed as exc:
        res.malformed = str(exc) or "malformed output"
    return res


def _check(job, payload, ref, res):
    if job["kind"] == "iq":
        vals = np.asarray(payload, dtype=float)
        if vals.shape != (5,) or not np.all(np.isfinite(vals)):
            raise Malformed("non-finite quadrature result")
        res.points = res.cells = job["count"]
        got, want = complex(vals[0], vals[1]), complex(*ref["ref"])
        res.count([abs(got - want) > vals[2]])
        return
    res.bytes_out = len(payload.encode("utf-8"))
    cmd = job["cmd"]
    rows = np.asarray(ref["rows"], dtype=int)
    want = np.array([complex(*r) for r in ref["ref"]])
    if cmd == "verify":
        _check_verify(job, payload, want, res)
        return
    if cmd == "eval":
        cols, data = _eval_table(job, payload)
        expect_x = grid_points(job["grid"])
    elif cmd == "transform":
        cols, data = _transform_table(job, payload)
        expect_x = grid_points(job["grid"])
    else:
        cols, data = _parse_csv(payload, ["x", "value_re", "value_im", "valid"])
        sig = job["signal"]
        expect_x = sig["step"] * np.arange(sig["count"])
        res.rows_in = sig["count"]
    if not np.all(np.isfinite(data)):
        raise Malformed("non-finite values")
    if data.shape[0] != expect_x.size or not np.allclose(data[:, 0], expect_x,
                                                         rtol=1e-12, atol=1e-12):
        raise Malformed("grid column does not match the requested grid")
    res.rows_out = res.points = data.shape[0]
    if cmd == "eval":
        terms = data[:, cols.index("terms_used")]
        if np.any(terms != np.round(terms)) or np.any(terms < 0):
            raise Malformed("terms_used is not a count")
        res.cells = int(np.sum(terms))
        got, leak = _eval_values(job, cols, data, rows)
        err = np.abs(got - want) + leak
        res.count(err > SPLINE_RTOL * np.abs(want))
        rel = err / np.maximum(np.abs(want), 1e-300)
        res.err_log10 = np.log10(np.maximum(rel, 1e-20)).tolist()
    elif cmd == "transform":
        res.cells = res.points
        got = data[rows, 1] + 1j * data[rows, 2]
        res.count(~_close(got, want, TRANSFORM_RTOL, TRANSFORM_ATOL))
    else:
        res.cells = res.points
        valid = data[rows, 3] == 1
        got = data[rows, 1] + 1j * data[rows, 2]
        res.count(~_close(got[valid], want[valid], FRACOP_RTOL))


def _transform_table(job, text):
    if job["format"] != "json":
        return _parse_csv(text, ["omega", "value_re", "value_im"])
    records = _parse_records(text)
    try:
        data = np.array([[float(r["omega"]), float(r["value"]["value_re"]),
                          float(r["value"]["value_im"])] for r in records])
    except (KeyError, TypeError, ValueError) as exc:
        raise Malformed(str(exc)) from exc
    return ["omega", "value_re", "value_im"], data


def _check_verify(job, text, want, res):
    try:
        doc = json.loads(text)
        count, K = int(doc["grid"]["count"]), int(doc["K"])
        max_res, bound = float(doc["max_residual"]), float(doc["tail_bound"])
        passed = doc["passed"]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise Malformed(str(exc)) from exc
    if not (math.isfinite(max_res) and math.isfinite(bound)) or passed is not True:
        raise Malformed("report is non-finite or not passed")
    if count != grid_points(job["grid"]).size or (job.get("K") is not None and K != job["K"]):
        raise Malformed("report grid or K differs from the request")
    res.rows_out = 1
    res.points = count
    res.cells = count * (K + 1)
    res.ratio = max_res / bound if bound > 0 else math.inf
    resid = want.real
    # the certificate must cover the exact residual, and the verifier must
    # not report less than the exact residual at a grid point it evaluated
    miss = (resid > bound) | (resid > max_res * (1 + 1e-6) + 1e-12)
    res.count(np.append(miss, max_res > bound))
