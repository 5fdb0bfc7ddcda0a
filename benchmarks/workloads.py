"""Seeded job plans for the three workloads.

A plan is a list of jobs, each a JSON-ready dict.  A job is either one
``fracspline.cli.main(argv)`` call that writes a real file (``kind`` "cli")
or one library ``inverse_quadrature`` call (``kind`` "iq"), for which the
CLI has no entry point.  Everything the program sees (argv, input CSVs) is
generated here from the seed, before any timing starts.

Parameters are stratified: each family's jobs take one value from each of
k equal strata of a range, paired across parameters by a fixed design that
does not depend on the seed, and the seed only jitters values inside their
strata.  Grid and signal sizes and the verifier's K, which set most of a
job's time, take fixed levels.  So every seed exercises the same spread of sizes and orders (the
large-x, high-re z corner included), and run-to-run figures compare.
"""

from __future__ import annotations

import math
import os

import numpy as np

WORKLOADS = ("time-grid", "freq-verify", "signal-io")


def _design(k: int, salt: int) -> np.ndarray:
    """Fixed pairing of strata: the same permutation for every seed."""
    return np.random.default_rng(1000 + salt).permutation(k)


def _strata(rng, k: int, lo: float, hi: float) -> np.ndarray:
    """One jittered value in each of k equal strata of [lo, hi], ascending."""
    return lo + (np.arange(k) + rng.uniform(0.0, 1.0, k)) / k * (hi - lo)


def _sizes(k: int, lo: float, hi: float) -> np.ndarray:
    """Fixed, unjittered linear size levels: grid sizes set most of a job's
    time, so fixing them keeps the plans' work alike across seeds."""
    return np.linspace(lo, hi, k)


def _levels(k: int, lo: float, hi: float) -> np.ndarray:
    """Fixed, unjittered geometric size levels (largest exactly hi)."""
    return np.geomspace(lo, hi, k)


def _num(x: float) -> str:
    return repr(float(x))


def _grid_spec(start: float, step: float, count: int) -> str:
    """start:stop:step with exactly `count` points under the CLI's rule."""
    stop = start + step * (count - 1) + 0.5 * step
    return f"{_num(start)}:{_num(stop)}:{_num(step)}"


def grid_points(spec: str) -> np.ndarray:
    """The grid the CLI builds from start:stop:step (its documented rule)."""
    start, stop, step = (float(p) for p in spec.split(":"))
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def _distinct_weights(rng, n: int, lo: float = -1.5, hi: float = 1.5, gap: float = 0.25):
    while True:
        w = np.sort(rng.uniform(lo, hi, n))
        if n == 1 or np.min(np.diff(w)) >= gap:
            if np.all(np.abs(w) >= 0.05):
                return [round(float(a), 6) for a in rng.permutation(w)]


def _paravector(rng, scalar: float, vnorm: float, dim: int):
    d = rng.normal(size=dim)
    d /= np.linalg.norm(d)
    return [round(float(scalar), 6)] + [round(float(c), 6) for c in vnorm * d]


def _order_args(fam: str, o: dict) -> list[str]:
    # option=value, so that negative values are not taken for options
    if fam == "classical":
        return [f"--n={o['n']}"]
    if fam == "fractional":
        return [f"--alpha={_num(o['alpha'])}"]
    if fam == "complex":
        return [f"--z={_num(o['z'][0])},{_num(o['z'][1])}"]
    if fam == "complex-exponential":
        return [f"--a={_num(o['a'])}", f"--z={_num(o['z'][0])},{_num(o['z'][1])}"]
    if fam == "exponential":
        return ["--a=" + ",".join(_num(a) for a in o["weights"])]
    if fam == "hypercomplex":
        return ["--upsilon=" + ",".join(_num(c) for c in o["upsilon"])]
    raise ValueError(fam)


def _order(rng, fam: str, re: float, im: float, dim: int = 1) -> dict:
    re, im = round(float(re), 6), round(float(im), 6)
    if fam == "fractional":
        return {"alpha": re}
    if fam == "complex":
        return {"z": [re, im]}
    if fam == "complex-exponential":
        return {"a": round(float(rng.uniform(0.1, 2.0)), 6), "z": [re, im]}
    if fam == "hypercomplex":
        return {"upsilon": _paravector(rng, re, abs(im), dim)}
    raise ValueError(fam)


def _cli_job(jid, cmd, fam, order, argv_tail, out, fmt=None, **extra):
    argv = [cmd]
    if fam is not None:
        argv += ["--family", fam] + _order_args(fam, order)
    argv += argv_tail + (["--format", fmt] if fmt else []) + ["-o", out]
    return {"id": jid, "kind": "cli", "cmd": cmd, "family": fam, "order": order,
            "argv": argv, "output": out, "format": fmt, "expect_rc": 0, **extra}


# -- time-grid ---------------------------------------------------------------

# family: (jobs per cycle, checked rows per job)
_TIME_GRID = {
    "complex": (6, 24),
    "fractional": (6, 24),
    "complex-exponential": (6, 24),
    "hypercomplex": (5, 24),
    "classical": (4, 24),
    "exponential": (4, 8),
}
_EXP_POINTS = {2: 300, 3: 90, 4: 24}


def _time_grid(rng) -> list[dict]:
    jobs = []
    for salt, (fam, (k, checks)) in enumerate(_TIME_GRID.items()):
        for j in range(k):
            jid = f"tg-{fam}-{j}"
            fmt = "json" if j % 2 else "csv"
            if fam == "exponential":
                n = 2 + j % 3
                order = {"weights": _distinct_weights(rng, n)}
                count = _EXP_POINTS[n]
                extent = float(n)
            elif fam == "classical":
                n = 1 + int(_design(k, salt)[j]) + j % 2  # 1..k+1
                order = {"n": n}
                count = int(_sizes(k, 2000, 12000)[_design(k, salt + 50)[j]])
                extent = float(n) * rng.uniform(1.0, 1.5)
            else:
                extent = float(_strata(rng, k, 8.0, 60.0)[j])
                count = int(_sizes(k, 2000, 12000)[k - 1 - j])
                re = _strata(rng, k, 1.1, 6.0)[_design(k, salt)[j]]
                im = rng.uniform(-2.0, 2.0) if fam != "fractional" else 0.0
                order = _order(rng, fam, re, im, dim=1 + j % 5)
            step = extent / count
            spec = _grid_spec(0.0, step, count)
            jobs.append(_cli_job(jid, "eval", fam, order, [f"--grid={spec}"],
                                 f"out/{jid}.{fmt}", fmt, grid=spec, checks=checks))
    return _interleave(jobs, 1)


# -- freq-verify -------------------------------------------------------------

_VERIFY_SERIES = ("complex", "hypercomplex", "fractional", "complex-exponential")
_VERIFY_CELLS = (1.2e6, 16.0e6)   # N (K + 1), the K x N phase matrix size
_VERIFY_N = (20_000, 100_000)
_VERIFY_K = (50, 400)


def _verify_grid(rng, count: int) -> str:
    half = float(rng.uniform(3.0, 12.0))
    step = 2.0 * half / (count - 1)
    return _grid_spec(-half, step, count)


def hc_image(upsilon) -> complex:
    """x0 + i|v|: the complex order a paravector x0 + v maps to."""
    return complex(upsilon[0], math.sqrt(sum(c * c for c in upsilon[1:])))


def verify_tol(fam: str, order: dict, K: int | None) -> float:
    """Tolerance passed to `verify`: 1.5 times the absolute atom tail
    sum_{k>K} |c_k|, which bounds the truncation error at every frequency,
    plus 1e-9 for rounding.  Classical and exponential identities are exact."""
    if K is None:
        return 1e-9
    if fam == "hypercomplex":
        z = hc_image(order["upsilon"])
    elif fam == "fractional":
        z = complex(order["alpha"])
    else:
        z = complex(*order["z"])
    damping = order.get("a", 0.0)
    m = 200_000
    k = np.arange(1, K + m + 1)
    mods = np.exp(np.cumsum(np.log(np.abs(z - k + 1)) - np.log(k)) - damping * k)
    tail = float(np.sum(mods[K:])) + float(mods[-1]) * (K + m) / z.real
    return 1.5 * tail + 1e-9


def _freq_verify(rng) -> list[dict]:
    jobs = []
    k = 6 * len(_VERIFY_SERIES)
    cells = _levels(k, *_VERIFY_CELLS)
    fams = [_VERIFY_SERIES[i % len(_VERIFY_SERIES)] for i in _design(k, 7)]
    rez = _strata(rng, k, 1.1, 6.0)[_design(k, 8)]
    kfrac = (_design(k, 13) + 0.5) / k  # where K sits in its admissible range
    for j in range(k):
        fam, c = fams[j], cells[j]
        kmin = max(_VERIFY_K[0], math.ceil(c / _VERIFY_N[1]) - 1)
        kmax = min(_VERIFY_K[1], math.floor(c / _VERIFY_N[0]) - 1)
        K = int(round(kmin + (kmax - kmin) * kfrac[j]))
        count = int(round(c / (K + 1)))
        order = _order(rng, fam, rez[j], rng.uniform(-2.0, 2.0), dim=1 + j % 5)
        jid = f"fv-{fam}-{j}"
        spec = _verify_grid(rng, count)
        tail = [f"--grid={spec}", "--K", str(K), "--tol", _num(verify_tol(fam, order, K))]
        jobs.append(_cli_job(jid, "verify", fam, order, tail, f"out/{jid}.json",
                             grid=spec, K=K, checks=8))
    for j, count in enumerate(_sizes(4, *_VERIFY_N)):
        fam = "classical" if j % 2 else "exponential"
        order = ({"n": int(rng.integers(1, 9))} if fam == "classical"
                 else {"weights": _distinct_weights(rng, int(rng.integers(1, 5)))})
        jid = f"fv-{fam}-{j}"
        spec = _verify_grid(rng, int(count))
        tail = [f"--grid={spec}", "--tol", _num(verify_tol(fam, order, None))]
        jobs.append(_cli_job(jid, "verify", fam, order, tail, f"out/{jid}.json",
                             grid=spec, checks=12))
    transforms = ("hat_bz", "hat_ez", "hat_bupsilon_components", "hat_en")
    counts = _sizes(12, *_VERIFY_N)[_design(12, 9)]
    for j in range(12):
        tname = transforms[j % 4]
        if tname == "hat_en":
            n = 2 + j % 3
            params = {"weights": _distinct_weights(rng, n)}
            decay = float(n)
        else:
            re = round(float(rng.uniform(1.5, 5.0)), 6)
            im = round(float(rng.uniform(-2.0, 2.0)), 6)
            params = {"z": [re, im]}
            if tname == "hat_ez":
                params["a"] = round(float(rng.uniform(0.1, 2.0)), 6)
            if tname == "hat_bupsilon_components":
                params = {"upsilon": _paravector(rng, re, abs(im), 1 + j % 5)}
            decay = re
        jobs.append({"id": f"fv-iq-{tname}-{j}", "kind": "iq", "transform": tname,
                     "params": params, "x": round(float(rng.uniform(0.5, 6.0)), 6),
                     "omega_max": round(float(rng.uniform(100.0, 400.0)), 3),
                     "count": int(counts[j]), "decay": decay, "expect_rc": 0,
                     "checks": 1})
    return _interleave(jobs, 2)


# -- signal-io ---------------------------------------------------------------

# Sizes lean small so a cycle holds a dozen jobs; the largest is fixed.
_FRACOP_SAMPLES = (50_000, 50_000, 50_000, 50_000, 60_000, 60_000, 75_000, 75_000,
                   100_000, 100_000, 400_000)
_FRACOPS = ("integral", "derivative", "shifted-derivative")


def _signal_io(rng) -> list[dict]:
    jobs = []
    k = len(_FRACOP_SAMPLES)
    sizes = np.array(_FRACOP_SAMPLES)[_design(k, 11)]
    rez = _strata(rng, k, 0.2, 1.8)[_design(k, 12)]
    for j in range(k):
        op = _FRACOPS[j % 3]
        p = 1 + j % 2
        extent = float(rng.uniform(1.0, 8.0))
        a = round(float(rng.uniform(0.1, 2.0)), 6)
        z = [round(float(rez[j]), 6), round(float(rng.uniform(-0.5, 0.5)), 6)]
        jid = f"sio-{op}-{j}"
        sig = {"count": int(sizes[j]), "step": extent / (int(sizes[j]) - 1), "p": p,
               "damping": a if op == "shifted-derivative" else 0.0}
        tail = ["--op", op, f"--z={_num(z[0])},{_num(z[1])}", "--input", f"in/{jid}.csv"]
        if op == "shifted-derivative":
            tail += [f"--a={_num(a)}"]
        jobs.append(_cli_job(jid, "fracop", None, {"z": z}, tail, f"out/{jid}.csv",
                             signal=sig, input=f"in/{jid}.csv", checks=64))
    fams = ("complex", "fractional", "complex-exponential", "classical", "exponential")
    for j, (count, fmt) in enumerate(((120_000, "csv"), (100_000, "json"))):
        fam = fams[int(rng.integers(0, len(fams)))]
        if fam == "classical":
            order = {"n": int(rng.integers(1, 9))}
        elif fam == "exponential":
            order = {"weights": _distinct_weights(rng, int(rng.integers(1, 5)))}
        else:
            order = _order(rng, fam, rng.uniform(1.1, 6.0), rng.uniform(-2.0, 2.0))
        half = float(rng.uniform(10.0, 60.0))
        spec = _grid_spec(-half, 2.0 * half / (count - 1), count)
        jid = f"sio-transform-{fam}-{j}"
        jobs.append(_cli_job(jid, "transform", fam, order, [f"--grid={spec}"],
                             f"out/{jid}.{fmt}", fmt, grid=spec, checks=64))
    return _interleave(jobs, 3)


def _interleave(jobs: list[dict], salt: int) -> list[dict]:
    """Mix the families inside one cycle in a fixed order; cycles repeat it.
    The order is not seeded: peak memory depends on which job follows which."""
    return [jobs[i] for i in _design(len(jobs), salt)]


def make_plan(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    build = {"time-grid": _time_grid, "freq-verify": _freq_verify,
             "signal-io": _signal_io}[workload]
    return build(rng)


def signal_values(sig: dict) -> tuple[np.ndarray, np.ndarray]:
    """Samples of e^{-a x} x^p on the job's grid (a = 0 unless damped)."""
    x = sig["step"] * np.arange(sig["count"])
    return x, np.exp(-sig["damping"] * x) * x ** sig["p"]


def write_inputs(plan: list[dict], workdir: str) -> None:
    """Write every input CSV the plan reads, with 17 significant digits."""
    os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    for job in plan:
        if "input" not in job:
            continue
        x, v = signal_values(job["signal"])
        rows = [f"{a:.16e},{b:.16e}" for a, b in zip(x.tolist(), v.tolist())]
        with open(os.path.join(workdir, job["input"]), "w", encoding="utf-8") as fh:
            fh.write("x,value\n")
            fh.write("\n".join(rows))
            fh.write("\n")
