"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import quad, simpson

from fracspline import (
    FrequencyGrid,
    Paravector,
    SampledSignal,
    eval_bn,
    eval_bz,
    eval_exp_bspline,
    fit_decay_slope,
    frac_derivative,
    gamma_hc,
    hat_bupsilon,
    hat_bupsilon_components,
    hat_bz,
    hat_en,
    inverse_quadrature,
    mellin_check,
    verify_atom_identity_complex,
    verify_atom_identity_expz,
    verify_atom_identity_hc,
)
from fracspline.clifford import subalgebra_from_idempotent


def report(num, ok, desc, detail=""):
    line = f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_classical_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5):
        xs = np.linspace(0.0, n, 1000)
        for x in xs:
            worst = max(worst, abs(eval_bz(float(n), x) - eval_bn(n, x)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, "complex-order series reduces to the classical closed form",
           f"max |diff| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_time_frequency_consistency():
    t0 = time.perf_counter()
    z = 2.5 + 1.0j
    grid = FrequencyGrid(1e3, 200001)
    worst_gap = 0.0
    worst_err = 0.0
    for x in (0.5, 1.5, 3.0, 6.0):
        res = inverse_quadrature(lambda w: hat_bz(z, w), x, grid, decay=2.5)
        gap = abs(res.value - eval_bz(z, x))
        worst_gap = max(worst_gap, gap - res.error)
        worst_err = max(worst_err, res.error)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 0.0 and worst_err <= 1e-4 and elapsed < 30.0
    report(2, ok, "time-domain series agrees with certified inverse quadrature",
           f"certified error = {worst_err:.2e}, {elapsed:.2f} s")


def test_criterion_03_complex_atom_identity():
    t0 = time.perf_counter()
    om = np.linspace(-3.0, 3.0, 600)
    worst = 0.0
    monotone = True
    for z in (2.5 + 0.0j, 2.5 + 1.0j):
        rep = verify_atom_identity_complex(z, 200, om)
        worst = max(worst, rep.max_residual)
        last = math.inf
        for K in (50, 100, 200, 400):
            r = verify_atom_identity_complex(z, K, om)
            monotone &= r.max_residual <= last + 1e-12
            last = r.max_residual
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and monotone and elapsed < 5.0
    report(3, ok, "complex-order atom identity holds in the frequency domain",
           f"max residual = {worst:.2e}, monotone in K, {elapsed:.2f} s")


def test_criterion_04_exponential_atom_identity():
    t0 = time.perf_counter()
    om = np.linspace(-3.0, 3.0, 600)
    rep = verify_atom_identity_expz(1.0, 2.5, 100, om)
    rep_int = verify_atom_identity_expz(1.0, 3.0, 10, om)
    elapsed = time.perf_counter() - t0
    ok = (rep.max_residual <= 1e-6 and rep_int.max_residual <= 1e-12
          and elapsed < 5.0)
    report(4, ok, "damped atom identity holds, exactly so for integer order",
           f"residuals {rep.max_residual:.2e} / {rep_int.max_residual:.2e}, "
           f"{elapsed:.2f} s")


def test_criterion_05_hypercomplex_atom_identity():
    t0 = time.perf_counter()
    om = np.linspace(0.1, 3.0, 600)
    rep = verify_atom_identity_hc(Paravector(2.5, [1.0, 1.0]), 200, om)

    om_iso = np.linspace(-8.0, 8.0, 601)
    rep_h = verify_atom_identity_hc(Paravector(2.5, [1.0]), 200, om_iso)
    rep_c = verify_atom_identity_complex(2.5 + 1.0j, 200, om_iso)
    la, lb = subalgebra_from_idempotent(*rep_h.lhs)
    ra, rb = subalgebra_from_idempotent(*rep_h.rhs)
    mapped = np.abs((la - ra) + 1j * (lb - rb))
    cres = np.abs(rep_c.lhs[0] - rep_c.rhs[0])
    m = rep_h.admissible & rep_c.admissible
    iso_gap = float(np.max(np.abs(mapped[m] - cres[m])))
    elapsed = time.perf_counter() - t0
    ok = rep.max_residual <= 5e-3 and iso_gap <= 1e-12 and elapsed < 10.0
    report(5, ok, "hypercomplex atom identity holds; Cl(1) mirrors the complex case",
           f"residual {rep.max_residual:.2e}, iso gap {iso_gap:.2e}, {elapsed:.2f} s")


def test_criterion_06_fractional_power_rule():
    t0 = time.perf_counter()
    h = 1e-3
    xs = h * np.arange(int(round(2.0 / h)) + 1)
    sig = SampledSignal(0.0, h, xs.copy())
    out = frac_derivative(0.5, sig)
    ref = 2.0 / math.sqrt(math.pi) * np.sqrt(out.x)
    m = out.valid & (out.x >= 0.1) & (out.x <= 1.9)
    rel = float(np.max(np.abs(out.values[m] - ref[m]) / ref[m]))
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-3 and elapsed < 5.0
    report(6, ok, "half derivative of the ramp follows the power rule",
           f"max rel err = {rel:.2e}, {elapsed:.2f} s")


def _semigroup_deviation(h):
    n = int(round(10.0 / h)) + 1
    x = h * np.arange(n)
    sig = SampledSignal(0.0, h, x ** 2 * np.exp(-x))
    composed = frac_derivative(0.3, frac_derivative(0.7, sig))
    direct = frac_derivative(1.0, sig)
    m = composed.valid & direct.valid
    dev = float(np.max(np.abs(composed.values[m] - direct.values[m])))
    return dev / float(np.max(np.abs(direct.values[m])))


def test_criterion_07_operator_semigroup():
    d1 = _semigroup_deviation(1e-3)
    d2 = _semigroup_deviation(5e-4)
    ratio = d2 / d1
    ok = d1 <= 1e-2 and 0.375 <= ratio <= 0.625
    report(7, ok, "composed fractional derivatives reproduce the first derivative",
           f"deviation {d1:.2e}, halving ratio {ratio:.2f}")


def _gamma_hc_quadrature(x0, vnorm):
    def part(s, trig):
        if s > 50.0:
            return 0.0
        expo = x0 * s - math.exp(s)
        if expo < -745.0:
            return 0.0
        return math.exp(expo) * trig(vnorm * s)

    c, _ = quad(part, -np.inf, np.inf, args=(math.cos,),
                epsabs=1e-13, epsrel=1e-13, limit=500)
    s, _ = quad(part, -np.inf, np.inf, args=(math.sin,),
                epsabs=1e-13, epsrel=1e-13, limit=500)
    return c, s


def test_criterion_08_hypercomplex_gamma():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(20):
        x0 = rng.uniform(1.1, 5.0)
        vn = rng.uniform(0.1, 3.0)
        ndim = int(rng.integers(1, 4))
        direction = rng.standard_normal(ndim)
        direction /= np.linalg.norm(direction)
        p = Paravector(x0, vn * direction)
        got = gamma_hc(p)
        c, s = _gamma_hc_quadrature(x0, vn)
        ref = Paravector(c, s * direction)
        worst = max(worst, (got - ref).norm())
    ok = worst <= 1e-8
    report(8, ok, "hypercomplex Gamma matches its defining integrals",
           f"max deviation = {worst:.2e}")


def test_criterion_09_mellin_identity():
    worst = 0.0
    for ups in (Paravector(0.5, [0.0]), Paravector(0.3, [0.4])):
        for w in (1.0, 2.0, 5.0):
            res = mellin_check(ups, w)
            worst = max(worst, res.deviation)
    ok = worst <= 1e-3
    report(9, ok, "damped oscillatory integral matches Gamma over the power",
           f"max deviation = {worst:.2e}")


def test_criterion_10_transform_decay_and_zeros():
    ups = Paravector(2.5, [1.0, 1.0])

    def modulus(w):
        a, b, _ = hat_bupsilon_components(ups, w)
        return np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)

    slope = fit_decay_slope(modulus, 1e2, 1e4)
    zeros_ok = all(hat_bupsilon(ups, 2 * math.pi * k).norm() <= 1e-12
                   for k in (1, -1, 2, -2))
    ok = abs(slope + 2.5) <= 0.15 and zeros_ok
    report(10, ok, "hypercomplex transform decays at its order and kills 2 pi k",
           f"slope = {slope:.3f}")


def test_criterion_11_exponential_transform():
    t0 = time.perf_counter()
    h = 1.0 / 256
    xs = np.arange(0.0, 2.0 + h / 2, h)
    samples = np.array([eval_exp_bspline((1.0, 2.0), x) for x in xs])
    om = np.linspace(-8.0, 8.0, 161)
    dft = np.array([simpson(samples * np.exp(-1j * w * xs), dx=h) for w in om])
    gap = float(np.max(np.abs(dft - hat_en((1.0, 2.0), om))))

    closed = 0.0
    for x in np.linspace(0.05, 0.95, 19):
        ref = (math.exp(x) - math.exp(2 * x)) / (1.0 - 2.0)
        closed = max(closed, abs(eval_exp_bspline((1.0, 2.0), x) - ref))
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-4 and closed <= 1e-8
    report(11, ok, "exponential spline transform and closed form agree",
           f"DFT gap {gap:.2e}, closed-form gap {closed:.2e}, {elapsed:.2f} s")


def test_criterion_12_cli_determinism(tmp_path):
    # the same argv run in two fresh interpreters, with different hash seeds
    src = Path(__file__).resolve().parents[1] / "src"
    commands = [
        ["eval", "--family", "complex", "--z", "2.5,1", "--grid", "0:6:0.01"],
        ["eval", "--family", "complex", "--z", "2.5,1", "--grid", "0:6:0.01",
         "--format", "json"],
        ["verify", "--family", "complex", "--z", "2.5,1", "--K", "200", "--tol", "1e-3"],
    ]
    outputs = {}
    for seed in ("0", "1"):
        outs = [tmp_path / f"out{seed}-{i}" for i in range(len(commands))]
        argvs = [cmd + ["-o", str(out)] for cmd, out in zip(commands, outs)]
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        script = ("import sys; from fracspline.cli import main; "
                  f"sys.exit(max(main(a) for a in {argvs!r}))")
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outputs[seed] = [out.read_bytes() for out in outs]
    ok = outputs["0"] == outputs["1"]
    report(12, ok, "CLI output bytes depend on the arguments only",
           "eval CSV and JSON, verify; two interpreters")
