import contextlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspline import Paravector, eval_bupsilon, hat_bupsilon
from fracspline.cli import main

FLOAT17 = re.compile(r"-?\d\.\d{16}e[+-]\d{2,3}")


def run_cli(args):
    return main(list(args))


def read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# -- eval ------------------------------------------------------------------------

def test_eval_classical_grid(tmp_path):
    out = tmp_path / "bn.csv"
    code = run_cli(["eval", "--family", "classical", "--n", "3",
                    "--grid", "0:3:0.5", "-o", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["x", "value", "terms_used"]
    assert len(rows) == 7
    by_x = {float(r[0]): float(r[1]) for r in rows}
    assert abs(by_x[1.5] - 0.75) < 1e-15


def test_eval_complex_left_support(tmp_path):
    out = tmp_path / "bz.csv"
    code = run_cli(["eval", "--family", "complex", "--z", "2.5,1",
                    "--grid=-1:0:0.5", "-o", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["x", "value_re", "value_im", "terms_used"]
    for r in rows:  # 0 everywhere left of the support, including x = 0
        assert float(r[1]) == 0.0 and float(r[2]) == 0.0


def test_eval_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["eval", "--family", "hypercomplex", "--upsilon", "2.5,1,1",
            "--grid", "0:4:0.25"]
    assert run_cli(args + ["-o", str(a)]) == 0
    assert run_cli(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_hypercomplex_columns(tmp_path):
    out = tmp_path / "hc.csv"
    assert run_cli(["eval", "--family", "hypercomplex", "--upsilon", "2.5,1,1",
                    "--grid", "0:2:1", "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "s_re", "s_im", "v1_re", "v1_im", "v2_re", "v2_im",
                      "terms_used"]


def test_hypercomplex_columns_are_the_library_values(tmp_path):
    # every value column of eval and transform is a component of
    # eval_bupsilon or hat_bupsilon at its grid point, bit for bit (the
    # "%.16e" text keeps the sign of a zero): dimensions 1 to 5, v = 0, a
    # -0.0 direction component and negative components
    for spec in ("2.5,1", "2.5,0,0", "2.5,1,-0.0,0", "3.1,-0.4,1.2,-2,0.5",
                 "2.2,0.3,-0.7,0.1,-1.1,0.9"):
        vals = [float(c) for c in spec.split(",")]
        ups = Paravector(vals[0], vals[1:])
        for cmd, value_at, grid in (("eval", eval_bupsilon, "0:4.5:0.25"),
                                    ("transform", hat_bupsilon, "-13:13:0.5")):
            out = tmp_path / f"{cmd}.csv"
            assert run_cli([cmd, "--family", "hypercomplex", "--upsilon", spec,
                            f"--grid={grid}", "-o", str(out)]) == 0, (cmd, spec)
            header, rows = read_csv(out)
            assert len(header) - (cmd == "eval") == 1 + 2 * len(vals), (cmd, spec)
            for row in rows:
                p = value_at(ups, float(row[0]))
                want = ["%.16e" % part for comp in (p.s, *p.v.tolist())
                        for part in (complex(comp).real, complex(comp).imag)]
                assert row[1:1 + len(want)] == want, (cmd, spec, row[0])


def test_eval_17_significant_digits(tmp_path):
    out = tmp_path / "fmt.csv"
    assert run_cli(["eval", "--family", "classical", "--n", "2",
                    "--grid", "0:2:0.25", "-o", str(out)]) == 0
    _, rows = read_csv(out)
    for r in rows:
        assert FLOAT17.fullmatch(r[0]), r[0]
        assert FLOAT17.fullmatch(r[1]), r[1]


def test_eval_exponential_family(tmp_path):
    out = tmp_path / "en.csv"
    assert run_cli(["eval", "--family", "exponential", "--a", "1,2",
                    "--grid", "0:2:0.5", "-o", str(out)]) == 0
    _, rows = read_csv(out)
    x, v = float(rows[1][0]), float(rows[1][1])
    ref = (math.exp(1 * x) - math.exp(2 * x)) / (1 - 2)
    assert abs(v - ref) < 1e-8


def test_exponential_weights_past_the_float_range_are_an_error(capsys):
    # e^800 overflows a float: an error line from eval too, not a traceback
    for cmd in ("eval", "transform"):
        assert run_cli([cmd, "--family", "exponential", "--a", "800,-800",
                        "--grid", "0:2:0.5", "-o", "-"]) == 1, cmd
        assert capsys.readouterr().err == "error: e^800 overflows a float\n", cmd


def test_eval_json_format(tmp_path):
    out = tmp_path / "bn.json"
    assert run_cli(["eval", "--family", "classical", "--n", "3",
                    "--grid", "0:3:1.5", "--format", "json", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc[1]["x"] == 1.5 and abs(doc[1]["value"] - 0.75) < 1e-15


# the order flags of each family, each with a valid value and one out of range
ORDER_FLAGS = {
    "classical": {"--n": ("3", "0")},
    "fractional": {"--alpha": ("2.5", "1")},
    "complex": {"--z": ("2.5,1", "1")},
    "exponential": {"--a": ("1,-0.5", "0")},
    "complex-exponential": {"--a": ("0.7", "0"), "--z": ("2.5,1", "1")},
    "hypercomplex": {"--upsilon": ("2.5,1", "1,1")},
}


def test_eval_usage_errors(tmp_path, capsys):
    assert run_cli(["eval", "--family", "classical",
                    "--grid", "0:1:0.5"]) == 1  # missing --n
    assert run_cli(["eval", "--family", "complex", "--z", "0.5",
                    "--grid", "0:1:0.5"]) == 1  # order constraint
    assert run_cli(["eval", "--family", "nosuch", "--grid", "0:1:0.5"]) == 1
    assert run_cli(["eval", "--family", "classical", "--n", "3"]) == 1  # no grid
    assert run_cli(["eval", "--family", "complex", "--z", "abc",
                    "--grid", "0:1:0.5"]) == 1  # malformed number
    capsys.readouterr()
    # every command checks every family's order flags alike: a missing flag
    # and an order out of range are usage errors
    out = str(tmp_path / "out")
    for cmd in ("eval", "transform", "verify"):
        for fam, flags in ORDER_FLAGS.items():
            argv = [cmd, "--family", fam, "--grid=-1:1:0.5", "-o", out]
            argv += ["--tol", "1"] if cmd == "verify" else []
            valid = {flag: ok for flag, (ok, _) in flags.items()}
            assert run_cli(argv + [*sum(valid.items(), ())]) == 0, (cmd, fam)
            for flag, (_, bad) in flags.items():
                missing = {f: v for f, v in valid.items() if f != flag}
                for case in (missing, {**valid, flag: bad}):
                    assert run_cli(argv + [*sum(case.items(), ())]) == 1, (cmd, fam, case)
                    assert capsys.readouterr().err.startswith("error: "), (cmd, fam, case)
        # a config file bypasses the parser's family choices
        config = tmp_path / "family.json"
        config.write_text('{"family": "nosuch"}')
        assert run_cli([cmd, "--config", str(config), "--grid", "0:1:0.5"]) == 1, cmd
        assert capsys.readouterr().err == "error: unknown family 'nosuch'\n", cmd


def test_eval_gamma_underflow_or_overflow_is_an_error(capsys):
    # |Gamma(z)| underflows to 0 at |im z| = 1000 and overflows at z = 200:
    # an error, not a traceback
    for order in (["--family", "complex", "--z", "2.5,1e3"],
                  ["--family", "complex-exponential", "--a", "0.5", "--z", "2.5,1e3"],
                  ["--family", "hypercomplex", "--upsilon", "2.5,600,800"],
                  ["--family", "fractional", "--alpha", "200"]):  # overflow
        assert run_cli(["eval", *order, "--grid", "0:2:1"]) == 1, order
        assert capsys.readouterr().err.startswith("error: "), order


def test_non_finite_values_are_an_error(tmp_path, capsys):
    # a power that overflows or loses its phase, an alternating series that
    # overflows, an integral that overflows, a NaN damping, an infinite
    # order and an infinite damping: an error, not inf, nan or zero cells or
    # a traceback
    big, signal = tmp_path / "big.csv", tmp_path / "in.csv"
    write_signal(big, lambda x: 1e308, stop=2.0, h=0.1)
    write_signal(signal, lambda x: x * x)
    for argv in (["transform", "--family", "complex", "--z", "2.5,1e4", "--grid", "0:1:0.5"],
                 ["transform", "--family", "hypercomplex", "--upsilon", "2.5,1e5",
                  "--grid", "0:1:0.5"],
                 ["eval", "--family", "complex", "--z", "120", "--grid", "200:300:50"],
                 ["eval", "--family", "hypercomplex", "--upsilon", "120,1",
                  "--grid", "200:300:50"],
                 ["fracop", "--op", "integral", "--z", "1", "--input", str(big)],
                 ["fracop", "--op", "shifted-derivative", "--a", "nan", "--z", "0.5",
                  "--input", str(signal)],
                 ["eval", "--family", "complex", "--z", "2,inf", "--grid", "0:1:0.5"],
                 ["eval", "--family", "hypercomplex", "--upsilon", "2.5,inf",
                  "--grid", "0:1:0.5"],
                 ["transform", "--family", "complex-exponential", "--a", "inf", "--z", "2.5",
                  "--grid", "0:1:0.5"],
                 # Gamma(202) overflows: this used to end in an OverflowError traceback
                 ["fracop", "--op", "integral", "--z", "200", "--input", str(signal)]):
        assert run_cli(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv
    run_cli(["fracop", "--op", "integral", "--z", "1", "--input", str(big)])
    assert capsys.readouterr().err == ("error: the fractional integral of order z = (1+0j) "
                                       "leaves the float range on this grid\n")


def test_non_finite_grid_is_a_usage_error(capsys):
    # inf/nan bounds or steps used to end in OverflowError/ValueError
    # tracebacks from the point count
    # so did finite grids whose point count passes int64 or overflows
    for grid in ("0:inf:1", "0:nan:1", "0:1:inf", "0:1:nan", "nan:1:0.5",
                 "0:1e20:1", "0:1e308:1e-308"):
        assert run_cli(["eval", "--family", "classical", "--n", "3",
                        "--grid", grid]) == 1, grid
        assert capsys.readouterr().err.startswith("error: "), grid
    assert run_cli(["verify", "--family", "complex", "--z", "2.5",
                    "--grid=-1:inf:0.1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert run_cli(["transform", "--family", "complex", "--z", "2.5",
                    "--grid=-inf:1:0.5"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("spec, message", [
    ("0:1", "grid must be start:stop:step, got '0:1'"),
    ("a:b:c", "grid values must be numeric: 'a:b:c'"),
    ("1:0:0.5", "grid needs stop >= start and step > 0, got '1:0:0.5'"),
    ("0:1:0", "grid needs stop >= start and step > 0, got '0:1:0'"),
    ("0:1:-1", "grid needs stop >= start and step > 0, got '0:1:-1'"),
    ("0:1:0.5:2", "grid must be start:stop:step, got '0:1:0.5:2'"),
])
def test_grid_spec_errors(spec, message, capsys):
    assert run_cli(["eval", "--family", "classical", "--n", "3", "--grid", spec]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_binomial_sizes_no_array_holds_are_an_error(capsys):
    # the binomial sequence used to end in a MemoryError or a ValueError
    # traceback from its np.empty; eval names the x whose atoms no table holds
    for argv, prefix in (
            (["eval", "--family", "complex", "--z", "2.5", "--grid", "1e17:1e17:1"],
             "error: x = 1e+17 needs "),
            (["verify", "--family", "complex", "--z", "2.5",
              "--K", "1000000000000000000", "--grid", "0.1:1:0.1"],
             "error: binom(z, k) for k up to kmax = ")):
        assert run_cli(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(prefix), argv


def _classical_rows(capsys, n, grid):
    assert run_cli(["eval", "--family", "classical", "--n", str(n), "--grid", grid]) == 0
    return [[float(cell) for cell in line.split(",")]
            for line in capsys.readouterr().out.splitlines()[1:]]


def test_eval_classical_order_past_factorial_range(capsys):
    # (n-1)! overflows a float from n = 172 on, which the alternating series
    # divided by; the recurrence forms no factorial.  The exact values are
    # rationals rounded to 17 digits, held to 0.5 n eps, as in test_splines
    for n, grid, exact in ((200, "99:101:1", [0.09476971015804485, 0.09764718375128739,
                                              0.09476971015804485]),
                           (100, "49.3:49.3:1", [0.13401571729442338]),
                           (150, "75.3:75.3:1", [0.11232155400868567])):
        rows = _classical_rows(capsys, n, grid)
        assert [row[2] for row in rows] == [math.floor(row[0]) + 1 for row in rows]
        for row, want in zip(rows, exact, strict=True):
            assert abs(row[1] - want) <= 0.5 * n * 2.0 ** -52 * want, (n, row)


def test_eval_classical_order_past_the_cap_is_an_error(capsys):
    # the recurrence takes n^2/2 steps per point: verify's cap n <= 1023 holds
    # for eval too, and fails before any work
    for command in ("eval", "verify"):
        argv = [command, "--family", "classical", "--n", "1024", "--grid", "0:3:1"]
        assert run_cli(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "order n = 1024" in err, err
    assert run_cli(["eval", "--family", "classical", "--n", "1023", "--grid", "0:3:1"]) == 0


@pytest.mark.parametrize("grid", ["0:1e9:1e8", "1e300:1e300:1"])
@pytest.mark.parametrize("family", [["--family", "complex", "--z", "2.5,1"],
                                    ["--family", "fractional", "--alpha", "2.5"],
                                    ["--family", "hypercomplex", "--upsilon", "2.5,1,1"]])
def test_eval_of_a_far_grid_fails_by_name_and_fast(family, grid, capsys):
    # the atoms up to the largest x are past what one table holds: an error
    # naming that x, before any per-cell work, and no 300-digit count
    t0 = time.perf_counter()
    assert run_cli(["eval", *family, "--grid", grid]) == 1
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    last = grid.split(":")[1]
    assert out == "" and err.startswith(f"error: x = {float(last):g} needs "), err
    assert len(err) < 200


def test_eval_of_a_term_count_past_int64_is_an_error(capsys):
    # the classical family sums its n + 1 atoms at any x, but terms_used
    # would wrap to -2^63
    assert run_cli(["eval", "--family", "classical", "--n", "3", "--grid", "1e300:1e300:1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: the term count at x = 1e+300 does not fit in a " \
                                "64-bit integer\n"


def test_eval_past_the_float_range_names_the_order(capsys):
    assert run_cli(["eval", "--family", "complex", "--z", "120", "--grid", "200:300:50"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the series of order (120+0j) leaves the float range"), err
    # the alternating series of the classical family overflowed here; the
    # recurrence forms no term past 1
    exact = [0.04391847675677294, 0.1058992011828227, 0.04391847675677294]
    for row, want in zip(_classical_rows(capsys, 170, "80:90:5"), exact, strict=True):
        assert abs(row[1] - want) <= 0.5 * 170 * 2.0 ** -52 * want, row
    # Gamma(150) = 3.8e260 and its series near the origin stay in range
    assert run_cli(["eval", "--family", "fractional", "--alpha", "150",
                    "--grid", "0:3:0.5"]) == 0


def test_eval_unwritable_path():
    assert run_cli(["eval", "--family", "classical", "--n", "3",
                    "--grid", "0:3:1", "-o", "/nonexistent-dir/x.csv"]) == 3


# -- transform -------------------------------------------------------------------

def test_transform_complex(tmp_path):
    out = tmp_path / "tr.csv"
    assert run_cli(["transform", "--family", "complex", "--z", "2.5",
                    "--grid=-3:3:0.5", "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["omega", "value_re", "value_im"]
    mid = [r for r in rows if float(r[0]) == 0.0][0]
    assert float(mid[1]) == 1.0 and float(mid[2]) == 0.0


def test_transform_classical_n1(tmp_path):
    out = tmp_path / "t1.csv"
    assert run_cli(["transform", "--family", "classical", "--n", "1",
                    "--grid", "0:3:1.5", "-o", str(out)]) == 0


def test_transform_json_records(tmp_path):
    out = tmp_path / "tr.json"
    assert run_cli(["transform", "--family", "exponential", "--a", "1,2",
                    "--grid=-2:2:1", "--format", "json", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc) == 5
    assert set(doc[0]) == {"omega", "value"}


# -- fracop ----------------------------------------------------------------------

def write_signal(path, fn, stop=2.0, h=1e-3):
    n = int(round(stop / h)) + 1
    with open(path, "w") as fh:
        fh.write("x,value\n")
        for i in range(n):
            x = i * h
            fh.write(f"{x:.16e},{fn(x):.16e}\n")


def test_fracop_half_derivative_power_rule(tmp_path):
    src = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    write_signal(src, lambda x: x)
    assert run_cli(["fracop", "--op", "derivative", "--z", "0.5",
                    "--input", str(src), "-o", str(out)]) == 0
    _, rows = read_csv(out)
    for r in rows:
        x, v, ok = float(r[0]), float(r[1]), r[3] == "1"
        if ok and 0.1 <= x <= 1.9:
            ref = 2 / math.sqrt(math.pi) * math.sqrt(x)
            assert abs(v - ref) / ref < 1e-3


def test_fracop_integral_of_ones(tmp_path):
    src = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    write_signal(src, lambda x: 1.0, stop=1.0, h=0.01)
    assert run_cli(["fracop", "--op", "integral", "--z", "1",
                    "--input", str(src), "-o", str(out)]) == 0
    _, rows = read_csv(out)
    for r in rows:
        assert abs(float(r[1]) - float(r[0])) < 1e-10


def test_fracop_integral_at_a_step_whose_power_overflows(tmp_path, capsys):
    # 1000^150 overflows, 1000^150 / Gamma(152) fits: a table, not a
    # traceback.  At x = 1000 the rule is exact: 1000^150 / 150! = 1.7502762e187
    src = tmp_path / "in.csv"
    src.write_text("x,value\n0,1\n1000,1\n2000,1\n")
    assert run_cli(["fracop", "--op", "integral", "--z", "150", "--input", str(src)]) == 0
    values = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert values[0] == 0.0 and abs(values[1] / 1.7502762e187 - 1) < 1e-7


def test_fracop_derivative_matches_gradient(tmp_path):
    src = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    write_signal(src, lambda x: math.sin(x), stop=3.0, h=1e-3)
    assert run_cli(["fracop", "--op", "derivative", "--z", "1",
                    "--input", str(src), "-o", str(out)]) == 0
    _, rows = read_csv(out)
    data = np.array([[float(r[0]), float(r[1])] for r in rows if r[3] == "1"])
    assert np.max(np.abs(data[:, 1] - np.cos(data[:, 0]))) < 1e-5


def test_fracop_orders_with_a_whole_real_part(tmp_path):
    # D^{1+0.2i} and (D + a)^{2-0.5i} used to take an integral of order
    # -0.2i or 0.5i and exit 1; both now follow the power rule on x^2
    src = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    for op, z, a in (("derivative", 1 + 0.2j, 0.0), ("shifted-derivative", 2 - 0.5j, 0.5)):
        write_signal(src, lambda x: math.exp(-a * x) * x * x)
        argv = ["fracop", "--op", op, f"--z={z.real:g},{z.imag:g}",
                "--input", str(src), "-o", str(out)]
        assert run_cli(argv + ([f"--a={a:g}"] if a else [])) == 0, op
        _, rows = read_csv(out)
        data = np.array([[float(c) for c in r] for r in rows])
        x, value = data[:, 0], data[:, 1] + 1j * data[:, 2]
        m = (data[:, 3] == 1) & (x >= 0.1) & (x <= 1.9)
        ref = (np.exp(-a * x[m]) * math.gamma(3.0)
               / complex(mpmath.gamma(3.0 - z)) * np.exp((2.0 - z) * np.log(x[m])))
        assert np.max(np.abs(value[m] - ref)) / np.max(np.abs(ref)) < 1e-4, op


def test_fracop_orders_it_cannot_difference_are_errors(tmp_path, capsys):
    # an error line, not an OverflowError or ZeroDivisionError traceback
    src = tmp_path / "in.csv"
    write_signal(src, lambda x: x * x, h=0.01)
    for op, z, message in (
            (["--op", "derivative"], "inf", "fractional derivative needs a finite z"),
            (["--op", "derivative"], "0.5,inf", "fractional derivative needs a finite z"),
            (["--op", "integral"], "inf", "fractional integral needs a finite z"),
            (["--op", "derivative"], "150", "order-150 differencing at step h = 0.01"),
            (["--op", "shifted-derivative", "--a", "0.7"], "150",
             "order-150 differencing at step h = 0.01")):
        assert run_cli(["fracop", *op, "--z", z, "--input", str(src), "-o", "-"]) == 1, z
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}"), (z, err)


def test_fracop_derivative_that_leaves_no_valid_cell_is_an_error(tmp_path, capsys):
    # n passes flag n cells at each end: 2n samples or fewer is an error
    # line, not a table whose every row reads valid 0
    src = tmp_path / "in.csv"
    for stop, z, n, count in ((0.01, "0.5", 1, 2), (0.03, "2", 2, 4), (2.0, "101", 101, 201)):
        write_signal(src, lambda x: x * x, stop=stop, h=0.01)
        for op in (["--op", "derivative"], ["--op", "shifted-derivative", "--a", "0.7"]):
            assert run_cli(["fracop", *op, "--z", z, "--input", str(src), "-o", "-"]) == 1, z
            out, err = capsys.readouterr()
            assert out == "", z
            assert err.startswith(f"error: order-{n} differencing flags the {n} outermost"), err
            assert f"of the {count} samples" in err, err


def test_fracop_nonuniform_grid_rejected(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("x,value\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
    assert run_cli(["fracop", "--op", "integral", "--z", "1",
                    "--input", str(src), "-o", "-"]) == 1
    src.write_text("x,value\n0.0,1.0\n0.1,oops\n0.2,1.0\n")
    assert run_cli(["fracop", "--op", "integral", "--z", "1",
                    "--input", str(src), "-o", "-"]) == 1
    assert "line 3" in capsys.readouterr().err
    # line numbers count from the file's first line, blank lines included
    src.write_text("\n\nx,value\n0.0,1.0\n0.1,oops\n0.2,1.0\n")
    assert run_cli(["fracop", "--op", "integral", "--z", "1",
                    "--input", str(src), "-o", "-"]) == 1
    assert "line 5" in capsys.readouterr().err
    # a NaN x once passed the uniformity check, NaN comparisons being false
    src.write_text("x,value\n0,1\n0.1,2\nnan,3\n0.3,4\n0.4,5")
    assert run_cli(["fracop", "--op", "integral", "--z", "1",
                    "--input", str(src), "-o", "-"]) == 1
    assert "line 4" in capsys.readouterr().err
    # blank lines before a NaN row count too, and a NaN row is reported
    # ahead of a malformed line after it
    for text, line in (("x,value\n0,1\n\n\n0.1,2\nnan,3\n0.3,4\n", "line 6:"),
                       ("x,value\n0,1\n0.1,nan\n0.2\n0.3,oops\n", "line 3:")):
        src.write_text(text)
        assert run_cli(["fracop", "--op", "integral", "--z", "1",
                        "--input", str(src), "-o", "-"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {line} samples must be finite"), (text, err)


def test_fracop_grid_rule_is_relative_to_the_step(tmp_path, capsys):
    # a step may miss h by 1e-8 h plus 4 eps max|x|: one step of 2h in
    # steps of h is rejected at h = 1e-9 as at h = 1e-3
    src = tmp_path / "grid.csv"
    for h in (1e-9, 1e-3):
        xs = h * np.array([0.0, 1.0, 3.0, 4.0, 5.0, 6.0])
        src.write_text("x,value\n" + "".join(f"{x!r},1\n" for x in xs.tolist()))
        assert run_cli(["fracop", "--op", "integral", "--z", "1",
                        "--input", str(src), "-o", "-"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input grid must be uniform"), (h, err)
    # grids written as "%.16e" miss h by up to about eps max|x|: linspace
    # and step * arange, at h = 1e-3 near x = 1e6 and at h = 1e-12
    grids = [np.linspace(0.0, 2.0, 201), 1e6 + 1e-3 * np.arange(4001),
             np.linspace(1e6, 1e6 + 4.0, 4001), 1e-12 * np.arange(2001),
             np.linspace(0.0, 4.0, 400000)]
    for xs in grids:
        np.savetxt(src, np.c_[xs, np.ones_like(xs)], fmt="%.16e", delimiter=",",
                   header="x,value", comments="")
        assert isinstance(read_signal(src), tuple), (xs[0], xs[1] - xs[0])


def line_by_line_signal(text):
    """(start, step, values) as the reader before np.loadtxt parsed text,
    one line at a time with float, or None where it raised."""
    from fracspline.textio import _is_number

    xs, vals = [], []
    for line_no, line in enumerate(text.strip().splitlines()):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if line_no == 0 and not _is_number(cells[0]):
            continue
        if len(cells) < 2:
            return None
        try:
            xs.append(float(cells[0]))
            vals.append(float(cells[1]))
        except ValueError:
            return None
    if len(xs) < 2:
        return None
    steps = np.diff(xs)
    h = float(steps[0])
    fuzz = 1e-8 * h + 4.0 * sys.float_info.epsilon * max(abs(xs[0]), abs(xs[-1]))
    if h <= 0 or np.max(np.abs(steps - h)) > fuzz:
        return None
    return xs[0], h, np.asarray(vals)


SPELLINGS = (" 2.5 ", "+.5", "1_000", "inf", "-inf", "nan", "1e", "0x1p3", "#1",
             "\u0663", "\u0661\u0662.\u0665", "", "1,2")


def reference_skip_count(lines) -> int:
    """The number of lines before the first row: leading blank lines and a
    header, a first non-blank line whose first field float does not read.
    lines needs to run through the first non-blank line only."""
    from fracspline.textio import _is_number

    first = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    return first + (first < len(lines) and not _is_number(lines[first].split(",")[0]))


def reference_signal_lines(lines, skip: int):
    """(x, value) rows of the lines after the first skip, parsed one line
    at a time by float; the first bad line in the file, malformed or with
    a sample that is not finite, raises SignalFormatError with its line
    number.  Finiteness is checked once over the rows parsed, and the file
    line of a row is looked up only when that check fails."""
    from fracspline.errors import SignalFormatError

    xs, vs, error = [], [], None
    for line_no, line in enumerate(lines[skip:], start=skip + 1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) < 2:
            error = SignalFormatError(f"line {line_no}: need columns x,value")
            break
        try:
            x, v = float(cells[0]), float(cells[1])
        except ValueError as exc:
            error = SignalFormatError(f"line {line_no}: {exc}")
            break
        xs.append(x)
        vs.append(v)
    data = np.column_stack([xs, vs])
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        # the non-blank lines after skip are the rows, in order
        line_no = [n for n, line in enumerate(lines[skip:], start=skip + 1) if line.strip()][bad[0]]
        raise SignalFormatError(f"line {line_no}: samples must be finite, "
                                f"got {lines[line_no - 1].strip()!r}")
    if error is not None:
        raise error
    return data


def reference_signal(data: bytes):
    """(start, step, value bytes) of the CSV bytes data as the line-by-line
    reader gave them, from the lines a text-mode open reads, or the message
    of the SignalFormatError it raised."""
    from fracspline.errors import SignalFormatError
    from fracspline.fracops import SampledSignal

    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig") as text:
        lines = text.readlines()
    try:
        rows = reference_signal_lines(lines, reference_skip_count(lines))
        if len(rows) < 2:
            raise SignalFormatError("input signal needs at least two samples")
        steps = np.diff(rows[:, 0])
        h = float(steps[0])
        fuzz = 1e-8 * h + 4.0 * sys.float_info.epsilon * max(abs(rows[0, 0]), abs(rows[-1, 0]))
        if h <= 0 or np.max(np.abs(steps - h)) > fuzz:
            raise SignalFormatError("input grid must be uniform and increasing")
        sig = SampledSignal(float(rows[0, 0]), h, rows[:, 1])
    except SignalFormatError as exc:
        return str(exc)
    return sig.start, sig.step, sig.values.tobytes()


def read_signal(path):
    """What textio.read_signal gives, in the form of reference_signal."""
    from fracspline import textio
    from fracspline.errors import SignalFormatError

    try:
        sig = textio.read_signal(str(path))
    except SignalFormatError as exc:
        return str(exc)
    return sig.start, sig.step, sig.values.tobytes()


def test_signal_reader_matches_the_line_by_line_parse(tmp_path):
    from fracspline.textio import read_signal
    from fracspline.errors import SignalFormatError

    texts = [f"x,value\n0,1\n0.5,{cell}\n1,3\n" for cell in SPELLINGS]
    texts += [f"x,value\n0,1\n{cell},2\n1,3\n"
              for cell in (" 0.5 ", "+.5", "5_0e-2", "\u0660.\u0665", "0x1p-1", "#0.5")]
    texts += ["x,value,note\n0,1,a\n0.5,2,b,c\n1,3,\n",          # extra columns
              "\n\nx,value\n0,1\n\n0.5,2\n   \n1,3\n\n",         # blank lines
              "x,value\r\n0,1\r\n0.5,2\r\n1,3\r\n",
              "0,1\n0.5,2\n1,3\n",                                # no header
              "x,value\n0,1\n0.5\n1,3\n",
              "x,value\n0,1\n", "x,value\n", "", "x;value\n0;1\n0.5;2\n"]
    src = tmp_path / "in.csv"
    dropped = 0
    for text in texts:
        src.write_text(text, encoding="utf-8")
        want = line_by_line_signal(text)
        if want is not None and not np.isfinite(want[2]).all():
            want, dropped = None, dropped + 1  # non-finite samples are rejected now
        try:
            sig = read_signal(str(src))
            got = sig.start, sig.step, np.asarray(sig.values)
        except SignalFormatError:
            got = None
        if want is None:
            assert got is None, text
        else:
            assert got is not None and got[:2] == want[:2], text
            assert got[2].tobytes() == want[2].tobytes(), text
    assert dropped == 3


def test_signal_reader_round_trips_17_digit_values(tmp_path):
    from fracspline.textio import read_signal

    values = np.random.default_rng(3).integers(0, 2 ** 64, 40_000, dtype=np.uint64)
    values = values.view(np.float64)
    values = values[np.isfinite(values)]
    src = tmp_path / "in.csv"
    src.write_text("x,value\n" + "".join(f"{0.25 * i:.16e},{v:.16e}\n"
                                         for i, v in enumerate(values.tolist())))
    sig = read_signal(str(src))
    assert (sig.start, sig.step) == (0.0, 0.25)
    assert np.asarray(sig.values).tobytes() == values.tobytes()


def float_field_classes(rng, count):
    """Fields of the writer's shape, [-]d.<16 digits>e+-dd[d], by class."""
    def sign():
        return rng.choice(["", "-"], count).tolist()

    def doubles(v):
        return ["%.16e" % x for x in v.tolist()]

    digits = rng.integers(10 ** 16, 10 ** 17, count).astype(str).tolist()
    bits = rng.integers(0, 2 ** 64, 4 * count, dtype=np.uint64).view(np.float64)
    normal = bits[np.isfinite(bits) & (np.abs(bits) >= 2.0 ** -1022)][:count]
    powers = 2.0 ** np.arange(-1074, 1024, 3)
    powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    powers = powers[np.isfinite(powers)]
    odd = (rng.integers(2 ** 52, 2 ** 55, count) * 2 + 1).astype(str).tolist()
    big = rng.uniform(1, 10, count) * 10.0 ** rng.integers(100, 308, count)
    small = rng.uniform(1, 10, count) * 10.0 ** -rng.integers(100, 308, count)
    near300 = np.concatenate([c * (1 + rng.uniform(-1e-3, 1e-3, count // 4))
                              for c in (1e300, 1e-300, 1e280, 1e-280)])
    subnormal = rng.integers(1, 2 ** 52, count // 4, dtype=np.uint64).view(np.float64)
    return {
        # 17 digits that no double prints as, at random exponents
        "decimals": [f"{s}{d[0]}.{d[1:]}e{e:+03d}" for s, d, e in
                     zip(sign(), digits, rng.integers(-330, 330, count).tolist())],
        "normal doubles": doubles(normal),
        "powers of two and their neighbours": doubles(np.concatenate([powers, -powers])),
        # each odd integer in [2^53, 2^54) is a tie between two doubles, and above
        # 2^54 lies within a few units of one
        "odd integers in [2^53, 2^56)": [f"{s}{n[0]}.{n[1:].ljust(16, '0')}e+{len(n) - 1:02d}"
                                         for s, n in zip(sign(), odd)],
        "3-digit exponents": doubles(np.concatenate([big, -small])),
        "zeros, subnormals and near 1e+-300": ["0.0000000000000000e+00", "-0.0000000000000000e+00"]
        + doubles(np.concatenate([subnormal, -near300])),
    }


def test_float_fields_match_float_bit_for_bit(monkeypatch):
    from fracspline.textio import _FIELD_PAD, _float_fields

    calls = []

    def counted_float(text):
        calls.append(text)
        return float(text)

    # the module that reads the fields, so the count cannot miss its calls
    monkeypatch.setattr(sys.modules[_float_fields.__module__], "float", counted_float,
                        raising=False)
    # the least share of each class the double-double product certifies
    floors = {"decimals": 0.7, "normal doubles": 0.8, "powers of two and their neighbours": 0.5,
              "odd integers in [2^53, 2^56)": 0.8, "3-digit exponents": 0.7,
              "zeros, subnormals and near 1e+-300": 0.0}
    for name, fields in float_field_classes(np.random.default_rng(17), 4000).items():
        data = [f.encode("ascii") for f in fields]
        assert all(FLOAT17.fullmatch(f) for f in fields), name
        buf = bytearray(b",".join(data) + bytes(_FIELD_PAD))
        stops = np.cumsum([len(d) + 1 for d in data]) - 1
        calls.clear()
        got = _float_fields(buf, stops - [len(d) for d in data], stops)
        want = np.array([float(f) for f in fields])
        wrong = [f for f, g, w in zip(fields, got.tolist(), want.tolist())
                 if struct.pack("<d", g) != struct.pack("<d", w)]
        assert not wrong, (name, wrong[:5])
        assert 1 - len(calls) / len(fields) >= floors[name], (name, len(calls))
        if not floors[name]:
            assert calls, name  # the zeros go to float


def test_float_fields_read_other_spellings_as_float():
    from fracspline.textio import _FIELD_PAD, _float_fields

    v = np.random.default_rng(9).standard_normal(500) * 10.0 ** np.arange(-250, 250)
    fields = ["0.5", " 2.5 ", "1_000", "0.1\r", "-0", "7"]
    fields += [repr(x) for x in v.tolist()] + ["%.18e" % x for x in v.tolist()]
    fields += ["%.6f" % x for x in v.tolist()] + ["%.16e" % x for x in v.tolist()]
    data = [f.encode("ascii") for f in fields]
    stops = np.cumsum([len(d) + 1 for d in data]) - 1
    starts = stops - [len(d) for d in data]
    got = _float_fields(bytearray(b",".join(data) + bytes(_FIELD_PAD)), starts, stops)
    assert got.tobytes() == np.array([float(f) for f in fields]).tobytes()
    for bad in (["1.5", "2\x005"], ["1e", "2"], ["", "2"]):
        data = [f.encode("ascii") for f in bad]
        stops = np.cumsum([len(d) + 1 for d in data]) - 1
        with pytest.raises(ValueError):
            _float_fields(bytearray(b",".join(data) + bytes(_FIELD_PAD)),
                          stops - [len(d) for d in data], stops)


def test_signal_reader_layouts(tmp_path, monkeypatch):
    from fracspline.textio import read_signal

    calls = []

    def counted_float(value):
        if isinstance(value, (str, bytes)):  # text, not a number converted
            calls.append(value)
        return float(value)

    monkeypatch.setattr(sys.modules[read_signal.__module__], "float", counted_float,
                        raising=False)
    rng = np.random.default_rng(5)
    values = (rng.standard_normal(300) * 10.0 ** rng.integers(-120, 120, 300)).tolist()
    xs = [0.5 * i for i in range(300)]
    rows = [f"{x:.16e},{v:.16e}" for x, v in zip(xs, values)]
    # the writer's fields _float_fields leaves to float: zero and the powers of two
    uncertified = {f"{x:.16e}".encode() for x in xs if x == 0 or math.frexp(x)[0] == 0.5}
    spelled = rows[:]
    spelled[1:6] = ["0.5, 2.5 ", "1.0,1_000", "1.5,+.5", "2,7", "2.5e0,-0.0"]
    ragged, blank = rows[:], rows[:]
    ragged[7] += ",note"
    blank[7] += "\n"
    layouts = {
        "header": "x,value\n" + "\n".join(rows) + "\n",
        "no header": "\n".join(rows) + "\n",
        "leading blank lines": "\n \n\t\nx,value\n" + "\n".join(rows) + "\n",
        "CRLF": "x,value\r\n" + "\r\n".join(rows) + "\r\n",
        "no final newline": "x,value\n" + "\n".join(rows),
        "trailing blank line": "x,value\n" + "\n".join(rows) + "\n\n",
        "trailing blank CRLF lines": "x,value\r\n" + "\r\n".join(rows) + "\r\n \r\n\t\r\n",
        "constant third column": "x,value,note\n" + "\n".join(r + ",n" for r in rows) + "\n",
        "ragged row": "x,value\n" + "\n".join(ragged) + "\n",
        "blank line mid-file": "x,value\n" + "\n".join(blank) + "\n",
        "CR alone": "x,value\r" + "\r".join(rows) + "\r",
        "CR alone and CRLF": "x,value\r\n" + "\r".join(rows[:150]) + "\r\r\n"
                             + "\r\n".join(rows[150:]) + "\r\n",
        "other spellings": "x,value\n" + "\n".join(spelled) + "\n",
    }
    src = tmp_path / "in.csv"
    for name, text in layouts.items():
        src.write_bytes(text.encode("ascii"))
        want = line_by_line_signal(text)
        calls.clear()
        sig = read_signal(str(src))
        assert (sig.start, sig.step) == want[:2], name
        assert np.asarray(sig.values).tobytes() == want[2].tobytes(), name
        # float reads text once, the first line's first field, to test for a
        # header; no line is read one at a time, and _float_fields hands it
        # the bytes of the fields it does not certify
        assert isinstance(calls[0], str), name
        assert all(isinstance(c, bytes) for c in calls[1:]), name
        if name == "other spellings":
            assert {b" 2.5 ", b"1_000", b"+.5", b"7"} <= set(calls), name
        else:
            assert set(calls[1:]) <= uncertified, (name, calls[1:])


SIGNAL_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.16e" % v),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: "%.6f" % v))
ODD_VALUES = st.sampled_from(SPELLINGS + ("\uff11", " -0 ", "1\x1c"))
# spellings of x = x0 + i/4, exact in each, and two that are bad
SIGNAL_X = st.sampled_from(["%.16e"] * 8 + ["%r", "%.2f", " %r ", "+%r", "%.18e", "oops", "nan"])
# blank lines: text that strips to nothing
BLANK_TEXT = st.sampled_from(["", " ", "\t", " \t ", "\x0c", "\x1c", "\u3000", "\x85"])


@st.composite
def signal_files(draw):
    """CSV bytes in the layouts a reader meets: LF, CRLF, lone CR or mixed
    line ends; blank lines anywhere; a header or none; ragged rows; other
    spellings, bad fields and samples that are not finite."""
    end = draw(st.sampled_from(["\n", "\r\n", "\r", None]))  # None: each line its own
    lines = draw(st.lists(BLANK_TEXT, max_size=2))
    header = draw(st.sampled_from([None, "x,value", "x", "\ufeffx,value", "t;v", "0.5"]))
    lines += [] if header is None else [header]
    x0, i = draw(st.sampled_from([0.0, 1.5])), 0
    kinds = st.sampled_from(["row"] * 24 + ["blank"] * 4 + ["no comma"])
    for kind in draw(st.lists(kinds, max_size=12)):
        if kind == "blank":
            lines.append(draw(BLANK_TEXT))
        elif kind == "no comma":
            lines.append(draw(st.sampled_from(["0.5", "oops", " 1 "])))
        else:
            fmt = draw(SIGNAL_X)
            x = fmt % (x0 + 0.25 * i) if "%" in fmt else fmt
            extra = draw(st.sampled_from(["", "", ",note", ",", ",1,2"]))
            value = draw(ODD_VALUES if draw(st.integers(0, 7)) == 0 else SIGNAL_VALUES)
            lines.append(f"{x},{value}{extra}")
            i += 1
    ends = [end or draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""  # no final line end
    return "".join(map(str.__add__, lines, ends)).encode("utf-8")


@settings(max_examples=400, deadline=None)
@given(data=signal_files(), piece=st.sampled_from([1, 7, 64, 3 << 18]))
def test_signal_reader_property_matches_the_line_by_line_reference(tmp_path_factory, data, piece):
    # the same values bit for bit, or the same error message, line number
    # included, at any piece size
    import fracspline.textio

    src = tmp_path_factory.getbasetemp() / "signal-property.csv"
    src.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fracspline.textio, "_READ_PIECE", piece)
        got = read_signal(src)
    assert got == reference_signal(data), data


def test_fracop_input_that_is_not_utf8_names_the_line(tmp_path, capsys):
    from fracspline.textio import read_signal

    src = tmp_path / "in.csv"
    for data, line in ((b"x,value\n0,1\n0.5,\xe9\n1,3\n", 3),
                       (b"x,value\r0,1\r\n\r0.5,2\r1,\xff3\r", 5),
                       (b"x,\xc3\xa9\n0,1\n0.5,\xe2\x82\n", 3)):
        src.write_bytes(data)
        assert run_cli(["fracop", "--op", "integral", "--z", "0.5", "--input", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: not UTF-8 text"), (data, err)
    # UTF-8 text that is not ASCII: a header, a BOM and digits float reads from text
    src.write_bytes("\ufeffx,\u00e9\n0,1\n0.5,\u0663\n1,\uff15\n".encode("utf-8"))
    sig = read_signal(str(src))
    assert (sig.start, sig.step, sig.values.tolist()) == (0.0, 0.5, [1.0, 3.0, 5.0])


def test_signal_reader_skips_a_leading_byte_order_mark(tmp_path):
    # with the mark read as text, float could not read the first row's x,
    # and a headerless file would lose that row as a header
    from fracspline.textio import read_signal

    src = tmp_path / "in.csv"
    for text in (b"0.0,1.0\n0.5,2.0\n1.0,3.0\n", b"x,value\n0.0,1.0\n0.5,2.0\n1.0,3.0\n"):
        src.write_bytes(b"\xef\xbb\xbf" + text)
        sig = read_signal(str(src))
        assert (sig.start, sig.step, sig.values.tolist()) == (0.0, 0.5, [1.0, 2.0, 3.0]), text


def test_fracop_reads_its_input_from_a_pipe(tmp_path):
    # the size of a pipe is not known before it is read
    if not os.path.exists("/dev/stdin"):
        pytest.skip("no /dev/stdin")
    src, from_file, from_pipe = tmp_path / "in.csv", tmp_path / "a.csv", tmp_path / "b.csv"
    write_signal(src, lambda x: x * x, stop=20.0)
    argv = ["fracop", "--op", "derivative", "--z", "0.5", "--input"]
    assert run_cli(argv + [str(src), "-o", str(from_file)]) == 0
    proc = subprocess.run([sys.executable, "-m", "fracspline.cli", *argv, "/dev/stdin",
                           "-o", str(from_pipe)], input=src.read_bytes(), capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert from_pipe.read_bytes() == from_file.read_bytes()
    # and in this process, from a pipe that a thread fills past its buffer
    read_end, write_end = os.pipe()
    data = src.read_bytes()  # past a pipe's buffer, so the read waits on the writer

    def write():
        with open(write_end, "wb") as fh:  # closing it ends the reader's file
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        assert run_cli(argv + [f"/dev/fd/{read_end}", "-o", str(from_pipe)]) == 0
    finally:
        os.close(read_end)  # a writer still blocked on a full pipe then fails, not hangs
        writer.join()
    assert from_pipe.read_bytes() == from_file.read_bytes()


def test_fracop_overflow_names_the_order_given(tmp_path, capsys):
    # frac_integral divides by Gamma(z + 2); the message names z itself
    src = tmp_path / "in.csv"
    write_signal(src, lambda x: x * x)
    assert run_cli(["fracop", "--op", "integral", "--z", "200", "--input", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fractional integral of order z = (200+0j) overflows"), err
    assert "202" not in err


def test_fracop_missing_input_file(tmp_path):
    assert run_cli(["fracop", "--op", "integral", "--z", "1",
                    "--input", str(tmp_path / "nope.csv"), "-o", "-"]) == 3


def test_stdout_redirected_to_a_text_stream_gets_the_file_bytes(tmp_path):
    # contextlib.redirect_stdout puts a StringIO, which has no buffer, in sys.stdout
    out = tmp_path / "out"
    for argv in (["eval", "--family", "complex", "--z", "2.5,1", "--grid", "0:2:0.25"],
                 ["transform", "--family", "fractional", "--alpha", "2.5",
                  "--grid=-1:1:0.5", "--format", "json"],
                 ["verify", "--family", "classical", "--n", "3"]):
        assert run_cli(argv + ["-o", str(out)]) == 0
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert run_cli(argv + ["-o", "-"]) == 0
        assert text.getvalue().encode("ascii") == out.read_bytes(), argv


# -- verify ----------------------------------------------------------------------

def test_verify_classical(tmp_path):
    out = tmp_path / "rep.json"
    code = run_cli(["verify", "--family", "classical", "--n", "4",
                    "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["max_residual"] <= 1e-12
    assert doc["passed"] is True
    assert doc["tolerance"] == doc["tail_bound"]  # the report's certificate, without --tol


def test_verify_passes_by_the_reports_tail_bound(tmp_path, monkeypatch):
    # without the rounding allowance the classical certificate is 0, which
    # the residual of 5e-15 exceeds; a fixed default of 1e-12 passed it
    import fracspline.fracops

    monkeypatch.setattr(fracspline.fracops, "_float_fuzz", lambda *scales: 0.0)
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--family", "classical", "--n", "3", "-o", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert (doc["tolerance"], doc["tail_bound"], doc["passed"]) == (0, 0, False)
    assert doc["max_residual"] > 0


def test_verify_complex_reference(tmp_path):
    out = tmp_path / "rep.json"
    code = run_cli(["verify", "--family", "complex", "--z", "2.5,0",
                    "--K", "200", "--tol", "1e-3", "-o", str(out)])
    assert code == 0


def test_verify_hypercomplex_default_grid(tmp_path):
    out = tmp_path / "rep.json"
    code = run_cli(["verify", "--family", "hypercomplex",
                    "--upsilon", "2.5,1,1", "--K", "200", "--tol", "5e-3",
                    "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["excluded_omegas"] == [0.0]  # w = 0, the zero of iw


def test_verify_failure_exit_code(tmp_path):
    out = tmp_path / "rep.json"
    code = run_cli(["verify", "--family", "complex", "--z", "2.5,1",
                    "--K", "50", "--tol", "1e-12", "-o", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())  # report written regardless
    assert doc["passed"] is False


def test_verify_tolerance_must_be_finite_and_not_negative(tmp_path, capsys):
    # a NaN tolerance once wrote "tolerance": nan, which is not JSON, and an
    # infinite one passed any residual
    out, cfg = tmp_path / "rep.json", tmp_path / "tol.json"
    argv = ["verify", "--family", "complex", "--z", "2.5", "--grid", "0.1:1:0.1", "--K", "20",
            "-o", str(out)]
    for tol in ("nan", "inf", "-inf", "-1e-3"):
        assert run_cli(argv + [f"--tol={tol}"]) == 1, tol
        assert capsys.readouterr().err.startswith("error: --tol must be finite and >= 0"), tol
        cfg.write_text('{"tol": %s}' % {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(tol, tol))
        assert run_cli(argv + ["--config", str(cfg)]) == 1, tol
        assert capsys.readouterr().err.startswith("error: --tol must be finite and >= 0"), tol
    assert not out.exists()
    assert run_cli(argv + ["--tol", "0"]) == 2  # zero is a tolerance no residual meets


def test_verify_empty_admissible_set(tmp_path, capsys):
    code = run_cli(["verify", "--family", "complex", "--z", "2.5,0",
                    "--grid", "0:0:1", "-o", str(tmp_path / "rep.json")])
    assert code == 2
    assert capsys.readouterr().err == ("verification error: no admissible frequencies on this "
                                       "grid: all 1 are zeros of a base\n")


def test_verify_overflow_is_an_error(tmp_path, capsys):
    # the binomials of n = 1100 overflow a float, (iw)^z Omega^z at
    # z = 1100, and e^800 for the weight 800: each used to write inf or NaN
    # into the report, or to end in an OverflowError traceback; numpy's
    # RuntimeWarnings about the overflow used to be printed ahead of the
    # error line.  At z = 2+700i the binomials overflow from k = 506, and at
    # K = 504 the tail bound overflows while the atoms and (iw)^z Omega^z on
    # this grid stay finite; a tail_bound of inf used to be written into
    # the report
    for order in (["--family", "classical", "--n", "1100"],
                  ["--family", "complex", "--z", "1100"],
                  ["--family", "exponential", "--a", "800"],
                  ["--family", "complex", "--z", "2,700", "--K", "504", "--grid", "0.01:0.5:0.01"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["verify", *order]) == 1, order
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], order
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), order
    # the eval path centres the weights first and stays finite
    out = tmp_path / "e800.csv"
    assert run_cli(["eval", "--family", "exponential", "--a", "800",
                    "--grid", "0:1:0.5", "-o", str(out)]) == 0


@pytest.mark.parametrize("order", [["--family", "classical", "--n", "300"],
                                   ["--family", "classical", "--n", "600"],
                                   ["--family", "classical", "--n", "1023"],
                                   ["--family", "exponential", "--a", "360"],
                                   ["--family", "complex", "--z", "800", "--K", "900"]])
def test_verify_whose_identity_fits_a_float_passes(tmp_path, order):
    # every value of these identities fits a float: the classical left side
    # is prod (iw) Omega(w) = (1 - e^{-iw})^n, one factor at a time, where
    # (iw)^300 used to overflow alone, and atoms of e^360 = 2.2e156 and
    # C(800, 400) = 1e239 used to overflow when the atom norm squared them
    # (at z = 800, K = 900 keeps every nonzero atom: the default K = 200
    # leaves a tail larger than the identity, which fails)
    out = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["verify", *order, "-o", str(out)]) == 0, order
    doc = json.loads(out.read_text())
    assert doc["passed"] and 0 < doc["max_residual"] <= doc["tail_bound"] < math.inf, doc


def test_verify_fails_a_tail_bound_as_large_as_its_identity(tmp_path):
    # at z = 800 the default K = 200 keeps 201 of the 801 nonzero atoms: the
    # residual 9.0e239 meets the tail bound 6.7e240, but that bound exceeds
    # the largest |lhs|, 9.0e239, so the certificate says nothing and the
    # report fails; an explicit --tol still decides by max_residual alone
    out = tmp_path / "rep.json"
    argv = ["verify", "--family", "complex", "--z", "800", "-o", str(out)]
    assert run_cli(argv) == 2
    doc = json.loads(out.read_text())
    assert doc["max_residual"] <= doc["tail_bound"] == doc["tolerance"] and not doc["passed"]
    assert run_cli(argv + ["--tol", repr(doc["tail_bound"])]) == 0


@pytest.mark.parametrize("order", [["--family", "complex", "--z", "40"],
                                   ["--family", "complex", "--z", "100"],
                                   ["--family", "fractional", "--alpha", "40"],
                                   ["--family", "fractional", "--alpha", "60"]])
def test_verify_bounds_the_rounding_of_high_order_atoms(tmp_path, monkeypatch, order):
    # the atom sum rounds by up to gamma_{2K} sum_k |c_k|, which the tail
    # bound now holds: at z = 40 the residual 0.0177 exceeded the old bound
    # 0.0141, made of 64 eps max |c_k|, and these correct identities failed.
    # One atom moved by 10 times the bound must still fail
    import fracspline.fracops

    out = tmp_path / "rep.json"
    assert run_cli(["verify", *order, "-o", str(out)]) == 0, order
    bound = json.loads(out.read_text())["tail_bound"]
    binoms = fracspline.fracops.binom_complex_sequence

    def moved(z, kmax):
        seq = binoms(z, kmax)
        seq[3] += 10.0 * bound
        return seq

    monkeypatch.setattr(fracspline.fracops, "binom_complex_sequence", moved)
    assert run_cli(["verify", *order, "-o", str(out)]) == 2, order
    doc = json.loads(out.read_text())
    assert doc["max_residual"] > 9.0 * doc["tail_bound"], doc


def test_verify_report_schema(tmp_path):
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--family", "complex-exponential",
                    "--a", "1", "--z", "2.5", "--K", "100",
                    "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"family", "order", "K", "grid", "max_residual",
                        "tail_bound", "excluded_omegas", "tolerance", "passed"}


# -- config file -----------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "family": "classical", "n": 3, "grid": "0:3:0.5",
    }))
    out1 = tmp_path / "a.csv"
    assert run_cli(["eval", "--config", str(conf), "-o", str(out1)]) == 0
    _, rows = read_csv(out1)
    assert len(rows) == 7

    # flags override the config
    out2 = tmp_path / "b.csv"
    assert run_cli(["eval", "--config", str(conf), "--grid", "0:3:1",
                    "-o", str(out2)]) == 0
    _, rows2 = read_csv(out2)
    assert len(rows2) == 4


def test_config_loses_to_short_and_abbreviated_flags(tmp_path, capsys, monkeypatch):
    # explicit flags used to be found by their "--name" in argv, so -o and an
    # abbreviation such as --form lost to the config file
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"output": "from_config.csv", "format": "json"}))
    base = ["eval", "--family", "classical", "--n", "2", "--grid", "0:1:0.5",
            "--config", str(conf)]
    assert run_cli(base + ["-o", "explicit.csv"]) == 0
    assert not (tmp_path / "from_config.csv").exists()
    assert (tmp_path / "explicit.csv").read_text().startswith("[")  # the config's format
    capsys.readouterr()
    assert run_cli(base + ["--form", "csv", "-o", "-"]) == 0
    assert capsys.readouterr().out.startswith("x,value,terms_used\n")
    assert run_cli(base + ["--outp=abbreviated.csv"]) == 0
    assert (tmp_path / "abbreviated.csv").read_text().startswith("[")
    assert not (tmp_path / "from_config.csv").exists()


def test_successive_calls_share_no_parser_state(tmp_path, capsys):
    # main reuses one parser; nothing from one call may reach the next
    base = ["eval", "--family", "classical", "--n", "2", "--grid", "0:1:0.5"]
    out = tmp_path / "out"
    assert run_cli(base + ["--format", "json", "-o", str(out)]) == 0
    assert out.read_text().lstrip().startswith("[")
    assert run_cli(base + ["-o", str(out)]) == 0
    assert out.read_text().startswith("x,value,terms_used\n")
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": "0:3:0.5", "format": "json"}))
    args = ["eval", "--family", "classical", "--n", "2", "-o", str(out)]
    assert run_cli(args + ["--config", str(conf)]) == 0
    assert out.read_text().lstrip().startswith("[")
    assert run_cli(args) == 1  # the config's grid is gone with its call
    assert capsys.readouterr().err == "error: eval needs --grid start:stop:step\n"
    assert run_cli(args + ["--grid", "0:1:0.5"]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 3


@pytest.mark.parametrize("text, code, message", [
    ("[1, 2]", 1, "error: config file must hold a JSON object\n"),
    ("{", 1, "error: config {path!r} is not valid JSON: "),
    (None, 3, "i/o error: cannot read config {path!r}: "),
])
def test_config_file_errors(text, code, message, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    if text is not None:
        conf.write_text(text)
    argv = ["eval", "--family", "classical", "--n", "2", "--grid", "0:1:0.5"]
    assert run_cli(argv + ["--config", str(conf)]) == code
    assert capsys.readouterr().err.startswith(message.format(path=str(conf)))


def test_config_list_value_reads_as_comma_separated(tmp_path):
    conf, a, b = tmp_path / "conf.json", tmp_path / "a.csv", tmp_path / "b.csv"
    conf.write_text(json.dumps({"z": [2.5, 1]}))
    argv = ["eval", "--family", "complex", "--grid", "0:3:0.5"]
    assert run_cli(argv + ["--config", str(conf), "-o", str(a)]) == 0
    assert run_cli(argv + ["--z", "2.5,1", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_number_for_a_string_option(tmp_path):
    conf, a, b = tmp_path / "conf.json", tmp_path / "a.csv", tmp_path / "b.csv"
    conf.write_text(json.dumps({"z": 2.5}))
    argv = ["eval", "--family", "complex", "--grid", "0:3:0.5"]
    assert run_cli(argv + ["--config", str(conf), "-o", str(a)]) == 0
    assert run_cli(argv + ["--z", "2.5", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"family": "classical", "wat": 1}))
    assert run_cli(["eval", "--config", str(conf), "--grid", "0:1:1"]) == 1
    conf.write_text(json.dumps({"family": "classical", "n": "x"}))
    assert run_cli(["eval", "--config", str(conf), "--grid", "0:1:1"]) == 1
    capsys.readouterr()
    # format and op take the choices of their flags: xml used to write CSV
    conf.write_text(json.dumps({"family": "classical", "n": 2, "format": "xml"}))
    assert run_cli(["eval", "--config", str(conf), "--grid", "0:1:1"]) == 1
    assert capsys.readouterr().err == "error: unknown format 'xml'\n"
    signal = tmp_path / "in.csv"
    write_signal(signal, lambda x: x)
    conf.write_text(json.dumps({"op": "nosuch", "z": "0.5", "input": str(signal)}))
    assert run_cli(["fracop", "--config", str(conf)]) == 1
    assert capsys.readouterr().err == "error: unknown op 'nosuch'\n"


def test_each_command_takes_only_the_flags_it_reads(tmp_path, capsys):
    # these flags used to be accepted and ignored with exit 0: fracop wrote
    # CSV under --format json and verify wrote JSON under --format csv
    signal = tmp_path / "in.csv"
    write_signal(signal, lambda x: x)
    out = str(tmp_path / "out")
    classical = ["--family", "classical", "--n", "3", "--grid", "0:1:0.5"]
    valid = {"eval": classical, "transform": classical, "verify": classical[:4],
             "fracop": ["--op", "integral", "--z", "0.5", "--input", str(signal)]}
    dropped = {"eval": {"--K": "3", "--tol": "1"},
               "transform": {"--K": "3", "--tol": "1"},
               "verify": {"--format": "csv"},
               "fracop": {"--family": "classical", "--n": "3", "--alpha": "2.5",
                          "--upsilon": "2.5,1", "--grid": "0:1:0.5", "--K": "3",
                          "--tol": "1", "--format": "json"}}
    for cmd, argv in valid.items():
        assert run_cli([cmd, *argv, "-o", out]) == 0, cmd
        capsys.readouterr()
        for flag, value in dropped[cmd].items():
            assert run_cli([cmd, *argv, flag, value, "-o", out]) == 1, (cmd, flag)
            assert capsys.readouterr().err.splitlines()[0].startswith("error:"), (cmd, flag)
    # a config key is taken only where its flag is
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"format": "json"}))
    assert run_cli(["fracop", *valid["fracop"], "--config", str(conf), "-o", out]) == 1
    assert capsys.readouterr().err == "error: unknown config key 'format'\n"


def test_K_and_a_are_taken_only_where_they_are_read(tmp_path, capsys):
    # verify --K with an exact atom sum reported "K": n and exited 0, and
    # fracop --a without the damped operator applied the undamped one
    signal, conf = tmp_path / "in.csv", tmp_path / "conf.json"
    write_signal(signal, lambda x: x)
    out = str(tmp_path / "out")
    cases = []
    for fam, order in (("classical", ["--n", "3"]), ("exponential", ["--a", "1,-0.5"])):
        cases.append((["verify", "--family", fam, *order], "K", "7",
                      f"the {fam} family's atom sum is exact: --K is taken by the "
                      "truncated families only"))
    for op in ("integral", "derivative"):
        cases.append((["fracop", "--op", op, "--z", "0.5", "--input", str(signal)], "a", "0.7",
                      f"--a is taken by --op shifted-derivative only, not by {op}"))
    for argv, key, value, message in cases:
        assert run_cli([*argv, "-o", out]) == 0, argv
        conf.write_text(json.dumps({key: value}))
        for extra in ([f"--{key}", value], ["--config", str(conf)]):
            capsys.readouterr()
            assert run_cli([*argv, *extra, "-o", out]) == 1, (argv, extra)
            assert capsys.readouterr().err == f"error: {message}\n", (argv, extra)


def test_config_rejects_non_integral_counts(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "conf.json"
    out = tmp_path / "out.csv"
    for n in (3.7, "3.7", True, None, [3]):
        conf.write_text(json.dumps({"family": "classical", "n": n, "grid": "0:1:0.5"}))
        assert run_cli(["eval", "--config", str(conf), "-o", str(out)]) == 1, n
        assert capsys.readouterr().err == f"error: config key 'n' needs an integer, got {n!r}\n"
    conf.write_text(json.dumps({"family": "complex", "z": "2.5", "K": 50.5}))
    assert run_cli(["verify", "--config", str(conf), "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: config key 'K' needs an integer, got 50.5\n"
    # a boolean is not a real value either: true would be a tolerance of 1
    for key, family, value in (("tol", "complex", True), ("tol", "complex", False),
                               ("alpha", "fractional", True), ("alpha", "fractional", "a")):
        conf.write_text(json.dumps({"family": family, "z": "2.5", key: value}))
        assert run_cli(["verify", "--config", str(conf), "-o", str(out)]) == 1, (key, value)
        err = capsys.readouterr().err
        assert err == f"error: config key {key!r} needs a number, got {value!r}\n", err
    # a text flag's key needs a string, a number or a list of them: null
    # once wrote a file named None, and true read as the order 'True'
    monkeypatch.chdir(tmp_path)
    for key, value in (("output", None), ("z", True), ("grid", {"a": 1}), ("z", [2.5, [1]])):
        conf.write_text(json.dumps({"family": "complex", "z": "2.5", "grid": "0:1:0.5",
                                    key: value}))
        assert run_cli(["eval", "--config", str(conf)]) == 1, (key, value)
        err = capsys.readouterr().err
        assert err == (f"error: config key {key!r} needs a number, a string or a list of "
                       f"them, got {value!r}\n"), err
    assert not (tmp_path / "None").exists()
    # integral values still count, whichever JSON type holds them
    expected = None
    for n in (3, 3.0, "3"):
        conf.write_text(json.dumps({"family": "classical", "n": n, "grid": "0:1:0.5"}))
        assert run_cli(["eval", "--config", str(conf), "-o", str(out)]) == 0, n
        expected = expected or out.read_bytes()
        assert out.read_bytes() == expected, n


# -- output writer -------------------------------------------------------------------

EVAL_ORDERS = {
    "classical": ["--n", "3"],
    "fractional": ["--alpha", "2.7"],
    "complex": ["--z", "2.5,-1"],
    "exponential": ["--a", "1,-0.5,-0.5"],
    "complex-exponential": ["--a", "0.7", "--z", "3.1,1.2"],
    "hypercomplex": ["--upsilon", "2.5,1,-1,0"],
}


def old_serialization(header, cell_rows, json_layout):
    """What the CLI wrote before the template writer: one "%.16e" per float
    cell, and JSON through the CSV text -> float -> _json_layout round trip."""
    from fracspline.textio import _json_layout

    def cell(key, text):
        return str(int(text)) if key in ("terms_used", "valid") else "%.16e" % float(text)

    lines = [",".join(header)] + [",".join(cell(k, c) for k, c in zip(header, row))
                                  for row in cell_rows]
    if json_layout == "eval":
        records = [{k: (int(c) if k == "terms_used" else float(c)) for k, c in zip(header, row)}
                   for row in cell_rows]
    else:
        records = [{"omega": float(row[0]),
                    "value": {k: float(c) for k, c in zip(header[1:], row[1:])}}
                   for row in cell_rows]
    return "\n".join(lines) + "\n", _json_layout(records) + "\n"


def test_writer_bytes_match_the_old_serializer(tmp_path):
    negative_zero = 0
    for fam, order in EVAL_ORDERS.items():
        for cmd, grid, layout in (("eval", "--grid=-1:4:0.125", "eval"),
                                  ("transform", "--grid=-6:6:0.25", "transform")):
            csv_out, json_out = tmp_path / "o.csv", tmp_path / "o.json"
            base = [cmd, "--family", fam, *order, grid]
            if fam == "hypercomplex" and cmd == "transform":
                base[4] = "2.5,1,-0.0,0"  # a -0.0 direction component
            assert run_cli(base + ["-o", str(csv_out)]) == 0
            assert run_cli(base + ["--format", "json", "-o", str(json_out)]) == 0
            header, rows = read_csv(csv_out)
            want_csv, want_json = old_serialization(header, rows, layout)
            assert csv_out.read_text() == want_csv, (fam, cmd)
            assert json_out.read_text() == want_json, (fam, cmd)
            negative_zero += want_csv.count("-0.0000000000000000e+00")
    assert negative_zero > 0


def test_table_text_special_values(monkeypatch):
    import fracspline.textio
    from fracspline.textio import _table_text

    def text(*args):
        return b"".join(_table_text(*args)).decode("ascii")

    xs = np.array([0.0, -0.0, 5e-324, -1.7976931348623157e308, 1 / 3, np.inf, np.nan])
    terms = np.arange(xs.size)
    valid = np.arange(xs.size) % 2 == 0
    header = ["x", "terms_used", "valid"]
    cells = [[repr(float(x)), str(t), str(int(v))] for x, t, v in zip(xs, terms, valid)]
    want_csv, _ = old_serialization(header, cells, "eval")
    _, want_json = old_serialization(header[:2], [c[:2] for c in cells], "eval")
    _, want_nested = old_serialization(["omega", "value_re"],
                                       [[repr(float(x)), repr(float(-x))] for x in xs],
                                       "transform")
    fields = {"omega": "%.16e", "value": {"value_re": "%.16e"}}
    for rows in (1, 2, 3, 4096):  # piece boundaries do not show in the bytes
        monkeypatch.setattr(fracspline.textio, "_ROWS_PER_PIECE", rows)
        assert text("csv", header, [xs, terms, valid]) == want_csv
        assert text("json", header[:2], [xs, terms]) == want_json
        assert text("json", ["omega", "value_re"], [xs, -xs], fields) == want_nested
    assert text("csv", header[:2], [xs[:0], terms[:0]]) == "x,terms_used\n"
    assert text("json", header[:2], [xs[:0], terms[:0]]) == "[]\n"


def template_table_text(fmt, header, columns, fields=None):
    """The writer the vectorized formatter replaced, one %-template per row:
    the oracle of its bytes."""
    from fracspline.textio import _json_layout

    columns = [np.asarray(c) for c in columns]
    specs = ["%d" if c.dtype.kind in "biu" else "%.16e" for c in columns]
    if fmt == "json":
        if not columns[0].size:
            return "[]\n"
        template = "  " + _json_layout(fields or dict(zip(header, specs)), 1, str)
        sep, head, tail = ",\n", "[\n", "\n]\n"
    else:
        template = ",".join(specs)
        sep, head, tail = "\n", ",".join(header) + "\n", "\n"
        if not columns[0].size:
            return head
    rows = zip(*(c.tolist() for c in columns))
    return head + sep.join(template % row for row in rows) + tail


def awkward_floats(rng):
    """Floats whose 17-digit text is hard to get right, in random order."""
    bits = rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64).view(np.float64)
    odd = 2.0 * rng.integers(2 ** 17, 2 ** 26, 4_000) + 1.0
    ties = np.ldexp(odd, rng.integers(-60, 10, odd.size))  # odd*2^q ties
    # ties at scales 10^s that are not doubles as well
    inexact_ties = np.ldexp(np.arange(1.0, 64.0, 2.0)[:, None], -np.arange(20, 90)).ravel()
    pow10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    nines = np.array([float(f"9.99999999999999995e{k}") for k in range(-320, 308)]
                     + [float(f"9.9999999999999999e{k}") for k in range(-320, 308)])
    edges = np.concatenate([pow10, nines])
    special = [0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               1.7976931348623157e308, 1e-280, 1e280, 1.5e-100, 9.5e99, np.inf, np.nan]
    values = np.concatenate([bits, ties, inexact_ties, edges, np.nextafter(edges, 0),
                             np.nextafter(edges, np.inf), special])
    values = np.where(rng.random(values.size) < 0.5, values, -values)
    return values[rng.permutation(values.size)]


def first_difference(got, want):
    """None for equal texts, else the first line that differs: a cheap
    failure report, where pytest would diff megabytes of text."""
    if got == want:
        return None
    lines = enumerate(zip(got.splitlines(), want.splitlines()), start=1)
    return next(((n, g, w) for n, (g, w) in lines if g != w), ("lengths", len(got), len(want)))


def test_table_text_matches_the_template_oracle(monkeypatch):
    import fracspline.textio
    from fracspline.textio import _table_text

    rng = np.random.default_rng(20)
    floats = awkward_floats(rng)
    assert np.isnan(floats).any() and np.isinf(floats).any() and (floats == 0).any()
    ints = np.concatenate([rng.integers(-2 ** 63, 2 ** 63 - 1, floats.size - 6, endpoint=True),
                           [-2 ** 63, 2 ** 63 - 1, -10 ** 18, 10 ** 18, 0, -7]])
    flags = rng.random(floats.size) < 0.5
    header = ["x", "value", "count", "valid"]
    columns = [floats, floats[::-1].copy(), ints, flags]
    fields = {"omega": "%.16e", "value": {"re": "%.16e", "count": "%d", "im": "%.16e"}}
    nested = [floats, floats[::-1].copy(), ints, -floats]
    for rows, size in ((4096, floats.size), (1, 400), (2, 400), (3, 401)):
        monkeypatch.setattr(fracspline.textio, "_ROWS_PER_PIECE", rows)
        cols, nest = [c[:size] for c in columns], [c[:size] for c in nested]
        for args in (("csv", header, cols), ("json", header, cols),
                     ("json", ["omega", "re", "count", "im"], nest, fields)):
            got = b"".join(_table_text(*args)).decode("ascii")
            assert first_difference(got, template_table_text(*args)) is None, rows


def test_boolean_cells_are_percent_d(monkeypatch):
    # a boolean column is gathered from the words "0" and "1"
    import fracspline.textio
    from fracspline.textio import _table_text

    monkeypatch.setattr(fracspline.textio, "_ROWS_PER_PIECE", 3)
    for flags in ([False] * 5, [True] * 5, [True, False, False, True, True, False, True],
                  [True], [False], []):
        flags = np.array(flags, dtype=bool)
        columns = [np.arange(flags.size) / 7, flags, np.arange(flags.size)]
        for fmt in ("csv", "json"):
            args = (fmt, ["x", "valid", "count"], columns)
            got = b"".join(_table_text(*args)).decode("ascii")
            assert got == template_table_text(*args), (fmt, flags)


def test_zero_float_columns_are_percent_e(monkeypatch):
    # a column of +0.0 alone repeats one cell; -0.0 and a column that is
    # +0.0 in one piece only are formatted cell by cell
    import fracspline.textio
    from fracspline.textio import _table_text

    monkeypatch.setattr(fracspline.textio, "_ROWS_PER_PIECE", 3)
    zeros = np.zeros(7)
    partly = np.array([0.0, 0.0, 0.0, 1.5, 0.0, -0.0, 0.0])
    for columns in ([np.arange(7) / 7, zeros, -zeros], [zeros, partly, np.arange(7)],
                    [zeros[:1], -zeros[:1]], [zeros.astype(np.float32), zeros]):
        for fmt in ("csv", "json"):
            header = [f"c{j}" for j in range(len(columns))]
            got = b"".join(_table_text(fmt, header, columns)).decode("ascii")
            assert got == template_table_text(fmt, header, columns), (fmt, columns)
    assert "-0.0000000000000000e+00" in template_table_text("csv", ["x"], [-zeros])


def reduced_basis(u, v):
    """Lagrange-Gauss reduction of the 2-d integer lattice basis u, v."""
    def norm(a):
        return a[0] * a[0] + a[1] * a[1]
    if norm(u) > norm(v):
        u, v = v, u
    while True:
        mu = round(Fraction(u[0] * v[0] + u[1] * v[1], norm(u)))
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        if norm(v) >= norm(u):
            return u, v
        u, v = v, u


def near_half_doubles(scales):
    """Doubles x = m 2^e whose scaled fraction |x| 10^(16 - E) lies within
    2^-50 of .5 without being .5, E = 16 - s, found in exact arithmetic.

    y = m c with c = 2^e 10^s = p/q, so the fraction of y is .5 + d/(2q)
    with d = 2mp - q (mod 2q).  A lattice point (2qj, (2jp - 2lq) h^2) near
    (0, -(2 mid p - q) h^2), h the half-width of the range of m, gives an
    m = mid + j in range with |d| about 2q/h: the closest vector of the
    reduced basis by Babai rounding, and its neighbours."""
    found = []
    for s in scales:
        e0 = math.floor(math.log2(1e16) - 52 - s * math.log2(10))
        for e in range(e0 - 2, e0 + 5):
            c = Fraction(2) ** e * Fraction(10) ** s
            lo = max(2 ** 52, math.ceil(10 ** 16 / c))  # y in [1e16, 1e17)
            hi = min(2 ** 53, math.ceil(10 ** 17 / c))
            if lo >= hi:
                continue
            p, q = c.numerator, c.denominator
            mid, h = (lo + hi) // 2, max(1, (hi - lo) // 2)
            u, v = reduced_basis((2 * q, 2 * p * h * h), (0, 2 * q * h * h))
            t1 = -(2 * mid * p - q) * h * h
            det = u[0] * v[1] - u[1] * v[0]
            a, b = round(Fraction(-t1 * v[0], det)), round(Fraction(u[0] * t1, det))
            for da in range(-2, 3):
                for db in range(-2, 3):
                    m = mid + ((a + da) * u[0] + (b + db) * v[0]) // (2 * q)
                    d = (2 * m * p - q) % (2 * q)
                    if lo <= m < hi and 0 < min(d, 2 * q - d) < 2 * q / 2 ** 50:
                        found.append(math.ldexp(m, e))
    return np.unique(found)


def test_table_text_near_half_fractions():
    # for 0 <= s <= 22, 10^s is a double and the fraction is exact; at other
    # scales the double-double fraction can be off by a few 2^-53, so these
    # cells must reach "%.16e" through _HALF_MARGIN.  A fraction within
    # 2^-50 of .5 needs a denominator past 2^49, so |s| >= 22; the fast
    # range ends at |x| = 1e-280 and 1e280
    from fracspline.textio import _table_text

    xs = near_half_doubles([*range(-263, -21), *range(22, 297)])
    assert xs.size > 10_000
    xs = np.concatenate([xs, -xs])
    want = "x\n" + "".join("%.16e\n" % v for v in xs.tolist())
    got = b"".join(_table_text("csv", ["x"], [xs])).decode("ascii")
    assert first_difference(got, want) is None


# every float64 bit pattern, and the cells _float_cells hands to "%.16e":
# subnormals, |x| past 1e280, non-finite ones, digits that carry into 10^17
# and fractions next to .5
FALLBACK_FLOATS = [5e-324, 2.225073858507201e-308, 1e-281, 1e281, 1.7976931348623157e308,
                   math.inf, -math.inf, math.nan,
                   *(float(f"9.99999999999999995e{k}") for k in (-200, -17, 0, 22, 150)),
                   *near_half_doubles([-40, 40]).tolist()]
FLOAT_CELLS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
    st.sampled_from(FALLBACK_FLOATS + [-v for v in FALLBACK_FLOATS]),
    st.floats(allow_subnormal=True))
INT_CELLS = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1), st.sampled_from([-2 ** 63, 2 ** 63 - 1]))
COLUMN_KINDS = {"float": (FLOAT_CELLS, np.float64), "int": (INT_CELLS, np.int64),
                "bool": (st.booleans(), bool)}


@st.composite
def small_tables(draw):
    """(header, columns, fields): 0-9 rows of 1-5 float, int64 or boolean
    columns, and for JSON records nested as transform writes them or flat."""
    rows = draw(st.integers(0, 9))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=5))
    columns = [np.array(draw(st.lists(COLUMN_KINDS[k][0], min_size=rows, max_size=rows)),
                        dtype=COLUMN_KINDS[k][1]) for k in kinds]
    header = [f"c{i}" for i in range(len(kinds))]
    specs = ["%.16e" if k == "float" else "%d" for k in kinds]
    fields = None
    if len(kinds) > 1 and draw(st.booleans()):
        fields = {header[0]: specs[0], "value": dict(zip(header[1:], specs[1:]))}
    return header, columns, fields


@settings(max_examples=300, deadline=None)
@given(table=small_tables(), fmt=st.sampled_from(["csv", "json"]),
       piece=st.sampled_from([1, 3, 4096]))
def test_table_text_property_matches_the_template_oracle(table, fmt, piece):
    # padding bytes are NUL and each piece drops them: no cell, sign,
    # exponent or fallback text may lose or keep a byte it should not
    import fracspline.textio

    header, columns, fields = table
    args = (fmt, header, columns, fields if fmt == "json" else None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fracspline.textio, "_ROWS_PER_PIECE", piece)
        got = b"".join(fracspline.textio._table_text(*args)).decode("ascii")
    assert first_difference(got, template_table_text(*args)) is None


def test_command_templates_hold_no_nul(tmp_path, monkeypatch):
    # a piece drops every NUL byte of its text, a literal's too
    import fracspline.textio
    from fracspline.textio import _json_layout

    calls, table_text = [], fracspline.textio._table_text

    def spy(fmt, header, columns, fields=None):
        calls.append((header, fields))
        return table_text(fmt, header, columns, fields)

    monkeypatch.setattr(fracspline.textio, "_table_text", spy)
    out, src = str(tmp_path / "out"), tmp_path / "in.csv"
    for fam, order in EVAL_ORDERS.items():
        for cmd, grid in (("eval", "--grid=-1:1:0.5"), ("transform", "--grid=-1:1:0.5")):
            for fmt in ("csv", "json"):
                assert run_cli([cmd, "--family", fam, *order, grid, "--format", fmt,
                                "-o", out]) == 0
    write_signal(src, lambda x: x, stop=0.01)
    for op in (["integral"], ["derivative"], ["shifted-derivative", "--a", "0.7"]):
        assert run_cli(["fracop", "--op", *op, "--z", "0.5", "--input", str(src),
                        "-o", out]) == 0
    assert len(calls) == 4 * len(EVAL_ORDERS) + 3
    for header, fields in calls:
        literals = ",".join(header) + _json_layout(fields or dict.fromkeys(header, 0), 1, str)
        assert "\0" not in literals, (header, fields)


def test_table_text_memory_stays_per_piece():
    # the writer holds one piece at a time: its peak does not grow with rows
    from fracspline.textio import _table_text

    peaks = []
    for rows in (50_000, 200_000):
        x = np.linspace(0.0, 60.0, rows)
        columns = [x, np.sin(x), np.cos(x), np.arange(rows) % 60]
        tracemalloc.start()
        try:
            for piece in _table_text("json", ["x", "value_re", "value_im", "terms_used"],
                                     columns):
                pass
            del piece
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0] < 8e6, peaks


# -- determinism across interpreters -------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_interpreter_outputs(commands, tmp_path, hashseed):
    """Bytes written by the commands, run in one new interpreter."""
    outs = [tmp_path / f"seed{hashseed}-{i}.out" for i in range(len(commands))]
    argvs = [cmd + ["-o", str(out)] for cmd, out in zip(commands, outs)]
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    script = ("import sys; from fracspline.cli import main; "
              f"sys.exit(max(main(a) for a in {argvs!r}))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    return [out.read_bytes() for out in outs]


def test_import_loads_numpy_and_no_scipy():
    # the runtime needs numpy only; scipy serves the tests as an oracle
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    script = ("import sys, fracspline, fracspline.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_thread_count_determinism(tmp_path):
    # the name predates the removal of the thread pool; what stays checked is
    # that a run's bytes depend on its arguments only
    commands = [
        ["eval", "--family", "hypercomplex", "--upsilon", "2.5,1,-1", "--grid=-1:6:0.01"],
        ["eval", "--family", "exponential", "--a", "1,-0.5,0.5", "--grid", "0:3:0.01",
         "--format", "json"],
        ["eval", "--family", "complex-exponential", "--a", "0.7", "--z", "3,1",
         "--grid", "0:6:0.05", "--format", "json"],
        ["verify", "--family", "hypercomplex", "--upsilon", "2.5,1,1", "--K", "50",
         "--grid", "0.1:3:0.01"],
    ]
    first = fresh_interpreter_outputs(commands, tmp_path, 1)
    assert first == fresh_interpreter_outputs(commands, tmp_path, 2)


def test_module_invocation_smoke(tmp_path):
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "fracspline.cli", "eval", "--family",
         "classical", "--n", "2", "--grid", "0:2:1", "-o", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert out.exists()

    bad = subprocess.run(
        [sys.executable, "-m", "fracspline.cli", "eval", "--family",
         "classical", "--grid", "0:2:1"],
        capture_output=True,
    )
    assert bad.returncode == 1
