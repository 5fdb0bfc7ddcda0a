import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_eval_json_format(tmp_path):
    out = tmp_path / "bn.json"
    assert run_cli(["eval", "--family", "classical", "--n", "3",
                    "--grid", "0:3:1.5", "--format", "json", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc[1]["x"] == 1.5 and abs(doc[1]["value"] - 0.75) < 1e-15


def test_eval_usage_errors(tmp_path):
    assert run_cli(["eval", "--family", "classical",
                    "--grid", "0:1:0.5"]) == 1  # missing --n
    assert run_cli(["eval", "--family", "complex", "--z", "0.5",
                    "--grid", "0:1:0.5"]) == 1  # order constraint
    assert run_cli(["eval", "--family", "nosuch", "--grid", "0:1:0.5"]) == 1
    assert run_cli(["eval", "--family", "classical", "--n", "3"]) == 1  # no grid
    assert run_cli(["eval", "--family", "complex", "--z", "abc",
                    "--grid", "0:1:0.5"]) == 1  # malformed number


def test_eval_gamma_underflow_or_overflow_is_an_error(capsys):
    # |Gamma(z)| underflows to 0 at |im z| = 1000 and overflows at z = 200:
    # an error, not a traceback
    for order in (["--family", "complex", "--z", "2.5,1e3"],
                  ["--family", "complex-exponential", "--a", "0.5", "--z", "2.5,1e3"],
                  ["--family", "hypercomplex", "--upsilon", "2.5,600,800"],
                  ["--family", "fractional", "--alpha", "200"]):  # overflow
        assert run_cli(["eval", *order, "--grid", "0:2:1"]) == 1, order
        assert capsys.readouterr().err.startswith("error: "), order


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


def test_fracop_derivative_matches_gradient(tmp_path):
    src = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    write_signal(src, lambda x: math.sin(x), stop=3.0, h=1e-3)
    assert run_cli(["fracop", "--op", "derivative", "--z", "1",
                    "--input", str(src), "-o", str(out)]) == 0
    _, rows = read_csv(out)
    data = np.array([[float(r[0]), float(r[1])] for r in rows if r[3] == "1"])
    assert np.max(np.abs(data[:, 1] - np.cos(data[:, 0]))) < 1e-5


def test_fracop_nonuniform_grid_rejected(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("x,value\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
    assert run_cli(["fracop", "--op", "integral", "--z", "1",
                    "--input", str(src), "-o", "-"]) == 1
    src.write_text("x,value\n0.0,1.0\n0.1,oops\n0.2,1.0\n")
    assert run_cli(["fracop", "--op", "integral", "--z", "1",
                    "--input", str(src), "-o", "-"]) == 1
    assert "line 3" in capsys.readouterr().err


def test_fracop_missing_input_file(tmp_path):
    assert run_cli(["fracop", "--op", "integral", "--z", "1",
                    "--input", str(tmp_path / "nope.csv"), "-o", "-"]) == 3


# -- verify ----------------------------------------------------------------------

def test_verify_classical(tmp_path):
    out = tmp_path / "rep.json"
    code = run_cli(["verify", "--family", "classical", "--n", "4",
                    "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["max_residual"] <= 1e-12
    assert doc["passed"] is True


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
    assert len(doc["excluded_omegas"]) > 0  # branch filter reports w = 0


def test_verify_failure_exit_code(tmp_path):
    out = tmp_path / "rep.json"
    code = run_cli(["verify", "--family", "complex", "--z", "2.5,1",
                    "--K", "50", "--tol", "1e-12", "-o", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())  # report written regardless
    assert doc["passed"] is False


def test_verify_empty_admissible_set(tmp_path):
    code = run_cli(["verify", "--family", "complex", "--z", "2.5,0",
                    "--grid", "0:0:1", "-o", str(tmp_path / "rep.json")])
    assert code == 2


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


def test_config_rejects_unknown_keys(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"family": "classical", "wat": 1}))
    assert run_cli(["eval", "--config", str(conf), "--grid", "0:1:1"]) == 1
    conf.write_text(json.dumps({"family": "classical", "n": "x"}))
    assert run_cli(["eval", "--config", str(conf), "--grid", "0:1:1"]) == 1


def test_config_rejects_non_integral_counts(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    out = tmp_path / "out.csv"
    for n in (3.7, "3.7", True, None, [3]):
        conf.write_text(json.dumps({"family": "classical", "n": n, "grid": "0:1:0.5"}))
        assert run_cli(["eval", "--config", str(conf), "-o", str(out)]) == 1, n
        assert capsys.readouterr().err.startswith("error: "), n
    conf.write_text(json.dumps({"family": "complex", "z": "2.5", "K": 50.5}))
    assert run_cli(["verify", "--config", str(conf), "-o", str(out)]) == 1
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
    """What the CLI wrote before the template writer: one _fmt per float
    cell, and JSON through the CSV text -> float -> _json_dump round trip."""
    from fracspline.cli import _fmt, _json_dump

    def cell(key, text):
        return str(int(text)) if key in ("terms_used", "valid") else _fmt(float(text))

    lines = [",".join(header)] + [",".join(cell(k, c) for k, c in zip(header, row))
                                  for row in cell_rows]
    if json_layout == "eval":
        records = [{k: (int(c) if k == "terms_used" else float(c)) for k, c in zip(header, row)}
                   for row in cell_rows]
    else:
        records = [{"omega": float(row[0]),
                    "value": {k: float(c) for k, c in zip(header[1:], row[1:])}}
                   for row in cell_rows]
    return "\n".join(lines) + "\n", _json_dump(records) + "\n"


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
    import fracspline.cli
    from fracspline.cli import _table_text

    def text(*args):
        return "".join(_table_text(*args))

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
        monkeypatch.setattr(fracspline.cli, "_ROWS_PER_PIECE", rows)
        assert text("csv", header, [xs, terms, valid]) == want_csv
        assert text("json", header[:2], [xs, terms]) == want_json
        assert text("json", ["omega", "value_re"], [xs, -xs], fields) == want_nested
    assert text("csv", header[:2], [xs[:0], terms[:0]]) == "x,terms_used\n"
    assert text("json", header[:2], [xs[:0], terms[:0]]) == "[]\n"


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
