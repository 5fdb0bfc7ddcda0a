import json
import math
import re
import subprocess
import sys

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


# -- thread cap determinism --------------------------------------------------------

def test_thread_count_determinism(tmp_path, monkeypatch):
    outs = []
    for threads in ("1", "8"):
        monkeypatch.setenv("FRACSPLINE_THREADS", threads)
        out = tmp_path / f"t{threads}.csv"
        assert run_cli(["eval", "--family", "complex", "--z", "2.5,1",
                        "--grid", "0:6:0.01", "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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
