"""The benchmark's own checks, on tiny plans run in-process."""

import json

import numpy as np
import pytest

import oracle
import refspeed
import run
import worker
import workloads

TINY_PLAN = [
    {"id": "eval-complex", "kind": "cli", "cmd": "eval", "family": "complex",
     "order": {"z": [2.5, 1.0]}, "format": "csv", "output": "out/eval.csv",
     "argv": ["eval", "--family", "complex", "--z=2.5,1.0", "--grid=0.0:4.25:0.5",
              "--format", "csv", "-o", "out/eval.csv"],
     "grid": "0.0:4.25:0.5", "expect_rc": 0, "checks": 4},
    {"id": "verify-complex", "kind": "cli", "cmd": "verify", "family": "complex",
     "order": {"z": [2.5, 1.0]}, "format": None, "output": "out/verify.json",
     "argv": ["verify", "--family", "complex", "--z=2.5,1.0", "--grid=-2.0:2.005:0.01",
              "--K", "50", "--tol", "1e-3", "-o", "out/verify.json"],
     "grid": "-2.0:2.005:0.01", "K": 50, "expect_rc": 0, "checks": 3},
    {"id": "fracop", "kind": "cli", "cmd": "fracop", "family": None,
     "order": {"z": [0.5, 0.0]}, "format": None, "output": "out/fracop.csv",
     "argv": ["fracop", "--op", "derivative", "--z=0.5,0.0", "--input", "in/fracop.csv",
              "-o", "out/fracop.csv"],
     "input": "in/fracop.csv", "signal": {"count": 2001, "step": 0.001, "p": 1, "damping": 0.0},
     "expect_rc": 0, "checks": 4},
    {"id": "iq", "kind": "iq", "transform": "hat_bz", "params": {"z": [2.5, 1.0]},
     "x": 1.5, "omega_max": 200.0, "count": 4001, "decay": 2.5, "expect_rc": 0, "checks": 1},
]


@pytest.fixture
def tiny_run(tmp_path, monkeypatch):
    """Run a plan once in-process, the way the worker does, and check it."""
    def go(plan, trace=False):
        monkeypatch.chdir(tmp_path)
        workloads.write_inputs(plan, ".")
        (tmp_path / "keep").mkdir(exist_ok=True)
        runner = worker.Runner(plan)
        if trace:
            result = worker._traced(runner)
        else:
            result = {"records": worker._loop(runner, 0.0, float("inf"), min_cycles=1)}
        result["first"] = runner.first
        result["peak_rss_kb"] = 1024
        table = oracle.build(plan, 0)
        checks = run.check_first_outputs(plan, runner.first, table, tmp_path)
        if trace:
            return run.per_layer(plan, result, checks)
        return run.end_to_end(plan, result, checks, [0.5, 0.6, 0.7], 0)
    return go


def _spec():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_every_metric_is_printed_with_its_unit(tiny_run):
    spec = _spec()
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        metrics, details, attempted, failed = tiny_run(TINY_PLAN, trace=trace)
        lines, out = run.report(spec[kind], metrics, details, attempted, failed)
        assert failed == 0 and out["correct"]
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        for m, line in zip(spec[kind], lines):
            assert out["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(out["metrics"][m["name"]]["value"], (int, float))
            assert line.split()[0] == m["name"] and m["unit"] in line.split()
            if kind == "end_to_end":
                assert out["metrics"][m["name"]]["value"] > 0
                assert "n=" in line  # sample count
        json.dumps(out)


def test_a_job_that_raises_counts_as_failed(tiny_run):
    bad = dict(TINY_PLAN[3], id="iq-bad", params={"z": [0.5, 0.0]})  # re z <= 1 raises
    metrics, details, attempted, failed = tiny_run([TINY_PLAN[0], bad])
    assert failed == 1 and attempted == 2 + 3
    assert details["fail_frac"] == pytest.approx(1 / 5)
    assert metrics["job_ok_frac"] == pytest.approx(1 - 1 / 5)
    assert "raised" in details["failures"][0]


def test_job_times_are_divided_by_the_machine_slowdown(tiny_run, monkeypatch):
    monkeypatch.setattr(refspeed, "sample", lambda count: [2.0] * count)
    metrics, details, attempted, failed = tiny_run([TINY_PLAN[0]])
    assert failed == 0 and details["slowdown_quartiles"] == [2.0, 2.0, 2.0]
    assert metrics["job_p50_s"] == pytest.approx(details["measured_s"] / 2.0)
    assert metrics["job_tail_s"] == metrics["job_p50_s"]


def test_a_perturbed_output_counts_as_an_accuracy_miss(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = TINY_PLAN[0]
    (tmp_path / "out").mkdir()
    assert worker.Runner([job]).run(job)["rc"] == 0
    text = (tmp_path / "out" / "eval.csv").read_text()
    ref = oracle.build([job], 0)[job["id"]]
    clean = oracle.check_output(job, text, ref)
    assert clean.malformed is None and clean.checked == 4 and clean.missed == 0

    lines = text.splitlines()
    row = ref["rows"][-1] + 1
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 10 * oracle.SPLINE_RTOL))
    lines[row] = ",".join(cells)
    perturbed = oracle.check_output(job, "\n".join(lines) + "\n", ref)
    assert perturbed.checked == 4 and perturbed.missed == 1

    lines[row] = lines[row].replace(cells[1], "nan")
    assert oracle.check_output(job, "\n".join(lines) + "\n", ref).malformed


def test_plans_are_seeded_and_stay_in_range():
    for name in workloads.WORKLOADS:
        plan = workloads.make_plan(name, 3)
        assert plan == workloads.make_plan(name, 3)
        assert plan != workloads.make_plan(name, 4)
        for job in plan:
            if job.get("cmd") == "verify" and "K" in job:
                n = workloads.grid_points(job["grid"]).size
                assert 50 <= job["K"] <= 400 and 20_000 <= n <= 100_000
                assert n * (job["K"] + 1) <= 16.0e6 * 1.001


def test_oracle_matches_known_values():
    # B_2 is the hat function; B_z reduces to it at z = 2
    assert oracle.bz_ref(2.0 + 0j, 0.5) == pytest.approx(0.5, rel=1e-15)
    assert oracle.classical_ref(3, 1.5) == pytest.approx(0.75, rel=1e-15)
    # exponential B-spline with weights (a, 0): (e^{a x} - 1) / a on [0, 1)
    a, x = 0.7, 0.4
    assert oracle.exp_ref([a, 0.0], x) == pytest.approx((np.exp(a * x) - 1) / a, rel=1e-14)
    # the first atom identity residual vanishes for an integer order
    assert oracle.verify_residual_ref("classical", {"n": 3}, None, 1.3) < 1e-25
