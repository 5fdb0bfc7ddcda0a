"""Closed-loop job runner, started as a fresh interpreter by run.py.

One client runs the plan's jobs back to back in whole cycles, at least
MIN_CYCLES of them, until the summed job time reaches the requested
seconds; it starts no threads.  Only the program call is timed.  After
each job, outside the timed region, the output is hashed; the first output
of every job is kept for run.py to check and later repeats must reproduce
its bytes.  Then slices of the reference kernel (refspeed.py) run for about
a tenth of the job's time.  Each job records the slices run just before
and just after it, so run.py can tell how fast the machine ran during it.

With --trace 1 it runs the cycle untraced, traced and untraced again, and
records all three so run.py can compare digests and derive the tracing
overhead.

Usage: python3 worker.py ROOT WORKDIR PLAN.json SECONDS TRACE RESULT.json
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import resource
import shutil
import sys
import time
import traceback

import refspeed

# Every job runs at least this often, so its output can be compared with
# its first and run.py can take its median time.
MIN_CYCLES = 2
# Hard stop well inside the per-run limit, even mid-cycle.
DEADLINE_S = 120.0


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Runner:
    def __init__(self, plan):
        import fracspline.clifford
        import fracspline.cli
        import fracspline.fourier

        self.plan = plan
        self.cli = fracspline.cli
        self.fourier = fracspline.fourier
        self.clifford = fracspline.clifford
        self.first: dict[str, dict] = {}

    def _iq_call(self, job):
        """One inverse_quadrature call; module attributes are looked up at
        call time so the tracer sees them."""
        fourier, p = self.fourier, job["params"]
        name = job["transform"]
        if name == "hat_bz":
            fn = lambda om: fourier.hat_bz(complex(*p["z"]), om)
        elif name == "hat_ez":
            fn = lambda om: fourier.hat_ez(p["a"], complex(*p["z"]), om)
        elif name == "hat_en":
            fn = lambda om: fourier.hat_en(tuple(p["weights"]), om)
        else:
            ups = self.clifford.Paravector(p["upsilon"][0], p["upsilon"][1:])
            fn = lambda om: fourier.hat_bupsilon_components(ups, om)[0]
        grid = fourier.FrequencyGrid(job["omega_max"], job["count"])
        return fourier.inverse_quadrature(fn, job["x"], grid, job["decay"])

    def run(self, job) -> dict:
        rc, error, result = None, None, None
        t0 = time.perf_counter()
        try:
            if job["kind"] == "cli":
                rc = self.cli.main(job["argv"])
            else:
                result = self._iq_call(job)
                rc = 0
        except Exception:
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        rec = {"id": job["id"], "wall": wall, "rc": rc, "error": error, "digest": None}
        if error is None and job["kind"] == "iq":
            payload = [result.value.real, result.value.imag, result.error,
                       result.tail_bound, result.quadrature_estimate]
            rec["digest"] = hashlib.sha256(repr(payload).encode()).hexdigest()
            rec["payload"] = payload
        elif error is None and os.path.exists(job["output"]):
            rec["digest"] = _digest(job["output"])
        return rec

    def keep_first(self, job, rec):
        """Keep the first output of each job; it is checked after the loop."""
        if job["id"] in self.first or rec["digest"] is None:
            return
        self.first[job["id"]] = rec
        if job["kind"] == "cli":
            os.replace(job["output"], os.path.join("keep", os.path.basename(job["output"])))


def _warm_up(runner):
    """Import lazily loaded code and fill caches before timing."""
    os.makedirs("warm", exist_ok=True)
    for argv in (["eval", "--family", "complex", "--z", "2.5,1", "--grid", "0:4:0.5"],
                 ["transform", "--family", "complex", "--z", "2.5", "--grid=-2:2:0.5"],
                 ["verify", "--family", "complex", "--z", "2.5", "--K", "50",
                  "--grid=-1:1:0.01", "--tol", "1"]):
        runner.cli.main(argv + ["-o", "warm/out"])
    with open("warm/in.csv", "w") as fh:
        fh.write("x,value\n" + "\n".join(f"{i / 100},{i / 100}" for i in range(200)) + "\n")
    runner.cli.main(["fracop", "--op", "derivative", "--z", "0.5", "--input", "warm/in.csv",
                     "-o", "warm/out"])
    shutil.rmtree("warm")
    refspeed.sample(20)


def _loop(runner, seconds: float, t_start: float, min_cycles: int = MIN_CYCLES) -> list[dict]:
    records, busy = [], 0.0
    before = refspeed.sample(2)
    for cycle in itertools.count(1):
        for job in runner.plan:
            rec = runner.run(job)
            runner.keep_first(job, rec)
            after = refspeed.sample(refspeed.slices_for(rec["wall"]))
            rec["ref"] = before + after
            before = after
            records.append(rec)
            busy += rec["wall"]
            if time.perf_counter() - t_start > DEADLINE_S:
                return records
        if busy >= seconds and cycle >= min_cycles:
            return records


def _traced(runner) -> dict:
    """Untraced cycle, traced cycle, untraced cycle: the traced cycle is
    compared with the mean of its neighbours, so drift between cycles does
    not show up as tracing overhead."""
    from tracing import Tracer

    before = [runner.run(job) for job in runner.plan]
    for job, rec in zip(runner.plan, before):
        runner.keep_first(job, rec)
    tracer = Tracer()
    tracer.install()
    try:
        traced = [runner.run(job) for job in runner.plan]
    finally:
        tracer.uninstall()
    after = [runner.run(job) for job in runner.plan]
    return {"untraced": before, "traced": traced, "untraced_after": after,
            "trace": tracer.summary()}


def main(argv):
    root, workdir, plan_path, seconds, trace, out_path = argv
    sys.path.insert(0, os.path.join(root, "src"))
    os.environ.pop("FRACSPLINE_THREADS", None)
    with open(plan_path) as fh:
        plan = json.load(fh)
    os.chdir(workdir)
    os.makedirs("keep", exist_ok=True)
    t_start = time.perf_counter()
    runner = Runner(plan)
    _warm_up(runner)
    if trace == "1":
        result = _traced(runner)
    else:
        result = {"records": _loop(runner, float(seconds), t_start)}
    result["first"] = runner.first
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["fracspline_file"] = sys.modules["fracspline"].__file__
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
