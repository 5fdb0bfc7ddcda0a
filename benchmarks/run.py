"""Layered benchmark for fracspline.

    python3 benchmarks/run.py --workload time-grid --seed 1 --seconds 10 --trace 0

Generates the workload's jobs and inputs from the seed, computes (or loads
the cached) oracle, times set-up in fresh interpreters, runs the jobs in a
fresh single-process closed loop (benchmarks/worker.py), checks every job's
output, and prints each metric named in BENCHMARK.json with its unit.
Job times are divided by the machine's slowdown, which reference slices
(refspeed.py) measure between the jobs.  The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).

Scratch files go to .bench_work/ under the repository root; results and the
recorded environment are also saved to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import refspeed
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 4
RUN_LIMIT_S = 170.0

_SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import fracspline.cli
sys.exit(fracspline.cli.main(["eval", "--family", "classical", "--n", "3",
                              "--grid", "0:3:0.5", "-o", sys.argv[2]]))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("FRACSPLINE_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, trace: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "FRACSPLINE_THREADS": None,
    }


def load_oracle(workload: str, seed: int, plan: list[dict]) -> dict:
    """Reference values for the plan, cached per seed and plan."""
    key = hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()[:12]
    path = ROOT / ".bench_work" / "oracle" / f"{workload}-{seed}-{key}.json"
    if path.exists():
        with open(path) as fh:
            return json.load(fh)
    table = oracle.build(plan, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(table, fh)
    os.replace(tmp, path)
    return table


def measure_setup(workdir: Path) -> tuple[list[float], int]:
    """Wall times of fresh interpreters that import the package and run one
    tiny eval; returns the times and the number of failed starts.  They are
    not divided by the reference slowdown: imports barely slow down in the
    host's slow spells, which the reference kernel's arithmetic feels most."""
    times, failed = [], 0
    for i in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(ROOT / "src"),
                               str(workdir / f"setup-{i}.csv")],
                              env=_child_env(), capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
        failed += proc.returncode != 0
    return times, failed


def run_worker(workdir: Path, plan_path: Path, seconds: int, trace: int,
               budget: float) -> dict | None:
    out = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(workdir),
           str(plan_path), str(seconds), str(trace), str(out)]
    proc = subprocess.Popen(cmd, env=_child_env())
    try:
        proc.wait(timeout=max(10.0, budget))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.exists():
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    with open(out) as fh:
        return json.load(fh)


def check_first_outputs(plan, first, table, workdir: Path) -> dict:
    checks = {}
    for job in plan:
        rec = first.get(job["id"])
        if rec is None:
            continue
        if job["kind"] == "iq":
            payload = rec["payload"]
        else:
            with open(workdir / "keep" / os.path.basename(job["output"]),
                      encoding="utf-8") as fh:
                payload = fh.read()
        checks[job["id"]] = oracle.check_output(job, payload, table[job["id"]])
    return checks


def failure(job, rec, checks, first, expected_digest=None) -> str | None:
    """Why one execution failed, or None."""
    if rec["error"] is not None:
        return "raised: " + rec["error"].strip().splitlines()[-1]
    if rec["rc"] != job["expect_rc"]:
        return f"exit code {rec['rc']}"
    if rec["digest"] is None:
        return "no output"
    expected = expected_digest or first[job["id"]]["digest"]
    if rec["digest"] != expected:
        return "different bytes for the same argv"
    if checks[job["id"]].malformed:
        return "malformed: " + checks[job["id"]].malformed
    return None


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of `n` samples beyond it."""
    return 100.0 if n <= 10 else 100.0 * (n - 10) / n


def quantile(xs: list[float], pct: float) -> float:
    """The pct-th percentile of xs, interpolated between order statistics."""
    xs = sorted(xs)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def end_to_end(plan, result, checks, setup_times, setup_failed):
    """End-to-end metrics.  Each execution's wall time is divided by the
    machine's slowdown, from the reference slices run just before and just
    after it, which takes the shared host's drift out of the figures.  p50
    and tail are taken over these times of every execution.  The tail's
    percentile is fixed by the plan's length and the minimum number of
    cycles, so it does not change with the number of cycles a run fits.
    Throughputs divide the work of one cycle by the sum over jobs of each
    job's median time over its repeats."""
    jobs = {j["id"]: j for j in plan}
    records = result["records"]
    repeats, execs, slowdowns, failures, failed_ids = {}, [], [], [], set()
    for rec in records:
        slowdowns.append(refspeed.slowdown(rec.get("ref", [])))
        execs.append(rec["wall"] / slowdowns[-1])
        repeats.setdefault(rec["id"], []).append(execs[-1])
        why = failure(jobs[rec["id"]], rec, checks, result["first"])
        if why:
            failures.append(f"{rec['id']}: {why}")
            failed_ids.add(rec["id"])
    job_s = {k: statistics.median(v) for k, v in repeats.items()}
    points = cells = rows = 0
    for jid in job_s:
        if jid in failed_ids:
            continue
        c = checks[jid]
        points += c.points
        cells += c.cells
        rows += c.rows_in + c.rows_out
    busy = sum(job_s.values())
    pct = tail_percentile(len(plan) * worker.MIN_CYCLES)
    tail = quantile(execs, pct)
    checked = sum(c.checked for c in checks.values() if not c.malformed)
    missed = sum(c.missed for c in checks.values() if not c.malformed)
    attempted = len(records) + len(setup_times)
    failed = len(failures) + setup_failed
    metrics = {
        "setup_s": statistics.median(setup_times),
        "job_p50_s": statistics.median(execs),
        "job_tail_s": tail,
        "eval_pts_per_s": points / busy,
        "verify_cells_per_s": cells / busy,
        "io_rows_per_s": rows / busy,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "job_ok_frac": 1.0 - failed / attempted,
        "acc_ok_frac": 1.0 - missed / checked if checked else 0.0,
    }
    q = statistics.quantiles(slowdowns, n=4) if len(slowdowns) > 1 else slowdowns * 3
    details = {
        "jobs": len(records), "cycles": len(records) / len(plan),
        "measured_s": sum(rec["wall"] for rec in records),
        "slowdown_quartiles": q,
        "setup_starts": len(setup_times), "tail_percentile": pct,
        "points_checked": checked, "points_missed": missed,
        "fail_frac": failed / attempted,
        "acc_miss_frac": missed / checked if checked else None,
        "failures": failures[:20],
        "per_job_s": job_s,
    }
    jobs_n = (f"n={len(execs)} executions of {len(job_s)} jobs, at nominal speed")
    details["samples"] = {
        "setup_s": f"median of n={len(setup_times)} starts",
        "job_p50_s": jobs_n, "job_tail_s": f"p{pct:.1f}, {jobs_n}",
        "eval_pts_per_s": jobs_n, "verify_cells_per_s": jobs_n, "io_rows_per_s": jobs_n,
        "peak_rss_mb": "n=1 worker process",
        "job_ok_frac": f"n={attempted} attempted", "acc_ok_frac": f"n={checked} points",
    }
    return metrics, details, attempted, failed


def per_layer(plan, result, checks):
    jobs = {j["id"]: j for j in plan}
    failures = []
    runs = ("untraced", "traced", "untraced_after")
    for recs in zip(*(result[r] for r in runs)):
        job = jobs[recs[0]["id"]]
        why = failure(job, recs[0], checks, result["first"])
        for rec in recs[1:]:
            why = why or failure(job, rec, checks, result["first"], recs[0]["digest"])
        if why:
            failures.append(f"{job['id']}: {why}")
    tr = result["trace"]
    metrics = {}
    for name, calls in tr["calls"].items():
        public = name.lstrip("_")
        metrics[f"{public}.calls"] = calls
        metrics[f"{public}.self_s"] = tr["self_s"][name]
        metrics[f"{public}.peak_bytes"] = tr["peak_bytes"][name]
    good = [c for c in checks.values() if not c.malformed]
    errs = [e for c in good for e in c.err_log10]
    ratios = [c.ratio for c in good if c.ratio is not None]
    traced_s = sum(r["wall"] for r in result["traced"])
    untraced_s = 0.5 * sum(r["wall"] for r in result["untraced"] + result["untraced_after"])
    metrics.update({
        "splines.terms": tr["series_terms"],
        "splines.err_log10_max": max(errs) if errs else -20.0,
        "fracops.verify_ratio_max": max(ratios) if ratios else 0.0,
        "fracops.atom_matrix_bytes": tr["atom_matrix_bytes"],
        "cli.bytes_out": sum(c.bytes_out for c in good),
        "cli.rows_out": sum(c.rows_out for c in good),
        "trace.overhead_s": traced_s - untraced_s,
    })
    layers = {}
    for name, s in tr["self_s"].items():
        mod = name.split(".")[0]
        layers[mod] = layers.get(mod, 0.0) + s
    details = {
        "jobs": len(plan), "traced_s": traced_s, "untraced_s": untraced_s,
        "spans": tr["spans"],
        "layer_share_of_traced_s": {m: s / traced_s for m, s in layers.items()},
        "failures": failures[:20],
    }
    attempted = len(runs) * len(plan)
    return metrics, details, attempted, len(failures)


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(wanted: list[dict], metrics: dict, details: dict, attempted: int,
           failed: int) -> tuple[list[str], dict]:
    """Human-readable metric lines (name, value, unit, samples) and the
    final result object."""
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                       for m in wanted}}
    samples = details.get("samples", {})
    lines = []
    for m in wanted:
        note = f"  ({samples[m['name']]})" if m["name"] in samples else ""
        lines.append(f"  {m['name']:<44} {_fmt(metrics[m['name']]):>14} {m['unit']}{note}")
    return lines, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()

    if not (ROOT / "src" / "fracspline" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    plan = workloads.make_plan(args.workload, args.seed)
    workdir = ROOT / ".bench_work" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    phase_s = {}

    def phase_done(name):
        phase_s[name] = time.perf_counter() - t_start - sum(phase_s.values())

    try:
        workloads.write_inputs(plan, str(workdir))
        plan_path = workdir / "plan.json"
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        phase_done("inputs")
        table = load_oracle(args.workload, args.seed, plan)
        phase_done("oracle")
        setup_times, setup_failed = ([], 0) if args.trace else measure_setup(workdir)
        phase_done("setup")
        result = run_worker(workdir, plan_path, args.seconds, args.trace,
                            RUN_LIMIT_S - (time.perf_counter() - t_start))
        phase_done("worker")
        if result is None:
            print(json.dumps({"correct": False, "attempted": len(plan),
                              "failed": len(plan), "metrics": {}}))
            return 0
        checks = check_first_outputs(plan, result["first"], table, workdir)
        if args.trace:
            metrics, details, attempted, failed = per_layer(plan, result, checks)
        else:
            metrics, details, attempted, failed = end_to_end(
                plan, result, checks, setup_times, setup_failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    phase_done("checks")
    details["phase_s"] = phase_s

    env = environment(args.workload, args.seed, args.trace)
    env["fracspline_file"] = os.path.relpath(result["fracspline_file"], ROOT)
    lines, out = report(wanted, metrics, details, attempted, failed)
    print(f"fracspline benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("env " + json.dumps(env))
    print("details " + json.dumps({k: v for k, v in details.items()
                                   if k not in ("per_job_s", "samples")}))
    print("\n".join(lines))
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "details": details, **out}, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
