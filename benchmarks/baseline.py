"""Reproduce the ROADMAP Baseline rows from the traced run.

    python3 benchmarks/baseline.py

Runs one job per Baseline row under the benchmark's tracer, in one fresh
process, and prints a Markdown table of the row's traced function: its
inclusive time (its own time plus its traced callees, such as the per-point
``gamma``) and, for the verifier, its tracemalloc peak.  The 2-thread CLI
row is left out: it needs FRACSPLINE_THREADS, which the benchmark leaves
unset.  Takes about 15 s, most of it the exponential row.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (row label, size label, traced function, job)
ROWS = [
    ("`eval_bz(2.5+1j)`", "6000 pts, x∈[0,60)", "splines.eval_bz",
     ["eval", "--family", "complex", "--z=2.5,1", "--grid=0:59.995:0.01"]),
    ("`eval_bupsilon` Cl(2)", "same grid", "splines.eval_bupsilon",
     ["eval", "--family", "hypercomplex", "--upsilon=2.5,1,1", "--grid=0:59.995:0.01"]),
    ("`eval_ez`", "same grid", "splines.eval_ez",
     ["eval", "--family", "complex-exponential", "--a=0.5", "--z=2.5,1",
      "--grid=0:59.995:0.01"]),
    ("`eval_exp_bspline` n=4", "400 pts", "splines.eval_exp_bspline",
     ["eval", "--family", "exponential", "--a=0.5,-1,1.5,0.25", "--grid=0:3.995:0.01"]),
    ("`verify_atom_identity_complex` K=200", "100k freqs",
     "fracops.verify_atom_identity_complex",
     ["verify", "--family", "complex", "--z=2.5,1", "--K", "200",
      "--grid=-3:3.00003:0.00006", "--tol", "1"]),
    ("`frac_derivative(0.5)`", "200k samples", "fracops.frac_derivative",
     ["fracop", "--op", "derivative", "--z=0.5", "--input", "in/ramp.csv"]),
    ("`inverse_quadrature`", "200k freqs", "fourier.inverse_quadrature", None),
    ("CLI `eval --family complex`", "12001 pts, 1 thread", "cli.main",
     ["eval", "--family", "complex", "--z=2.5,1", "--grid=0:60:0.005"]),
]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("FRACSPLINE_THREADS", None)
    import numpy as np

    import fracspline.cli as cli
    import fracspline.fourier as fourier
    from tracing import Tracer

    work = ROOT / ".bench_work" / "baseline"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    os.chdir(work)
    x = 1e-5 * np.arange(200_000)
    np.savetxt("in/ramp.csv", np.column_stack([x, x]), fmt="%.16e", delimiter=",",
               header="x,value", comments="")
    cli.main(ROWS[0][3][:4] + ["--grid=0:1:0.1", "-o", "warm.csv"])

    print("| what | size | traced time / memory |")
    print("|---|---|---|")
    for label, size, name, argv in ROWS:
        tracer = Tracer()
        tracer.install()
        try:
            if argv is None:
                grid = fourier.FrequencyGrid(1e3, 200_001)
                fourier.inverse_quadrature(lambda w: fourier.hat_bz(2.5 + 1j, w),
                                           1.5, grid, 2.5)
            elif cli.main(argv + ["-o", "out"]) != 0:
                raise RuntimeError(f"{label}: the CLI job failed")
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        cell = f"{1e3 * summary['incl_s'][name]:.0f} ms"
        if summary["peak_bytes"][name]:
            cell += f", {summary['peak_bytes'][name] / 2**20:.0f} MB peak"
        print(f"| {label} | {size} | {cell} |")
    os.chdir(ROOT)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
