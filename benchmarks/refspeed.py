"""Reference kernel that tracks the machine's speed during a run.

The benchmark shares a few cores of a host with other work, and a fixed
loop there runs up to twice as slow in some spells as in others, and the
program's jobs slow down with it.  So a fixed piece of work timed right
before and right after a job tells how fast the machine was while the job
ran.  The timed metrics divide each job's time by that
slowdown: they read as the time the job takes at the nominal speed below.

The kernel is the benchmark's own code and calls nothing in ``fracspline``,
so a change to the program cannot move it.  The machine's slow spells do
not slow every kind of work alike, so a slice times three parts, one for
each kind of work the workloads do, and averages their slowdowns: scalar
complex arithmetic in a Python loop (the ``splines`` series), a CSV round
trip of 17-digit floats (the ``cli``), and a numpy complex phase matrix
and matrix product (``fracops``, ``fourier``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of each part of a slice on the 2-core Intel Xeon VM the
# benchmark was written on (Python 3.11.7, numpy 2.4.6).  They only set the
# scale of the timed metrics; comparisons between commits do not depend on
# them.
NOMINAL_S = {"loop": 0.0045, "csv": 0.0025, "phase": 0.014}

_X = np.linspace(0.0, 7.0, 400)
_K = np.arange(32, dtype=float)
_W = np.linspace(-3.0, 3.0, 8192)
_C = np.full(32, 1.0 / 32)


def _loop() -> float:
    acc = 0j
    z = 2.5 + 1.0j
    for k in range(8000):
        acc += (z - k) ** 0.5 * (-1) ** (k & 1) / (k + 1.0)
    return acc.real


def _csv() -> float:
    lines = [",".join([f"{x:.16e}", f"{v:.16e}", f"{-v:.16e}", "1"])
             for x, v in zip(_X, _X * 1.5)]
    total = 0.0
    for line in "\n".join(lines).splitlines():
        total += float(line.split(",")[1])
    return total


def _phase() -> float:
    # 4 MB phase matrix and a product with it, as in AtomSum.evaluate
    phases = np.exp(-1j * np.outer(_K, _W))
    return float(np.abs(_C @ phases).sum())


_PARTS = {"loop": _loop, "csv": _csv, "phase": _phase}


def sample(count: int) -> list[float]:
    """Run `count` reference slices back to back; return each slice's
    slowdown: the mean over its parts of time / nominal time."""
    out = []
    for _ in range(count):
        ratio = 0.0
        for name, part in _PARTS.items():
            t0 = time.perf_counter()
            part()
            ratio += (time.perf_counter() - t0) / NOMINAL_S[name]
        out.append(ratio / len(_PARTS))
    return out


def slices_for(seconds: float, share: float = 0.1) -> int:
    """How many slices to run after a job of `seconds`: about `share` of
    its time, and at least one."""
    return max(1, round(share * seconds / sum(NOMINAL_S.values())))


def slowdown(samples: list[float]) -> float:
    """How much slower than nominal the machine ran while `samples` were
    taken (1.0 when there are none)."""
    return statistics.median(samples) if samples else 1.0
