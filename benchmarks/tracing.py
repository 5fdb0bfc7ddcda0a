"""Span tracer for the traced benchmark run.

The tracer wraps the listed public functions of the package from outside:
every ``fracspline.*`` module attribute (or class attribute, for methods)
that is bound to a listed function is replaced by a wrapper, so a call is
traced whichever module it is made from.  Spans (name, start, end, parent)
are kept in memory as flat arrays; self time is a span's duration minus
the part its child spans cover.  Functions in ``MEMORY`` also record a
``tracemalloc`` peak, and tracemalloc runs only while such a span is open,
so the untraced parts of the traced run pay nothing for it.

A listed function that no longer exists is reported with 0 calls, so the
benchmark keeps running when a later change deletes it.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
import tracemalloc
from array import array

import numpy as np

# (module, attribute path, what to record): "span" keeps a span per call,
# "count" only counts calls (for functions called per series term).
LISTED = (
    ("cli", "main", "span"),
    ("_threads", "map_ordered", "span"),
    ("splines", "eval_bz", "span"),
    ("splines", "eval_ez", "span"),
    ("splines", "eval_bupsilon", "span"),
    ("splines", "eval_bn", "span"),
    ("splines", "eval_exp_bspline", "span"),
    ("specialfn", "gamma", "span"),
    ("specialfn", "binom_complex_sequence", "span"),
    ("specialfn", "binom_hc_pair_sequence", "span"),
    ("clifford", "subalgebra_mul", "count"),
    ("fourier", "omega_fn", "span"),
    ("fourier", "omega_a_fn", "span"),
    ("fourier", "hat_bz", "span"),
    ("fourier", "hat_ez", "span"),
    ("fourier", "hat_en", "span"),
    ("fourier", "hat_bupsilon_components", "span"),
    ("fourier", "inverse_quadrature", "span"),
    ("fracops", "AtomSum.evaluate", "span"),
    ("fracops", "verify_atom_identity_complex", "span"),
    ("fracops", "verify_atom_identity_expz", "span"),
    ("fracops", "verify_atom_identity_hc", "span"),
    ("fracops", "classical_atom_check", "span"),
    ("fracops", "exp_difference_check", "span"),
    ("fracops", "frac_integral", "span"),
    ("fracops", "frac_derivative", "span"),
    ("fracops", "shifted_frac_derivative", "span"),
)

MEMORY = frozenset({
    "fracops.AtomSum.evaluate",
    "fracops.verify_atom_identity_complex",
    "fracops.verify_atom_identity_expz",
    "fracops.verify_atom_identity_hc",
    "fracops.classical_atom_check",
    "fracops.exp_difference_check",
})

# Position of the abscissa x among the arguments of the series evaluators;
# splines.terms sums the number of nonvanishing terms floor(x) + 1.
_SERIES_X_ARG = {"splines.eval_bz": 1, "splines.eval_ez": 2, "splines.eval_bupsilon": 1}


def _series_terms(x) -> int:
    x = float(x)
    return 0 if x < 0 else int(math.floor(x)) + 1


def _resolve(modname: str, path: str):
    """Return (owner, attribute, original) or None if it no longer exists."""
    try:
        owner = importlib.import_module(f"fracspline.{modname}")
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = getattr(owner, parts[-1], None)
    if orig is None:
        return None
    return owner, parts[-1], orig


class Tracer:
    """Collects spans and counters while installed; see module docstring."""

    def __init__(self):
        self.names = [f"{m}.{p}" for m, p, _ in LISTED]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = [0] * len(self.names)
        self.peak_bytes = [0] * len(self.names)
        self.series_terms = 0
        self.atom_matrix_bytes = 0
        self._stack: list[int] = []
        self._mem_stack: list[list] = []  # [traced bytes at entry, running peak]
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self):
        packages = [m for n, m in sys.modules.items()
                    if n == "fracspline" or n.startswith("fracspline.")]
        for modname, path, mode in LISTED:
            found = _resolve(modname, path)
            if found is None:
                continue
            owner, attr, orig = found
            wrapper = self._wrap(f"{modname}.{path}", orig, mode)
            if "." in path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in packages:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, orig, mode: str):
        nid = self._ids[name]
        counts = self.counts
        if mode == "count":
            @functools.wraps(orig)
            def counted(*args, **kwargs):
                counts[nid] += 1
                return orig(*args, **kwargs)
            return counted

        stack = self._stack
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        x_arg = _SERIES_X_ARG.get(name)
        memory = name in MEMORY
        atom_matrix = name == "fracops.AtomSum.evaluate"
        clock = time.perf_counter

        @functools.wraps(orig)
        def spanned(*args, **kwargs):
            counts[nid] += 1
            if x_arg is not None and len(args) > x_arg:
                self.series_terms += _series_terms(args[x_arg])
            if atom_matrix:
                self.atom_matrix_bytes = max(
                    self.atom_matrix_bytes,
                    16 * np.size(args[0].shifts) * np.size(args[1]))
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_end.append(0.0)
            stack.append(idx)
            if memory:
                self._mem_enter()
            s_start.append(clock())
            try:
                return orig(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
                if memory:
                    self._mem_exit(nid)
        return spanned

    # -- tracemalloc peaks over nested spans --------------------------------

    def _mem_enter(self):
        if not self._mem_stack:
            tracemalloc.start()
        else:
            self._mem_stack[-1][1] = max(self._mem_stack[-1][1],
                                         tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        self._mem_stack.append([tracemalloc.get_traced_memory()[0], 0])

    def _mem_exit(self, nid: int):
        base, running = self._mem_stack.pop()
        peak = max(running, tracemalloc.get_traced_memory()[1])
        self.peak_bytes[nid] = max(self.peak_bytes[nid], peak - base)
        if self._mem_stack:
            self._mem_stack[-1][1] = max(self._mem_stack[-1][1], peak)
        else:
            tracemalloc.stop()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self and inclusive seconds and peak bytes, plus
        counters.  No listed function recurses, so inclusive time is the
        plain sum of span durations."""
        n = len(self.span_start)
        names = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        parents = np.frombuffer(self.span_parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.span_end, dtype=np.float64, count=n)
               - np.frombuffer(self.span_start, dtype=np.float64, count=n))
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_s = np.bincount(names, weights=dur - child[:n], minlength=len(self.names))
        incl_s = np.bincount(names, weights=dur, minlength=len(self.names))
        roots = float(np.sum(dur[~has_parent]))
        return {
            "calls": dict(zip(self.names, self.counts)),
            "self_s": {k: float(v) for k, v in zip(self.names, self_s)},
            "incl_s": {k: float(v) for k, v in zip(self.names, incl_s)},
            "peak_bytes": dict(zip(self.names, self.peak_bytes)),
            "series_terms": self.series_terms,
            "atom_matrix_bytes": self.atom_matrix_bytes,
            "spans": n,
            "root_s": roots,
        }
