"""Command-line frontend: evaluate splines on grids, compute transforms,
apply fractional operators to sampled data, and run the verification
harness.

Exit codes: 0 pass, 1 usage or parameter error, 2 verification failure,
3 I/O error.  All numeric output is printed with 17 significant digits
so files round-trip exactly, and the same input, numpy build and CPU
SIMD level produce identical bytes; across SIMD levels numpy's real log,
exp, arctan2, power and tan and its complex abs run other loops, and
values agree to each function's stated accuracy.  Each subcommand takes
only the flags it reads, and a config key only where its flag is taken:
verify takes --K only for the fractional, complex, complex-exponential
and hypercomplex families, whose atom sums are truncated, and fracop
takes --a only with --op shifted-derivative.  verify passes when
max_residual is at most --tol if that is given, and otherwise when it is
at most the report's own certificate, its tail_bound, and that bound is
below the largest modulus of the identity's left side; it writes the
bound it used as "tolerance".  _family_order parses each family's order
flags once and checks their ranges with the order functions of splines;
eval, transform and verify only choose the library call.  A value of
eval, transform or fracop that leaves the float range is the library's
NumericError, which names the order, not a cell.  textio writes every
output and reads fracop's input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .clifford import Paravector
from .errors import EmptyAdmissibleSetError, FracSplineError
from .fourier import hat_bupsilon_components, hat_bz, hat_en, hat_ez, omega_fn
from .fracops import (
    classical_atom_check,
    exp_difference_check,
    frac_derivative,
    frac_integral,
    shifted_frac_derivative,
    verify_atom_identity_complex,
    verify_atom_identity_expz,
    verify_atom_identity_hc,
)
from .splines import (
    complex_order,
    eval_bn,
    eval_bupsilon_components,
    eval_bz,
    eval_exp_bspline,
    eval_ez,
    exponential_weights,
    hypercomplex_exponent,
    integer_order,
    real_order,
    series_terms,
)
from .textio import read_signal, write_json, write_table

# each family, with verify's frequency grid for an unset --grid
_VERIFY_DEFAULTS = {
    "classical": "-20:20:0.05",
    "fractional": "-3:3:0.01",
    "complex": "-3:3:0.01",
    "exponential": "-8:8:0.02",
    "complex-exponential": "-3:3:0.01",
    "hypercomplex": "-8:8:0.02",
}
FAMILIES = tuple(_VERIFY_DEFAULTS)
# the values of the options with a fixed set, from a flag or a config file
_CHOICES = {"family": FAMILIES, "format": ("csv", "json"),
            "op": ("integral", "derivative", "shifted-derivative")}


class UsageError(FracSplineError, ValueError):
    pass


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"grid values must be numeric: {spec!r}") from exc
    if not np.isfinite([start, stop, step]).all():
        raise UsageError(f"grid values must be finite: {spec!r}")
    if step <= 0 or stop < start:
        raise UsageError(f"grid needs stop >= start and step > 0, got {spec!r}")
    try:
        return start + step * np.arange(int(np.floor((stop - start) / step + 1e-9)) + 1)
    except (OverflowError, ValueError, MemoryError) as exc:
        # a point count past int64, or a grid no array can hold
        raise UsageError(f"grid {spec!r} has too many points: {exc}") from exc


def _parse_tuple(spec: str, what: str = "weight tuple"):
    try:
        return tuple(float(p) for p in str(spec).split(","))
    except ValueError as exc:
        raise UsageError(f"{what} must be comma-separated numbers: {spec!r}") from exc


def _parse_complex(spec: str) -> complex:
    parts = _parse_tuple(spec, "complex order")
    _require(len(parts) <= 2, f"complex order must be re or re,im, got {spec!r}")
    return complex(*parts)


def _parse_upsilon(spec: str) -> Paravector:
    vals = _parse_tuple(spec, "hypercomplex order")
    _require(len(vals) >= 2, "hypercomplex order needs s,v1[,v2,...]")
    return Paravector(vals[0], list(vals[1:]))


def _require(cond: bool, message: str):
    if not cond:
        raise UsageError(message)


def _single_a(spec, what: str) -> float:
    """The one value of --a that the damped family and operator take."""
    _require(spec is not None, f"{what} needs --a > 0")
    a = _parse_tuple(spec)
    _require(len(a) == 1, f"{what} takes a single --a value")
    return a[0]


def _family_order(args):
    """The order of args.family, its flags read once: n, alpha, z, the
    weights, (a, z) or the paravector.  Their ranges are checked by
    integer_order, real_order, exponential_weights, hypercomplex_exponent,
    complex_order and the library calls that take a."""
    fam = args.family
    _require(fam is not None, f"{args.command} needs --family, one of {', '.join(FAMILIES)}")
    if fam == "classical":
        _require(args.n is not None, "classical family needs --n")
        return integer_order(args.n)
    if fam == "fractional":
        _require(args.alpha is not None, "fractional family needs --alpha with alpha > 1")
        return real_order(args.alpha)
    if fam == "exponential":
        _require(args.a is not None, "exponential family needs --a a1,a2,...")
        return exponential_weights(_parse_tuple(args.a))
    if fam == "hypercomplex":
        _require(args.upsilon is not None,
                 "hypercomplex family needs --upsilon with scalar part > 1")
        upsilon = _parse_upsilon(args.upsilon)
        hypercomplex_exponent(upsilon)
        return upsilon
    _require(args.z is not None, f"{fam} family needs --z with re z > 1")
    z = complex_order(_parse_complex(args.z))
    if fam == "complex":
        return z
    return _single_a(args.a, "complex-exponential family"), z


def _value_header(count: int) -> list[str]:
    """Names of count value columns: one real value, one complex value, or
    the (re, im) pairs of a paravector's scalar and vector components."""
    if count <= 2:
        return ["value"] if count == 1 else ["value_re", "value_im"]
    names = ["s", *(f"v{i}" for i in range(1, count // 2))]
    return [f"{name}_{part}" for name in names for part in ("re", "im")]


# -- commands ---------------------------------------------------------------


def run_eval(args) -> int:
    xs = _parse_grid(args.grid)
    fam, order = args.family, _family_order(args)
    if fam == "exponential":
        values = [eval_exp_bspline(order, xs)]
    elif fam == "classical":
        values = [eval_bn(order, xs)]
    elif fam == "hypercomplex":
        alpha, beta, dec = eval_bupsilon_components(order, xs)
        comps = dec.components(alpha, beta)
        zeros = np.zeros(xs.size)  # every component is real: one shared _im column
        values = [part for comp in comps for part in (comp, zeros)]
    elif fam == "fractional":
        values = [eval_bz(order, x=xs).real]
    else:
        # x by keyword: benchmarks/tracing.py reads a positional x as one abscissa
        vals = eval_ez(*order, x=xs) if fam == "complex-exponential" else eval_bz(order, x=xs)
        values = [vals.real, vals.imag]
    terms = np.full(xs.size, len(order)) if fam == "exponential" else series_terms(xs)
    write_table(args.output, args.format, ["x", *_value_header(len(values)), "terms_used"],
                [xs, *values, terms])
    return 0


def run_transform(args) -> int:
    omegas = _parse_grid(args.grid)
    fam, order = args.family, _family_order(args)
    if fam == "hypercomplex":
        alpha, beta, dec = hat_bupsilon_components(order, omegas)
        comps = dec.components(alpha, beta)
    elif fam == "classical":
        comps = [omega_fn(omegas) ** order]
    elif fam == "exponential":
        comps = [hat_en(order, omegas)]
    elif fam == "complex-exponential":
        comps = [hat_ez(*order, omegas)]
    else:
        comps = [hat_bz(complex(order), omegas)]
    values = [part for comp in comps for part in (comp.real, comp.imag)]
    header = _value_header(len(values))
    fields = {"omega": "%.16e", "value": {h: "%.16e" for h in header}}
    write_table(args.output, args.format, ["omega", *header], [omegas, *values], fields)
    return 0


def run_fracop(args) -> int:
    _require(args.op is not None,
             "fracop needs --op integral|derivative|shifted-derivative")
    _require(args.input is not None, "fracop needs --input CSV with columns x,value")
    _require(args.z is not None, "fracop needs --z (operator order)")
    _require(args.a is None or args.op == "shifted-derivative",
             f"--a is taken by --op shifted-derivative only, not by {args.op}")
    signal = read_signal(args.input)
    z = _parse_complex(args.z)
    if args.op == "integral":
        out = frac_integral(z, signal)
    elif args.op == "derivative":
        out = frac_derivative(z, signal)
    else:
        out = shifted_frac_derivative(_single_a(args.a, "shifted-derivative"), z, signal)
    vals = out.values  # a real result's .imag is a column of zeros
    write_table(args.output, "csv", ["x", "value_re", "value_im", "valid"],
                [out.x, vals.real, vals.imag, out.valid])
    return 0


def run_verify(args) -> int:
    fam, order = args.family, _family_order(args)
    omegas = _parse_grid(args.grid if args.grid is not None else _VERIFY_DEFAULTS[fam])
    tol = args.tol
    _require(tol is None or (np.isfinite(tol) and tol >= 0),
             f"--tol must be finite and >= 0, got {tol!r}")
    _require(args.K is None or fam not in ("classical", "exponential"),
             f"the {fam} family's atom sum is exact: --K is taken by the truncated families only")
    K = args.K if args.K is not None else 200
    if fam == "classical":
        report = classical_atom_check(order, omegas)
    elif fam == "exponential":
        report = exp_difference_check(order, omegas)
    elif fam == "complex-exponential":
        report = verify_atom_identity_expz(*order, K, omegas)
    elif fam == "hypercomplex":
        report = verify_atom_identity_hc(order, K, omegas)
    else:
        report = verify_atom_identity_complex(complex(order), K, omegas)

    doc = report.to_json_dict()
    doc["tolerance"] = report.tail_bound if tol is None else tol
    doc["passed"] = report.verified(tol)
    write_json(args.output, doc)
    return 0 if doc["passed"] else 2


# -- argument plumbing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser(defaults=None) -> argparse.ArgumentParser:
    """The parser; an absent flag named in defaults takes its value there."""
    parser = _Parser(prog="fracspline",
                     description="spline families of generalized order and "
                                 "their fractional operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text, *, family: bool, table: bool):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with default option values")
        if family:
            p.add_argument("--family", choices=_CHOICES["family"])
            p.add_argument("--n", type=int, help="integer order (classical family)")
            p.add_argument("--alpha", type=float, help="real order > 1")
            p.add_argument("--upsilon", help="hypercomplex order s,v1[,v2,...] with s > 1")
            p.add_argument("--grid", help="start:stop:step")
        p.add_argument("--z", help="complex order re[,im]: re > 1 for a family, "
                                   "re > 0 for an operator")
        p.add_argument("--a", help="weight tuple a1[,a2,...]; damping a > 0 for "
                                   "complex-exponential and shifted-derivative")
        p.add_argument("--output", "-o", default="-", help="output path or - for stdout")
        if table:
            p.add_argument("--format", choices=_CHOICES["format"], default="csv")
        # options added after this call take these defaults too
        p.set_defaults(**(defaults or {}))
        return p

    add_command("eval", "evaluate a spline family on an x grid", family=True, table=True)
    add_command("transform", "evaluate a family transform on an omega grid",
                family=True, table=True)
    p_fr = add_command("fracop", "apply a fractional operator to sampled data",
                       family=False, table=False)
    p_fr.add_argument("--op", choices=_CHOICES["op"])
    p_fr.add_argument("--input", help="input CSV with columns x,value")
    p_ver = add_command("verify", "verify a family's atom identity", family=True, table=False)
    p_ver.add_argument("--K", type=int, help="atom-sum truncation of the fractional, complex, "
                                             "complex-exponential and hypercomplex families")
    p_ver.add_argument("--tol", type=float,
                       help="pass when max_residual <= tol (default: the report's tail_bound)")
    return parser


def _config_int(key, value) -> int:
    """An integral config value: an integer, a float with no fractional
    part, or a string --n/--K would take.  Truncating 3.7 to 3 would
    evaluate another order than the one asked for; booleans are not
    numbers."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise UsageError(f"config key {key!r} needs an integer, got {value!r}")


def _config_float(key, value) -> float:
    """A real config value: a number, or a string --alpha/--tol would take;
    booleans are not numbers."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise UsageError(f"config key {key!r} needs a number, got {value!r}")


def _config_text(key, value) -> str:
    """A config value for a text flag: a string, a number, or a list of
    them joined by commas.  null, booleans, objects and nested lists have
    no spelling a flag would take."""
    items = value if isinstance(value, list) else [value]
    if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
        raise UsageError(f"config key {key!r} needs a number, a string or a list of them, "
                         f"got {value!r}")
    return ",".join(str(v) for v in items)


def _config_defaults(args) -> dict:
    """The checked values of the JSON config file args.config, by option
    name: the defaults of its flags, so an explicit flag wins in any spelling."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            conf = json.load(fh)
    except OSError as exc:
        raise IOError(f"cannot read config {args.config!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {args.config!r} is not valid JSON: {exc}") from exc
    if not isinstance(conf, dict):
        raise UsageError("config file must hold a JSON object")
    defaults = {}
    for key, value in conf.items():
        dest = str(key).replace("-", "_")
        if dest in ("command", "config") or not hasattr(args, dest):
            raise UsageError(f"unknown config key {key!r}")
        if dest in ("n", "K"):
            value = _config_int(key, value)
        elif dest in ("alpha", "tol"):
            value = _config_float(key, value)
        else:
            value = _config_text(key, value)
        if dest in _CHOICES and value not in _CHOICES[dest]:
            raise UsageError(f"unknown {dest} {value!r}")
        defaults[dest] = value
    return defaults


# Built once: building takes longer than parsing one command line, and
# parse_args keeps no state between calls (each returns a new namespace).
# A config file gets a parser of its own, whose defaults are its values.
_PARSER = build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
        if args.config:
            args = build_parser(_config_defaults(args)).parse_args(argv)
        if args.command in ("eval", "transform"):
            _require(args.grid is not None, f"{args.command} needs --grid start:stop:step")
        if args.command == "eval":
            return run_eval(args)
        if args.command == "transform":
            return run_transform(args)
        if args.command == "fracop":
            return run_fracop(args)
        return run_verify(args)  # the subparsers admit no other command
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EmptyAdmissibleSetError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 2
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except FracSplineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
