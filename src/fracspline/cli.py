"""Command-line frontend: evaluate splines on grids, compute transforms,
apply fractional operators to sampled data, and run the verification
harness.

Exit codes: 0 pass, 1 usage or parameter error, 2 verification failure,
3 I/O error.  All numeric output is printed with 17 significant digits so
files round-trip exactly and identical configurations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .clifford import Paravector
from .errors import (
    EmptyAdmissibleSetError,
    FracSplineError,
    GridResolutionError,
    SignalFormatError,
)
from .fourier import hat_bupsilon_components, hat_bz, hat_en, hat_ez, omega_fn
from .fracops import (
    SampledSignal,
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
    ExponentialWeights,
    SplineOrder,
    eval_bn,
    eval_bupsilon_components,
    eval_bz,
    eval_exp_bspline,
    eval_ez,
    series_terms,
)

FAMILIES = ("classical", "fractional", "complex", "exponential",
            "complex-exponential", "hypercomplex")

_DEFAULT_VERIFY_GRIDS = {
    "classical": (-20.0, 20.0, 0.05),
    "fractional": (-3.0, 3.0, 0.01),
    "complex": (-3.0, 3.0, 0.01),
    "exponential": (-8.0, 8.0, 0.02),
    "complex-exponential": (-3.0, 3.0, 0.01),
    "hypercomplex": (-8.0, 8.0, 0.02),
}

_DEFAULT_VERIFY_TOL = {
    "classical": 1e-12,
    "fractional": 1e-3,
    "complex": 1e-3,
    "exponential": 1e-10,
    "complex-exponential": 1e-6,
    "hypercomplex": 5e-3,
}


class UsageError(FracSplineError, ValueError):
    pass


def _fmt(x: float) -> str:
    """17 significant digits, round-trip safe."""
    return f"{float(x):.16e}"


def _json_dump(value, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_json_dump(v, indent + 1)}'
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{pad}  {_json_dump(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if value is None:
        return "null"
    return json.dumps(str(value))


def _json_template(fields: dict, indent: int) -> str:
    """%-template of one JSON object laid out exactly as _json_dump lays
    it out; fields maps each key to a %-spec or to a nested fields dict."""
    pad = "  " * indent
    items = ",\n".join(
        f"{pad}  {json.dumps(k)}: "
        + (_json_template(v, indent + 1) if isinstance(v, dict) else v)
        for k, v in fields.items()
    )
    return "{\n" + items + "\n" + pad + "}"


# rows formatted per piece of output text: bounds the Python objects alive
# at once while a large table is written
_ROWS_PER_PIECE = 4096


def _table_text(fmt: str, header: list[str], columns, fields=None):
    """Text of equal-length columns, one row per index, in pieces of
    _ROWS_PER_PIECE rows: CSV under a header line, or a JSON list of records
    (one flat record of the header names unless fields gives the record
    layout).  Each row is one %-template; floats print as 17 significant
    digits and integer or boolean columns as integers, the bytes _fmt and
    _json_dump give."""
    columns = [np.asarray(c) for c in columns]
    specs = ["%d" if c.dtype.kind in "biu" else "%.16e" for c in columns]
    count = columns[0].size
    if fmt == "json":
        if not count:
            yield "[]\n"
            return
        template = "  " + _json_template(fields or dict(zip(header, specs)), 1)
        sep, head, tail = ",\n", "[\n", "\n]\n"
    else:
        template = ",".join(specs)
        sep, head, tail = "\n", ",".join(header) + "\n", "\n"
        if not count:
            yield head
            return
    yield head
    for start in range(0, count, _ROWS_PER_PIECE):
        rows = zip(*(c[start:start + _ROWS_PER_PIECE].tolist() for c in columns))
        yield (sep if start else "") + sep.join([template % row for row in rows])
    yield tail


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
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def _parse_complex(spec: str) -> complex:
    try:
        parts = [float(p) for p in str(spec).split(",")]
    except ValueError as exc:
        raise UsageError(f"complex order must be numeric re or re,im, got {spec!r}") from exc
    if len(parts) == 1:
        return complex(parts[0], 0.0)
    if len(parts) == 2:
        return complex(parts[0], parts[1])
    raise UsageError(f"complex order must be re or re,im, got {spec!r}")


def _parse_tuple(spec: str):
    try:
        return tuple(float(p) for p in str(spec).split(","))
    except ValueError as exc:
        raise UsageError(f"weight tuple must be comma-separated numbers: {spec!r}") from exc


def _parse_upsilon(spec: str) -> Paravector:
    vals = _parse_tuple(spec)
    if len(vals) < 2:
        raise UsageError("hypercomplex order needs s,v1[,v2,...]")
    return Paravector(vals[0], list(vals[1:]))


def _require(cond: bool, message: str):
    if not cond:
        raise UsageError(message)


def _order_from_args(args) -> SplineOrder:
    fam = args.family
    if fam == "classical":
        _require(args.n is not None, "classical family needs --n")
        return SplineOrder.integer(args.n)
    if fam == "fractional":
        _require(args.alpha is not None,
                 "fractional family needs --alpha with alpha > 1")
        return SplineOrder.real(args.alpha)
    if fam == "complex":
        _require(args.z is not None, "complex family needs --z with re z > 1")
        return SplineOrder.complex_order(_parse_complex(args.z))
    if fam == "hypercomplex":
        _require(args.upsilon is not None,
                 "hypercomplex family needs --upsilon with scalar part > 1")
        return SplineOrder.hypercomplex(_parse_upsilon(args.upsilon))
    raise UsageError(f"family {fam!r} has no single spline order")


def _write_text(path: str, text):
    """Write a string, or an iterable of string pieces, to path or to
    stdout for '-'."""
    pieces = [text] if isinstance(text, str) else text
    if path in (None, "-"):
        sys.stdout.writelines(pieces)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise IOError(f"cannot write {path!r}: {exc}") from exc


def _paravector_columns(n: int) -> list[str]:
    cols = ["s_re", "s_im"]
    for i in range(1, n + 1):
        cols += [f"v{i}_re", f"v{i}_im"]
    return cols


# -- commands ---------------------------------------------------------------


def _eval_columns(args, xs):
    """Value column names, value columns and terms_used of the family on
    the grid xs, each evaluated once over the whole grid."""
    fam = args.family
    if fam == "exponential":
        _require(args.a is not None, "exponential family needs --a a1,a2,...")
        weights = ExponentialWeights.coerce(_parse_tuple(args.a))
        return ["value"], [eval_exp_bspline(weights, xs)], np.full(xs.size, weights.order)
    terms = series_terms(xs)
    if fam == "complex-exponential":
        _require(args.a is not None and args.z is not None,
                 "complex-exponential family needs --a and --z")
        a = _parse_tuple(args.a)
        _require(len(a) == 1, "complex-exponential family takes a single --a value")
        # x by keyword: benchmarks/tracing.py reads a positional x as one abscissa
        vals = eval_ez(a[0], _parse_complex(args.z), x=xs)
        return ["value_re", "value_im"], [vals.real, vals.imag], terms
    order = _order_from_args(args)
    if fam == "classical":
        return ["value"], [eval_bn(order.value, xs)], terms
    if fam == "fractional":
        return ["value"], [eval_bz(order.value, x=xs).real], terms
    if fam == "complex":
        vals = eval_bz(order.value, x=xs)
        return ["value_re", "value_im"], [vals.real, vals.imag], terms
    alpha, beta, dec = eval_bupsilon_components(order.value, xs)
    zero = np.zeros(xs.size)
    vector = [zero] * dec.n if dec.u is None else [beta * uj for uj in dec.u.tolist()]
    columns = [alpha, zero]
    for comp in vector:
        columns += [comp, zero]
    return _paravector_columns(dec.n), columns, terms


def run_eval(args) -> int:
    xs = _parse_grid(args.grid)
    header, columns, terms = _eval_columns(args, xs)
    _write_text(args.output, _table_text(args.format, ["x", *header, "terms_used"],
                                         [xs, *columns, terms]))
    return 0


def _transform_columns(args, omegas):
    """Value column names and columns of the family transform on omegas."""
    fam = args.family
    if fam == "classical":
        _require(args.n is not None, "classical family needs --n")
        vals = omega_fn(omegas) ** SplineOrder.integer(args.n).value
    elif fam == "fractional":
        _require(args.alpha is not None, "fractional family needs --alpha")
        vals = hat_bz(complex(SplineOrder.real(args.alpha).value), omegas)
    elif fam == "complex":
        _require(args.z is not None, "complex family needs --z")
        vals = hat_bz(_parse_complex(args.z), omegas)
    elif fam == "exponential":
        _require(args.a is not None, "exponential family needs --a")
        vals = hat_en(_parse_tuple(args.a), omegas)
    elif fam == "complex-exponential":
        _require(args.a is not None and args.z is not None,
                 "complex-exponential family needs --a and --z")
        a = _parse_tuple(args.a)
        _require(len(a) == 1, "complex-exponential family takes a single --a value")
        vals = hat_ez(a[0], _parse_complex(args.z), omegas)
    else:
        _require(args.upsilon is not None, "hypercomplex family needs --upsilon")
        order = SplineOrder.hypercomplex(_parse_upsilon(args.upsilon))
        alpha, beta, dec = hat_bupsilon_components(order.value, omegas)
        u = dec.u if dec.u is not None else np.zeros(dec.n)
        columns = [alpha.real, alpha.imag]
        for uj in u.tolist():
            # beta * (uj + 0i) spelled out: the signed zeros of scalar
            # complex arithmetic, which the vector loop does not keep
            columns += [beta.real * uj - beta.imag * 0.0,
                        beta.real * 0.0 + beta.imag * uj]
        return _paravector_columns(dec.n), columns
    return ["value_re", "value_im"], [vals.real, vals.imag]


def run_transform(args) -> int:
    omegas = _parse_grid(args.grid)
    header, columns = _transform_columns(args, omegas)
    fields = {"omega": "%.16e", "value": {h: "%.16e" for h in header}}
    _write_text(args.output, _table_text(args.format, ["omega", *header],
                                         [omegas, *columns], fields))
    return 0


def _read_signal_csv(path: str) -> SampledSignal:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IOError(f"cannot read {path!r}: {exc}") from exc
    xs, vals = [], []
    for line_no, line in enumerate(raw.strip().splitlines()):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if line_no == 0 and not _is_number(cells[0]):
            continue  # header row
        if len(cells) < 2:
            raise SignalFormatError(f"line {line_no + 1}: need columns x,value")
        try:
            xs.append(float(cells[0]))
            vals.append(float(cells[1]))
        except ValueError as exc:
            raise SignalFormatError(f"line {line_no + 1}: {exc}") from exc
    if len(xs) < 2:
        raise SignalFormatError("input signal needs at least two samples")
    xs = np.asarray(xs)
    steps = np.diff(xs)
    h = float(steps[0])
    if h <= 0 or np.max(np.abs(steps - h)) > 1e-8 * max(h, 1.0):
        raise SignalFormatError("input grid must be uniform and increasing")
    return SampledSignal(float(xs[0]), h, np.asarray(vals))


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def run_fracop(args) -> int:
    _require(getattr(args, "op", None) is not None,
             "fracop needs --op integral|derivative|shifted-derivative")
    _require(args.input is not None, "fracop needs --input CSV with columns x,value")
    _require(args.z is not None, "fracop needs --z (operator order)")
    signal = _read_signal_csv(args.input)
    z = _parse_complex(args.z)
    if args.op == "integral":
        out = frac_integral(z, signal)
    elif args.op == "derivative":
        out = frac_derivative(z, signal)
    elif args.op == "shifted-derivative":
        _require(args.a is not None, "shifted-derivative needs --a > 0")
        a = _parse_tuple(args.a)
        _require(len(a) == 1, "shifted-derivative takes a single --a value")
        out = shifted_frac_derivative(a[0], z, signal)
    else:
        raise UsageError(f"unknown fracop {args.op!r}")

    vals = out.values.astype(complex)
    _write_text(args.output, _table_text("csv", ["x", "value_re", "value_im", "valid"],
                                         [out.x, vals.real, vals.imag, out.valid]))
    return 0


def run_verify(args) -> int:
    fam = args.family
    if args.grid is not None:
        omegas = _parse_grid(args.grid)
    else:
        lo, hi, step = _DEFAULT_VERIFY_GRIDS[fam]
        omegas = _parse_grid(f"{lo}:{hi}:{step}")
    K = args.K if args.K is not None else 200
    tol = args.tol if args.tol is not None else _DEFAULT_VERIFY_TOL[fam]

    if fam == "classical":
        _require(args.n is not None, "classical family needs --n")
        report = classical_atom_check(args.n, omegas)
    elif fam in ("fractional", "complex"):
        if fam == "fractional":
            _require(args.alpha is not None, "fractional family needs --alpha")
            z = complex(SplineOrder.real(args.alpha).value)
        else:
            _require(args.z is not None, "complex family needs --z")
            z = _parse_complex(args.z)
        report = verify_atom_identity_complex(z, K, omegas)
    elif fam == "exponential":
        _require(args.a is not None, "exponential family needs --a")
        report = exp_difference_check(_parse_tuple(args.a), omegas)
    elif fam == "complex-exponential":
        _require(args.a is not None and args.z is not None,
                 "complex-exponential family needs --a and --z")
        a = _parse_tuple(args.a)
        _require(len(a) == 1, "complex-exponential family takes a single --a value")
        report = verify_atom_identity_expz(a[0], _parse_complex(args.z), K, omegas)
    else:
        _require(args.upsilon is not None, "hypercomplex family needs --upsilon")
        report = verify_atom_identity_hc(_parse_upsilon(args.upsilon), K, omegas)

    doc = report.to_json_dict()
    doc["tolerance"] = float(tol)
    doc["passed"] = bool(report.max_residual <= tol)
    _write_text(args.output, _json_dump(doc) + "\n")
    return 0 if doc["passed"] else 2


# -- argument plumbing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracspline",
                     description="spline families of generalized order and "
                                 "their fractional operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--family", choices=FAMILIES)
        p.add_argument("--n", type=int, help="integer order (classical family)")
        p.add_argument("--alpha", type=float, help="real order > 1")
        p.add_argument("--z", help="complex order re[,im] with re > 1")
        p.add_argument("--a", help="weight tuple a1[,a2,...]; damping for "
                                   "complex-exponential (a > 0)")
        p.add_argument("--upsilon", help="hypercomplex order s,v1[,v2,...] "
                                         "with s > 1")
        p.add_argument("--grid", help="start:stop:step")
        p.add_argument("--K", type=int, help="atom-sum truncation")
        p.add_argument("--tol", type=float, help="verification tolerance")
        p.add_argument("--output", "-o", default="-", help="output path or - for stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_eval = sub.add_parser("eval", help="evaluate a spline family on an x grid")
    add_common(p_eval)
    p_tr = sub.add_parser("transform", help="evaluate a family transform on an omega grid")
    add_common(p_tr)
    p_fr = sub.add_parser("fracop", help="apply a fractional operator to sampled data")
    add_common(p_fr)
    p_fr.add_argument("--op", choices=("integral", "derivative", "shifted-derivative"))
    p_fr.add_argument("--input", help="input CSV with columns x,value")
    p_ver = sub.add_parser("verify", help="verify a family's atom identity")
    add_common(p_ver)
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


def _merge_config(args, argv) -> None:
    """Fill unset options from the JSON config; explicit flags win."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            conf = json.load(fh)
    except OSError as exc:
        raise IOError(f"cannot read config {args.config!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {args.config!r} is not valid JSON: {exc}") from exc
    if not isinstance(conf, dict):
        raise UsageError("config file must hold a JSON object")
    passed = {tok[2:].split("=", 1)[0].replace("-", "_")
              for tok in argv if tok.startswith("--")}
    for key, value in conf.items():
        dest = str(key).replace("-", "_")
        if dest in ("command", "config") or not hasattr(args, dest):
            raise UsageError(f"unknown config key {key!r}")
        if dest in passed:
            continue
        try:
            if dest in ("n", "K"):
                value = _config_int(key, value)
            elif dest in ("alpha", "tol"):
                value = float(value)
            elif isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            elif not isinstance(value, str):
                value = str(value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config key {key!r} needs a number, got {value!r}") from exc
        setattr(args, dest, value)


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        _merge_config(args, argv)
        if getattr(args, "family", None) is None and args.command != "fracop":
            raise UsageError(f"{args.command} needs --family")
        if args.command == "eval":
            _require(args.grid is not None, "eval needs --grid start:stop:step")
            return run_eval(args)
        if args.command == "transform":
            _require(args.grid is not None, "transform needs --grid start:stop:step")
            return run_transform(args)
        if args.command == "fracop":
            return run_fracop(args)
        if args.command == "verify":
            return run_verify(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EmptyAdmissibleSetError, GridResolutionError) as exc:
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
