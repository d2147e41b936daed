"""Command line interface.

Subcommands:

* ``tables``  -- closed-form matrix coefficient tables of both vector
  three-term relations, as JSON or CSV.
* ``verify``  -- run the verification suite for one family (JSON report).
* ``moments`` -- moments of the bivariate functional, as JSON or CSV.
* ``eval``    -- evaluate one basis polynomial at a point (JSON).

``--mode float`` (``verify`` and ``eval``) rounds the exact coefficients,
matrix entries and point to doubles once and evaluates in floating point;
everything before that rounding is exact.

Family parameters are given as exact rational strings (``--mu 1/2``,
``--alpha -1/2``, ``--g 5``), at most 10000 characters long; decimal
literals like ``0.25`` are read exactly, with a decimal exponent of at
most 1000 in absolute value.  Exact results print in full.  JSON output
is canonical: keys sorted, two-space indent, so a parse/re-serialize
round trip is byte-identical.

``--max-n``, ``--max-h``, ``--max-k`` and ``eval --n`` are bounded by
``MAX_DEGREE`` (64) and ``verify --points`` by ``MAX_POINTS`` (10000); a
larger value is a usage error, as is a ``--mode float`` point, power or
coefficient that overflows a double.  Only ``verify`` imports the
relation builders (``ttr``), the Gram oracle (``oracle``) and the
verification suite (``verify``).

Exit codes: 0 success; 1 verification failed; 2 usage or parameter
error (a degree, point count or literal above its ceiling included); 3
the functional is not quasi-definite at these parameters (a required
denominator or norm vanished).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .catalog import FAMILY_PARAMS, catalog_id, make_system
from .closed_forms import closed_form_first, closed_form_second
from .numerics import (TABLE_KEYS, ModeError, QuasiDefinitenessError,
                       _check_degrees, _eval_at, parse_rational)

SCHEMA = "ortho2d/1"

_PARAM_FLAGS = tuple(dict.fromkeys(
    key for params in FAMILY_PARAMS.values() for key in params))

# Largest value of --max-n, --max-h, --max-k and eval's --n.  Exact work
# grows fast with the degree, so a larger bound is refused rather than left
# to run without end; at this ceiling, tables and moments finish in seconds.
MAX_DEGREE = 64

# Largest value of verify's --points: the suite draws that many points per
# degree and axis, so an unbounded value would exhaust memory.
MAX_POINTS = 10000

def canonical_json(obj):
    """Deterministic JSON text: sorted keys, two-space indent, trailing
    newline.  Parsing and re-serializing the output is byte-identical."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _family_id(args):
    """The CatalogId of the family flags: the flag strings go to
    ``catalog_id`` as given, which checks the names and parses them."""
    values = {key: getattr(args, key) for key in _PARAM_FLAGS}
    return catalog_id(args.family, **{
        key: v for key, v in values.items() if v is not None})


def _write_json(args, command, cid, **fields):
    """Write a subcommand's JSON: the head all four share (schema, command,
    family, parameters) plus the command's own fields."""
    _write_output(args, canonical_json({
        "schema": SCHEMA, "command": command, "family": cid.name,
        "parameters": {key: str(value) for key, value in cid.params},
        **fields}))


def _write_output(args, text):
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _check_max(value, name, ceiling=MAX_DEGREE):
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    if value > ceiling:
        raise ValueError(f"{name} must be at most {ceiling}, got {value}")
    return value


# -- tables -------------------------------------------------------------


def _degree_tables(cid, n):
    """Per-degree coefficient table: one array per named band position,
    indexed by the row m; null marks positions outside the matrix."""
    rows = [{**closed_form_first(cid, n, m), **closed_form_second(cid, n, m)}
            for m in range(n + 1)]
    return {"n": n, **{key: [None if row[key] is None else str(row[key])
                             for row in rows] for key in TABLE_KEYS}}


def _cmd_tables(args):
    cid = _family_id(args)
    max_n = _check_max(args.max_n, "--max-n")
    tables = [_degree_tables(cid, n) for n in range(max_n + 1)]
    if args.format == "json":
        _write_json(args, "tables", cid, max_degree=max_n, tables=tables)
    else:
        rows = [[entry["n"], m, key, entry[key][m]] for entry in tables
                for m in range(entry["n"] + 1) for key in TABLE_KEYS
                if entry[key][m] is not None]
        _write_output(args, _csv_text(["n", "m", "key", "value"], rows))
    return 0


# -- verify -------------------------------------------------------------


def _cmd_verify(args):
    cid = _family_id(args)
    max_n = _check_max(args.max_n, "--max-n")
    _check_max(args.points, "--points", MAX_POINTS)
    from .verify import run_suite
    report = run_suite(cid, max_n, mode=args.mode, points=args.points,
                       seed=args.seed, corrupt=args.corrupt)
    fields = report.to_obj()
    del fields["family"]  # the head names the family by its bare name
    _write_json(args, "verify", cid, **fields)
    return 0 if report.ok else 1


# -- moments ------------------------------------------------------------


def _cmd_moments(args):
    cid = _family_id(args)
    max_h = _check_max(args.max_h, "--max-h")
    max_k = _check_max(args.max_k, "--max-k")
    system = make_system(cid)
    moments = [{"h": h, "k": k, "value": str(system.w_moment(h, k))}
               for h in range(max_h + 1) for k in range(max_k + 1)]
    if args.format == "json":
        _write_json(args, "moments", cid, max_h=max_h, max_k=max_k,
                    moments=moments)
    else:
        rows = [[mm["h"], mm["k"], mm["value"]] for mm in moments]
        _write_output(args, _csv_text(["h", "k", "value"], rows))
    return 0


# -- eval ---------------------------------------------------------------


def _cmd_eval(args):
    cid = _family_id(args)
    _check_degrees(args.n, args.m)
    _check_max(args.n, "--n")
    x = parse_rational(args.x)
    y = parse_rational(args.y)
    system = make_system(cid)
    if args.mode == "exact":
        value = str(system.expand_P(args.n, args.m).eval(x, y))
        px, py = str(x), str(y)
    else:
        try:
            px, py = float(x), float(y)
        except OverflowError:
            raise OverflowError(f"the point ({args.x}, {args.y}) "
                                f"overflows a double") from None
        value = _eval_at(system._P_float(args.n, args.m)[0], (px, py), 0.0)
        if not math.isfinite(value):
            raise OverflowError(f"the ({args.n},{args.m}) basis polynomial "
                                f"overflows a double at ({px}, {py})")
    _write_json(args, "eval", cid, n=args.n, m=args.m, mode=args.mode,
                x=px, y=py, value=value)
    return 0


# -- parser -------------------------------------------------------------


def _add_family_arguments(parser):
    parser.add_argument("family", choices=sorted(FAMILY_PARAMS),
                        help="catalog family")
    for flag in _PARAM_FLAGS:
        parser.add_argument(f"--{flag}", metavar="Q",
                            help=f"family parameter {flag} "
                                 f"(exact rational, e.g. 1/2 or -0.25)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ortho2d",
        description="Exact bivariate orthogonal polynomial systems and "
                    "their vector three-term relation matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables",
                       help="matrix coefficient tables from closed forms")
    _add_family_arguments(p)
    p.add_argument("--max-n", type=int, default=3,
                   help="largest total degree (default 3)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("verify", help="run the verification suite")
    _add_family_arguments(p)
    p.add_argument("--max-n", type=int, default=8,
                   help="largest total degree (default 8)")
    p.add_argument("--mode", choices=("exact", "float"), default="exact",
                   help="relation residual arithmetic (default exact)")
    p.add_argument("--points", type=int, default=20,
                   help="random evaluation points per degree in float mode")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the evaluation points")
    p.add_argument("--corrupt", action="store_true",
                   help="deliberately perturb one closed-form entry to "
                        "demonstrate that the cross-check catches it")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("moments",
                       help="moments of the bivariate functional")
    _add_family_arguments(p)
    p.add_argument("--max-h", type=int, default=6,
                   help="largest first-variable exponent (default 6)")
    p.add_argument("--max-k", type=int, default=6,
                   help="largest second-variable exponent (default 6)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("eval", help="evaluate one basis polynomial")
    _add_family_arguments(p)
    p.add_argument("--n", type=int, required=True, help="total degree")
    p.add_argument("--m", type=int, required=True,
                   help="second-variable degree")
    p.add_argument("--x", required=True, metavar="Q",
                   help="first coordinate (exact rational)")
    p.add_argument("--y", required=True, metavar="Q",
                   help="second coordinate (exact rational)")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(func=_cmd_eval)

    for p in sub.choices.values():
        p.add_argument("--output", metavar="PATH",
                       help="write here, not stdout")
    return parser


def main(argv=None):
    parser = build_parser()
    # A valid exact result may print as an integer longer than the
    # interpreter's int-to-str digit limit (none before Python 3.10.7):
    # lift it for the call and restore it after.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except QuasiDefinitenessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ZeroDivisionError:  # its text is a backend repr: not shown
        print("error: a closed-form denominator vanished at these "
              "parameters; the functional is not quasi-definite",
              file=sys.stderr)
        return 3
    except (ValueError, ModeError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
