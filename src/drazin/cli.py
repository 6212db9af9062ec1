"""Command-line front end with JSON matrix files and machine-readable reports.

Matrices travel as JSON objects

    {"rows": 2, "cols": 2, "entries": [[re, im], [re, im], ...]}

with the entries flattened row by row; each component is a JSON integer or
a "p/q" string, read by ``GaussianRational.parse`` in the one grammar of
``drazin.scalars`` that the library uses too.  Output components are
always strings so every scalar survives a round trip exactly.  Polynomial
results carry their coefficient matrices under the same schema next to a
variable tag.  Error messages name a bad value by its type and length and
quote at most a short prefix of it.

One subcommand exists per library operation.  Reports land on stdout as
JSON (or aligned text with --emit text) and include the index profile,
the minor-sum denominator, restriction flags, and the intermediate
vectors of the two-sided solver, so agreement between representations
can be checked from the command line alone.  Each input matrix is prepared
(square check, index walk, kernel) once by ``inverses._prepare``, and
every part of a report, such as the three routes of ``drazin`` or the
series, profile and denominator of ``ode-left``, comes from that one
prepared object.  Failures produce a report with an "error" object and a
distinct exit status per failure class:
2 for unreadable input, 3 for a matrix above the size limit, 4 for a
group-inverse request on a matrix of higher index, 5 for shape mismatches,
1 otherwise.  A stdout closed by its reader ends the process quietly with
status 1.

The size limit bounds the cost of input from outside the program; the
library itself accepts any size.  ``_run`` reads it once
(``--max-dimension``, else ``DRAZIN_MAX_DIM``, else 10, as ASCII digits)
and is the one caller of ``load_matrix``: each subcommand names its
operand options once, in ``set_defaults(operands=...)``, and ``_run``
loads those files in that order, refusing a file whose ``rows`` or
``cols`` exceed the limit before decoding a single entry, then passes
the matrices to the subcommand's handler.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields

from .inverses import GroupIndexError, _inverse, _prepare, group_inverse, verify_drazin
from .matrices import CMatrix, ShapeError
from .ode import MatrixPolynomial, _partial
from .scalars import GaussianRational, _excerpt
from .solvers import solve_ax, solve_axb, solve_xa

EXIT_OTHER = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_GROUP_INDEX = 4
EXIT_SHAPE = 5

ENV_MAX_DIM = "DRAZIN_MAX_DIM"
DEFAULT_MAX_DIMENSION = 10
_LIMIT_TEXT = re.compile("[0-9]+")


class InputError(ValueError):
    """A matrix file or option could not be read as specified."""


class DimensionLimitError(ValueError):
    """A matrix file declares more rows or columns than the size limit."""


def _describe(value) -> str:
    """Name a JSON value by its type and length, never by its content."""
    if isinstance(value, (list, dict, str)):
        return "a %s of length %d" % (type(value).__name__, len(value))
    return "a %s" % type(value).__name__


def matrix_from_json(obj, limit=None) -> CMatrix:
    """Build a matrix from the JSON schema, validating every field.

    With a ``limit``, rows and cols above it are refused before any entry
    is read."""
    if not isinstance(obj, dict):
        raise InputError("a matrix must be a JSON object, got %s" % _describe(obj))
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except KeyError as exc:
        raise InputError("matrix object lacks the %s field" % exc)
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in (rows, cols)):
        raise InputError("rows and cols must be positive integers")
    if limit is not None and max(rows, cols) > limit:
        raise DimensionLimitError(
            "a %dx%d matrix exceeds the maximum dimension %d" % (rows, cols, limit)
        )
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise InputError("expected %d entries, got %s" % (rows * cols, _describe(entries)))
    scalars = []
    for position, pair in enumerate(entries, 1):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError("each entry must be a [re, im] pair, got %s" % _describe(pair))
        if any(isinstance(v, bool) or not isinstance(v, (int, str)) for v in pair):
            kinds = " and ".join(map(_describe, pair))
            raise InputError("components must be integers or 'p/q' strings, got %s" % kinds)
        try:
            scalars.append(GaussianRational.parse(pair))
        except ZeroDivisionError:
            raise InputError("entry %d has a zero denominator" % position)
        except (TypeError, ValueError) as exc:
            raise InputError("entry %d: %s" % (position, exc))
    data = [scalars[i * cols : (i + 1) * cols] for i in range(rows)]
    return CMatrix(data)


def matrix_to_json(m: CMatrix) -> dict:
    entries = [_jsonify(v) for row in m.data for v in row]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def load_matrix(path: str, limit: int) -> CMatrix:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError and int()'s digit cap are
        # ValueErrors; nesting past the recursion limit is a RecursionError
        raise InputError("%s is not valid JSON: %s" % (path, exc))
    return matrix_from_json(payload, limit)


def _jsonify(value):
    if isinstance(value, CMatrix):
        return matrix_to_json(value)
    if isinstance(value, MatrixPolynomial):
        return {
            "variable": value.variable,
            "rows": value.rows,
            "cols": value.cols,
            "coefficients": [matrix_to_json(c) for c in value.coefficients],
        }
    if isinstance(value, GaussianRational):
        return [str(value.re), str(value.im)]
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def _plain(value) -> str:
    if isinstance(value, (tuple, list)):
        return "(%s)" % ", ".join(_plain(v) for v in value)
    return str(value)


def _textify(report: dict) -> str:
    lines = []
    for key, value in report.items():
        if isinstance(value, (CMatrix, MatrixPolynomial)):
            lines.append("%s:" % key)
            lines.extend("  " + line for line in str(value).splitlines())
        elif isinstance(value, dict):
            lines.append("%s:" % key)
            for sub, inner in value.items():
                if isinstance(inner, (CMatrix, MatrixPolynomial)):
                    lines.append("  %s:" % sub)
                    lines.extend(
                        "    " + line for line in str(inner).splitlines()
                    )
                else:
                    lines.append("  %s: %s" % (sub, _plain(inner)))
        else:
            lines.append("%s: %s" % (key, _plain(value)))
    return "\n".join(lines)


def _profile_dict(profile) -> dict:
    return {"index": profile.k, "rank": profile.r}


def _run_drazin(args, a) -> dict:
    prepared = _prepare(a)
    methods = (
        ("column", "row", "oracle") if args.method == "all" else (args.method,)
    )
    results = {name: _inverse(prepared, name) for name in methods}
    report = {
        "command": "drazin",
        "profile": _profile_dict(prepared.profile),
        "denominator": prepared.denominator,
        "methods": results,
        "inverse": results[methods[0]],
    }
    if len(results) > 1:
        first = results[methods[0]]
        report["methods_agree"] = all(m == first for m in results.values())
    return report


def _run_group(args, a) -> dict:
    outcome = group_inverse(a)
    return {
        "command": "group",
        "profile": _profile_dict(outcome.profile),
        "denominator": outcome.denominator,
        "inverse": outcome.inverse,
    }


def _run_solve(args, *operands) -> dict:
    report = args.solver(*operands)
    out = {
        "command": args.command,
        "x": report.x,
        "restriction_satisfied": report.restriction_satisfied,
        "profile_a": _profile_dict(report.profile_a),
        "denominator": report.denominator,
    }
    if report.profile_b is not None:
        out["profile_b"] = _profile_dict(report.profile_b)
        out["db_columns"] = report.db_columns
        out["da_rows"] = report.da_rows
    return out


def _run_ode(args, a, b) -> dict:
    prepared, solution = _partial(a, b, left=args.command == "ode-left")
    return {
        "command": args.command,
        "solution": solution,
        "profile": _profile_dict(prepared.profile),
        "denominator": prepared.denominator,
    }


def _run_verify(args, a, x) -> dict:
    axioms = verify_drazin(a, x)
    return {
        "command": "verify",
        "axioms": {f.name: getattr(axioms, f.name) for f in fields(axioms)},
        "all_hold": axioms.all_hold,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drazin",
        description="Exact generalized inverses and restricted-equation solvers.",
    )
    parser.add_argument(
        "--max-dimension",
        default=None,
        help="largest rows or cols accepted in any matrix file (default %d; "
        "overrides %s)" % (DEFAULT_MAX_DIMENSION, ENV_MAX_DIM),
    )
    parser.add_argument(
        "--emit",
        choices=("json", "text"),
        default="json",
        help="report format, json unless told otherwise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("drazin", help="Drazin inverse of a square matrix")
    one.add_argument("--input", required=True, help="matrix JSON file")
    one.add_argument(
        "--method",
        choices=("column", "row", "oracle", "all"),
        default="all",
        help="which representation to evaluate",
    )
    one.set_defaults(handler=_run_drazin, operands=("input",))

    grp = sub.add_parser("group", help="group inverse (index at most 1)")
    grp.add_argument("--input", required=True, help="matrix JSON file")
    grp.set_defaults(handler=_run_group, operands=("input",))

    for name, solver, operands in (
        ("solve-ax", solve_ax, ("A", "B")),
        ("solve-xa", solve_xa, ("A", "B")),
        ("solve-axb", solve_axb, ("A", "B", "D")),
    ):
        cmd = sub.add_parser(name, help="solve the %s system" % name[6:].upper())
        cmd.add_argument("--A", required=True, help="coefficient matrix file")
        cmd.add_argument("--B", required=True, help="matrix file")
        if "D" in operands:
            cmd.add_argument("--D", required=True, help="right-hand side file")
        cmd.set_defaults(handler=_run_solve, solver=solver, operands=operands)

    for name in ("ode-left", "ode-right"):
        side = "X' + AX = B" if name == "ode-left" else "X' + XA = B"
        cmd = sub.add_parser(name, help="polynomial solution of %s" % side)
        cmd.add_argument("--A", required=True, help="coefficient matrix file")
        cmd.add_argument("--B", required=True, help="right-hand side file")
        cmd.set_defaults(handler=_run_ode, operands=("A", "B"))

    ver = sub.add_parser("verify", help="check the defining axioms for a candidate")
    ver.add_argument("--A", required=True, help="matrix file")
    ver.add_argument("--X", required=True, help="candidate inverse file")
    ver.set_defaults(handler=_run_verify, operands=("A", "X"))
    return parser


def _parse_limit(text: str, source: str) -> int:
    """A size limit: ASCII digits only, at least 1."""
    if _LIMIT_TEXT.fullmatch(text):
        try:
            limit = int(text)
        except ValueError:  # more digits than int() converts
            pass
        else:
            if limit >= 1:
                return limit
    raise InputError("%s must be a positive integer, got %s" % (source, _excerpt(text)))


def _resolve_limit(args) -> int:
    if args.max_dimension is not None:
        return _parse_limit(args.max_dimension, "--max-dimension")
    raw = os.environ.get(ENV_MAX_DIM)
    if raw is None:
        return DEFAULT_MAX_DIMENSION
    return _parse_limit(raw, ENV_MAX_DIM)


def _emit(report: dict, mode: str) -> None:
    # flushed here, so a closed stdout fails inside main and not at exit
    if mode == "json":
        print(json.dumps(_jsonify(report), indent=2), flush=True)
    else:
        print(_textify(report), flush=True)


def _discard_stdout() -> None:
    """Point the stdout file descriptor at the null device, so the flush at
    interpreter exit cannot fail again on a pipe whose reader is gone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a file descriptor
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


_ERROR_KINDS = (
    (InputError, "parse", EXIT_PARSE),
    (DimensionLimitError, "dimension", EXIT_DIMENSION),
    (GroupIndexError, "group-index", EXIT_GROUP_INDEX),
    (ShapeError, "shape", EXIT_SHAPE),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        # the reader closed stdout (``drazin ... | head``): no report can
        # reach it, so end quietly
        _discard_stdout()
        return EXIT_OTHER


def _run(args) -> int:
    try:
        # rendering happens inside the contract too: a component too long
        # for str() becomes an error report before anything is printed
        limit = _resolve_limit(args)
        operands = [load_matrix(getattr(args, name), limit) for name in args.operands]
        _emit(args.handler(args, *operands), args.emit)
    except BrokenPipeError:
        raise
    except Exception as exc:  # noqa: BLE001 - every failure becomes a report
        for kind_type, kind, code in _ERROR_KINDS:
            if isinstance(exc, kind_type):
                break
        else:
            kind, code = "other", EXIT_OTHER
        _emit(
            {"command": args.command, "error": {"kind": kind, "message": str(exc)}},
            args.emit,
        )
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
