"""Command-line surface.

Four subcommands: charpoly and adjugate compute and print JSON,
verify runs identity checks around one matrix, fuzz runs seeded random
campaigns.  All numeric I/O is decimal strings inside JSON so that
arbitrary-precision values never pass through a float.

verify and fuzz import the suite, and with it the verification engine,
only when they run, so charpoly and adjugate never load it.

Exit codes: 0 success, 1 at least one identity violation, 2 parse or
configuration error (including an out-of-range argument value and input
nested past the recursion limit), 3 shape or ring mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import report as report_mod
from .charpoly import charpoly, charpoly_newton
from .matrix import Matrix
from .poly import PolynomialRing
from .report import summarize
from .rings import (
    GuardError,
    IntegerRing,
    ModRing,
    ParseError,
    PreconditionError,
    QAlgebraRequiredError,
    RationalRing,
    RingMismatchError,
    ShapeError,
    _parse_int,
    decimal,
)
from .serialize import matrix_from_json, parse_ring


def _read_matrix(args):
    """The --matrix input, over the --ring override if one is given.
    --matrix accepts a file path, "-" for stdin, or inline JSON."""
    ring = _ring_arg(args.ring) if args.ring else None
    text = args.matrix
    if text == "-":
        raw = sys.stdin.read()
    elif text.lstrip().startswith("{"):
        raw = text
    else:
        try:
            with open(text, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ParseError(f"matrix: cannot read {text!r}: {exc}") from None
    return matrix_from_json(_loads(raw, "matrix"), ring)


def _loads(raw: str, where: str):
    """json.loads with number literals read under rings.MAX_INT_DIGITS
    instead of the interpreter's conversion limit; invalid JSON is a
    ParseError naming where."""
    try:
        return json.loads(raw, parse_int=lambda s: _parse_int(s, where))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON: {exc}") from None


def _indented(value, out: list, indent: str) -> None:
    """Append the pieces of json.dumps(value, indent=2) to out.

    json.dumps takes its pure-Python path whenever indent is set; this
    writer yields the same bytes with C-quoted strings in well under half
    the time.  A Matrix is written as json.dumps writes its to_json(),
    without building that (_matrix).  Values other than str, dict, list,
    tuple, bool, None, int and Matrix are left to json.dumps.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out.append(sep)
            out.append(_quote(key if isinstance(key, str) else json.dumps(key)))
            out.append(": ")
            _indented(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _indented(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(decimal(value))
    elif isinstance(value, Matrix):
        _matrix(value, out, indent)
    else:
        out.append(json.dumps(value))


def _matrix(m, out: list, indent: str) -> None:
    """Append json.dumps(m.to_json(), indent=2) at indent to out, each
    row as one piece of text: no per-entry JSON object is built."""
    head, row, inner, row_at = _matrix_text(m.ring, indent)
    out.append(f'{head},\n{inner}"rows": {m.rows},\n{inner}"cols": {m.cols},'
               f'\n{inner}"entries": ')
    if m.rows:
        out.append("[\n" + row_at + (",\n" + row_at).join(
            [row(m.row_list(i)) for i in range(1, m.rows + 1)])
            + "\n" + inner + "]\n" + indent + "}")
    else:
        out.append("[]\n" + indent + "}")


@functools.lru_cache(maxsize=64)
def _matrix_text(ring, indent: str):
    """What every matrix over ring at indent shares: the text up to the
    end of its descriptor, the writer of one row, and two indents."""
    inner = indent + "  "
    head = ["{\n" + inner + '"ring": ']
    _indented(ring.descriptor(), head, inner)
    return "".join(head), _list_text(ring, inner + "  "), inner, inner + "  "


def _list_text(ring, indent: str):
    """The function writing a list of elements of ring at indent as
    json.dumps writes their element_to_json: each element is the quoted
    decimal over Z and Z/m, the num/den object over Q, and over R[t] the
    list of its coefficients over R."""
    inner = indent + "  "
    open_, sep, close = "[\n" + inner, ",\n" + inner, "\n" + indent + "]"
    if isinstance(ring, (IntegerRing, ModRing)):
        open_, sep, close = open_ + '"', '"' + sep + '"', '"' + close
        entry = decimal
    elif isinstance(ring, RationalRing):
        num = "{\n" + inner + '  "num": "'
        den = '",\n' + inner + '  "den": "'
        end = '"\n' + inner + "}"

        def entry(v):
            return num + decimal(v.numerator) + den + decimal(v.denominator) + end
    elif isinstance(ring, PolynomialRing):
        coeffs = _list_text(ring.base, inner)

        def entry(v):
            return coeffs(v.coeffs)
    else:
        raise TypeError(f"no JSON text for elements of {ring!r}")
    return lambda values: (open_ + sep.join(map(entry, values)) + close
                           if values else "[]")


def _emit(payload, out_path: str | None) -> None:
    pieces = []
    _indented(payload, pieces, "")
    text = "".join(pieces)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _params(args) -> dict:
    return {"imax": args.imax, "k": args.k, "p": args.p}


def _add_matrix_opts(p) -> None:
    p.add_argument("--matrix", required=True,
                   help="matrix JSON: a path, '-' for stdin, or inline")
    p.add_argument("--ring", default=None,
                   help="ring override: shorthand (int, rat, mod:8, "
                        "poly:int) or descriptor JSON")
    p.add_argument("--out", default=None, help="write the JSON result here")


def _add_check_opts(p) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="64-bit seed for any randomized auxiliary inputs")
    p.add_argument("--imax", type=int, default=None,
                   help="power-trace bound for nilpotency converse checks")
    p.add_argument("--k", type=int, default=None,
                   help="nilpotency order for the Almkvist check")
    p.add_argument("--p", type=int, default=None,
                   help="prime for the Frobenius trace check")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so every main() call parses independently."""
    parser = argparse.ArgumentParser(
        prog="ringmat",
        description="Exact matrix computations and identity verification "
                    "over commutative rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charpoly",
                       help="characteristic polynomial, coefficients, and "
                            "the adjugate expansion of tI - A")
    _add_matrix_opts(p)
    p.add_argument("--newton", action="store_true",
                   help="use the trace recursion when the ring admits "
                        "division by integers")

    p = sub.add_parser("adjugate", help="adjugate matrix")
    _add_matrix_opts(p)
    p.add_argument("--via-charpoly", action="store_true",
                   help="accepted for compatibility: the same call (elimination, "
                        "else the charpoly-coefficient formula)")

    p = sub.add_parser("verify",
                       help="check identities around one matrix")
    p.add_argument("suite", help="suite or identity names, comma separated "
                                 "(e.g. all, core, adjugate, almkvist)")
    _add_matrix_opts(p)
    _add_check_opts(p)

    p = sub.add_parser("fuzz", help="seeded random verification campaign")
    p.add_argument("--ring", required=True,
                   help="ring to fuzz over: shorthand or descriptor JSON")
    p.add_argument("--suite", default="all",
                   help="suite or identity names, comma separated")
    p.add_argument("--count", type=int, default=100,
                   help="cases per identity")
    p.add_argument("--size", type=int, required=True,
                   help="maximum matrix dimension")
    p.add_argument("--out", default=None, help="write the JSON report here")
    _add_check_opts(p)
    return parser


def _ring_arg(text: str):
    text = text.strip()
    return parse_ring(_loads(text, "ring") if text.startswith("{") else text)


def _cmd_charpoly(args) -> int:
    a = _read_matrix(args)
    use_newton = args.newton and a.ring.is_q_algebra
    data = charpoly_newton(a) if use_newton else charpoly(a)
    payload = {"ring": a.ring.descriptor(), "n": a.rows,
               "method": "newton" if use_newton else "direct"}
    payload.update(data.json_layout())
    _emit(payload, args.out)
    return 0


def _cmd_adjugate(args) -> int:
    _emit(_read_matrix(args).adjugate(), args.out)
    return 0


def _finish_reports(reports, out_path: str | None) -> int:
    stats = summarize(reports)
    _emit([r.json_layout() for r in reports], out_path)
    sys.stdout.write(
        "total={total} passed={passed} failed={failed} "
        "hypothesis_not_met={hypothesis_not_met}\n".format(**stats))
    return 1 if stats["failed"] else 0


def _cmd_verify(args) -> int:
    from .suite import resolve_suite, run_suite
    names = resolve_suite(args.suite)     # before the matrix is read
    reports = run_suite(names, matrix=_read_matrix(args), seed=args.seed,
                        params=_params(args))
    return _finish_reports(reports, args.out)


def _cmd_fuzz(args) -> int:
    from .suite import resolve_suite, run_suite
    names = resolve_suite(args.suite)
    ring = _ring_arg(args.ring)
    reports = run_suite(names, ring=ring, seed=args.seed, count=args.count,
                        size=args.size, params=_params(args))
    return _finish_reports(reports, args.out)


_DISPATCH = {
    "charpoly": _cmd_charpoly,
    "adjugate": _cmd_adjugate,
    "verify": _cmd_verify,
    "fuzz": _cmd_fuzz,
}


def main(argv=None) -> int:
    """Run one command; RINGMAT_MUTATE holds for this call only, and the
    mutation hook is back to its previous state on every return."""
    mutate = os.environ.get("RINGMAT_MUTATE", "")
    previous = report_mod.set_mutation(n for n in mutate.split(",") if n)
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except (ParseError, GuardError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ShapeError, RingMismatchError, QAlgebraRequiredError,
            PreconditionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except RecursionError:
        sys.stderr.write("error: input nested too deeply "
                         "(recursion limit exceeded)\n")
        return 2
    finally:
        report_mod.set_mutation(previous)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
