"""Command-line interface.

Subcommands: ``eval``, ``order``, ``lines product``, ``certify``, ``validate``,
``falsify``, ``suite``.  Exit codes: 0 for pass/true, 1 for fail/false, 2 for
usage errors and for an argument or a result with a number past the
interpreter's digit limit (``TooLarge``, one message that echoes no
argument); a closed standard output (``... | head``) ends with
exit 1 and no traceback.  Integer flags and ``REALBICYCLIC_SEED`` take ASCII
digits only.  The default seed comes from ``REALBICYCLIC_SEED`` (flags win).
The parsers are built on first use and reused by every later ``main``, which
hands each argv to the parser of the command its leading words name; extra
arguments are reported with that command's usage (``usage: realbicyclic
eval [-h] expr``), not the top-level one.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import Dict, List, Optional, Tuple

from . import certificates as certs
from .certio import cert_to_text, read_cert, write_cert
from .exprparse import ParseError, parse_expr
from .generate import GenConfig, IntegerMode, RationalMode
from .order_geometry import Side, line_product
from .semigroup import Elem, LineRef, Sign, TooLarge, leq_witness, mul, scalar
from .suites import SUITE_NAMES, UnknownSuite, run_suite
from .topology import NbhdAc1, NbhdAc2

SEED_ENV = "REALBICYCLIC_SEED"

_LINE_RE = re.compile(r"L([+-])(.*)", re.DOTALL)  # alpha: the scalar grammar
_DIGITS = re.compile(r"[0-9]+")


class UsageError(Exception):
    """A bad command line.  Not a ValueError, so argparse lets it out of a
    flag's type function and ``main`` reports it like every other usage error."""


def _parse_element(text: str) -> Elem:
    try:
        value = parse_expr(text)
    except ParseError as exc:
        raise UsageError(f"bad element {text!r}: {exc}") from exc
    if not isinstance(value, Elem):
        raise UsageError(f"{text!r} is not an element")
    return value


def _parse_line(text: str) -> LineRef:
    m = _LINE_RE.fullmatch(text)
    if not m:
        raise UsageError(f"bad line {text!r}; expected forms like L+3 or L-1/2")
    sign = Sign.PLUS if m.group(1) == "+" else Sign.MINUS
    try:
        return LineRef(sign, scalar(m.group(2)))
    except TooLarge:
        raise
    except ValueError as exc:
        raise UsageError(f"bad line {text!r}: {exc}") from exc


def _parse_tops(text: str) -> NbhdAc2:
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if not parts:
        raise UsageError("empty top list")
    return NbhdAc2(tuple(_parse_element(p) for p in parts))


def _parse_ac1(text: str) -> NbhdAc1:
    try:
        return NbhdAc1(scalar(text))
    except TooLarge:
        raise
    except ValueError as exc:
        raise UsageError(f"bad threshold {text!r}: {exc}") from exc


def _digits(text: str) -> int:
    """The type of every integer flag: ASCII digits only, where ``int()``
    would also take signs, spaces, underscores and non-ASCII digits.  Past
    the digit limit it gives ``TooLarge``'s message, as a ``UsageError``:
    argparse would report a ``ValueError`` from a type function itself,
    echoing the argument."""
    if _DIGITS.fullmatch(text) is None:
        raise UsageError(f"expected ASCII digits, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise UsageError(str(TooLarge())) from None


def _default_seed() -> int:
    try:
        return _digits(os.environ.get(SEED_ENV, "0"))
    except UsageError as exc:
        raise UsageError(f"bad {SEED_ENV} value: {exc}") from exc


def _gen_config(args) -> GenConfig:
    try:
        if args.integer_mode:
            mode = IntegerMode(args.max_num)
        else:
            mode = RationalMode(args.max_num, args.max_den)
        return GenConfig(seed=args.seed, scalar_mode=mode, cases=args.cases)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


@functools.cache
def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[Tuple[str, ...], argparse.ArgumentParser]]:
    """The top-level parser, and each command's parser keyed by its words."""
    ap = argparse.ArgumentParser(
        prog="realbicyclic",
        description="Exact pair-semigroup calculator, order geometry, and continuity certificates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression such as '(1,3)*(2,5)'")
    p.add_argument("expr")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("order", help="compare two elements in the natural partial order")
    p.add_argument("e1")
    p.add_argument("e2")
    p.set_defaults(run=_cmd_order)

    p = sub.add_parser("lines", help="line operations")
    lines_sub = p.add_subparsers(dest="lines_command", required=True)
    lp = lines_sub.add_parser("product", help="product set of two diagonal lines")
    lp.add_argument("l1")
    lp.add_argument("l2")
    lp.set_defaults(run=_cmd_lines_product)

    p = sub.add_parser("certify", help="generate a continuity certificate")
    p.add_argument("kind", choices=("ac1", "ac2"))
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("--translator", required=True)
    p.add_argument(
        "--target",
        required=True,
        help="ac1: threshold like 4 or 9/2; ac2: tops like '(3,1);(2,5)'",
    )
    p.add_argument("--emit", metavar="FILE", help="write the certificate to FILE")
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("validate", help="validate a stored certificate")
    p.add_argument("certfile")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("falsify", help="search for a counterexample to an inclusion")
    p.add_argument("kind", choices=("ac1", "ac2"))
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("--translator", required=True)
    p.add_argument("--chosen", required=True)
    p.add_argument("--target", required=True)
    p.add_argument(
        "--seed",
        type=_digits,
        default=None,
        help=f"checked like every seed (default ${SEED_ENV} or 0); the search does not depend on it",
    )
    p.add_argument("--cases", type=_digits, default=10000)
    p.set_defaults(run=_cmd_falsify)

    p = sub.add_parser("suite", help="run a property suite")
    p.add_argument("name", choices=SUITE_NAMES)
    p.add_argument("--seed", type=_digits, default=None, help=f"seed (default ${SEED_ENV} or 0)")
    p.add_argument("--cases", type=_digits, default=1000)
    p.add_argument("--integer-mode", action="store_true", help="integer grid instead of rationals")
    p.add_argument("--max-num", type=_digits, default=20, help="largest numerator (or integer)")
    p.add_argument("--max-den", type=_digits, default=8, help="largest denominator")
    p.add_argument("--machine", action="store_true", help="machine-readable JSON report")
    p.set_defaults(run=_cmd_suite)

    routes = {(name,): parser for name, parser in sub.choices.items()}
    routes.update({("lines", name): parser for name, parser in lines_sub.choices.items()})
    return ap, routes


def _cmd_eval(args) -> int:
    try:
        value = parse_expr(args.expr)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(value, bool):
        print("true" if value else "false")
        return 0 if value else 1
    print(value)
    return 0


def _cmd_order(args) -> int:
    e1 = _parse_element(args.e1)
    e2 = _parse_element(args.e2)
    witness = leq_witness(e1, e2)
    if witness is None:
        print("false")
        return 1
    print("true")
    print(f"witness {witness}")
    return 0


def _cmd_lines_product(args) -> int:
    print(line_product(_parse_line(args.l1), _parse_line(args.l2)))
    return 0


def _cmd_certify(args) -> int:
    side = Side(args.side)
    translator = _parse_element(args.translator)
    if args.kind == "ac1":
        cert = certs.continuity_cert_ac1(side, translator, _parse_ac1(args.target))
    else:
        cert = certs.continuity_cert_ac2(side, translator, _parse_tops(args.target))
    if not certs.validate_cert(cert):
        print("error: generated certificate failed self-validation", file=sys.stderr)
        return 1
    if args.emit:
        try:
            write_cert(cert, args.emit)
        except OSError as exc:
            print(f"error: cannot write {args.emit}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote certificate to {args.emit} (valid)")
    else:
        sys.stdout.write(cert_to_text(cert))
    return 0


def _cmd_validate(args) -> int:
    try:
        ok = certs.validate_cert(read_cert(args.certfile))
    except OSError as exc:
        print(f"error: cannot read {args.certfile}: {exc}", file=sys.stderr)
        return 2
    except certs.MalformedCert as exc:
        print(f"error: malformed certificate: {exc}", file=sys.stderr)
        return 2
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def _cmd_falsify(args) -> int:
    if args.cases < 1:
        raise UsageError(f"--cases must be at least 1, got {args.cases}")
    side = Side(args.side)
    translator = _parse_element(args.translator)
    if args.kind == "ac1":
        chosen: object = _parse_ac1(args.chosen)
        target: object = _parse_ac1(args.target)
    else:
        chosen = _parse_tops(args.chosen)
        target = _parse_tops(args.target)
    seed = args.seed if args.seed is not None else _default_seed()
    hit = certs.falsify(side, translator, chosen, target, args.cases, seed)
    if hit is None:
        print(f"no counterexample within a budget of {args.cases} points")
        return 0
    image = mul(translator, hit) if side is Side.LEFT else mul(hit, translator)
    print(f"counterexample {hit} -> {image}")
    return 1


def _cmd_suite(args) -> int:
    if args.seed is None:
        args.seed = _default_seed()
    report = run_suite(args.name, _gen_config(args))
    print(report.render(machine=args.machine))
    return 0 if report.passed else 1


def _route(argv: List[str]) -> Tuple[argparse.ArgumentParser, List[str]]:
    """The most specific parser that argv's leading words name, and the rest
    of argv; the top-level parser, with all of argv, when they name none."""
    top, routes = _build_parser()
    for n in (2, 1):
        parser = routes.get(tuple(argv[:n]))
        if parser is not None:
            return parser, argv[n:]
    return top, argv


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser, rest = _route(argv)
        args = parser.parse_args(rest)
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe fails here rather than at exit
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (UsageError, UnknownSuite, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush at
        # interpreter exit cannot fail again (the Python docs' note on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
