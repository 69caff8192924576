"""Command-line interface.

Subcommands: ``eval``, ``order``, ``lines product``, ``certify``, ``validate``,
``falsify``, ``suite``.  Exit codes: 0 for pass/true, 1 for fail/false, 2 for
usage errors and for an argument or a result with a number past the
interpreter's digit limit (``TooLarge``, one message that echoes no
argument); a closed standard output (``... | head``) ends with
exit 1 and no traceback.  ``main`` alone reports exit 2, in one ``error:`` line
on stderr; handlers raise ``UsageError`` or let ``ParseError`` through.
Integer flags and ``REALBICYCLIC_SEED`` take ASCII
digits only.  A line argument (``L+3``, ``L-1/2``) is read in one match of
``L[+-]`` and the scalar grammar, and the line is built from its lowest-terms
integers (``semigroup.line_literal``).  The default seed comes from
``REALBICYCLIC_SEED`` (flags win).  ``_POSITIONAL`` lists the commands that
take only plain positional strings (``eval``, ``order``, ``lines product``,
``validate``) with their argument names, handler and help; their subparsers
are declared from it.  An argv naming one of them with exactly its arity and
no argument starting with '-' gets a plain ``SimpleNamespace`` with the
attributes argparse would set, and its handler writes each result with one
``sys.stdout.write``.  Every other argv (``-h``, ``--``, ``-1``, a missing or
extra argument, a command with flags) goes to the parser of the command its
leading words name; ``argparse`` is imported and the parsers built on the
first such argv, and reused by every later ``main``.  Extra arguments are
reported with that command's usage (``usage: realbicyclic eval [-h] expr``),
not the top-level one.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from types import SimpleNamespace

from . import certificates as certs
from .certio import cert_to_text, read_cert, write_cert
from .exprparse import ParseError, parse_expr
from .generate import GenConfig, IntegerMode, RationalMode
from .order_geometry import Side, _LEFT, line_product
from .semigroup import Elem, LineRef, TooLarge, leq_witness, line_literal, mul, scalar
from .suites import SUITE_NAMES, UnknownSuite, run_suite
from .topology import NbhdAc1, NbhdAc2

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

SEED_ENV = "REALBICYCLIC_SEED"

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
    try:
        return line_literal(text)
    except TooLarge:
        raise
    except ValueError as exc:
        if not text.startswith(("L+", "L-")):
            raise UsageError(f"bad line {text!r}; expected forms like L+3 or L-1/2") from exc
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
def _build_parser() -> tuple[argparse.ArgumentParser, dict[tuple[str, ...], argparse.ArgumentParser]]:
    """The top-level parser, and each command's parser keyed by its words."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="realbicyclic",
        description="Exact pair-semigroup calculator, order geometry, and continuity certificates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def positional(sub, words: tuple[str, ...]) -> None:
        names, run, help_text = _POSITIONAL[words]
        p = sub.add_parser(words[-1], help=help_text)
        for name in names:
            p.add_argument(name)
        p.set_defaults(run=run)

    positional(sub, ("eval",))
    positional(sub, ("order",))
    p = sub.add_parser("lines", help="line operations")
    lines_sub = p.add_subparsers(dest="lines_command", required=True)
    positional(lines_sub, ("lines", "product"))

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

    positional(sub, ("validate",))

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
    value = parse_expr(args.expr)
    if isinstance(value, bool):
        sys.stdout.write("true\n" if value else "false\n")
        return 0 if value else 1
    sys.stdout.write(f"{value}\n")
    return 0


def _cmd_order(args) -> int:
    e1 = _parse_element(args.e1)
    e2 = _parse_element(args.e2)
    witness = leq_witness(e1, e2)
    if witness is None:
        sys.stdout.write("false\n")
        return 1
    sys.stdout.write(f"true\nwitness {witness}\n")
    return 0


def _cmd_lines_product(args) -> int:
    sys.stdout.write(f"{line_product(_parse_line(args.l1), _parse_line(args.l2))}\n")
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
        except TooLarge:
            raise  # the text, not the path: reported by main
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise UsageError(f"cannot write {args.emit}: {exc}") from exc
        print(f"wrote certificate to {args.emit} (valid)")
    else:
        sys.stdout.write(cert_to_text(cert))
    return 0


def _cmd_validate(args) -> int:
    try:
        ok = certs.validate_cert(read_cert(args.certfile))
    except certs.MalformedCert as exc:
        raise UsageError(f"malformed certificate: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise UsageError(f"cannot read {args.certfile}: {exc}") from exc
    sys.stdout.write("valid\n" if ok else "invalid\n")
    return 0 if ok else 1


def _cmd_falsify(args) -> int:
    if args.cases < 1:
        raise UsageError(f"--cases must be at least 1, got {args.cases}")
    side = Side(args.side)
    translator = _parse_element(args.translator)
    parse = _parse_ac1 if args.kind == "ac1" else _parse_tops
    chosen, target = parse(args.chosen), parse(args.target)
    seed = args.seed if args.seed is not None else _default_seed()
    hit = certs.falsify(side, translator, chosen, target, args.cases, seed)
    if hit is None:
        print(f"no counterexample within a budget of {args.cases} points")
        return 0
    image = mul(translator, hit) if side is _LEFT else mul(hit, translator)
    print(f"counterexample {hit} -> {image}")
    return 1


def _cmd_suite(args) -> int:
    if args.seed is None:
        args.seed = _default_seed()
    report = run_suite(args.name, _gen_config(args))
    print(report.render(machine=args.machine))
    return 0 if report.passed else 1


# The commands that take only plain positional strings, by their words: the
# names of their arguments, their handler and their help.
_POSITIONAL = {
    ("eval",): (("expr",), _cmd_eval, "evaluate an expression such as '(1,3)*(2,5)'"),
    ("order",): (("e1", "e2"), _cmd_order, "compare two elements in the natural partial order"),
    ("lines", "product"): (("l1", "l2"), _cmd_lines_product, "product set of two diagonal lines"),
    ("validate",): (("certfile",), _cmd_validate, "validate a stored certificate"),
}


def _route(argv: list[str]) -> tuple[argparse.ArgumentParser, list[str]]:
    """The most specific parser that argv's leading words name, and the rest
    of argv; the top-level parser, with all of argv, when they name none."""
    top, routes = _build_parser()
    for n in (2, 1):
        parser = routes.get(tuple(argv[:n]))
        if parser is not None:
            return parser, argv[n:]
    return top, argv


def _parse(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """argv's namespace.  A positional command with exactly its arity and no
    argument that starts with '-' gets a plain namespace of the attributes
    argparse would set; every other argv goes through its parser."""
    for n in (1, 2):
        entry = _POSITIONAL.get(tuple(argv[:n]))
        if entry is not None:
            names, run, _ = entry
            rest = argv[n:]
            if len(rest) == len(names) and "-" not in [a[:1] for a in rest]:
                return SimpleNamespace(run=run, **dict(zip(names, rest)))
            break
    parser, rest = _route(argv)
    return parser.parse_args(rest)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe fails here rather than at exit
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (UsageError, ParseError, UnknownSuite, TooLarge) as exc:
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
