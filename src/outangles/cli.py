"""Command-line interface.

Braid words are passed inline (``vpb 3: s1,2 s2,1'`` or ``br 4: 1 -2 1``);
diagrams are read from files or standard input (``-``).  Exit codes: 0 on
success, 1 on domain errors (cyclic diagram, not a divisor, ...), 2 on usage
or input-syntax errors.  All output is byte-deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys

from . import braid, division, enumeration
from .diagram import parse, serialize
from .errors import OuError, ParseError
from .rewrite import DEFAULT_MAX_ITERS, ou_normal_form

_WORD_HEADER = re.compile(r"^\s*(vpb|br)\s+\d+\s*:")


def _read_diagram_text(source: str) -> str:
    """Diagram text from a file, or from stdin for ``-``; text that does not
    decode (files must be ASCII) is a :class:`ParseError`."""
    try:
        if source == "-":
            return sys.stdin.read()
        with open(source, encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"diagram text does not decode: {exc}") from None


def _load_tangle(source: str, max_iters: int):
    """A reduced OU tangle from an inline word or a diagram file/stdin."""
    if _WORD_HEADER.match(source):
        word, _ = _parse_any_word(source)
        return braid.ch(word, max_iters)
    return parse(_read_diagram_text(source))


def _parse_any_word(text: str):
    m = _WORD_HEADER.match(text)
    if m and m.group(1) == "vpb":
        word = braid.parse_vpb(text)
        return word, tuple(range(1, word.n + 1))
    if m:
        return braid.classical_to_vpb(braid.parse_classical(text))
    raise ParseError("expected a word starting with 'vpb <n>:' or 'br <n>:'")


def _int_in(low: int, high: int | None = None):
    """argparse ``type=`` for ASCII digit runs ``>= low`` and, if given,
    ``<= high``: anything else is a usage error (exit 2), not a traceback."""

    def convert(text: str) -> int:
        try:
            if not (text.isascii() and text.isdigit()):
                raise ValueError
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outangles",
        description="Over-then-under normal forms of virtual tangles and braids.",
    )
    parser.add_argument(
        "--max-iters",
        type=_int_in(0),
        default=None,
        help=f"glide iteration cap (default {DEFAULT_MAX_ITERS}; OU_MAX_ITERS overrides the default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="reduce a diagram to its OU normal form")
    p.add_argument("input", nargs="?", default="-", help="diagram file or - for stdin")

    p = sub.add_parser("ch", help="canonical OU diagram of a braid word")
    p.add_argument("word")

    p = sub.add_parser("eq", help="decide whether two braid words are equal")
    p.add_argument("word1")
    p.add_argument("word2")

    p = sub.add_parser("divisors", help="generators dividing a reduced OU tangle")
    p.add_argument("input", help="inline word or diagram file/-")

    p = sub.add_parser("core", help="peel the maximal braid off a tangle")
    p.add_argument("input", help="inline word or diagram file/-")

    p = sub.add_parser("eg", help="extraction graph of a tangle")
    p.add_argument("input", help="inline word or diagram file/-")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of edge lines")
    p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("tabulate", help="count braids by crossing number")
    p.add_argument("--kind", choices=enumeration.KINDS, required=True)
    p.add_argument("-n", type=_int_in(2, braid.MAX_STRANDS), required=True, dest="n")
    p.add_argument("-m", type=_int_in(0), required=True, dest="m")
    p.add_argument("--representatives", default=None, help="write one word per braid here")
    p.add_argument(
        "--max-keys", type=_int_in(1), default=None, help="abort beyond this many stored braids"
    )

    p = sub.add_parser("worst", help="proud word of length m maximizing the OU crossing number")
    p.add_argument("--kind", choices=enumeration.KINDS, required=True)
    p.add_argument("-n", type=_int_in(2, braid.MAX_STRANDS), required=True, dest="n")
    p.add_argument("-m", type=_int_in(1), required=True, dest="m")

    p = sub.add_parser("fibcheck", help="check the classical 3-strand count formula")
    p.add_argument("-m", type=_int_in(1), required=True, dest="m")
    return parser


def _run(args: argparse.Namespace, max_iters: int) -> int:
    if args.command == "normalize":
        d = parse(_read_diagram_text(args.input))
        sys.stdout.write(serialize(ou_normal_form(d, max_iters)))
        return 0

    if args.command == "ch":
        word, _ = _parse_any_word(args.word)
        sys.stdout.write(serialize(braid.ch(word, max_iters)))
        return 0

    if args.command == "eq":
        w1, p1 = _parse_any_word(args.word1)
        w2, p2 = _parse_any_word(args.word2)
        same = braid._permuted_braids_equal(w1, p1, w2, p2, max_iters)
        print("equal" if same else "distinct")
        return 0

    if args.command == "divisors":
        tangle = _load_tangle(args.input, max_iters)
        for g in division.divisors(tangle, max_iters):
            print(g.token())
        return 0

    if args.command == "core":
        tangle = _load_tangle(args.input, max_iters)
        word, core = division.peel(tangle, max_iters=max_iters)
        print(word.text())
        sys.stdout.write(serialize(core))
        return 0

    if args.command == "eg":
        tangle = _load_tangle(args.input, max_iters)
        # open the output first, so an unwritable path fails before the graph is built
        if args.output is None:
            out = contextlib.nullcontext(sys.stdout)
        else:
            out = open(args.output, "w", encoding="ascii")
        with out as fh:
            graph = division.extraction_graph(tangle, max_iters)
            fh.write(division.to_dot(graph) if args.dot else division.to_edge_lines(graph))
        return 0

    if args.command == "tabulate":
        report = enumeration.tabulate(
            args.n,
            args.m,
            args.kind,
            representatives_path=args.representatives,
            max_keys=args.max_keys,
            max_iters=max_iters,
        )
        sys.stdout.write(report.table_text())
        sys.stdout.write(report.structured_lines())
        return 0

    if args.command == "worst":
        word, value = enumeration.worst_braid(args.n, args.m, args.kind, max_iters)
        print(word.text())
        print(f"xi {value}")
        return 0

    if args.command == "fibcheck":
        counts = enumeration.tabulate(3, args.m, "classical", max_iters=max_iters).count_exactly
        if enumeration.fibonacci_check(args.m, counts):
            print(f"ok m=1..{args.m}")
            return 0
        print(f"mismatch within m=1..{args.m}")
        return 1

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    max_iters = args.max_iters
    if max_iters is None:
        try:
            max_iters = _int_in(0)(os.environ.get("OU_MAX_ITERS", str(DEFAULT_MAX_ITERS)))
        except argparse.ArgumentTypeError as exc:
            print(f"error: OU_MAX_ITERS {exc}", file=sys.stderr)
            return 2
    try:
        return _run(args, max_iters)
    except (ParseError, OSError) as exc:  # ParseError is an OuError, so it goes first
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
