"""Command-line front end: build/export tables, Green's analyses, ranks, verification.

Exit codes: 0 success / all verified, 1 verification mismatch, 2 invalid
arguments (n > ``_MAX_N``, n >= 6 for a command that needs the table, or a
``build --out`` file that cannot be written), 3 budget exhausted (bounds
emitted), 141 stdout closed early by its reader (128 + SIGPIPE, as a shell
reports ``yes | head``). ``verify`` never exits 3: a closed-form rank (r1,
r2, r3, r5) that the budget cuts short is a mismatch, exit 1, while an r4
search cut short passes. The default search budget is ``SearchBudget``'s:
60 seconds and 1e8 nodes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import factorial, isfinite
from pathlib import Path

from . import engine
from .affine import a_plus_semigroup, a_plus_size, enumerate_a_plus
from .errors import InvalidParameterError
from .ranks import RankReport, RankValue, SearchBudget, plan_rank, rank_formulas
from .verify import nsupport_r_class_count, verify_all

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


# The largest --n accepted. The closed forms of ``count`` and ``rank
# --which formulas`` reach 4,281 digits at n = 1,550, and Python refuses to
# print an int of more than 4,300 digits (after computing factorial(n)).
_MAX_N = 1000


def _bounded_n(text: str) -> int:
    value = _positive_int(text)
    if value > _MAX_N:
        raise argparse.ArgumentTypeError(f"value must be <= {_MAX_N}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("value must be finite and positive")
    return value


def _budget(args) -> SearchBudget:
    return SearchBudget(seconds=args.budget, node_limit=args.node_limit)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brandt-ranks",
        description="Exact computations on the additive semigroup of affine maps over B_n.",
    )
    verbose_help = "also print the witness of each rank in text output"
    parser.add_argument("-v", "--verbose", action="count", default=0, help=verbose_help)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=False, fmt=None):
        p.add_argument("--n", type=_bounded_n, required=True, metavar="N")
        # also accepted after the subcommand; with no default of its own, the
        # subparser cannot overwrite a -v given before the subcommand
        p.add_argument("-v", "--verbose", action="count", default=argparse.SUPPRESS,
                       help=verbose_help)
        if budget:
            p.add_argument("--budget", type=_positive_float,
                           default=SearchBudget.seconds, metavar="SECONDS")
            p.add_argument("--node-limit", type=_positive_int,
                           default=SearchBudget.node_limit, metavar="NODES")
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])

    p = sub.add_parser("build", help="emit the Cayley table of the semigroup")
    common(p, fmt=("json", "csv"))
    p.add_argument("--out", type=Path, default=None, metavar="FILE")

    p = sub.add_parser("count", help="print element counts and the formula breakdown")
    common(p)

    p = sub.add_parser("greens", help="print R/L class counts and the (n!)n cross-check")
    common(p, fmt=("text", "json"))

    p = sub.add_parser("rank", help="compute one rank, or the formula report")
    common(p, budget=True, fmt=("text", "json"))
    p.add_argument("--which", choices=("r1", "r2", "r3", "r5", "formulas"), required=True)

    p = sub.add_parser("search-r4", help="branch-and-bound for the maximum independent set")
    common(p, budget=True, fmt=("text", "json"))
    p.set_defaults(which="r4")

    p = sub.add_parser("prime", help="find a smallest proper prime subset")
    common(p, budget=True, fmt=("text", "json"))

    p = sub.add_parser("verify", help="run the full verification battery")
    common(p, budget=True, fmt=("text", "json"))
    return parser


def _cmd_build(args) -> int:
    text = engine.export_table(a_plus_semigroup(args.n), args.format)
    text = text if text.endswith("\n") else text + "\n"
    if args.out is None:
        # counted bytes: unbuffered text stdout (python -u) drops a short write's tail
        data = memoryview(text.encode("utf-8"))
        sys.stdout.flush()
        while data:
            data = data[sys.stdout.buffer.write(data):]
        return EXIT_OK
    try:
        args.out.write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_count(args) -> int:
    n = args.n
    total = a_plus_size(n)
    if n == 1:
        print("3 (n=1: xi(0), xi(1,1), ns(1,1;[1]))")
        return EXIT_OK
    print(f"{total} = ({n}!+1)·{n * n} + {n ** 4} + 1")
    print(f"  constants: {n * n + 1} (zero-constant included)")
    print(f"  singleton-support maps: {n ** 4}")
    print(f"  n-support maps: {factorial(n) * n * n}")
    return EXIT_OK


def _cmd_greens(args) -> int:
    n = args.n
    sg = a_plus_semigroup(n)
    r_classes = engine.greens_classes(sg, "R")
    l_classes = engine.greens_classes(sg, "L")
    nsup = nsupport_r_class_count(enumerate_a_plus(n), r_classes)
    expected = factorial(n) * n
    payload = {
        "n": n,
        "r_classes": len(r_classes),
        "l_classes": len(l_classes),
        "nsupport_r_classes": nsup,
        "nsupport_r_classes_expected": expected,
        "match": nsup == expected,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"R-classes: {payload['r_classes']}")
        print(f"L-classes: {payload['l_classes']}")
        print(f"n-support R-classes: {nsup} (expected (n!)n = {expected})")
    return EXIT_OK if payload["match"] else EXIT_MISMATCH


def _print_witness(rv: RankValue, verbose: int) -> None:
    if verbose and rv.witness_labels:
        print(f"  witness: {' '.join(rv.witness_labels)}")


def _print_rank(report: RankReport, fmt: str, verbose: int = 0) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
        return
    for key, rv in report.ranks.items():
        if rv.exact:
            line = f"{key} = {rv.value} [{rv.provenance}]"
        else:
            line = f"{key} in [{rv.bounds[0]}, {rv.bounds[1]}] [{rv.provenance}]"
        if rv.detail:
            line += f" ({rv.detail})"
        print(line)
        _print_witness(rv, verbose)


def _cmd_rank(args) -> int:
    if args.which == "formulas":
        _print_rank(rank_formulas(args.n), args.format, args.verbose)
        return EXIT_OK
    rv = plan_rank(args.n, args.which, _budget(args))
    _print_rank(RankReport(n=args.n, ranks={args.which: rv}), args.format, args.verbose)
    return EXIT_OK if rv.exact else EXIT_BUDGET


def _cmd_prime(args) -> int:
    n = args.n
    rv = plan_rank(n, "r5", _budget(args))
    if args.format == "json":
        print(json.dumps({"n": n, "r5": rv.to_json_dict()}, indent=2))
    else:
        if rv.exact:
            print(rv.detail)
            print(f"r5 = {rv.value}")
        else:
            print(f"r5 in [{rv.bounds[0]}, {rv.bounds[1]}] ({rv.detail})")
        _print_witness(rv, args.verbose)
    return EXIT_OK if rv.exact else EXIT_BUDGET


def _cmd_verify(args) -> int:
    report = verify_all(args.n, _budget(args))
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(report.to_text())
    return EXIT_OK if report.ok else EXIT_MISMATCH


_HANDLERS = {
    "build": _cmd_build,
    "count": _cmd_count,
    "greens": _cmd_greens,
    "rank": _cmd_rank,
    "search-r4": _cmd_rank,
    "prime": _cmd_prime,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return _HANDLERS[args.command](args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; quiet the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
