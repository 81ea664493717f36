"""Command-line front end.

Every verb is a thin adapter over a library call; nothing here computes.
Exit codes: 0 for success and true verdicts, 1 for false or ruled-out
verdicts (so shell scripts can branch on the result), 2 for usage errors,
3 for I/O and parse errors.
"""

from __future__ import annotations

import argparse
import sys

from ._base import FormatError

# One (name, help, module) row per verb.  The module, in tightrel.commands,
# holds the verb's arguments and its adapter; it is imported only when its
# verb is registered, so a process compiles only the code of its own verb.
_VERBS = (
    ("verify", "check a block file for t-design balance", "verify"),
    ("check-relative", "run the two-shell moment oracle on a candidate file", "check_relative"),
    ("lambda-seq", "print the coverage-count histogram as count*value tokens", "lambda_seq"),
    ("scan-3", "feasible strength-3 parameter rows as TSV", "scan"),
    ("scan-4", "feasible strength-4 parameter rows as TSV", "scan"),
    ("nonexist", "apply the nonexistence test matching v,k,lam", "nonexist"),
    ("construct", "generate a design file", "construct"),
    ("transform", "derive a design from an existing file", "construct"),
    ("conjecture2", "pairs in a corpus directory with equal coverage histograms", "conjecture2"),
)


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The tightrel parser.  When argv[0] names a verb, only that verb is
    registered: argparse hands the rest of the command line to the sub-parser
    of the first positional argument alone, and the metavar keeps the usage
    line of the parser with every verb.  Otherwise every verb is registered,
    with no metavar, which would also stand for `verb` in its error messages."""
    parser = argparse.ArgumentParser(
        prog="tightrel",
        description="verify, construct, and scan block designs and two-shell relative designs",
    )
    verbs, metavar = _VERBS, None
    named = [row for row in _VERBS if argv and row[0] == argv[0]]
    if named:
        verbs, metavar = named, "{" + ",".join(name for name, _, _ in _VERBS) + "}"
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name, help_text, module in verbs:
        # __import__, unlike importlib.import_module, shows in -X importtime
        command = __import__(f"tightrel.commands.{module}", fromlist=("run",))
        p = sub.add_parser(name, help=help_text)
        command.add_arguments(p, name)
        p.set_defaults(func=command.run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
