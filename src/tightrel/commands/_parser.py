"""The argparse parser, for the command lines that tightrel.cli's plain
parse declines: help, usage errors and the sub-verbs of construct and
transform."""

import argparse

from . import _VERBS, _command


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
        command = _command(module)
        p = sub.add_parser(name, help=help_text)
        command.add_arguments(p, name)
        p.set_defaults(func=command.run)
    return parser
