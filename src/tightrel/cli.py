"""Command-line front end.

Every verb is a thin adapter over a library call; nothing here computes.
Exit codes: 0 for success and true verdicts, 1 for false or ruled-out
verdicts (so shell scripts can branch on the result), 2 for usage errors,
3 for I/O and parse errors.
"""

from __future__ import annotations

import os
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


def _command(module):
    # __import__, unlike importlib.import_module, shows in -X importtime
    return __import__(f"tightrel.commands.{module}", fromlist=("run",))


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The tightrel parser.  When argv[0] names a verb, only that verb is
    registered: argparse hands the rest of the command line to the sub-parser
    of the first positional argument alone, and the metavar keeps the usage
    line of the parser with every verb.  Otherwise every verb is registered,
    with no metavar, which would also stand for `verb` in its error messages."""
    import argparse

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


class _Unsupported(Exception):
    """A declaration _Recorder leaves to argparse."""


_PLAIN_KEYWORDS = {"action", "type", "choices", "required", "default", "help", "metavar"}


class _Recorder:
    """Stands in for a verb's argparse sub-parser and records the plain
    declarations that _parse_plain reads: one name, stored once or
    store_true for an option, stored once for a positional.  Any other
    declaration raises _Unsupported, and argparse then parses the verb."""

    def __init__(self):
        self.options, self.positionals, self.defaults = {}, [], {}

    def add_argument(self, *names, **kwargs):
        action = kwargs.get("action", "store")
        if len(names) != 1 or kwargs.keys() - _PLAIN_KEYWORDS or action not in ("store", "store_true"):
            raise _Unsupported(names)
        (name,), option, flag = names, names[0].startswith("-"), action == "store_true"
        # (dest, takes a value, type, choices, required, default), with
        # argparse's dest and its store_true default
        spec = (name.lstrip("-").replace("-", "_") if option else name, not flag,
                kwargs.get("type"), kwargs.get("choices"), kwargs.get("required", not option),
                kwargs.get("default", False if flag else None))
        if option:
            self.options[name] = spec
        else:
            self.positionals.append(spec)

    def set_defaults(self, **kwargs):
        self.defaults.update(kwargs)

    def add_subparsers(self, **kwargs):
        raise _Unsupported("sub-verbs")


class _Namespace:
    """Parsed arguments as attributes, as on argparse.Namespace."""

    def __init__(self, values):
        self.__dict__.update(values)


def _parse_plain(argv):
    """The namespace argparse would return for argv, when argv is a plain
    command line: a verb, then only exact option strings with their values
    and positionals, none of them starting with "-" and none repeated, with
    every required argument present and every value converted and checked.
    None otherwise, for argparse to parse it, print help or report the
    usage error; so -h, abbreviations, --opt=value, --, negative values and
    the sub-verbs of construct and transform are always argparse's."""
    row = next((row for row in _VERBS if argv and row[0] == argv[0]), None)
    if row is None:
        return None
    verb, _, module = row
    command = _command(module)
    recorder = _Recorder()
    values, tokens = {}, iter(argv[1:])
    try:
        command.add_arguments(recorder, verb)
        positionals = iter(recorder.positionals)
        for token in tokens:
            if token.startswith("-"):
                spec = recorder.options.get(token)
                if spec is None or spec[0] in values:
                    return None
                if not spec[1]:
                    values[spec[0]] = True
                    continue
                token = next(tokens, "-")  # a missing value is declined as "-" is
                if token.startswith("-"):
                    return None
            else:
                spec = next(positionals, None)
                if spec is None:
                    return None
            dest, _, convert, choices, _, _ = spec
            value = token if convert is None else convert(token)
            if choices is not None and value not in choices:
                return None
            values[dest] = value
        for dest, _, convert, _, required, default in (*recorder.options.values(),
                                                       *recorder.positionals):
            if dest in values:
                continue
            if required:
                return None
            # argparse converts a string default (unchecked) as it would a token
            if convert is not None and isinstance(default, str):
                default = convert(default)
            values[dest] = default
    except (_Unsupported, TypeError, ValueError):  # a failed conversion is a usage error
        return None
    return _Namespace({"verb": verb, **recorder.defaults, **values, "func": command.run})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv)
    if args is None:
        try:
            args = _build_parser(argv).parse_args(argv)
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


def _observed() -> bool:
    """Whether something still watches this process after main returns: a
    tracer or profiler (coverage, cProfile; on 3.12+ either may use
    sys.monitoring), a second thread, or -i or PYTHONINSPECT, which open the
    interactive prompt."""
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(monitoring.get_tool(i) for i in range(6)))
        or len(sys._current_frames()) > 1
        or bool(sys.flags.inspect or os.environ.get("PYTHONINSPECT"))
    )


def entry() -> None:
    """The process entry of `python -m tightrel.cli` and of the `tightrel`
    console script: main on sys.argv, then an exit that skips the
    interpreter's teardown (clearing every module and the final
    collections), which nothing here needs.  The atexit callbacks still run,
    and stdout and stderr are flushed, before os._exit.  Falls back to
    sys.exit, the interpreter's own exit, when _observed() or when a flush
    raises (a closed pipe, say), so those report as they always have."""
    code = main()
    if not _observed():
        import atexit

        atexit._run_exitfuncs()  # clears them: a fallback exit runs none twice
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    entry()
