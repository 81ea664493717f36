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

# Each verb imports what it runs when it runs, so that a process loads only
# the modules of its own verb.


_BLOCK = 1 << 16


def _blocks(chunks):
    """The strings of chunks joined into blocks of at least _BLOCK characters,
    the last one shorter: a streamed table then reaches a pipe in a few large
    writes, not in one write per 8 KiB buffer flush."""
    block, length = [], 0
    for chunk in chunks:
        block.append(chunk)
        length += len(chunk)
        if length >= _BLOCK:
            yield "".join(block)
            block, length = [], 0
    yield "".join(block)


def _emit(chunks, out) -> None:
    """Write the strings of chunks to the path out, or to stdout without one."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(_blocks(chunks))
    else:
        sys.stdout.writelines(_blocks(chunks))


def _cmd_verify(args) -> int:
    from .designs import is_t_design, load_design

    design = load_design(args.file)
    ok, lams = is_t_design(design, args.t)
    if ok:
        print(f"t-design: true  lambda=[{','.join(str(v) for v in lams)}]")
        return 0
    print("t-design: false")
    return 1


def _cmd_check_relative(args) -> int:
    from .hamming import load_candidate, relative_design_oracle

    cand, file_t = load_candidate(args.file, allow_trivial=args.allow_trivial)
    t = args.t if args.t is not None else file_t
    ok, witness = relative_design_oracle(cand, t)
    if ok:
        print("relative-design: true")
    else:
        s, subset = witness
        print(
            "relative-design: false  witness: "
            f"s={s} S=({','.join(str(i) for i in subset)})"
        )
    code = 0 if ok else 1
    if args.tight:
        # through analysis, not _base: bench/tracing.py wraps analysis
        # functions and finds the module in sys.modules, loaded by this verb
        from .analysis import tight_size

        # a candidate that is not a relative t-design is never tight, whatever t
        tight = ok and cand.total_size == tight_size(t, cand.n)
        print(f"tight: {'true' if tight else 'false'}")
        if not tight:
            code = 1
    return code


def _cmd_lambda_seq(args) -> int:
    from .designs import load_design
    from .profiles import lambda_sequence

    design = load_design(args.file)
    seq = lambda_sequence(design, args.t)
    print(" ".join(f"{count}*{value}" for value, count in seq.entries))
    return 0


def _cmd_scan(args) -> int:
    from .feasibility import scan_tsv

    cases = None
    if args.t == 3:
        try:
            cases = frozenset(int(tok) for tok in args.cases.split(","))
        except ValueError:
            cases = frozenset()
        if not cases or not cases <= {1, 2, 3, 4}:
            raise ValueError(f"--cases must be a comma list from {{1,2,3,4}}; got {args.cases!r}")
    # scan_tsv checks its arguments before --out is opened, and the table is
    # written in blocks as the scan reaches its lines
    _emit(scan_tsv(args.t, args.max_n, cases, args.annotate), args.out)
    return 0


def _cmd_nonexist(args) -> int:
    from ._base import DesignParams
    from .screens import admissibility_test, brc_test, driessen_test, symmetric_square_test

    try:
        v, k, lam = (int(tok) for tok in args.params.split(","))
    except ValueError:
        raise ValueError(f"--params must be v,k,lam; got {args.params!r}") from None
    params = DesignParams(v, k, lam, args.t)
    verdict = admissibility_test(params)
    if verdict.outcome == "Passes":
        if args.t == 3:
            verdict = driessen_test(params)
        elif v % 2 == 0:
            verdict = symmetric_square_test(params)
        else:
            verdict = brc_test(params)
    print(verdict.detail)
    return 1 if verdict.outcome in ("RuledOut", "Inadmissible") else 0


def _cmd_construct(args) -> int:
    from .designs import (
        complement,
        construct_paley_hadamard,
        construct_witt_23,
        derived,
        design_text,
        extend_pair,
        load_design,
        residual,
    )

    what = args.what
    if what == "fano":
        d = construct_paley_hadamard(7)
    elif what == "paley":
        d = construct_paley_hadamard(args.q)
    elif what == "witt23":
        d = construct_witt_23()
    elif what == "complement":
        d = complement(load_design(args.file))
    elif what == "derived":
        d = derived(load_design(args.file), args.point)
    elif what == "residual":
        d = residual(load_design(args.file), args.point)
    elif what == "extend":
        d = extend_pair(load_design(args.file_a), load_design(args.file_b))
    else:
        raise AssertionError(what)
    _emit((design_text(d),), args.out)
    return 0


def _cmd_conjecture2(args) -> int:
    from pathlib import Path

    from .designs import load_design
    from .profiles import conjecture2_scan

    paths = sorted(Path(args.dir).glob("*.blk"))
    if not paths:
        raise FormatError(f"no .blk files in {args.dir}")
    designs = [load_design(p) for p in paths]
    pairs = conjecture2_scan(designs, args.t)
    _emit((f"{paths[i].name}\t{paths[j].name}\n" for i, j in pairs), args.out)
    return 0


# The parser: one (name, help, add_arguments) row per verb.  Every verb is
# registered with its help, which is all that `tightrel --help` and an
# unknown verb's error show, but only the verbs named on the command line get
# their arguments: building every verb's took longer than most verbs run.


def _add_out(p) -> None:
    p.add_argument("--out", help="write to this path instead of stdout")


def _verify_args(p) -> None:
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_verify)


def _check_relative_args(p) -> None:
    p.add_argument("file")
    p.add_argument("--t", type=int, default=None, help="override the strength declared in the file")
    p.add_argument("--tight", action="store_true", help="also require the minimal-size bound with equality")
    p.add_argument("--allow-trivial", action="store_true", help="accept shells outside 2 <= r1 < r2 <= n-2")
    p.set_defaults(func=_cmd_check_relative)


def _lambda_seq_args(p) -> None:
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_lambda_seq)


def _scan_args(p, t: int) -> None:
    p.add_argument("--max-n", type=int, required=True)
    if t == 3:
        p.add_argument("--cases", default="1,2,3,4", help="comma list from {1,2,3,4}")
    p.add_argument("--annotate", action="store_true", help="attach nonexistence verdicts")
    p.add_argument("--threads", type=int, metavar="K",
                   help="accepted for compatibility; scans run in one process")
    _add_out(p)
    p.set_defaults(func=_cmd_scan, t=t)


def _nonexist_args(p) -> None:
    p.add_argument("--params", required=True, metavar="v,k,lam")
    p.add_argument("--t", type=int, default=2, choices=(2, 3),
                   help="2: symmetric-design tests; 3: triple-system congruence test")
    p.set_defaults(func=_cmd_nonexist)


def _paley_args(p) -> None:
    p.add_argument("q", type=int)
    _add_out(p)


def _file_args(p) -> None:
    p.add_argument("file")
    _add_out(p)


def _point_args(p) -> None:
    p.add_argument("file")
    p.add_argument("point", type=int)
    _add_out(p)


def _extend_args(p) -> None:
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_out(p)


_TRANSFORMS = (
    ("complement", "complement every block", _file_args),
    ("derived", "blocks through the point, point removed", _point_args),
    ("residual", "blocks missing the point", _point_args),
    ("extend", "adjoin a new point to every block of the first file, then append the second",
     _extend_args),
)
_CONSTRUCTIONS = (
    ("fano", "the 2-(7,3,1) design", _add_out),
    ("paley", "quadratic-residue translates, prime q = 3 mod 4", _paley_args),
    ("witt23", "the 4-(23,7,1) design", _add_out),
    *_TRANSFORMS,
)


def _construct_args(p) -> None:
    _add_verbs(p, "what", _CONSTRUCTIONS)
    p.set_defaults(func=_cmd_construct)


def _transform_args(p) -> None:
    _add_verbs(p, "what", _TRANSFORMS)
    p.set_defaults(func=_cmd_construct)


def _conjecture2_args(p) -> None:
    p.add_argument("dir")
    p.add_argument("--t", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_conjecture2)


_VERBS = (
    ("verify", "check a block file for t-design balance", _verify_args),
    ("check-relative", "run the two-shell moment oracle on a candidate file", _check_relative_args),
    ("lambda-seq", "print the coverage-count histogram as count*value tokens", _lambda_seq_args),
    ("scan-3", "feasible strength-3 parameter rows as TSV", lambda p: _scan_args(p, 3)),
    ("scan-4", "feasible strength-4 parameter rows as TSV", lambda p: _scan_args(p, 4)),
    ("nonexist", "apply the nonexistence test matching v,k,lam", _nonexist_args),
    ("construct", "generate a design file", _construct_args),
    ("transform", "derive a design from an existing file", _transform_args),
    ("conjecture2", "pairs in a corpus directory with equal coverage histograms",
     _conjecture2_args),
)


def _add_verbs(parser, dest: str, table, words=None) -> None:
    """Register every verb of table, with its help, as a sub-command of
    parser, and call add_arguments for the verbs named in words (for all of
    them when words is None).  argparse hands the rest of a command line only
    to the sub-parser whose name is one of its words, so a verb left empty
    here is never parsed with."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, help_text, add_arguments in table:
        p = sub.add_parser(name, help=help_text)
        if words is None or name in words:
            add_arguments(p)


def _build_parser(words=None) -> argparse.ArgumentParser:
    """The tightrel parser, with arguments for the verbs named in words
    (every verb when words is None)."""
    parser = argparse.ArgumentParser(
        prog="tightrel",
        description="verify, construct, and scan block designs and two-shell relative designs",
    )
    _add_verbs(parser, "verb", _VERBS, words)
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
