"""scan-3 and scan-4: the feasible parameter rows of one strength as TSV."""

from ._output import _add_out, _emit


def add_arguments(p, verb) -> None:
    t = int(verb.removeprefix("scan-"))
    p.add_argument("--max-n", type=int, required=True)
    if t == 3:
        p.add_argument("--cases", default="1,2,3,4", help="comma list from {1,2,3,4}")
    p.add_argument("--annotate", action="store_true", help="attach nonexistence verdicts")
    p.add_argument("--threads", type=int, metavar="K",
                   help="accepted for compatibility; scans run in one process")
    _add_out(p)
    p.set_defaults(t=t)


def run(args) -> int:
    from ..feasibility import scan_tsv

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
