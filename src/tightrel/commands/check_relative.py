"""check-relative: the two-shell moment oracle on a candidate file."""


def add_arguments(p, verb) -> None:
    p.add_argument("file")
    p.add_argument("--t", type=int, default=None, help="override the strength declared in the file")
    p.add_argument("--tight", action="store_true", help="also require the minimal-size bound with equality")
    p.add_argument("--allow-trivial", action="store_true", help="accept shells outside 2 <= r1 < r2 <= n-2")


def run(args) -> int:
    from ..hamming import load_candidate, relative_design_oracle

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
        from ..analysis import tight_size

        # a candidate that is not a relative t-design is never tight, whatever t
        tight = ok and cand.total_size == tight_size(t, cand.n)
        print(f"tight: {'true' if tight else 'false'}")
        if not tight:
            code = 1
    return code
