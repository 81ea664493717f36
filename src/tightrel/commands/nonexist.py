"""nonexist: the nonexistence test that matches v,k,lam."""


def add_arguments(p, verb) -> None:
    p.add_argument("--params", required=True, metavar="v,k,lam")
    p.add_argument("--t", type=int, default=2, choices=(2, 3),
                   help="2: symmetric-design tests; 3: triple-system congruence test")


def run(args) -> int:
    from .._base import DesignParams
    from ..screens import nonexistence_test

    try:
        v, k, lam = (int(tok) for tok in args.params.split(","))
    except ValueError:
        raise ValueError(f"--params must be v,k,lam; got {args.params!r}") from None
    verdict = nonexistence_test(DesignParams(v, k, lam, args.t))
    print(verdict.detail)
    return 1 if verdict.outcome in ("RuledOut", "Inadmissible") else 0
