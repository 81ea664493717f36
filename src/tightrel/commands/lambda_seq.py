"""lambda-seq: the coverage-count histogram of a block file."""


def add_arguments(p, verb) -> None:
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)


def run(args) -> int:
    from ..designs import load_design
    from ..profiles import lambda_sequence

    design = load_design(args.file)
    seq = lambda_sequence(design, args.t)
    print(" ".join(f"{count}*{value}" for value, count in seq.entries))
    return 0
