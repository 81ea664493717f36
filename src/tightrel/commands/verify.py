"""verify: t-design balance of a block file."""


def add_arguments(p, verb) -> None:
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)


def run(args) -> int:
    from ..designs import is_t_design, load_design

    design = load_design(args.file)
    ok, lams = is_t_design(design, args.t)
    if ok:
        print(f"t-design: true  lambda=[{','.join(str(v) for v in lams)}]")
        return 0
    print("t-design: false")
    return 1
