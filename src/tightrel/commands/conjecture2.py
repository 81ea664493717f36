"""conjecture2: pairs of corpus files with equal coverage histograms."""

from ._output import _add_out, _emit


def add_arguments(p, verb) -> None:
    p.add_argument("dir")
    p.add_argument("--t", type=int, required=True)
    _add_out(p)


def run(args) -> int:
    from pathlib import Path

    from .._base import FormatError
    from ..designs import load_design
    from ..profiles import conjecture2_scan

    paths = sorted(Path(args.dir).glob("*.blk"))
    if not paths:
        raise FormatError(f"no .blk files in {args.dir}")
    designs = [load_design(p) for p in paths]
    pairs = conjecture2_scan(designs, args.t)
    _emit((f"{paths[i].name}\t{paths[j].name}\n" for i, j in pairs), args.out)
    return 0
