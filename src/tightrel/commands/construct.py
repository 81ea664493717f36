"""construct and transform: a design file built from scratch or derived
from existing files, one sub-verb per construction or transform."""

from ._output import _add_out, _emit

# one (name, help, positional arguments) row per sub-verb; each also takes --out
_TRANSFORMS = (
    ("complement", "complement every block", ("file",)),
    ("derived", "blocks through the point, point removed", ("file", "point")),
    ("residual", "blocks missing the point", ("file", "point")),
    ("extend", "adjoin a new point to every block of the first file, then append the second",
     ("file_a", "file_b")),
)
_CONSTRUCTIONS = (
    ("fano", "the 2-(7,3,1) design", ()),
    ("paley", "quadratic-residue translates, prime q = 3 mod 4", ("q",)),
    ("witt23", "the 4-(23,7,1) design", ()),
    *_TRANSFORMS,
)


def add_arguments(p, verb) -> None:
    sub = p.add_subparsers(dest="what", required=True)
    for name, help_text, positionals in _CONSTRUCTIONS if verb == "construct" else _TRANSFORMS:
        q = sub.add_parser(name, help=help_text)
        for arg in positionals:
            q.add_argument(arg, type=int if arg in ("q", "point") else None)
        _add_out(q)


def run(args) -> int:
    from .._design import design_text, load_design
    from ..constructions import complement, construct_paley_hadamard, construct_witt_23
    from ..constructions import derived, extend_pair, residual

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
