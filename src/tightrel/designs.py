"""Coverage counting and verification for block designs on points 0..n-1.

All counting is exact, with the standard library only.  Coverage questions
go through the subset walk of `_design` over bit-sliced block columns
(point i is an int whose bit k says whether block k holds it): it visits,
in lex order, the subsets that some block contains, and ANDs their points'
columns to get the blocks that contain them.  is_t_design asks `_design`
for the least size at which the coverage is not constant
(_design._unbalanced_size), and `_design` alone chooses the route that
answers: the walk, or one count of the ordered block pairs by the size of
their intersection, whose moments show whether the counts take one value.
is_t_design is refused with ValueError only when neither route fits the
one work budget (_design._BUDGET).  The Design record, its text format,
the walk and the pair count live in the leaf module `_design`, and the
transforms and constructions in `constructions`; the record and format
names are also importable from here.
"""

import math

from ._design import MAX_POINTS, Design, _columns, bits_of, mask_of  # noqa: F401
from ._design import design_text, load_design, parse_block_line, save_design  # noqa: F401
from ._design import _unbalanced_size, _walk

# ---------------------------------------------------------------------------
# counting and verification


def coverage_map(design: Design, j: int) -> dict[tuple[int, ...], int]:
    """Coverage count of every j-subset that lies in at least one block.

    Keys are ascending index tuples, in lexicographic order; subsets covered
    by no block are absent.  The walk visits only prefixes that some block
    contains, so it never scans all C(n,j) subsets against the block list.
    """
    blocks = design.blocks
    if j == 0:
        return {(): len(blocks)} if blocks else {}
    cols, full = _columns(blocks, design.n), (1 << len(blocks)) - 1
    return {(*prefix, q): c for prefix, m, later in _walk(cols, range(design.n), j, full)
            for q in later if (c := (m & cols[q]).bit_count())}


def is_t_design(design: Design, t: int):
    """Whether every j-subset (j=1..t) lies in a constant number of blocks.

    Returns (True, [lam_0, ..., lam_t]) with lam_0 the block count, or
    (False, None).  Blocks must all have one size r >= t; with no blocks,
    t <= n.  Only level t is counted: with uniform blocks a t-design is a
    j-design for every j < t, with lam_j = lam_t C(n-j,t-j) / C(r-j,t-j).
    `_design` decides the balance at level t, on the walk or from one count
    of the block pairs, and raises ValueError only when neither fits the
    work budget.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if design.num_blocks == 0:
        if t > design.n:
            raise ValueError("t exceeds the point count")
        return True, [0] * (t + 1)
    r = design.uniform_size()
    if t > r:
        raise ValueError("t exceeds the block size")
    n = design.n
    if _unbalanced_size(n, [(r, design.blocks, 1)], t, t) is not None:
        return False, None
    # balanced: every t-subset has the double-counting share b C(r,t) / C(n,t)
    lam_t = design.num_blocks * math.comb(r, t) // math.comb(n, t)
    return True, [
        lam_t * math.comb(n - j, t - j) // math.comb(r - j, t - j) for j in range(t + 1)
    ]
