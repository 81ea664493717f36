"""Coverage counting and verification for block designs on points 0..n-1.

All counting is exact, with the standard library only.  Coverage questions
go through the subset walk of `_design` over bit-sliced block columns
(point i is an int whose bit k says whether block k holds it): it visits,
in lex order, the subsets that some block contains, and ANDs their points'
columns to get the blocks that contain them.  is_t_design and
lambda_sequence start on the walk with an allowance of the work of one
count of the ordered block pairs by the size of their intersection.  Where
the walk spends it, they pause it and count the pairs: _design._pair_moments,
on one shell of weight 1 (the one-shell case of the oracle's weighted
coverage), gives the first two moments of the coverage counts, and from
them whether the counts take only two adjacent values, and how often each.
is_t_design never walks on past that point, so it is never refused; the
other walks, coverage_map's and lambda_sequence's once resumed, stop with
ValueError at the walk's one work budget (_design._BUDGET).
The Design record, its text format, the walk and the pair count live in
the leaf module `_design`, and the transforms and constructions in
`constructions`; the record and format names are also importable from
here.
"""

import math

from ._design import MAX_POINTS, Design, _columns, bits_of, mask_of  # noqa: F401
from ._design import design_text, load_design, parse_block_line, save_design  # noqa: F401
from ._design import _allowance, _first_failing, _pair_moments, _walk

# ---------------------------------------------------------------------------
# counting and verification


def _first_unbalanced(n: int, blocks, j: int, weight, left=None, spent=None):
    """The lex-first j-subset of range(n) whose coverage sum, each block
    counted weight[its size] times (an int or a Fraction), times C(n, j) is
    not the double-counting total, the sum over blocks B of
    weight[|B|] C(|B|, j); None when every j-subset has its share, and
    False when the walk spends the allowance `left` first.  Without one the
    walk has the work budget of _design._walk, shared by the walks that
    share `spent`."""
    scale = math.lcm(*(w.denominator for w in weight.values()))
    sizes = [b.bit_count() for b in blocks]
    iw = {r: int(weight[r] * scale) for r in set(sizes)}
    total = sum(iw[r] * math.comb(r, j) for r in sizes)
    # the mask of each size class of blocks, with its weight times C(n, j)
    per = math.comb(n, j)
    weighted = [(mask_of(k for k, s in enumerate(sizes) if s == r), w * per) for r, w in iw.items()]

    def holds(m):
        share = 0
        for c, w in weighted:
            share += w * (m & c).bit_count()
        return share == total

    full = (1 << len(blocks)) - 1
    return _first_failing(_columns(blocks, n), range(n), j, full, holds, left, spent)


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
    The walk over the t-subsets answers unless it spends the work of one
    count of the block pairs first, which then answers.
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
    n, blocks = design.n, design.blocks
    witness = _first_unbalanced(n, blocks, t, {r: 1}, _allowance(n, [(r, len(blocks))], t))
    if witness is False:  # the walk paused: balanced when every count is a, none a+1
        (two,) = _pair_moments(n, [(r, blocks, 1)], t, t)
        balanced = two is not None and two[1] == 0
    else:
        balanced = witness is None
    if not balanced:
        return False, None
    # balanced: every t-subset has the double-counting share b C(r,t) / C(n,t)
    lam_t = design.num_blocks * math.comb(r, t) // math.comb(n, t)
    return True, [
        lam_t * math.comb(n - j, t - j) // math.comb(r - j, t - j) for j in range(t + 1)
    ]
