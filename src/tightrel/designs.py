"""Coverage counting and verification for block designs on points 0..n-1.

All counting is exact, with the standard library only.  Every coverage
question goes through one walk over bit-sliced block columns (point i is an
int whose bit k says whether block k holds it): it visits, in lex order, the
subsets that some block contains, and ANDs their points' columns to get the
blocks that contain them.  The Design record and its text format live in
the leaf module `_design`, and the transforms and constructions in
`constructions`; the record and format names are also importable from here.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations, groupby
from operator import and_

from ._design import MAX_POINTS, Design, _columns, bits_of, mask_of  # noqa: F401
from ._design import design_text, load_design, parse_block_line, save_design  # noqa: F401

# Bound on the coverage walk's work for one block size r: the C(r, j)
# j-subsets of all blocks of that size, and the j positions of each j-subset
# of an r-set.  Past it the walk raises ValueError before it starts.
MAX_RANKS = 1 << 24


# ---------------------------------------------------------------------------
# counting and verification


def lambda_count(design: Design, subset) -> int:
    """Number of blocks containing every point of `subset`, with multiplicity.

    `subset` is an iterable of point indices, or an int bitmask.
    """
    m = subset if isinstance(subset, int) else mask_of(subset)
    if m < 0 or m >> design.n:
        raise ValueError("subset contains a point index outside 0..n-1")
    return sum(1 for b in design.blocks if b & m == m)


def _check_work(blocks, j: int) -> None:
    """Refuse more than MAX_RANKS j-subsets of the blocks of one size r, or
    j-subset positions of an r-set."""
    for r, group in groupby(sorted(map(int.bit_count, blocks))):
        count, per_block = len(list(group)), math.comb(r, j)
        if per_block * max(count, j) > MAX_RANKS:
            raise ValueError(
                f"counting {j}-subsets of {count} block(s) of size {r} "
                f"({per_block:,} per block) exceeds the coverage kernel's limit of "
                f"{MAX_RANKS:,} ranks or positions"
            )


def _covered(cols, points, j: int, mask: int):
    """Each j-subset of `points` (ascending) inside some block of `mask`, in
    lex order, with the mask of the blocks that contain it.  A prefix keeps
    the blocks that contain it and have enough points after it to reach
    size j, and as candidates the later points of those blocks; when every
    candidate lies in every such block, its extensions are combinations."""
    if j == 0:
        if mask:
            yield (), mask
        return
    # after[p][c]: the blocks of mask with at least c of the points after p
    after, at_least = {}, [mask] + [0] * j
    for p in reversed(points):
        after[p] = at_least
        at_least = [mask] + [a | (b & cols[p]) for a, b in zip(at_least[1:], at_least)]
    mask = at_least[j]
    prefix, stack = [], []  # one (mask, cand, k) on the stack per prefix point
    cand, k, fresh = [p for p in points if cols[p] & mask], 0, True
    while True:
        need = j - len(prefix)
        if fresh and reduce(and_, map(cols.__getitem__, cand), mask) == mask:
            for rest in combinations(cand, need):
                yield (*prefix, *rest), mask
            k = len(cand)
        elif len(cand) - k == need:  # the one extension takes every candidate
            if m := reduce(and_, map(cols.__getitem__, cand[k:]), mask):
                yield (*prefix, *cand[k:]), m
            k = len(cand)
        while k <= len(cand) - need:
            p = cand[k]
            k += 1
            if not (m := mask & cols[p] & after[p][need - 1]):
                continue
            if need == 1:
                yield (*prefix, p), m
            elif need == 2:  # the last point needs no candidate list
                for q in cand[k:]:
                    if mq := m & cols[q]:
                        yield (*prefix, p, q), mq
            else:
                stack.append((mask, cand, k))
                prefix.append(p)
                mask, fresh = m, m != mask
                if fresh:
                    cand, k = [q for q in cand[k:] if cols[q] & m], 0
                break
        else:
            if not stack:
                return
            mask, cand, k = stack.pop()
            prefix.pop()
            fresh = False


def _first_failing(walk, points, j: int, holds):
    """The lex-first j-subset of `points` (ascending) whose mask m of
    containing blocks fails holds(m), or None; `walk` is _covered's stream
    over those points, and an uncovered subset has m = 0."""
    every = None if holds(0) else combinations(points, j)
    for s, m in walk:
        # covered subsets come in the order of combinations(points, j), so
        # the first step where they differ is the first uncovered subset
        if every is not None and (u := next(every)) != s:
            return u
        if not holds(m):
            return s
    return None if every is None else next(every, None)


def _coverage(n: int, blocks, j: int):
    """The j-subsets of range(n) inside some block, in lex order, each with
    the mask of the blocks that contain it; oversized work raises here, before
    the walk starts."""
    _check_work(blocks, j)
    return _covered(_columns(blocks, n), range(n), j, (1 << len(blocks)) - 1)


def _first_unbalanced(n: int, blocks, j: int, weight):
    """The lex-first j-subset of range(n) whose coverage sum, each block
    counted weight[its size] times (an int or a Fraction), times C(n, j) is
    not the double-counting total, the sum over blocks B of
    weight[|B|] C(|B|, j); None when every j-subset has its share."""
    walk = _coverage(n, blocks, j)
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

    return _first_failing(walk, range(n), j, holds)


def _first_uncovered(n: int, blocks, sets, j: int):
    """(i, s) for the first of `sets` that holds a j-subset s inside no
    block, with s its lex-first such subset; None when there is none."""
    _check_work(blocks, j)
    _check_work(sets, j)
    cols, full = _columns(blocks, n), (1 << len(blocks)) - 1
    for i, s in enumerate(sets):
        points = bits_of(s)
        if (u := _first_failing(_covered(cols, points, j, full), points, j, bool)) is not None:
            return i, u
    return None


def coverage_map(design: Design, j: int) -> dict[tuple[int, ...], int]:
    """Coverage count of every j-subset that lies in at least one block.

    Keys are ascending index tuples, in lexicographic order; subsets covered
    by no block are absent.  The walk visits only prefixes that some block
    contains, so it never scans all C(n,j) subsets against the block list.
    """
    return {s: m.bit_count() for s, m in _coverage(design.n, design.blocks, j)}


def is_t_design(design: Design, t: int):
    """Whether every j-subset (j=1..t) lies in a constant number of blocks.

    Returns (True, [lam_0, ..., lam_t]) with lam_0 the block count, or
    (False, None).  Blocks must all have one size r >= t.  Only level t is
    counted: with uniform blocks a t-design is a j-design for every j < t,
    with lam_j = lam_t C(n-j,t-j) / C(r-j,t-j).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if design.num_blocks == 0:
        return True, [0] * (t + 1)
    r = design.uniform_size()
    if t > r:
        raise ValueError("t exceeds the block size")
    n = design.n
    if _first_unbalanced(n, design.blocks, t, {r: 1}) is not None:
        return False, None
    lam_t = lambda_count(design, range(t))  # balanced: that of every t-subset
    return True, [
        lam_t * math.comb(n - j, t - j) // math.comb(r - j, t - j) for j in range(t + 1)
    ]


def is_regular_twise_balanced(design: Design, weights, t: int):
    """Weighted balance check for a design with possibly mixed block sizes.

    `weights` maps block size to a positive weight.  True iff the weighted
    coverage sum of every j-subset is constant for each j = 1..t; the
    balanced case returns [lam_1, ..., lam_t] as exact Fractions.
    """
    from fractions import Fraction  # here, so that verify does not import it

    if t < 1:
        raise ValueError("t must be >= 1")
    sizes = design.block_sizes()
    wmap = {}
    for s in sizes:
        if s not in weights:
            raise ValueError(f"no weight given for block size {s}")
        w = Fraction(weights[s])
        if w <= 0:
            raise ValueError("weights must be positive")
        wmap[s] = w
    lams = []
    # with mixed block sizes, balance at level j does not imply balance below
    # it, so every level is checked
    for j in range(1, t + 1):
        if _first_unbalanced(design.n, design.blocks, j, wmap) is not None:
            return False, None
        # balanced: every j-subset has the weighted count of {0, ..., j-1}
        first = (1 << j) - 1
        lams.append(Fraction(sum(wmap[b.bit_count()] for b in design.blocks if b & first == first)))
    return True, lams
