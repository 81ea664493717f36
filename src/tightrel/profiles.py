"""Coverage-count histograms over all t-subsets, and detection of designs
with different block multisets sharing a histogram.  The counts come from
`_design`, which alone chooses the route: its coverage walk, where a
t-subset it does not visit counts 0, or, where the walk has spent the cost
of one count of block pairs, that count, which gives the histogram when
the coverage counts take two adjacent values a and a+1; otherwise the walk
runs again, up to the one work budget (_design._BUDGET)."""

import math

from ._base import _Record
from ._design import Design, _coverage_histogram

__all__ = ["LambdaSequence", "lambda_sequence", "conjecture2_scan"]


class LambdaSequence(_Record):
    """Histogram of lambda_t over all t-subsets.

    entries is a tuple of (value, count) pairs with values strictly
    increasing; counts are positive.
    """

    __slots__ = ("t", "entries")

    def __init__(self, t: int, entries: tuple):
        vals = [v for v, _ in entries]
        if vals != sorted(set(vals)):
            raise ValueError("entry values must be strictly increasing")
        if any(c < 1 for _, c in entries):
            raise ValueError("entry counts must be positive")
        self._set(t, entries)

    def total_count(self) -> int:
        return sum(c for _, c in self.entries)

    def weighted_total(self) -> int:
        return sum(v * c for v, c in self.entries)


def lambda_sequence(design: Design, t: int) -> LambdaSequence:
    """Exact histogram of coverage counts over all C(n,t) t-subsets.

    The cost is a walk over the t-subsets that some block contains, rather
    than a scan of all C(n,t) subsets against the block list.  Where the
    walk passes the cost of one pass over the block pairs, it stops, and
    that pass decides the histogram when its values are a and a+1;
    otherwise the walk runs again.  Past its work budget, which bounds the
    pass too, the walk raises ValueError.
    """
    if not design.blocks:  # every t-subset counts 0
        if not 1 <= t <= design.n:
            raise ValueError("need 1 <= t <= point count")
        return LambdaSequence(t, ((0, math.comb(design.n, t)),))
    r = design.uniform_size()
    if not 1 <= t <= r:
        raise ValueError("need 1 <= t <= block size")
    seq = LambdaSequence(t, _coverage_histogram(design.n, r, design.blocks, t))
    # the two double-counting identities are cheap, so always check them
    if seq.total_count() != math.comb(design.n, t):
        raise RuntimeError("lambda sequence does not count every t-subset once")
    if seq.weighted_total() != design.num_blocks * math.comb(r, t):
        raise RuntimeError("lambda sequence does not count every block's t-subsets once")
    return seq


def conjecture2_scan(designs, t: int):
    """All unordered index pairs (i, j) whose designs have different block
    multisets but identical lambda_t-sequences.

    Every input must share the same point count, and every input with
    blocks the same block size; a design with no blocks has the histogram
    C(n,t)*0.  Designs with the same blocks, each as often, are never
    reported, even if listed twice; designs that differ only in how often a
    block repeats are.
    """
    designs = list(designs)
    if not designs:
        return []
    n = designs[0].n
    if any(d.n != n for d in designs) or len({d.uniform_size() for d in designs if d.blocks}) > 1:
        raise ValueError("all designs must share the same (n, block size)")
    seqs = [lambda_sequence(d, t) for d in designs]
    pairs = []
    for i in range(len(designs)):
        for j in range(i + 1, len(designs)):
            # the canonical block tuples: equal exactly as multisets
            if designs[i].blocks != designs[j].blocks and seqs[i] == seqs[j]:
                pairs.append((i, j))
    return pairs
