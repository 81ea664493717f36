"""Coverage-count histograms over all t-subsets, and detection of designs
with different block multisets sharing a histogram.  The counts come from
the coverage walk of designs.py, where a t-subset it does not visit counts
0.  Where the walk spends the work of one count of block pairs, it pauses
for that count (_design._pair_moments, which the oracle's pair route also
uses); when the count shows that the coverage counts take two adjacent
values a and a+1, it gives the histogram, and otherwise the walk resumes,
under the walk's work budget (_design._BUDGET)."""

import math
from collections import Counter

from ._base import _Record
from .designs import Design, _allowance, _columns, _pair_moments, _walk

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
    walk spends the work of one pass over the block pairs, that pass comes
    in, and decides the histogram when its values are a and a+1; otherwise
    the walk resumes, and raises ValueError past its work budget.
    """
    if not design.blocks:  # every t-subset counts 0
        if not 1 <= t <= design.n:
            raise ValueError("need 1 <= t <= point count")
        return LambdaSequence(t, ((0, math.comb(design.n, t)),))
    r = design.uniform_size()
    if not 1 <= t <= r:
        raise ValueError("need 1 <= t <= block size")
    n, blocks, total = design.n, design.blocks, math.comb(design.n, t)
    cols, counts, full = _columns(blocks, n), Counter(), (1 << len(blocks)) - 1
    for item in _walk(cols, range(n), t, full, True, _allowance(n, [(r, len(blocks))], t)):
        if item is None:  # the walk paused: one count of the block pairs
            if two := _pair_moments(n, [(r, blocks, 1)], t, t)[0]:
                a, h = two
                entries = tuple((v, c) for v, c in ((a, total - h), (a + 1, h)) if c)
                break
            continue  # three or more values: the walk resumes
        # only the counts: the covered subsets are never built
        prefix, m, later = item
        counts.update([c for q in later if (c := (m & cols[q]).bit_count())])
    else:
        entries = tuple(sorted(counts.items()))
        if zeros := total - counts.total():
            entries = ((0, zeros),) + entries
    seq = LambdaSequence(t, entries)
    # the two double-counting identities are cheap, so always check them
    if seq.total_count() != total:
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
