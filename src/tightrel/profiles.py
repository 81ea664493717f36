"""Coverage-count histograms over all t-subsets, the weighted triple graph,
and detection of distinct designs sharing a histogram.  Counts come from
the coverage walk of designs.py; a t-subset it does not visit counts 0."""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

from ._base import _Record
from .designs import Design, _coverage, coverage_map

__all__ = [
    "LambdaSequence",
    "MultiplicityGraph",
    "lambda_sequence",
    "sequences_equal",
    "multiplicity_graph",
    "conjecture2_scan",
]


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

    Cost is a walk over the t-subsets that some block contains, rather
    than a scan of all C(n,t) subsets against the block list.
    """
    r = design.uniform_size()
    if not 1 <= t <= r:
        raise ValueError("need 1 <= t <= block size")
    # only the counts: the covered subsets stream past and are dropped
    counts = Counter(m.bit_count() for _, m in _coverage(design.n, design.blocks, t))
    entries = tuple(sorted(counts.items()))
    zeros = math.comb(design.n, t) - counts.total()
    if zeros:
        entries = ((0, zeros),) + entries
    seq = LambdaSequence(t, entries)
    # the two double-counting identities are cheap, so always check them
    if seq.total_count() != math.comb(design.n, t):
        raise RuntimeError("lambda sequence does not count every t-subset once")
    if seq.weighted_total() != design.num_blocks * math.comb(r, t):
        raise RuntimeError("lambda sequence does not count every block's t-subsets once")
    return seq


def sequences_equal(a: LambdaSequence, b: LambdaSequence) -> bool:
    return a.t == b.t and a.entries == b.entries


class MultiplicityGraph(_Record):
    """Triple graph of a design: vertices are the 3-subsets of the point set
    in lexicographic order, two vertices adjacent when they share 2 points,
    each vertex weighted by its coverage count."""

    __slots__ = ("n", "vertices", "weights")

    def __init__(self, n: int, vertices: tuple, weights: tuple):
        self._set(n, vertices, weights)

    def vertex_index(self, triple) -> int:
        """The lex rank of a < b < c: the triples with a first point below a,
        or first point a and a second below b, or a, b and a third below c."""
        a, b, c = triple
        n = self.n
        if not 0 <= a < b < c < n:
            raise KeyError(tuple(triple))
        below_a = math.comb(n, 3) - math.comb(n - a, 3)
        return below_a + math.comb(n - a - 1, 2) - math.comb(n - b, 2) + c - b - 1

    def neighbors(self, i: int) -> tuple:
        """Indices of the 3(n-3) vertices sharing exactly 2 points."""
        triple = self.vertices[i]
        return tuple(sorted(
            self.vertex_index(sorted({*triple, add} - {drop}))
            for drop in triple for add in range(self.n) if add not in triple
        ))

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def weight_multiset(self) -> tuple:
        return tuple(sorted(Counter(self.weights).items()))


def multiplicity_graph(design: Design) -> MultiplicityGraph:
    if design.uniform_size() < 3:
        raise ValueError("block size must be at least 3")
    vertices = tuple(combinations(range(design.n), 3))  # in lex order
    counts = coverage_map(design, 3)
    return MultiplicityGraph(design.n, vertices, tuple(counts.get(v, 0) for v in vertices))


def conjecture2_scan(designs, t: int):
    """All unordered index pairs (i, j) whose designs have different block
    sets but identical lambda_t-sequences.

    Every input must share the same point count and block size.  Designs
    that are equal as block sets are never reported, even if listed twice.
    """
    designs = list(designs)
    if not designs:
        return []
    n = designs[0].n
    r = designs[0].uniform_size()
    for d in designs[1:]:
        if d.n != n or d.uniform_size() != r:
            raise ValueError("all designs must share the same (n, block size)")
    seqs = [lambda_sequence(d, t) for d in designs]
    sets = [frozenset(d.blocks) for d in designs]
    pairs = []
    for i in range(len(designs)):
        for j in range(i + 1, len(designs)):
            if sets[i] != sets[j] and sequences_equal(seqs[i], seqs[j]):
                pairs.append((i, j))
    return pairs
