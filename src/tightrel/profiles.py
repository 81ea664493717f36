"""Coverage-count histograms over all t-subsets, the weighted triple graph,
and detection of distinct designs sharing a histogram."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .designs import Design, _coverage, _dense_coverage

__all__ = [
    "LambdaSequence",
    "MultiplicityGraph",
    "lambda_sequence",
    "sequences_equal",
    "multiplicity_graph",
    "conjecture2_scan",
]


@dataclass(frozen=True)
class LambdaSequence:
    """Histogram of lambda_t over all t-subsets.

    entries is a tuple of (value, count) pairs with values strictly
    increasing; counts are positive.
    """

    t: int
    entries: tuple

    def __post_init__(self):
        vals = [v for v, _ in self.entries]
        if vals != sorted(set(vals)):
            raise ValueError("entry values must be strictly increasing")
        if any(c < 1 for _, c in self.entries):
            raise ValueError("entry counts must be positive")

    def total_count(self) -> int:
        return sum(c for _, c in self.entries)

    def weighted_total(self) -> int:
        return sum(v * c for v, c in self.entries)


def lambda_sequence(design: Design, t: int) -> LambdaSequence:
    """Exact histogram of coverage counts over all C(n,t) t-subsets.

    Cost is ranking and sorting the N*C(r,t) t-subsets of the blocks,
    rather than a scan of all C(n,t) subsets against the block list.
    """
    r = design.uniform_size()
    if not 1 <= t <= r:
        raise ValueError("need 1 <= t <= block size")
    import numpy as np

    _, counts = _coverage(design.n, design.blocks, t)
    values, sizes = np.unique(counts, return_counts=True)
    entries = tuple(zip(values.tolist(), sizes.tolist()))
    zeros = math.comb(design.n, t) - len(counts)
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


@dataclass(frozen=True)
class MultiplicityGraph:
    """Triple graph of a design: vertices are the 3-subsets of the point set
    in lexicographic order, two vertices adjacent when they share 2 points,
    each vertex weighted by its coverage count."""

    n: int
    vertices: tuple
    weights: tuple

    def vertex_index(self, triple) -> int:
        return self._index[tuple(triple)]

    @property
    def _index(self):
        idx = self.__dict__.get("_index_cache")
        if idx is None:
            idx = {v: i for i, v in enumerate(self.vertices)}
            self.__dict__["_index_cache"] = idx
        return idx

    def neighbors(self, i: int) -> tuple:
        """Indices of the 3(n-3) vertices sharing exactly 2 points."""
        triple = self.vertices[i]
        inside = set(triple)
        out = []
        for drop in triple:
            kept = tuple(x for x in triple if x != drop)
            for add in range(self.n):
                if add not in inside:
                    out.append(self._index[tuple(sorted(kept + (add,)))])
        return tuple(sorted(out))

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def weight_multiset(self) -> tuple:
        hist: dict[int, int] = {}
        for w in self.weights:
            hist[w] = hist.get(w, 0) + 1
        return tuple(sorted(hist.items()))


def multiplicity_graph(design: Design) -> MultiplicityGraph:
    if design.uniform_size() < 3:
        raise ValueError("block size must be at least 3")
    vertices = tuple(combinations(range(design.n), 3))  # in lex order
    weights = tuple(_dense_coverage(design.n, design.blocks, 3).tolist())
    return MultiplicityGraph(design.n, vertices, weights)


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
