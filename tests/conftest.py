"""Shared fixtures: the witnessing designs and a mixed corpus of passing
and failing two-shell candidates; the dict-of-tuples coverage loop that the
coverage walk is compared against; and hypothesis strategies for
random designs and edited two-shell candidates."""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from tightrel import (
    Design,
    RelativeCandidate,
    complement,
    complementary_pair,
    construct_paley_hadamard,
    construct_witt_23,
    derived,
    residual,
)
from tightrel.designs import bits_of, mask_of


@pytest.fixture(scope="session")
def fano():
    return construct_paley_hadamard(7)


@pytest.fixture(scope="session")
def paley11():
    return construct_paley_hadamard(11)


@pytest.fixture(scope="session")
def witt():
    return construct_witt_23()


@pytest.fixture(scope="session")
def fano_pair(fano):
    return complementary_pair(fano)


@pytest.fixture(scope="session")
def witt_pair(witt):
    return complementary_pair(witt)


@pytest.fixture(scope="session")
def y6(witt):
    return derived(witt, 0)


@pytest.fixture(scope="session")
def y7(witt):
    return residual(witt, 0)


@pytest.fixture(scope="session")
def biplane37():
    """2-(37,9,2) from the fourth-power residues modulo 37 (a difference set)."""
    quartics = sorted({pow(x, 4, 37) for x in range(1, 37)})
    blocks = tuple(mask_of((q + i) % 37 for q in quartics) for i in range(37))
    return Design(37, blocks)


def relabel(design: Design, perm: dict) -> Design:
    return Design(
        design.n,
        tuple(mask_of(perm.get(i, i) for i in bits_of(b)) for b in design.blocks),
    )


@pytest.fixture(scope="session")
def fano_swapped(fano):
    """Fano with points 0 and 1 exchanged; same sequence, different block set."""
    return relabel(fano, {0: 1, 1: 0})


@pytest.fixture(scope="session")
def corpus(fano, paley11, witt, fano_swapped, y6, y7):
    """(candidate, t) pairs, both passing and failing, all with n <= 23."""
    from fractions import Fraction

    complete = Design(7, tuple(mask_of(c) for c in itertools.combinations(range(7), 3)))
    out = []
    for q in (7, 11, 19, 23):
        d = construct_paley_hadamard(q)
        out.append((RelativeCandidate.from_designs(d, complement(d)), 3))
        out.append((RelativeCandidate.from_designs(d, complement(d), 1, 2), 3))
    out.append((complementary_pair(fano), 4))
    out.append((complementary_pair(paley11), 4))
    out.append((complementary_pair(witt), 5))
    out.append((complementary_pair(witt), 4))
    out.append((RelativeCandidate.from_designs(witt, complement(witt), 2, 1), 5))
    out.append(
        (RelativeCandidate.from_designs(witt, complement(witt), Fraction(3, 2), Fraction(3, 2)), 5)
    )
    out.append((RelativeCandidate.from_designs(fano_swapped, complement(fano)), 3))
    out.append((RelativeCandidate.from_designs(complete, complement(complete)), 3))
    out.append((RelativeCandidate.from_designs(complete, complement(complete)), 4))
    out.append((RelativeCandidate.from_designs(paley11, complement(paley11), 2, 3), 3))
    out.append((complementary_pair(fano), 2))
    out.append((RelativeCandidate.from_designs(y6, y7), 4))
    out.append((RelativeCandidate.from_designs(complement(y6), complement(y7)), 4))
    out.append((RelativeCandidate.from_designs(y6, complement(y7)), 4))
    out.append((RelativeCandidate.from_designs(complement(y6), y7), 4))
    out.append((RelativeCandidate.from_designs(y6, y7, 1, 3), 4))
    return out


def reference_coverage(design: Design, j: int, weight=None) -> dict:
    """Coverage sum of every j-subset inside some block, one block at a
    time: each block adds weight[its size] (default 1) to each of its
    C(size, j) sub-subsets."""
    counts = {}
    for b in design.blocks:
        w = 1 if weight is None else weight[b.bit_count()]
        for sub in itertools.combinations(bits_of(b), j):
            counts[sub] = counts.get(sub, 0) + w
    return counts


# the most j-subsets of one block that the dict-of-tuples reference is
# asked to enumerate in a property test
REFERENCE_LIMIT = 10_000


def cheap_levels(design: Design, upto: int, prefix=False) -> list[int]:
    """The levels j = 1..upto at which no block has more than
    REFERENCE_LIMIT j-subsets; with prefix, only those below the first
    level that has, for a reference that walks the levels in turn."""
    top = max(design.block_sizes(), default=0)
    out = []
    for j in range(1, upto + 1):
        if math.comb(top, j) <= REFERENCE_LIMIT:
            out.append(j)
        elif prefix:
            break
    return out


@st.composite
def designs(draw, uniform=True):
    """A design on n points, n small, 37, or at the uint64 word boundaries
    64, 65 and 128: random blocks with repeats, a complete design, a
    relabelled Paley design, or (for n >= 35) random blocks of size n-4..n,
    whose j-subsets near the block size are long prefixes of the coverage
    walk; each possibly repeated as a whole; mixed block sizes when uniform
    is False."""
    n = draw(st.sampled_from([1, 2, 3, 5, 7, 8, 11, 37, 64, 65, 128]))
    kind = draw(st.sampled_from(["random", "random", "complete", "paley", "large"]))
    if kind == "paley" and n in (7, 11):
        perm = draw(st.permutations(range(n)))
        blocks = relabel(construct_paley_hadamard(n), dict(enumerate(perm))).blocks
    elif kind == "complete" and n <= 8:
        r = draw(st.integers(0, n))
        blocks = tuple(mask_of(c) for c in itertools.combinations(range(n), r))
    else:
        sizes = st.integers(n - 4, n) if kind == "large" and n >= 35 else st.integers(0, min(n, 6))
        r = draw(sizes)
        block = st.sets(st.integers(0, n - 1), min_size=r, max_size=r)
        if not uniform:
            block = sizes.flatmap(lambda k: st.sets(st.integers(0, n - 1), min_size=k, max_size=k))
        blocks = tuple(mask_of(b) for b in draw(st.lists(block, max_size=12)))
        if blocks:
            blocks += tuple(draw(st.lists(st.sampled_from(blocks), max_size=4)))
    return Design(n, blocks * draw(st.integers(1, 2)))


def six_point_pair():
    """n = 6: the pairs {01, 23, 45} on shell 2 and the complements of the
    other 12 pairs on shell 4, unit weights.  Every moment identity holds at
    every strength, yet only 2-wise balance does: 20 triples miss their share."""
    full = (1 << 6) - 1
    matching = [mask_of(p) for p in ((0, 1), (2, 3), (4, 5))]
    rest = [full ^ mask_of(p) for p in itertools.combinations(range(6), 2) if mask_of(p) not in matching]
    return RelativeCandidate.from_designs(Design(6, tuple(matching)), Design(6, tuple(rest)))


@functools.cache
def candidate_bases(with_witt=False):
    """Two-shell base pairs: complementary Paley(7/11) pairs and the n=22
    derived/residual pairs of the 4-(23,7,1) design, plus the 4-(23,7,1)
    complementary pair and Paley(19) when with_witt is set."""
    witt = construct_witt_23()
    y6, y7 = derived(witt, 0), residual(witt, 0)
    qs = (7, 11, 19) if with_witt else (7, 11)
    pairs = [(d, complement(d)) for d in map(construct_paley_hadamard, qs)]
    pairs += [(y6, y7), (y6, complement(y7))]
    return pairs + [(witt, complement(witt))] if with_witt else pairs


weights = st.fractions(min_value=Fraction(1, 8), max_value=8) | st.builds(
    Fraction, st.integers(1, 2**66), st.integers(1, 2**66)
)


@st.composite
def candidates(draw, strengths, with_witt=False):
    """A relabelled pair from candidate_bases(with_witt) with one block
    deleted, replaced or swapped with another on a point (which keeps every
    point count), under random weights, and a strength from `strengths`."""
    pair = draw(st.sampled_from(candidate_bases(with_witt)))
    n = pair[0].n
    perm = draw(st.permutations(range(n)))
    shells = [[mask_of(perm[i] for i in bits_of(b)) for b in d.blocks] for d in pair]
    blocks = shells[draw(st.integers(0, 1))]
    i, j = (draw(st.integers(0, len(blocks) - 1)) for _ in range(2))
    edit = draw(st.sampled_from(["keep", "keep", "delete", "replace", "swap"]))
    if edit == "delete" and len(blocks) > 1:
        del blocks[i]
    elif edit == "replace":
        blocks[i] = mask_of(draw(st.permutations(range(n)))[: blocks[i].bit_count()])
    elif edit == "swap" and blocks[i] != blocks[j]:
        x = draw(st.sampled_from(bits_of(blocks[i] & ~blocks[j])))
        y = draw(st.sampled_from(bits_of(blocks[j] & ~blocks[i])))
        blocks[i] ^= 1 << x | 1 << y
        blocks[j] ^= 1 << x | 1 << y
    w1 = draw(weights)
    w2 = w1 if draw(st.booleans()) else draw(weights)
    cand = RelativeCandidate.from_designs(
        Design(n, tuple(shells[0])), Design(n, tuple(shells[1])), w1, w2
    )
    return cand, draw(strengths)
