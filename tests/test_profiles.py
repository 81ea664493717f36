import collections
import dataclasses
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from tightrel import (
    Design,
    LambdaSequence,
    complement,
    conjecture2_scan,
    lambda_sequence,
    multiplicity_graph,
    sequences_equal,
)
from tightrel.designs import bits_of, mask_of

from conftest import cheap_levels, designs, reference_coverage, relabel


def test_lambda_sequence_fano(fano):
    assert lambda_sequence(fano, 3).entries == ((0, 28), (1, 7))
    assert lambda_sequence(fano, 2).entries == ((1, 21),)
    assert lambda_sequence(fano, 1).entries == ((3, 7),)


def test_lambda_sequence_witt(witt):
    seq = lambda_sequence(witt, 5)
    assert seq.entries == ((0, 28336), (1, 5313))
    assert lambda_sequence(witt, 4).entries == ((1, math.comb(23, 4)),)


def test_lambda_sequence_invariants(paley11):
    for t in (1, 2, 3):
        seq = lambda_sequence(paley11, t)
        assert seq.total_count() == math.comb(11, t)
        assert seq.weighted_total() == 11 * math.comb(5, t)


def test_lambda_sequence_validates_t(fano):
    with pytest.raises(ValueError):
        lambda_sequence(fano, 0)
    with pytest.raises(ValueError):
        lambda_sequence(fano, 4)


def _reference_lambda_sequence(design, t):
    hist = {}
    for v in reference_coverage(design, t).values():
        hist[v] = hist.get(v, 0) + 1
    zeros = math.comb(design.n, t) - sum(hist.values())
    if zeros:
        hist[0] = zeros
    return tuple(sorted(hist.items()))


@settings(max_examples=60, deadline=None)
@given(designs())
def test_lambda_sequence_matches_reference(design):
    if not design.num_blocks:
        return
    r = design.uniform_size()
    for t in cheap_levels(design, r):
        assert lambda_sequence(design, t).entries == _reference_lambda_sequence(design, t)
    if 3 <= r <= 11 and design.n <= 65:
        cov = reference_coverage(design, 3)
        expect = tuple(cov.get(v, 0) for v in itertools.combinations(range(design.n), 3))
        assert multiplicity_graph(design).weights == expect


def test_lambda_sequence_near_block_size(biplane37):
    # the 27-subsets of 37 blocks of size 28, any two of which share 21
    # points: deep prefixes that several blocks contain
    comp = complement(biplane37)
    assert lambda_sequence(comp, 27).entries == _reference_lambda_sequence(comp, 27)


def test_lambda_sequence_beyond_int64():
    # C(128, 19) >= 2**63; the lone 20-block covers 20 of the 19-subsets
    block = Design(128, (mask_of(range(3, 23)),))
    seq = lambda_sequence(block, 19)
    assert seq.entries == ((0, 21955357473882018031980), (1, 20))
    assert seq.entries == _reference_lambda_sequence(block, 19)


def test_lambda_sequence_checks_raise(fano, monkeypatch):
    # the double-counting checks raise, so python -O keeps them: a kernel
    # that drops a covered t-subset trips the weighted total check
    import tightrel.profiles as profiles

    real = profiles._coverage
    monkeypatch.setattr(profiles, "_coverage", lambda *a: itertools.islice(real(*a), 1, None))
    with pytest.raises(RuntimeError, match="t-subsets once"):
        lambda_sequence(fano, 2)


def test_lambda_sequence_keeps_only_the_counts():
    # six 36-point blocks (five distinct) on 40 points at t = 33 cover about
    # 35,000 subsets of 33 points; a histogram that kept each one as a tuple
    # peaked near 14 MB
    rng = random.Random(12)
    distinct = [mask_of(rng.sample(range(40), 36)) for _ in range(5)]
    design = Design(40, tuple(distinct + [distinct[2]]))
    counts = reference_coverage(design, 33)
    expected = collections.Counter(counts.values())
    expected[0] = math.comb(40, 33) - len(counts)
    tracemalloc.start()
    try:
        seq = lambda_sequence(design, 33)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.entries == tuple(sorted(expected.items()))
    assert peak < 2**20


def test_lambda_sequence_entry_validation():
    with pytest.raises(ValueError):
        LambdaSequence(3, ((1, 5), (0, 2)))
    with pytest.raises(ValueError):
        LambdaSequence(3, ((0, 0),))


def test_lambda_sequence_label_invariance(fano):
    rng = random.Random(7)
    base = lambda_sequence(fano, 3)
    for _ in range(5):
        perm = list(range(7))
        rng.shuffle(perm)
        moved = relabel(fano, dict(enumerate(perm)))
        assert sequences_equal(lambda_sequence(moved, 3), base)


def test_sequences_equal_requires_same_t(fano):
    a = lambda_sequence(fano, 2)
    b = LambdaSequence(3, a.entries)
    assert not sequences_equal(a, b)
    assert sequences_equal(a, lambda_sequence(fano, 2))


def test_biplane_reflection(biplane37):
    seq = lambda_sequence(biplane37, 3)
    assert seq.entries == ((0, 4662), (1, 3108))
    comp = lambda_sequence(complement(biplane37), 3)
    assert comp.entries == ((15, 3108), (16, 4662))
    # complementation sends each triple count lam to K - lam with K = 16
    K = 16
    assert comp.entries == tuple(
        sorted((K - v, c) for v, c in seq.entries)
    )


def test_multiplicity_graph_fano(fano):
    g = multiplicity_graph(fano)
    assert len(g.vertices) == 35
    assert g.weight_multiset() == lambda_sequence(fano, 3).entries
    i = g.vertex_index((0, 1, 3))
    assert g.weights[i] == 1
    assert g.degree(i) == 3 * (7 - 3)
    assert all(g.degree(j) == 12 for j in range(35))
    # neighbors share exactly two points
    for j in g.neighbors(i):
        assert len(set(g.vertices[j]) & {0, 1, 3}) == 2


def test_multiplicity_graph_biplane_degree(biplane37):
    g = multiplicity_graph(biplane37)
    assert len(g.vertices) == math.comb(37, 3)
    assert g.degree(0) == 3 * (37 - 3)


def test_multiplicity_graph_vertex_index_round_trip(fano):
    g = multiplicity_graph(fano)
    for i, v in enumerate(g.vertices):
        assert g.vertex_index(v) == i
        assert g.vertex_index(list(v)) == i


def test_multiplicity_graph_indexes_without_a_table():
    # the closed-form lex rank of a triple against combinations, and the
    # neighbours of a vertex at n = 128 found without an index of the
    # 341,376 vertices
    for n in range(4, 13):
        g = multiplicity_graph(Design(n, (mask_of(range(4)),)))
        assert [g.vertex_index(v) for v in g.vertices] == list(range(math.comb(n, 3)))
    g = multiplicity_graph(Design(128, (mask_of(range(4)), mask_of(range(124, 128)))))
    assert g.weight_multiset() == ((0, math.comb(128, 3) - 8), (1, 8))
    assert g.weights[g.vertex_index((125, 126, 127))] == 1
    with pytest.raises(KeyError):
        g.vertex_index((1, 0, 2))
    g.neighbors(1)  # anything a first call sets up is not counted
    tracemalloc.start()
    try:
        near = g.neighbors(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert len(near) == 3 * 125
    assert all(len(set(g.vertices[j]) & {0, 1, 2}) == 2 for j in near)


def test_multiplicity_graph_is_frozen(fano):
    g = multiplicity_graph(fano)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.n = 8


def test_multiplicity_graph_needs_triples():
    pairs = Design(5, (mask_of((0, 1)), mask_of((2, 3))))
    with pytest.raises(ValueError):
        multiplicity_graph(pairs)


def test_conjecture2_scan_finds_relabelled_twin(fano, fano_swapped):
    assert fano.blocks != fano_swapped.blocks
    assert conjecture2_scan([fano, fano_swapped], 3) == [(0, 1)]
    assert conjecture2_scan([fano, fano_swapped], 2) == [(0, 1)]


def test_conjecture2_scan_skips_equal_block_sets(fano):
    assert conjecture2_scan([fano, fano], 3) == []
    assert conjecture2_scan([fano], 3) == []
    assert conjecture2_scan([], 3) == []


def test_conjecture2_scan_rejects_mixed_shapes(fano, paley11):
    with pytest.raises(ValueError):
        conjecture2_scan([fano, paley11], 3)


def test_conjecture2_scan_distinguishes_different_histograms(fano):
    blocks = list(fano.blocks)
    blocks.remove(mask_of((0, 1, 3)))
    blocks.append(mask_of((0, 1, 2)))
    other = Design(7, tuple(blocks))
    # any seven distinct triples share the t=3 histogram, so this pair is
    # reported at t=3 but told apart at t=2 (other is not a 2-design)
    assert conjecture2_scan([fano, other], 3) == [(0, 1)]
    assert conjecture2_scan([fano, other], 2) == []
