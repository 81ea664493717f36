import collections
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from tightrel import (
    Design,
    LambdaSequence,
    complement,
    conjecture2_scan,
    construct_paley_hadamard,
    lambda_sequence,
)
from tightrel import _design, designs as designs_module, profiles
from tightrel._design import _pair_moments, _two_values
from tightrel.designs import coverage_map, is_t_design, mask_of

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
        assert coverage_map(design, 3) == reference_coverage(design, 3)


@st.composite
def _uniform_designs(draw):
    """A design of one block size r >= 1 and a strength t <= r: blocks drawn
    from a pool of at most four (so that blocks repeat), the full point set
    repeated, a complete design or a relabelled Paley design; on n <= 12
    points, or n = 128 with blocks of at most 6 points."""
    n = draw(st.sampled_from([*range(1, 13), 128]))
    kind = draw(st.sampled_from(["pool", "pool", "full", "complete", "paley"]))
    if kind == "paley" and n in (7, 11):
        perm = draw(st.permutations(range(n)))
        blocks = relabel(construct_paley_hadamard(n), dict(enumerate(perm))).blocks
    elif kind == "complete" and n <= 10:
        blocks = tuple(map(mask_of, itertools.combinations(range(n), draw(st.integers(1, n)))))
    elif kind == "full" and n <= 12:
        blocks = ((1 << n) - 1,) * draw(st.integers(1, 3))
    else:
        r = draw(st.integers(1, min(n, 6)))
        block = st.sets(st.integers(0, n - 1), min_size=r, max_size=r).map(mask_of)
        pool = draw(st.lists(block, min_size=1, max_size=4))
        blocks = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)))
    design = Design(n, blocks)
    return design, draw(st.integers(1, design.uniform_size()))


def _on_route(design, t, allowance):
    """lambda_sequence's entries, is_t_design's answer and the number of
    block-pair counts the two make, with the walks' allowance set: 0 pauses
    each walk at once for the pair count (lambda_sequence resumes it when
    the counts take other values than a and a+1), 2**200 leaves everything
    to the walk, which counts no pairs."""
    count, calls = _design._pair_counts, []

    def spy(*args):
        calls.append(args)
        return count(*args)

    with pytest.MonkeyPatch.context() as mp:
        for module in (designs_module, profiles):
            mp.setattr(module, "_allowance", lambda *args: [allowance])
        mp.setattr(_design, "_pair_counts", spy)
        return lambda_sequence(design, t).entries, is_t_design(design, t), len(calls)


_FANO = construct_paley_hadamard(7)


@settings(max_examples=150, deadline=None)
@given(_uniform_designs())
@example((Design(7, _FANO.blocks * 2), 2))  # duplicate blocks: one value, 2
@example((_FANO, 3))  # t = r: 0 and 1
@example((Design(5, (31,) * 3), 2))  # blocks of size n: one value, 3
@example((Design(6, (0b111, 0b1110, 0b11100)), 2))  # 0, 1 and 2
@example((Design(5, (7, 7)), 2))  # 0 and 2, not adjacent
@example((construct_paley_hadamard(11), 3))  # 0 and 1
def test_pair_route_matches_walk(case):
    # the pair count decides the histogram when its values are a and a+1,
    # and declines it otherwise; each route is run on its own, and the walk
    # is checked against a count of every block's t-subsets
    design, t = case
    walked, verdict, counted = _on_route(design, t, 2**200)
    assert counted == 0
    assert walked == _reference_lambda_sequence(design, t)
    values = [v for v, _ in walked]
    if values[-1] - values[0] <= 1:
        expect = (values[0], walked[1][1] if len(walked) == 2 else 0)
    else:
        expect = None
    assert verdict[0] == (expect is not None and expect[1] == 0)
    r = design.uniform_size()
    assert _pair_moments(design.n, [(r, design.blocks, 1)], t, t) == [expect]
    assert _on_route(design, t, 0) == (walked, verdict, 2)


def test_lambda_sequence_resumes_the_paused_walk(monkeypatch):
    # Paley(19) at t = 3, with an allowance of 100 steps past the walk's
    # setup of 19 * 4 steps (one pair count's own cost is less than that
    # setup): the walk spends it partway through the triples, and the count
    # finds that they lie in 1, 2 or 3 blocks; so the walk resumes where it
    # paused, and gives the histogram it gives on its own
    paley = construct_paley_hadamard(19)
    walked = _on_route(paley, 3, 2**200)[0]
    real, seen = profiles._walk, []
    monkeypatch.setattr(profiles, "_allowance", lambda *args: [(19 * 4 + 100) * 401])

    def spy(*args):
        for item in real(*args):
            seen.append(item is None)
            yield item

    monkeypatch.setattr(profiles, "_walk", spy)
    assert lambda_sequence(paley, 3).entries == walked == _reference_lambda_sequence(paley, 3)
    assert seen.count(True) == 1
    assert 0 < seen.index(True) < len(seen) - 1


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=30)
    | st.builds(lambda a, bits: [a + b for b in bits], st.integers(-(2**70), 2**70),
                st.lists(st.integers(0, 1), min_size=1, max_size=30))
)
@example([0])  # m0 = 1
@example([-5])
@example([-3, -2, -2])  # negative, as the moment sums are when r > n/2 - 1
@example([-1, 0, -1, 0])
@example([4, 4, 4])
@example([2, 4])  # not adjacent, but the same sum as [3, 3]
@example([-1, 1])
def test_two_values_matches_histogram(xs):
    # (a, h) from the count, sum and sum of squares alone, against the values
    hist = collections.Counter(xs)
    low, high = min(hist), max(hist)
    expect = (low, hist[low + 1]) if high - low <= 1 else None
    assert _two_values(len(xs), sum(xs), sum(x * x for x in xs)) == expect


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


def test_lambda_sequence_checks_raise(monkeypatch):
    # the double-counting checks raise, so python -O keeps them: a kernel
    # that drops a covered t-subset trips the weighted total check.  The
    # walk counts the triples of Paley(19) alone, with no pair count to
    # pause for, so the item it drops is a covered one
    monkeypatch.setattr(profiles, "_allowance", lambda *args: None)
    real = profiles._walk
    monkeypatch.setattr(profiles, "_walk", lambda *a: itertools.islice(real(*a), 1, None))
    with pytest.raises(RuntimeError, match="t-subsets once"):
        lambda_sequence(construct_paley_hadamard(19), 3)


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
        assert lambda_sequence(moved, 3) == base


def test_sequences_equal_requires_same_t(fano):
    a = lambda_sequence(fano, 2)
    b = LambdaSequence(3, a.entries)
    assert a != b
    assert a == lambda_sequence(fano, 2)


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
