import itertools
import math
import tempfile
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tightrel import (
    Design,
    FormatError,
    RelativeCandidate,
    complement,
    construct_paley_hadamard,
    construct_witt_23,
    is_regular_twise_balanced,
    is_t_design,
    load_candidate,
    relative_design_oracle,
    save_candidate,
)
from tightrel import _design
from tightrel._design import _pair_moments, _two_values
from tightrel.analysis import union_design, weight_by_size
from tightrel.designs import bits_of, mask_of

from conftest import candidates, reference_coverage, six_point_pair, weights


def shell_moment(n: int, s: int, r: int) -> int:
    """Sum over the whole shell X_r of the degree-1 product for s coordinates:
    sum_{l=0}^{s} C(s,l) C(n-s,r-l) Q1(r-1)^l Q1(r+1)^{s-l}, which does not
    depend on which s distinct coordinates are chosen."""
    a, b = n - 2 * (r - 1), n - 2 * (r + 1)  # Q1(r-1), Q1(r+1)
    return sum(math.comb(s, l) * math.comb(n - s, r - l) * a**l * b ** (s - l)
               for l in range(min(s, r) + 1))


def test_shell_moment_spot_values():
    assert shell_moment(7, 1, 3) == 25
    # s = 1 closed form
    for n in (7, 11, 23):
        for r in range(1, n):
            expect = math.comb(n - 1, r - 1) * (n - 2 * r + 2) + math.comb(
                n - 1, r
            ) * (n - 2 * r - 2)
            assert shell_moment(n, 1, r) == expect


def _shell_moment_brute(n, s, r):
    # sum over shell vectors of prod_{i in S} Q_1(weight after flipping bit i)
    total = 0
    for bits in itertools.combinations(range(n), r):
        word = set(bits)
        prod = 1
        for i in range(s):
            w = r - 1 if i in word else r + 1
            prod *= n - 2 * w
        total += prod
    return total


@pytest.mark.parametrize("n", [5, 7, 10])
def test_shell_moment_matches_definition(n):
    for s in range(1, 4):
        for r in range(0, n + 1):  # the empty and the full shell too
            assert shell_moment(n, s, r) == _shell_moment_brute(n, s, r)


def test_candidate_construction_and_accessors(fano_pair):
    cand = fano_pair
    assert cand.n == 7
    assert [r for r, _, _ in cand.shells()] == [3, 4]
    assert [d.uniform_size() for _, d, _ in cand.shells()] == [3, 4]
    assert cand.total_size == 14
    assert (cand.w1, cand.w2) == (Fraction(1), Fraction(1))
    union = union_design(cand)
    assert union.n == 7 and union.num_blocks == 14


def test_from_designs_orders_by_block_size(fano):
    c = complement(fano)
    a = RelativeCandidate.from_designs(c, fano)
    b = RelativeCandidate.from_designs(fano, c)
    assert a == b
    assert (a.r1, a.r2) == (3, 4)
    assert a.design1 is not a.design2


def test_from_designs_rejects_equal_ranks(fano):
    with pytest.raises(ValueError):
        RelativeCandidate.from_designs(fano, fano)


def test_from_designs_rejects_mismatched_n(fano, y6):
    with pytest.raises(ValueError):
        RelativeCandidate.from_designs(fano, y6)


def test_shell_window_enforced():
    near = Design(7, tuple(mask_of(b) for b in itertools.combinations(range(7), 1)))
    mid = Design(7, tuple(mask_of(b) for b in itertools.combinations(range(7), 3)))
    with pytest.raises(ValueError):
        RelativeCandidate.from_designs(near, mid)
    cand = RelativeCandidate.from_designs(near, mid, allow_trivial=True)
    assert cand.total_size == 7 + 35


def test_weight_by_size(fano_pair):
    w = weight_by_size(fano_pair)
    assert w == {3: Fraction(1), 4: Fraction(1)}


def test_candidate_file_round_trip(tmp_path, witt_pair):
    p = tmp_path / "pair.rel"
    save_candidate(witt_pair, 5, p)
    cand, t = load_candidate(p)
    assert t == 5
    assert cand == witt_pair


@st.composite
def _shell(draw, n, r):
    """A design of one or more r-blocks on n points, some of them repeated."""
    block = st.permutations(range(n)).map(lambda p: mask_of(p[:r]))
    blocks = draw(st.lists(block, min_size=1, max_size=6))
    return Design(n, tuple(blocks + draw(st.lists(st.sampled_from(blocks), max_size=3))))


@st.composite
def _any_candidate(draw):
    n = draw(st.sampled_from([1, 2, 7, 23, 64, 65, 128]))
    r1 = draw(st.integers(0, n - 1))
    r2 = draw(st.integers(r1 + 1, n))
    huge = st.builds(Fraction, st.integers(1, 2**130), st.integers(2**64, 2**130))
    w1, w2 = draw(weights | huge), draw(weights | huge)
    cand = RelativeCandidate(n, r1, r2, draw(_shell(n, r1)), draw(_shell(n, r2)), w1, w2)
    return cand, draw(st.integers(1, n))


@settings(max_examples=60, deadline=None)
@given(_any_candidate())
def test_candidate_file_round_trips(case):
    cand, t = case
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/pair.rel"
        if cand.r1 == 0:
            # the format has no line for the empty block, so none is written
            with pytest.raises(ValueError):
                save_candidate(cand, t, path)
            return
        save_candidate(cand, t, path)
        assert load_candidate(path, allow_trivial=True) == (cand, t)


def test_candidate_file_fractional_weights(tmp_path, fano):
    cand = RelativeCandidate.from_designs(fano, complement(fano), Fraction(3, 2), 1)
    p = tmp_path / "pair.rel"
    save_candidate(cand, 3, p)
    loaded, t = load_candidate(p)
    assert t == 3
    assert (loaded.w1, loaded.w2) == (Fraction(3, 2), Fraction(1))
    assert loaded == cand


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.replace("RELDESIGN v1", "RELDESIGN v2"),
        lambda s: s.replace("t=", "u="),
        lambda s: s.replace("w=1", "w=0"),
        lambda s: s.replace("w=1", "w=-2", 1),
        lambda s: s + "0 1\n",
    ],
)
def test_candidate_loader_rejects_malformed(tmp_path, fano_pair, mutate):
    p = tmp_path / "pair.rel"
    save_candidate(fano_pair, 3, p)
    p.write_text(mutate(p.read_text()))
    with pytest.raises(FormatError):
        load_candidate(p)


def test_candidate_loader_enforces_window(tmp_path):
    near = Design(7, tuple(mask_of(b) for b in itertools.combinations(range(7), 1)))
    mid = Design(7, tuple(mask_of(b) for b in itertools.combinations(range(7), 3)))
    cand = RelativeCandidate.from_designs(near, mid, allow_trivial=True)
    p = tmp_path / "pair.rel"
    save_candidate(cand, 2, p)
    with pytest.raises(FormatError):
        load_candidate(p)
    loaded, t = load_candidate(p, allow_trivial=True)
    assert t == 2 and loaded == cand


def test_oracle_passes_fano_pair(fano_pair):
    ok, witness = relative_design_oracle(fano_pair, 3)
    assert ok and witness is None


def test_oracle_passes_witt_pair(witt_pair):
    ok, witness = relative_design_oracle(witt_pair, 5)
    assert ok and witness is None


def test_oracle_witness_is_lex_smallest(fano_pair):
    ok, witness = relative_design_oracle(fano_pair, 4)
    assert not ok
    s, subset = witness
    assert (s, subset) == (4, (0, 1, 2, 3))
    # recompute the balance identity at the witness to confirm it truly fails
    lhs = Fraction(0)
    rhs = Fraction(0)
    n = fano_pair.n
    S = set(subset)
    for r, shell, w in fano_pair.shells():
        lhs += w * Fraction(shell.num_blocks, math.comb(n, r)) * shell_moment(n, s, r)
        a, b = n - 2 * (r - 1), n - 2 * (r + 1)
        for block in shell.blocks:
            inter = bin(block & mask_of(S)).count("1")
            rhs += w * a**inter * b ** (s - inter)
    assert lhs != rhs


def test_oracle_unbalanced_weights_fail_at_s3(fano, paley11):
    # complementary Paley pairs satisfy s=1,2 for any weights; imbalance
    # first shows up at s=3
    cand = RelativeCandidate.from_designs(fano, complement(fano), 1, 2)
    ok, witness = relative_design_oracle(cand, 3)
    assert not ok and witness == (3, (0, 1, 2))
    cand11 = RelativeCandidate.from_designs(paley11, complement(paley11), 2, 3)
    ok, witness = relative_design_oracle(cand11, 3)
    assert not ok and witness == (3, (0, 1, 2))


def test_oracle_is_homogeneous_in_weights(fano, paley11):
    # the identity is homogeneous in the weights, so scaling both by 2**64
    # must leave every verdict and witness as it is on the original weights
    big = 2**64
    for base, t in (
        ((fano, complement(fano), 1, 1), 3),
        ((fano, complement(fano), 1, 1), 4),
        ((fano, complement(fano), 1, 2), 3),
        ((paley11, complement(paley11), 1, 1), 3),
    ):
        d_a, d_b, wa, wb = base
        small = relative_design_oracle(RelativeCandidate.from_designs(d_a, d_b, wa, wb), t)
        scaled = relative_design_oracle(
            RelativeCandidate.from_designs(d_a, d_b, wa * big, wb * big), t
        )
        assert small == scaled


def _reference_balance(cand, t):
    """The union's weighted coverage of every j-subset, j = 1..t, against
    its average, one subset and one block at a time."""
    n = cand.n
    blocks = [(b, w) for _, d, w in cand.shells() for b in d.blocks]
    for j in range(1, t + 1):
        share = sum(w * math.comb(b.bit_count(), j) for b, w in blocks) / math.comb(n, j)
        for sub in itertools.combinations(range(n), j):
            m = mask_of(sub)
            if sum(w for b, w in blocks if b & m == m) != share:
                return False, (j, sub)
    return True, None


def _reference_oracle(cand, t):
    """The moment identity in plain Python integers, one subset at a time,
    returning the lexicographically first failing subset.  For n = 2m <= 2t
    the identities at sizes m..t need not imply a relative t-design, so it
    scans sizes 1..m-1 and then the union's weighted balance at every size
    from 1: the sizes below m are balanced once their identities hold."""
    n = cand.n
    even = n % 2 == 0 and 4 <= n <= 2 * t
    scale = math.lcm(cand.w1.denominator, cand.w2.denominator)
    for s in range(1, n // 2 if even else t + 1):
        lhs = Fraction(0)
        for r, d, w in cand.shells():
            lhs += w * d.num_blocks * Fraction(shell_moment(n, s, r), math.comb(n, r))
        if (lhs * scale).denominator != 1:
            return False, (s, tuple(range(s)))
        for sub in itertools.combinations(range(n), s):
            m = mask_of(sub)
            total = 0
            for r, d, w in cand.shells():
                a, b = n - 2 * (r - 1), n - 2 * (r + 1)
                p = int(w * scale)
                for block in d.blocks:
                    c = (block & m).bit_count()
                    total += p * a**c * b ** (s - c)
            if total != lhs * scale:
                return False, (s, sub)
    if even:
        return _reference_balance(cand, t)
    return True, None


@st.composite
def _small_candidates(draw, sizes=st.integers(4, 10)):
    """A relabelled two-shell candidate on a few points that passes many
    levels, at a strength near n/2: the boundaries n = 2t -+ 1, and on even
    n the sizes s >= n/2, where the oracle checks the weighted balance.
    A shell is complete, a partition of the points, the complements of the
    r-sets the other shell leaves out (shells r and n - r), or a few random
    blocks; weights reach 2**66."""
    n = draw(sizes)

    def shell(r):
        every = [mask_of(c) for c in itertools.combinations(range(n), r)]
        kind = draw(st.sampled_from(["complete", "partition", "random"]))
        if kind == "complete" and len(every) <= 70:
            return every
        if kind == "partition" and r and n % r == 0:
            return [mask_of(range(i, i + r)) for i in range(0, n, r)]
        return draw(st.lists(st.sampled_from(every), min_size=1, max_size=6))

    r1 = draw(st.integers(0, n - 1) | st.just(n // 2 - 1))  # n = 2m: shells m -+ 1
    shell1 = shell(r1)
    full = (1 << n) - 1
    rest = [full ^ mask_of(c) for c in itertools.combinations(range(n), r1)
            if mask_of(c) not in shell1]
    if r1 < n - r1 and rest and draw(st.booleans()):
        shell2 = rest
    else:
        shell2 = shell(draw(st.integers(r1 + 1, n)))
    perm = draw(st.permutations(range(n)))
    d1, d2 = (Design(n, tuple(mask_of(perm[i] for i in bits_of(b)) for b in s)) for s in (shell1, shell2))
    w1 = draw(weights | st.just(Fraction(2**66)))
    w2 = w1 if draw(st.booleans()) else draw(weights | st.just(Fraction(2**66)))
    cand = RelativeCandidate.from_designs(d1, d2, w1, w2, allow_trivial=True)
    strengths = sorted({1, n, *(t for t in range(n // 2 - 1, n // 2 + 3) if 1 <= t <= n)})
    return cand, draw(st.sampled_from(strengths))


@settings(max_examples=80, deadline=None)
@given(candidates(st.integers(1, 4)) | _small_candidates())
@example((six_point_pair(), 6))  # unbalanced from size 3 = n/2 on
def test_oracle_matches_reference(case):
    cand, t = case
    assert relative_design_oracle(cand, t) == _reference_oracle(cand, t)


@settings(max_examples=60, deadline=None)
@given(candidates(st.integers(1, 5)) | _small_candidates(st.sampled_from([5, 7, 9])))
def test_passing_shells_are_designs_on_odd_n(case):
    # the two-shell theorem: on odd n, passing every level up to s makes each
    # shell an (s-1)-design (a shell with r < s-1 only as a multiple of the
    # complete shell, which is balance at strength r)
    cand, t = case
    assume(cand.n % 2)
    ok, witness = relative_design_oracle(cand, t)
    passed = t if ok else witness[0] - 1
    for r, d, _ in cand.shells():
        if min(passed - 1, r) >= 1:
            assert is_t_design(d, min(passed - 1, r))[0]


@settings(max_examples=80, deadline=None)
@given(_small_candidates())
@example((six_point_pair(), 3))
def test_oracle_verdict_is_weighted_balance(case):
    # a relative t-design is exactly a weighted regular t-wise balanced
    # union, also where n = 2m <= 2t and the identities alone say too
    # little; and the oracle fails first at the first unbalanced size, which
    # its pair route takes for the first failing size
    cand, t = case
    ok, witness = relative_design_oracle(cand, t)
    union, weight = union_design(cand), weight_by_size(cand)
    unbalanced = (j for j in range(1, t + 1) if not is_regular_twise_balanced(union, weight, j)[0])
    assert (None if ok else witness[0]) == next(unbalanced, None)


@pytest.mark.parametrize("n", [64, 65, 128])
def test_oracle_across_word_boundaries(n):
    # the complete r=1 and r=n-1 shells pass at every strength under any
    # weights; moving the singleton at n-2 onto n-1 breaks the identity first
    # at (n-2,), which lies in the second uint64 word from n = 66 on
    full = (1 << n) - 1
    low = Design(n, tuple(1 << i for i in range(n)))
    high = Design(n, tuple(full ^ (1 << i) for i in range(n)))
    moved = Design(n, tuple(1 << i for i in range(n - 2)) + (1 << (n - 1),) * 2)
    for w1, w2 in ((1, 2), (Fraction(2**64 + 1, 3), Fraction(2**65, 2**64 - 1))):
        cand = RelativeCandidate.from_designs(low, high, w1, w2, allow_trivial=True)
        assert relative_design_oracle(cand, 2) == (True, None)
        cand = RelativeCandidate.from_designs(moved, high, w1, w2, allow_trivial=True)
        assert relative_design_oracle(cand, 2) == (False, (1, (n - 2,)))
        assert _reference_oracle(cand, 2) == (False, (1, (n - 2,)))


def test_oracle_on_trivial_shells(fano):
    # the one full block and the one empty block are shells r = n and r = 0
    full = RelativeCandidate.from_designs(fano, Design(7, (127,)), allow_trivial=True)
    assert relative_design_oracle(full, 3) == (False, (3, (0, 1, 2)))
    assert relative_design_oracle(full, 3) == _reference_oracle(full, 3)
    empty = RelativeCandidate.from_designs(Design(7, (0,)), fano, allow_trivial=True)
    assert relative_design_oracle(empty, 2) == _reference_oracle(empty, 2) == (True, None)


def test_oracle_memory_is_its_block_columns(monkeypatch):
    # the complete 6- and 7-shells on 14 points, 6,435 blocks: the columns
    # take 14 * 6,435 bits, so the scan's peak stays far below a megabyte.
    # The walk over 469 subsets spends little of the allowance that their 41
    # million block pairs give: no pair profile
    shells = [
        Design(14, tuple(mask_of(b) for b in itertools.combinations(range(14), r))) for r in (6, 7)
    ]
    cand = RelativeCandidate.from_designs(*shells)
    monkeypatch.setattr(_design, "_pair_moments", lambda *args: pytest.fail("profile used"))
    relative_design_oracle(cand, 1)  # anything a first call sets up is not counted
    tracemalloc.start()
    try:
        assert relative_design_oracle(cand, 3) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_oracle_validates_t(fano_pair):
    with pytest.raises(ValueError):
        relative_design_oracle(fano_pair, 0)


def _on_route(cand, t, allowance):
    """The oracle's answer with its walk's allowance set: 0 stops the walk
    at once and leaves every size to the pair profile, 2**200 every size to
    the subset walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_design, "_allowance", lambda *args: [allowance])
        return relative_design_oracle(cand, t)


def _complete(n, r):
    return Design(n, tuple(mask_of(c) for c in itertools.combinations(range(n), r)))


def _fano_less_a_block():
    fano = construct_paley_hadamard(7)
    return RelativeCandidate.from_designs(Design(7, fano.blocks[1:]), complement(fano), 1, 2)


@st.composite
def _wide_candidates(draw):
    """n = 128, the most points a block holds, at t <= 2: complete, empty or
    full shells and random blocks with repeats, so that two full blocks
    share all 128 points, under unequal rational weights."""
    n = 128
    full = (1 << n) - 1

    def shell(r):
        if r == 1 or r == n - 1:
            blocks = [1 << i for i in range(n)]
            blocks = blocks if r == 1 else [full ^ b for b in blocks]
            if draw(st.booleans()):  # one singleton moved, one complement too
                blocks[draw(st.integers(0, n - 1))] = blocks[draw(st.integers(0, n - 1))]
            return Design(n, tuple(blocks))
        if r in (0, n):
            return Design(n, ((1 << r) - 1,) * draw(st.integers(1, 3)))
        return draw(_shell(n, r))

    r1, r2 = sorted(draw(st.lists(st.sampled_from([0, 1, 2, 64, 126, 127, n]), min_size=2,
                                  max_size=2, unique=True)))
    w1, w2 = draw(weights), draw(weights)
    cand = RelativeCandidate.from_designs(shell(r1), shell(r2), w1, w2, allow_trivial=True)
    return cand, draw(st.integers(1, 2))


@settings(max_examples=120, deadline=None)
@given(candidates(st.integers(1, 4)) | _small_candidates() | _wide_candidates())
@example((six_point_pair(), 6))  # the moment identities hold where balance fails
@example((RelativeCandidate.from_designs(_complete(8, 3), _complete(8, 5), 2, 3), 8))  # t = n = 2m
@example((_fano_less_a_block(), 3))  # the target at s = 1 is 30/7 + 6
def test_pair_profile_matches_walk(case):
    # the profile decides the first failing size from the block pairs alone;
    # the walk then names the witness at that size, which must be the one
    # the walk finds when it scans every size itself
    cand, t = case
    walked = _on_route(cand, t, 2**200)
    assert _on_route(cand, t, 0) == walked
    if cand.n <= 23:
        assert walked == _reference_oracle(cand, t)


@settings(max_examples=40, deadline=None)
@given(candidates(st.integers(1, 4), with_witt=True), st.data())
def test_pair_profile_first_failing_size(case, data):
    # _pair_moments from any start: its first size whose weighted coverage
    # takes other values than one is the walk's first failing size at or
    # after it, once the sizes before it pass.  At each size whose subsets
    # of blocks number at most 100,000, its moments are those of the
    # weighted coverage counted block by block, uncovered subsets 0
    cand, t = case
    ok, witness = _on_route(cand, t, 2**200)
    first = None if ok else witness[0]
    start = data.draw(st.integers(1, first or t), label="start")
    scale = math.lcm(cand.w1.denominator, cand.w2.denominator)
    shells = [(r, d.blocks, int(w * scale)) for r, d, w in cand.shells()]
    moments = _pair_moments(cand.n, shells, start, t)
    assert len(moments) == t - start + 1
    assert next((s for s, two in enumerate(moments, start) if two is None or two[1]), None) == first
    union, weight = union_design(cand), {r: w for r, _, w in shells}
    for s, two in enumerate(moments, start):
        if sum(math.comb(b.bit_count(), s) for b in union.blocks) <= 100_000:
            xs = reference_coverage(union, s, weight).values()
            assert two == _two_values(math.comb(cand.n, s), sum(xs), sum(x * x for x in xs))


def test_oracle_early_witness_needs_no_pair_profile(monkeypatch):
    # Paley(47) at t = 3: the walk spends its allowance in size 2 of the
    # balanced pair, which the profile then decides from size 2 on.  Unequal
    # weights fail at (0, 1, 2), the first subset of size 3: the walk stops
    # in size 2 as well, the profile finds size 3 unbalanced, and a walk of
    # size 3 names the witness.  Without the first block of the smaller
    # shell, the pair fails at (0,), long before the walk stops
    paley = construct_paley_hadamard(47)
    balanced = RelativeCandidate.from_designs(paley, complement(paley))
    profile, calls = _design._pair_moments, []

    def spy(*args):
        calls.append(args)
        return profile(*args)

    monkeypatch.setattr(_design, "_pair_moments", spy)
    assert relative_design_oracle(balanced, 3) == (True, None)
    assert len(calls) == 1
    unequal = RelativeCandidate.from_designs(paley, complement(paley), 1, 2)
    assert relative_design_oracle(unequal, 3) == (False, (3, (0, 1, 2)))
    assert len(calls) == 2
    less = RelativeCandidate.from_designs(Design(47, paley.blocks[1:]), complement(paley))
    assert relative_design_oracle(less, 3) == (False, (1, (0,)))
    assert len(calls) == 2


def _witt_pair():
    witt = construct_witt_23()
    return RelativeCandidate.from_designs(witt, complement(witt))


def _paley_pair(q):
    paley = construct_paley_hadamard(q)
    return RelativeCandidate.from_designs(paley, complement(paley))


@pytest.mark.parametrize(
    "pair,t,start",
    [(_witt_pair, 5, 3), (lambda: _paley_pair(43), 3, 2), (lambda: _paley_pair(47), 3, 2),
     (lambda: _paley_pair(23), 3, 2),
     (lambda: RelativeCandidate.from_designs(_complete(14, 6), _complete(14, 7)), 3, None)],
)
def test_oracle_routes(monkeypatch, pair, t, start):
    # the walk spends the allowance of one pass over the block pairs in size
    # 3 of the Witt pair at t = 5 and in size 2 of the Paley(23), Paley(43)
    # and Paley(47) pairs at t = 3, and leaves the sizes from there to the
    # pair profile; the complete 6- and 7-shells on 14 points at t = 3 walk
    # their 469 subsets within the allowance of 41 million block pairs
    profile, starts = _design._pair_moments, []

    def spy(n, shells, lo, hi):
        starts.append(lo)
        return profile(n, shells, lo, hi)

    monkeypatch.setattr(_design, "_pair_moments", spy)
    assert relative_design_oracle(pair(), t) == (True, None)
    assert starts == ([] if start is None else [start])


def test_oracle_complete_shells_take_the_pair_profile():
    # the complete 2- and 22-shells on 24 points pass at t = 12; the walk
    # would scan the 9.7 million subsets of sizes 1..12
    cand = RelativeCandidate.from_designs(_complete(24, 2), _complete(24, 22))
    start = time.perf_counter()
    assert relative_design_oracle(cand, 12) == (True, None)
    assert time.perf_counter() - start < 2
