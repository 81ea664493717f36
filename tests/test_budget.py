"""The one work budget of both routes (_design._BUDGET).  The subset walks
that have no count of block pairs to fall back on (coverage_map,
lambda_sequence once its walk resumes, the analysis checks and the oracle's
witness walk) raise one ValueError past it, and give their usual answers
within it.  A count of block pairs whose cost passes it is never started:
is_t_design, lambda_sequence and the oracle then walk under the budget
alone, so is_t_design answers whenever one route fits the budget and is
refused only when neither does."""

from itertools import combinations

import pytest

from tightrel import (
    Design,
    RelativeCandidate,
    _design,
    complement,
    construct_paley_hadamard,
    construct_witt_23,
    coverage_map,
    hamming,
    is_regular_twise_balanced,
    is_t_design,
    lambda_sequence,
    relative_design_oracle,
)
from tightrel.analysis import (
    _first_uncovered,
    check_via_thm34,
    complementary_pair,
    prop44_check,
    union_design,
    weight_by_size,
)

from conftest import six_point_pair

REFUSAL = "walk passed its work budget of"


def _least_budget(monkeypatch, call):
    """The least _BUDGET under which call() returns, found by bisection:
    below it call() raises the walk's refusal."""
    lo, hi = 0, 10**9
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(_design, "_BUDGET", mid)
        try:
            call()
            hi = mid
        except ValueError as exc:
            assert REFUSAL in str(exc)
            lo = mid + 1
    return lo


def _witness_walk():
    """The oracle on the six-point pair at t = 3, its walk paused at once:
    the pair count finds size 3 unbalanced, and a new walk names the witness."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hamming, "_allowance", lambda *args: [0])
        return relative_design_oracle(six_point_pair(), 3)


PAIR11 = complementary_pair(construct_paley_hadamard(11))

# each call with the answer it gives at the default budget
CALLS = {
    "coverage_map": lambda: coverage_map(construct_paley_hadamard(7), 2),
    # the walk spends its allowance, the count finds three values, and it resumes
    "lambda_sequence": lambda: lambda_sequence(construct_paley_hadamard(19), 3),
    "check_via_thm34": lambda: check_via_thm34(PAIR11, 3),
    "is_regular_twise_balanced": lambda: is_regular_twise_balanced(
        union_design(PAIR11), weight_by_size(PAIR11), 3),
    "prop44_check": lambda: prop44_check(PAIR11),
    "oracle witness walk": _witness_walk,
}


@pytest.mark.parametrize("name", CALLS)
def test_walks_refuse_past_the_budget(monkeypatch, name):
    call = CALLS[name]
    answer = call()
    least = _least_budget(monkeypatch, call)
    assert least > 0
    monkeypatch.setattr(_design, "_BUDGET", least - 1)
    with pytest.raises(ValueError, match=REFUSAL):
        call()
    monkeypatch.setattr(_design, "_BUDGET", least)
    assert call() == answer
    monkeypatch.setattr(_design, "_BUDGET", least + 1)
    assert call() == answer


def test_prop44_walks_share_one_budget(monkeypatch):
    # the walks over the outside points of each larger block draw on one
    # budget: together they need more than any one of them
    full = (1 << PAIR11.n) - 1
    sets = [full ^ b for b in PAIR11.design2.blocks]

    def uncovered(sets):
        return lambda: _first_uncovered(PAIR11.n, PAIR11.design1.blocks, sets, 3)

    alone = max(_least_budget(monkeypatch, uncovered([s])) for s in sets)
    assert _least_budget(monkeypatch, uncovered(sets)) > alone


def _count_spy(monkeypatch):
    """The calls of the block-pair count that the three routed calls make."""
    calls, count = [], _design._pair_counts
    monkeypatch.setattr(_design, "_pair_counts", lambda *args: calls.append(args) or count(*args))
    return calls


def _complete(n, r):
    return Design(n, tuple(map(_design.mask_of, combinations(range(n), r))))


def test_is_t_design_is_never_refused(monkeypatch):
    # is_t_design is refused only when neither route fits the budget.  The
    # complement of the Witt design at t = 4 spends its walk's allowance, and
    # the pair count answers, within a budget of just the count's cost (the
    # walk alone needs far more); one unit less, neither route fits.  The
    # complete 5-uniform design on 10 points at t = 2 walks its 45 pairs in
    # less than its count's cost, and answers at that budget without counting
    calls = _count_spy(monkeypatch)
    comp = complement(construct_witt_23())
    (cost,) = _design._allowance(23, [(16, 253)], 4)
    (complete_cost,) = _design._allowance(10, [(5, 252)], 2)
    monkeypatch.setattr(_design, "_BUDGET", cost)
    assert is_t_design(comp, 4) == (True, [253, 176, 120, 80, 52])
    assert len(calls) == 1
    monkeypatch.setattr(_design, "_BUDGET", cost - 1)
    with pytest.raises(ValueError, match=REFUSAL):
        is_t_design(comp, 4)
    monkeypatch.setattr(_design, "_BUDGET", complete_cost - 1)
    assert is_t_design(_complete(10, 5), 2) == (True, [252, 126, 56])
    assert len(calls) == 1


WITT = construct_witt_23()
WITT_PAIR = RelativeCandidate.from_designs(WITT, complement(WITT))

# each routed call with the point count, shells and strength of its count,
# and its answer
ROUTED = {
    "is_t_design": (lambda: is_t_design(WITT, 4), 23, [(7, 253)], 4, (True, [253, 77, 21, 5, 1])),
    "lambda_sequence": (lambda: lambda_sequence(WITT, 4).entries, 23, [(7, 253)], 4,
                        ((1, 8855),)),
    "oracle": (lambda: relative_design_oracle(WITT_PAIR, 5), 23, [(7, 253), (16, 253)], 0,
               (True, None)),
}


@pytest.mark.parametrize("name", ROUTED)
def test_counts_only_within_the_budget(monkeypatch, name):
    # one unit under the count's cost, the count is never started, and the
    # walk alone, which needs far more than the count, is refused; at that
    # cost and one unit above, the walk pauses and the count answers
    call, n, shells, t, answer = ROUTED[name]
    (cost,) = _design._allowance(n, shells, t)
    calls = _count_spy(monkeypatch)
    monkeypatch.setattr(_design, "_BUDGET", cost - 1)
    assert _design._allowance(n, shells, t) is None
    with pytest.raises(ValueError, match=REFUSAL):
        call()
    assert calls == []
    for budget in (cost, cost + 1):
        monkeypatch.setattr(_design, "_BUDGET", budget)
        assert call() == answer
        assert calls
        calls.clear()


def test_count_over_the_budget_is_never_started(monkeypatch):
    # the complete 10-uniform design on 20 points at t = 10: counting its
    # 1.7e10 block pairs took 114 s, far past the budget, so neither call
    # counts, and each walk is refused at the budget, in 1-3 s
    assert _design._allowance(20, [(10, 184_756)], 10) is None
    calls = _count_spy(monkeypatch)
    complete = _complete(20, 10)
    for call in (is_t_design, lambda_sequence):
        with pytest.raises(ValueError, match=REFUSAL):
            call(complete, 10)
    assert calls == []
