"""The one work budget of the subset walks that have no count of block pairs
to fall back on (_design._BUDGET): coverage_map, lambda_sequence once its
walk resumes, the analysis checks and the oracle's witness walk raise one
ValueError past it, and give their usual answers within it."""

import pytest

from tightrel import (
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


def test_is_t_design_is_never_refused(monkeypatch):
    # the Witt design at t = 4: the walk spends its allowance, and the pair
    # count answers; the walk never resumes, so the budget never applies
    monkeypatch.setattr(_design, "_BUDGET", 1)
    witt = construct_witt_23()
    assert is_t_design(witt, 4) == (True, [253, 77, 21, 5, 1])
    assert is_t_design(complement(witt), 4)[0]
