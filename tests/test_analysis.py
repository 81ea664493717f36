import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tightrel import (
    Design,
    RelativeCandidate,
    complement,
    complement_lambda_t,
    complementary_pair,
    check_via_thm34,
    coverage_map,
    is_tight,
    kageyama_constituents,
    lambda_count,
    p_ell_formula,
    p_ell_t_formula,
    prop44_check,
    relative_design_oracle,
    tight_size,
)
from tightrel.designs import bits_of, mask_of

from conftest import candidates


def test_kageyama_fano_pair(fano_pair):
    rep = kageyama_constituents(fano_pair, 3)
    assert rep.applicable and rep.t == 3
    assert rep.weighted_lambda == (3, 1)
    s1, s2 = rep.shells
    assert (s1.r, s1.is_design, s1.lambda_observed) == (3, True, (7, 3, 1))
    assert s1.lambda_formula == Fraction(1) and s1.matches
    assert (s2.r, s2.is_design, s2.lambda_observed) == (4, True, (7, 4, 2))
    assert s2.lambda_formula == Fraction(2) and s2.matches


def test_kageyama_witt_pair(witt_pair):
    rep = kageyama_constituents(witt_pair, 5)
    assert rep.applicable
    assert rep.weighted_lambda == (53, 33)
    s1, s2 = rep.shells
    assert s1.lambda_observed == (253, 77, 21, 5, 1)
    assert s1.lambda_formula == Fraction(1) and s1.matches
    assert s2.lambda_observed == (253, 176, 120, 80, 52)
    assert s2.lambda_formula == Fraction(52) and s2.matches


def test_kageyama_not_applicable_on_unbalanced_weights(fano):
    cand = RelativeCandidate.from_designs(fano, complement(fano), 1, 2)
    rep = kageyama_constituents(cand, 3)
    assert rep == type(rep)(False, 3, None, None)


def test_kageyama_when_t_exceeds_shell_size():
    # t-1 = 3 > r1 = 2: the 2-shell is checked at strength 2 and holds no
    # 3-subset, so its observed lam_3 is 0, as the closed form says
    n = 7
    shells = [
        Design(n, tuple(mask_of(c) for c in itertools.combinations(range(n), r)))
        for r in (2, 3)
    ]
    cand = RelativeCandidate.from_designs(*shells, allow_trivial=True)
    assert relative_design_oracle(cand, 4) == (True, None)
    assert check_via_thm34(cand, 4) == (True, None)
    rep = kageyama_constituents(cand, 4)
    assert rep.applicable and rep.weighted_lambda == (1, 0)
    s1, s2 = rep.shells
    assert (s1.r, s1.lambda_observed, s1.lambda_formula) == (2, (21, 6, 1, 0), 0)
    assert (s2.r, s2.lambda_observed, s2.lambda_formula) == (3, (35, 15, 5, 1), 1)
    assert s1.matches and s2.matches


def test_kageyama_on_empty_block_shell(fano):
    # the r = 0 shell is a design of strength 0, whatever t
    cand = RelativeCandidate.from_designs(Design(7, (0,)), fano, allow_trivial=True)
    rep = kageyama_constituents(cand, 2)
    assert rep.applicable and rep.weighted_lambda == (3, 1)
    s0, s3 = rep.shells
    assert (s0.r, s0.is_design, s0.lambda_observed, s0.lambda_formula) == (0, True, (1, 0), 0)
    assert (s3.r, s3.lambda_observed, s3.lambda_formula) == (3, (7, 3), 3)
    assert s0.matches and s3.matches
    assert relative_design_oracle(cand, 2) == check_via_thm34(cand, 2) == (True, None)


def test_trivial_full_shell_verdicts_agree(fano):
    cand = RelativeCandidate.from_designs(fano, Design(7, (127,)), allow_trivial=True)
    assert relative_design_oracle(cand, 3) == (False, (3, (0, 1, 2)))
    assert check_via_thm34(cand, 3) == (False, (0, 1, 2))
    assert not kageyama_constituents(cand, 3).applicable


@settings(max_examples=30, deadline=None)
@given(candidates(st.integers(2, 5), with_witt=True))
def test_verdicts_agree_on_generated_candidates(case):
    # a two-shell candidate is a relative t-design exactly when its weighted
    # union is regular t-wise balanced, and then each shell is a (t-1)-design
    # with the closed-form index; the oracle's s = t witness is the
    # criterion's first failing t-subset.  The criterion equals the moment
    # identities only when n is not 2m for any m <= t (on n = 2m the oracle
    # checks the balance from size m on); these bases have n = 7, 11, 19, 22
    # and 23
    cand, t = case
    ok, witness = relative_design_oracle(cand, t)
    thm_ok, thm_witness = check_via_thm34(cand, t)
    rep = kageyama_constituents(cand, t)
    assert thm_ok == ok == rep.applicable
    if rep.applicable:
        assert all(shell.matches for shell in rep.shells)
    if thm_witness is not None:
        assert witness == (t, thm_witness)


def test_kageyama_rejects_small_t(fano_pair):
    with pytest.raises(ValueError):
        kageyama_constituents(fano_pair, 1)


def test_thm34_fano_pair(fano_pair):
    assert check_via_thm34(fano_pair, 3) == (True, None)
    assert check_via_thm34(fano_pair, 2) == (True, None)


def test_thm34_witness_on_unbalanced_weights(fano):
    cand = RelativeCandidate.from_designs(fano, complement(fano), 1, 2)
    ok, sub = check_via_thm34(cand, 3)
    assert not ok and sub == (0, 1, 2)


def test_thm34_shell_precondition(fano):
    # swap one line for a non-line: shell 1 is no longer a 2-design,
    # so the criterion reports failure with no witness subset
    blocks = list(fano.blocks)
    blocks.remove(mask_of((0, 1, 3)))
    blocks.append(mask_of((0, 1, 2)))
    broken = Design(7, tuple(blocks))
    cand = RelativeCandidate.from_designs(broken, complement(fano))
    assert check_via_thm34(cand, 3) == (False, None)


def test_thm34_verdict_when_t_exceeds_shell_size(fano_pair):
    # t-1 = 4 > r1 = 3: a verdict, and the oracle's truth value
    assert relative_design_oracle(fano_pair, 5) == (False, (4, (0, 1, 2, 3)))
    assert check_via_thm34(fano_pair, 5) == (False, None)
    # the complete shells are relative t-designs for every t, weights aside
    n = 7
    shells = [
        Design(n, tuple(mask_of(c) for c in itertools.combinations(range(n), r)))
        for r in (2, 3)
    ]
    cand = RelativeCandidate.from_designs(*shells, 1, 2)
    for t in range(2, n + 1):
        assert relative_design_oracle(cand, t) == (True, None)
        assert check_via_thm34(cand, t) == (True, None)


def test_thm34_agrees_fano_swapped_union(fano, fano_swapped):
    # a relabelled copy paired with the complement of the original is
    # generally unbalanced even though both shells are fine designs
    cand = RelativeCandidate.from_designs(fano_swapped, complement(fano))
    ok, sub = check_via_thm34(cand, 3)
    assert not ok and sub is not None
    # the witness is the lex-first failing triple, and the oracle's: here a
    # triple covered by both shells comes first, and with the roles of the
    # two Fano planes exchanged a triple covered by neither does
    assert sub == (0, 2, 4) and relative_design_oracle(cand, 3) == (False, (3, sub))
    other = RelativeCandidate.from_designs(fano, complement(fano_swapped))
    assert check_via_thm34(other, 3) == (False, (0, 2, 4))
    assert relative_design_oracle(other, 3) == (False, (3, (0, 2, 4)))


def test_p_ell_formula_values():
    assert p_ell_formula(7, 3, 7, 1, 1) == 3
    assert p_ell_formula(7, 3, 7, 1, 0) == 4
    assert p_ell_formula(7, 3, 7, 2, 0) == 2
    assert p_ell_formula(7, 3, 7, 2, 1) == 2
    assert p_ell_formula(23, 7, 253, 3, 3) == 5


def test_p_ell_formula_validation():
    with pytest.raises(ValueError):
        p_ell_formula(7, 3, 7, 2, 3)
    with pytest.raises(ValueError):
        p_ell_formula(7, 3, 7, 1, -1)
    with pytest.raises(ValueError):
        p_ell_formula(7, 8, 7, 1, 1)


def test_p_ell_formula_matches_fano_counts(fano):
    n, r, N = 7, 3, 7
    for s in (1, 2):
        for sub in itertools.combinations(range(n), s):
            for ell in range(s + 1):
                for fixed in itertools.combinations(sub, ell):
                    m = mask_of(sub)
                    fm = mask_of(fixed)
                    got = sum(1 for b in fano.blocks if b & m == fm)
                    assert got == p_ell_formula(n, r, N, s, ell)


def test_p_ell_t_formula_fano(fano):
    n, r, N, t = 7, 3, 7, 3
    for sub in itertools.combinations(range(n), t):
        lam = lambda_count(fano, sub)
        for ell in range(t):
            expect = p_ell_t_formula(n, r, N, t, ell, lam)
            m = mask_of(sub)
            for fixed in itertools.combinations(sub, ell):
                fm = mask_of(fixed)
                got = sum(1 for b in fano.blocks if b & m == fm)
                assert got == expect
    # the two coverage classes give swapped block-avoidance counts
    assert p_ell_t_formula(7, 3, 7, 3, 0, 1) == 0
    assert p_ell_t_formula(7, 3, 7, 3, 0, 0) == 1


def test_p_ell_t_formula_witt_edge():
    assert p_ell_t_formula(23, 7, 253, 5, 4, 1) == 0
    assert p_ell_t_formula(23, 7, 253, 5, 4, 0) == 1


def test_p_ell_t_formula_validation():
    with pytest.raises(ValueError, match="need 0 <= ell <= t-1"):
        p_ell_t_formula(7, 3, 7, 3, 3, 1)
    with pytest.raises(ValueError, match="need 0 <= ell <= t-1"):
        p_ell_t_formula(7, 3, 7, 3, -1, 1)


def test_complement_lambda_t_fano(fano):
    comp = complement(fano)
    cov = coverage_map(comp, 3)
    for sub in itertools.combinations(range(7), 3):
        lam = lambda_count(fano, sub)
        assert cov.get(sub, 0) == complement_lambda_t(7, 3, 7, 3, lam)
    assert complement_lambda_t(7, 3, 7, 3, 1) == 0
    assert complement_lambda_t(7, 3, 7, 3, 0) == 1
    # even t keeps the sign of lam
    assert complement_lambda_t(7, 3, 7, 2, 1) == 2


def test_complement_lambda_t_witt():
    assert complement_lambda_t(23, 7, 253, 5, 1) == 32
    assert complement_lambda_t(23, 7, 253, 5, 0) == 33


def test_tight_size():
    assert tight_size(3, 7) == 14
    assert tight_size(4, 22) == 253
    assert tight_size(5, 23) == 506
    # the closed forms at t = 2e: C(n,e) + C(n,e-1); at t = 2e+1: 2 C(n,e)
    assert tight_size(2, 10) == 11
    assert tight_size(6, 10) == 165
    with pytest.raises(ValueError):
        tight_size(0, 10)


def test_is_tight(fano_pair, witt_pair, y6, y7):
    assert is_tight(fano_pair, 3)
    assert is_tight(witt_pair, 5)
    assert not is_tight(witt_pair, 4)  # 506 != 23*24/2
    pair22 = RelativeCandidate.from_designs(y6, y7)
    assert is_tight(pair22, 4)


def test_complementary_pair(fano, fano_pair):
    assert complementary_pair(fano) == fano_pair
    half = Design(4, tuple(mask_of(b) for b in itertools.combinations(range(4), 2)))
    with pytest.raises(ValueError):
        complementary_pair(half)


def test_prop44_holds_on_paley_pairs(fano_pair, paley11):
    assert prop44_check(fano_pair) == ("holds", None)
    assert prop44_check(complementary_pair(paley11)) == ("holds", None)


def test_prop44_not_applicable_reasons(fano, witt_pair, y6, y7):
    status, reason = prop44_check(RelativeCandidate.from_designs(y6, y7))
    assert status == "not-applicable" and "not complementary" in reason
    status, reason = prop44_check(
        RelativeCandidate.from_designs(fano, complement(fano), 1, 2)
    )
    assert status == "not-applicable" and "weights differ" in reason
    status, reason = prop44_check(witt_pair)
    assert status == "not-applicable" and "tight bound" in reason


def test_prop44_not_applicable_when_not_relative_design(fano, fano_swapped):
    cand = RelativeCandidate.from_designs(fano_swapped, complement(fano))
    status, reason = prop44_check(cand)
    assert status == "not-applicable" and reason == "not a relative 3-design"


def test_prop44_witness_is_first_uncovered_outside_triple(monkeypatch):
    # no tight relative 3-design is known to fail the condition, so the
    # criterion is stubbed to pass; the witness is the first block of the
    # larger shell, in its block order, with an uncovered outside triple
    import tightrel.analysis as analysis

    monkeypatch.setattr(analysis, "check_via_thm34", lambda cand, t: (True, None))
    n, full = 7, 127
    small = [(4, 5, 6), (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 2, 3)]
    outside = [(4, 5, 6), (3, 5, 6), (2, 5, 6), (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)]
    cand = RelativeCandidate.from_designs(
        Design(n, tuple(map(mask_of, small))),
        Design(n, tuple(full ^ mask_of(c) for c in outside)),
    )
    # blocks (0,1,2,3) and (0,1,2,4) come first; only the second fails
    assert prop44_check(cand) == ("fails", ((0, 1, 2, 4), (3, 5, 6)))
