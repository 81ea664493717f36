"""Acceptance gate: one test per criterion, each timed against its budget.

Every test prints one PASS line with its elapsed time when it succeeds;
a failure shows up as the usual pytest failure for that criterion.
"""

import itertools
import math
import time
from fractions import Fraction

from tightrel import (
    RelativeCandidate,
    complement,
    complement_lambda_t,
    complementary_pair,
    check_via_thm34,
    construct_paley_hadamard,
    coverage_map,
    is_tight,
    lambda_sequence,
    p_ell_formula,
    p_ell_t_formula,
    relative_design_oracle,
    annotate_existence,
    scan_relative3,
    scan_relative4,
    tight_size,
)
from tightrel.designs import mask_of

from conftest import lambda_count


def _done(name: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded the {budget}s budget"
    print(f"{name}: PASS ({elapsed:.2f}s < {budget}s)")


def _intersection_histogram(blocks, subset_mask, s):
    hist = [0] * (s + 1)
    for b in blocks:
        hist[(b & subset_mask).bit_count()] += 1
    return hist


# --- criterion 1: complementary Paley pairs are tight relative 3-designs ---


def test_criterion_01_paley_pairs_tight():
    for q in (7, 11, 19, 23):
        started = time.monotonic()
        pair = complementary_pair(construct_paley_hadamard(q))
        assert relative_design_oracle(pair, 3) == (True, None), q
        assert pair.total_size == tight_size(3, q) == 2 * q
        assert is_tight(pair, 3), q
        _done(f"criterion 01 (q={q})", started, 1.0)


# --- criterion 2: the 4-(23,7,1) pair is a tight relative 5-design ---


def test_criterion_02_witt_pair_tight(witt, witt_pair):
    started = time.monotonic()
    assert relative_design_oracle(witt_pair, 5) == (True, None)
    assert witt_pair.total_size == 506 == 2 * math.comb(23, 2)
    assert is_tight(witt_pair, 5)
    cov1 = coverage_map(witt, 5)
    cov2 = coverage_map(complement(witt), 5)
    for sub in itertools.combinations(range(23), 5):
        pair = (cov1.get(sub, 0), cov2.get(sub, 0))
        assert pair in ((0, 33), (1, 32)), sub
        assert pair[0] + pair[1] == 33
    _done("criterion 02", started, 30.0)


# --- criterion 3: the four n=22 shell pairs are relative 4-designs ---


def test_criterion_03_n22_quadruple(y6, y7):
    started = time.monotonic()
    y6c, y7c = complement(y6), complement(y7)
    expected = {
        ("Y6+Y7", y6, y7): 1,
        ("Y6c+Y7c", y6c, y7c): 52,
        ("Y6+Y7c", y6, y7c): 33,
        ("Y6c+Y7", y6c, y7): 20,
    }
    sums = set()
    for (name, d_a, d_b), lam4_sum in expected.items():
        cand = RelativeCandidate.from_designs(d_a, d_b)
        assert cand.total_size == 253, name
        assert check_via_thm34(cand, 4) == (True, None), name
        rhs = sum(
            Fraction(d.num_blocks)
            * math.prod(Fraction(r - j, 22 - j) for j in range(4))
            for r, d, _ in cand.shells()
        )
        assert rhs == lam4_sum, name
        sums.add(int(rhs))
    assert sums == {1, 33, 20, 52}
    _done("criterion 03", started, 10.0)


# --- criterion 4: strength-3 case-1 table to n=100 with nonexistence marks ---

CASE1_TABLE = {
    (7, 3, 1), (11, 5, 2), (13, 4, 1), (15, 7, 3), (16, 6, 2), (19, 9, 4),
    (21, 5, 1), (22, 7, 2), (23, 11, 5), (25, 9, 3), (27, 13, 6), (29, 8, 2),
    (31, 6, 1), (31, 10, 3), (31, 15, 7), (34, 12, 4), (35, 17, 8),
    (36, 15, 6), (37, 9, 2), (39, 19, 9), (40, 13, 4), (41, 16, 6),
    (43, 7, 1), (43, 15, 5), (43, 21, 10), (45, 12, 3), (46, 10, 2),
    (47, 23, 11), (49, 16, 5), (51, 25, 12), (52, 18, 6), (53, 13, 3),
    (55, 27, 13), (56, 11, 2), (57, 8, 1), (58, 19, 6), (59, 29, 14),
    (61, 16, 4), (61, 21, 7), (61, 25, 10), (63, 31, 15), (64, 28, 12),
    (66, 26, 10), (67, 12, 2), (67, 22, 7), (67, 33, 16), (69, 17, 4),
    (70, 24, 8), (71, 15, 3), (71, 21, 6), (71, 35, 17), (73, 9, 1),
    (75, 37, 18), (76, 25, 8), (77, 20, 5), (78, 22, 6), (79, 13, 2),
    (79, 27, 9), (79, 39, 19), (81, 16, 3), (83, 41, 20), (85, 21, 5),
    (85, 28, 9), (85, 36, 15), (86, 35, 14), (87, 43, 21), (88, 30, 10),
    (89, 33, 12), (91, 10, 1), (91, 36, 14), (91, 45, 22), (92, 14, 2),
    (93, 24, 6), (94, 31, 10), (95, 47, 23), (96, 20, 4), (97, 33, 11),
    (99, 49, 24), (100, 45, 20),
}

CASE1_RULED = {
    (22, 7), (29, 8), (34, 12), (43, 7), (43, 15), (46, 10), (52, 18),
    (53, 13), (58, 19), (61, 21), (67, 12), (67, 22), (76, 25), (77, 20),
    (86, 35), (88, 30), (89, 33), (91, 36), (92, 14), (93, 24), (94, 31),
}


def test_criterion_04_case1_table_to_100():
    started = time.monotonic()
    rows = scan_relative3(100, cases={1})
    assert len(CASE1_TABLE) == 79 and len(rows) == 79
    assert {(r.n, r.r1, r.lam1) for r in rows} == CASE1_TABLE
    ruled = {
        (r.n, r.r1) for r in annotate_existence(rows)
        if any(v.outcome == "RuledOut" for v in r.verdicts)
    }
    assert ruled == CASE1_RULED
    _done("criterion 04", started, 5.0)


# --- criterion 5: the strength-3 unequal-weight block at n=37 ---

CASE2_N37 = {
    Fraction(2, 7): ((0, 17), (2, 10)),
    Fraction(1, 6): ((0, 18), (1, 12), (2, 6)),
    Fraction(2, 17): ((0, 19), (2, 2)),
    Fraction(1, 11): ((0, 20), (1, 9)),
}


def test_criterion_05_case2_n37_block():
    started = time.monotonic()
    rows = [r for r in scan_relative3(37, cases={2}) if r.n == 37]
    assert {r.ratio: r.pairs for r in rows} == CASE2_N37
    assert all((r.r1, r.r2) == (9, 28) for r in rows)
    _done("criterion 05", started, 5.0)


# --- criterion 6: the four non-complementary equal-weight rows to n=100 ---

CASE3_TABLE = {
    (31, 6, 16): ((0, 4), (1, 3)),
    (31, 15, 25): tuple((i, 19 - i) for i in range(8)),
    (85, 21, 49): tuple((i, 17 - i) for i in range(6)),
    (85, 36, 64): tuple((i, 42 - i) for i in range(16)),
}


def test_criterion_06_case3_table_to_100():
    started = time.monotonic()
    rows = scan_relative3(100, cases={3})
    assert {(r.n, r.r1, r.r2): r.pairs for r in rows} == CASE3_TABLE
    _done("criterion 06", started, 5.0)


# --- criterion 7: strength-4 table to n=50 plus congruence ruling ---

STRENGTH4_TABLE = {
    (11, 5, 6, 33, 33, 2, 4),
    (16, 6, 7, 56, 80, 2, 5),
    (16, 6, 9, 56, 80, 2, 12),
    (16, 7, 10, 80, 56, 5, 12),
    (16, 9, 10, 80, 56, 12, 12),
    (22, 6, 7, 77, 176, 1, 4),
    (22, 6, 15, 77, 176, 1, 52),
    (22, 7, 8, 88, 165, 2, 6),
    (22, 7, 14, 88, 165, 2, 39),
    (22, 7, 10, 176, 77, 4, 6),
    (22, 7, 12, 176, 77, 4, 11),
    (22, 7, 16, 176, 77, 4, 28),
    (22, 8, 15, 165, 88, 6, 26),
    (22, 10, 15, 77, 176, 6, 52),
    (22, 12, 15, 77, 176, 11, 52),
    (22, 14, 15, 165, 88, 39, 26),
    (22, 15, 16, 176, 77, 52, 28),
    (37, 9, 10, 185, 518, 2, 8),
    (37, 9, 27, 185, 518, 2, 195),
    (37, 9, 16, 370, 333, 4, 24),
    (37, 9, 21, 370, 333, 4, 57),
    (37, 10, 28, 518, 185, 8, 78),
    (37, 16, 28, 333, 370, 24, 156),
    (37, 21, 28, 333, 370, 57, 156),
    (37, 27, 28, 518, 185, 195, 78),
    (41, 15, 16, 328, 533, 14, 28),
    (41, 15, 25, 328, 533, 14, 115),
    (41, 16, 26, 533, 328, 28, 80),
    (41, 25, 26, 533, 328, 115, 80),
    (46, 10, 11, 253, 828, 2, 9),
    (46, 10, 35, 253, 828, 2, 357),
    (46, 11, 36, 828, 253, 9, 119),
    (46, 35, 36, 828, 253, 357, 119),
}

STRENGTH4_RULED = {
    (11, 5, 6),
    (16, 6, 7), (16, 6, 9), (16, 7, 10), (16, 9, 10),
    (22, 7, 8), (22, 7, 14), (22, 8, 15), (22, 14, 15),
    (37, 9, 10), (37, 9, 27), (37, 10, 28), (37, 27, 28),
    (46, 10, 11), (46, 10, 35), (46, 11, 36), (46, 35, 36),
}


def test_criterion_07_strength4_table_to_50(tmp_path):
    started = time.monotonic()
    rows = [r for r in scan_relative4(50) if r.ratio == 1]
    mains = {(r.n, r.r1, r.r2, r.N1, r.N2, r.lam1, r.lam2) for r in rows}
    assert len(STRENGTH4_TABLE) == 33
    missing = STRENGTH4_TABLE - mains
    extras = mains - STRENGTH4_TABLE
    report = tmp_path / "strength4_diff.txt"
    report.write_text(
        "missing:\n"
        + "".join(f"  {m}\n" for m in sorted(missing))
        + "extras:\n"
        + "".join(f"  {e}\n" for e in sorted(extras))
    )
    assert not missing and not extras, report.read_text()
    ruled = {
        (r.n, r.r1, r.r2)
        for r in annotate_existence(rows)
        if any(v.outcome == "RuledOut" for v in r.verdicts)
    }
    assert ruled == STRENGTH4_RULED and len(ruled) == 17
    _done("criterion 07", started, 60.0)


# --- criterion 8: oracle and balance-sum criterion agree across a corpus ---


def test_criterion_08_oracle_thm34_agreement(corpus):
    started = time.monotonic()
    assert len(corpus) >= 20
    passing = 0
    for cand, t in corpus:
        assert cand.n <= 23
        ok_oracle, _ = relative_design_oracle(cand, t)
        ok_thm, _ = check_via_thm34(cand, t)
        assert ok_oracle == ok_thm, (cand.n, cand.r1, cand.r2, t)
        passing += ok_oracle
    assert passing >= 10  # the corpus mixes true and false candidates
    _done(f"criterion 08 ({len(corpus)} candidates, {passing} pass)", started, 60.0)


# --- criterion 9: intersection-count closed forms, exhaustively ---


def _check_fixed_subset_counts(design, s_values):
    n, r, N = design.n, design.uniform_size(), design.num_blocks
    for s in s_values:
        for sub in itertools.combinations(range(n), s):
            m = mask_of(sub)
            hist = _intersection_histogram(design.blocks, m, s)
            for ell in range(s + 1):
                expect = p_ell_formula(n, r, N, s, ell)
                assert hist[ell] == math.comb(s, ell) * expect, (sub, ell)


def _check_fixed_subset_counts_at_t(design, t):
    n, r, N = design.n, design.uniform_size(), design.num_blocks
    for sub in itertools.combinations(range(n), t):
        m = mask_of(sub)
        hist = _intersection_histogram(design.blocks, m, t)
        lam = hist[t]
        for ell in range(t):
            expect = p_ell_t_formula(n, r, N, t, ell, lam)
            assert hist[ell] == math.comb(t, ell) * expect, (sub, ell)


def _check_complement_coverage(design, t):
    n, r, N = design.n, design.uniform_size(), design.num_blocks
    cov = coverage_map(complement(design), t)
    for sub in itertools.combinations(range(n), t):
        lam = lambda_count(design, sub)
        assert cov.get(sub, 0) == complement_lambda_t(n, r, N, t, lam), sub


def test_criterion_09_intersection_formulas(fano, paley11, witt):
    started = time.monotonic()
    # fixed-subset counts in the balance range, including choice-independence
    for design, s_values in ((fano, (1, 2)), (paley11, (1, 2))):
        n, r, N = design.n, design.uniform_size(), design.num_blocks
        for s in s_values:
            for sub in itertools.combinations(range(n), s):
                for ell in range(s + 1):
                    expect = p_ell_formula(n, r, N, s, ell)
                    for fixed in itertools.combinations(sub, ell):
                        fm, m = mask_of(fixed), mask_of(sub)
                        got = sum(1 for b in design.blocks if b & m == fm)
                        assert got == expect
    _check_fixed_subset_counts(witt, (1, 2, 3, 4))
    # counts at subset size t, parametrized by the coverage of the subset
    _check_fixed_subset_counts_at_t(fano, 3)
    _check_fixed_subset_counts_at_t(paley11, 3)
    _check_fixed_subset_counts_at_t(witt, 5)
    # complement coverage transform
    _check_complement_coverage(fano, 3)
    _check_complement_coverage(fano, 2)
    _check_complement_coverage(paley11, 3)
    _check_complement_coverage(witt, 5)
    # the alternating binomial identity behind the size-t counts
    for alpha in range(13):
        for beta in range(alpha, 13):
            for gamma in range(13):
                total = sum(
                    (-1) ** j * math.comb(alpha, j) * math.comb(beta + gamma - j, beta)
                    for j in range(alpha + 1)
                )
                assert total == math.comb(beta - alpha + gamma, gamma)
    _done("criterion 09", started, 60.0)


# --- criterion 10: coverage histograms and the complement reflection ---


def test_criterion_10_lambda_sequences(fano, witt, biplane37):
    started = time.monotonic()
    assert lambda_sequence(fano, 3).entries == ((0, 28), (1, 7))
    assert lambda_sequence(witt, 5).entries == ((0, 28336), (1, 5313))
    # complementation reflects every histogram: lam maps to K - lam
    for q in (7, 11, 19, 23):
        d = construct_paley_hadamard(q)
        r = d.uniform_size()
        K = complement_lambda_t(q, r, q, 3, 0)
        seq = lambda_sequence(d, 3)
        comp = lambda_sequence(complement(d), 3)
        assert comp.entries == tuple(sorted((K - v, c) for v, c in seq.entries)), q
    seq = lambda_sequence(biplane37, 3)
    assert seq.entries == ((0, 4662), (1, 3108))
    comp = lambda_sequence(complement(biplane37), 3)
    assert comp.entries == ((15, 3108), (16, 4662))
    assert complement_lambda_t(37, 9, 37, 3, 0) == 16
    _done("criterion 10", started, 30.0)
