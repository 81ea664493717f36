import hashlib
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from tightrel import feasibility, screens

from tightrel import (
    DesignParams,
    FeasibleRow,
    admissibility_test,
    annotate_existence,
    brc_test,
    driessen_test,
    legendre_solvable,
    rows_to_tsv,
    scan_relative3,
    scan_relative4,
    symmetric_square_test,
    tight_size,
)
from tightrel.feasibility import TSV_HEADER, _line_points
from tightrel.screens import brc_form


def test_square_test_frozen():
    v = symmetric_square_test(DesignParams(22, 7, 2))
    assert (v.test, v.outcome) == ("SquareEven", "RuledOut")
    assert v.detail == "k-lam=5 is not a perfect square"
    v = symmetric_square_test(DesignParams(16, 6, 2))
    assert (v.outcome, v.detail) == ("Passes", "k-lam=4 is a perfect square")
    v = symmetric_square_test(DesignParams(7, 3, 1))
    assert (v.outcome, v.detail) == ("NotApplicable", "v=7 is odd")


def test_brc_frozen():
    v = brc_test(DesignParams(29, 8, 2))
    assert (v.test, v.outcome) == ("BRCOdd", "RuledOut")
    assert v.detail == "x^2 = 6y^2 + 2z^2 : insolvable"
    v = brc_test(DesignParams(43, 7, 1))
    assert v.outcome == "RuledOut"
    v = brc_test(DesignParams(7, 3, 1))
    assert v.outcome == "Passes" and v.detail.endswith(": solvable")
    v = brc_test(DesignParams(16, 6, 2))
    assert (v.outcome, v.detail) == ("NotApplicable", "v=16 is even")


def test_brc_factors_k_minus_lam_once(monkeypatch):
    # the one factorisation of each coefficient both reduces the form and
    # gives the primes for Euler's criterion
    d = 1009 * 1013
    real, calls = screens._prime_factors, []
    monkeypatch.setattr(screens, "_prime_factors", lambda m: calls.append(m) or real(m))
    assert brc_test(DesignParams(d + 2, d + 1, 1)).outcome == "Passes"
    assert calls == [1, d, 1]


def test_legendre_solvable_factors_each_coefficient_once(monkeypatch):
    # the one factorisation of each coefficient validates it as well
    d = 1009 * 1013
    real, calls = screens._prime_factors, []
    monkeypatch.setattr(screens, "_prime_factors", lambda m: calls.append(m) or real(m))
    assert legendre_solvable(1, -d, -1)
    assert calls == [1, d, 1]


@pytest.mark.parametrize("v", [3, 5, 9])
def test_brc_with_k_equal_to_lam(v):
    # the form x^2 = 0y^2 + ... is solved by y = 1; normalising a zero
    # coefficient never ended for v = 3 and 5
    verdict = brc_test(DesignParams(v, v, v))
    assert verdict.outcome == "Passes" and verdict.detail.startswith("x^2 = 0y^2 ")


def test_brc_form_sign():
    # eps = (-1)^((v-1)/2): +1 for v=13, -1 for v=7
    assert brc_form(DesignParams(13, 4, 1)) == (1, -3, -1)
    assert brc_form(DesignParams(7, 3, 1)) == (1, -2, 1)


def test_brc_agrees_with_bounded_search():
    # every odd-v symmetric shell with n <= 31 from the strength-3 scan,
    # cross-checked against a direct search for small solutions
    bound = 40
    for row in scan_relative3(31, cases={1}):
        if row.n % 2 == 0:
            continue
        for r, lam in ((row.r1, row.lam1), (row.r2, row.lam2)):
            p = DesignParams(row.n, r, lam)
            a, b, c = brc_form(p)
            found = any(
                a * x * x + b * y * y + c * z * z == 0
                for x in range(bound)
                for y in range(bound)
                for z in range(bound)
                if (x, y, z) != (0, 0, 0)
            )
            assert found == (brc_test(p).outcome == "Passes"), p


def _is_squarefree(m):
    return all(m % (f * f) for f in range(2, math.isqrt(abs(m)) + 1))


def _normalize_by_gcds(a, b, c):
    """The ternary form reduced to squarefree, pairwise coprime coefficients
    by trial division and gcds: a square factor of a coefficient is dropped,
    and a common factor g of two is divided out of both and multiplied into
    the third.  The reference for the prime-set reduction in screens."""

    def squarefree(m):
        f = 2
        while f * f <= abs(m):
            if m % (f * f) == 0:
                m //= f * f
            else:
                f += 1
        return m

    a, b, c = squarefree(a), squarefree(b), squarefree(c)
    while True:
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            coeffs = [a, b, c]
            g = math.gcd(coeffs[i], coeffs[j])
            if g > 1:
                coeffs[i] //= g
                coeffs[j] //= g
                coeffs[k] = squarefree(coeffs[k] * g)
                a, b, c = coeffs
                break
        else:
            return a, b, c


def _odd_primes_of(m):
    m = abs(m)
    while m % 2 == 0:
        m //= 2
    out = []
    f = 3
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 2
    if m > 1:
        out.append(m)
    return out


def _locally_solvable_everywhere(a, b, c):
    # real place: signs must be mixed
    if a > 0 and b > 0 and c > 0 or a < 0 and b < 0 and c < 0:
        return False
    # odd finite places: for p dividing one coefficient, the other two must
    # represent zero nontrivially mod p; p=2 follows from the product formula
    for coeff, u, v in ((a, b, c), (b, a, c), (c, a, b)):
        for p in _odd_primes_of(coeff):
            if not any(
                (u * y * y + v * z * z) % p == 0
                for y in range(p)
                for z in range(p)
                if (y, z) != (0, 0)
            ):
                return False
    return True


def test_brc_matches_local_conditions_to_100():
    # independent Hasse-style check over every odd-v symmetric shell the
    # strength-3 scan produces up to n = 100
    seen = set()
    for row in scan_relative3(100, cases={1}):
        if row.n % 2 == 0:
            continue
        lam2_2 = row.r2 * (row.r2 - 1) // (row.n - 1)
        for r, lam in ((row.r1, row.lam1), (row.r2, lam2_2)):
            p = DesignParams(row.n, r, lam)
            key = (p.v, p.k, p.lam)
            if key in seen:
                continue
            seen.add(key)
            a, b, c = _normalize_by_gcds(*brc_form(p))
            expect = _locally_solvable_everywhere(a, b, c)
            assert legendre_solvable(a, b, c) == expect, key
            assert (brc_test(p).outcome == "Passes") == expect, key


def test_driessen_direct_and_complement_shapes_agree():
    for u in range(4, 41):
        direct = DesignParams(u * (u - 1) // 2 + u + 1, u + 1, 2, 3)
        lam_num = (u * u - u - 4) * (u - 2)
        if lam_num % 4:
            continue  # complement coverage is not integral, no paired shape
        comp = DesignParams(u * (u + 1) // 2 + 1, u * (u - 1) // 2, lam_num // 4, 3)
        vd = driessen_test(direct)
        vc = driessen_test(comp)
        assert vd.outcome == vc.outcome != "NotApplicable", u
        assert f"u={u} " in vd.detail and f"u={u} " in vc.detail


def test_legendre_frozen():
    assert legendre_solvable(1, -2, 1)
    assert not legendre_solvable(1, 1, 1)
    assert not legendre_solvable(1, -6, -2)
    assert legendre_solvable(1, -1, -1)
    assert legendre_solvable(3, 5, -2)


def test_legendre_validation():
    with pytest.raises(ValueError):
        legendre_solvable(0, 1, -1)
    with pytest.raises(ValueError):
        legendre_solvable(4, 1, -1)
    with pytest.raises(ValueError):
        legendre_solvable(1, 18, -1)
    # a square factor in any position, on either sign, is refused
    for m in (4, 9, 12, 1800):
        for coeffs in ((m, 1, -1), (1, -m, 1), (-1, 1, m)):
            with pytest.raises(ValueError):
                legendre_solvable(*coeffs)


def _is_qr_reference(a, m):
    """Every w < m tried in turn."""
    return any((w * w - a) % m == 0 for w in range(m))


def _coprime_triple(coeffs):
    # dividing out common factors keeps squarefree coefficients squarefree
    a, b, c = coeffs
    b //= math.gcd(a, b)
    return a, b, c // math.gcd(a * b, c)


_squarefree_nonzero = st.integers(-3000, 3000).filter(lambda x: x != 0 and _is_squarefree(x))


@given(st.tuples(_squarefree_nonzero, _squarefree_nonzero, _squarefree_nonzero).map(_coprime_triple))
@example((1, -1, -1))
@example((3, 5, -2))
@example((-1, 1155, 1))
@example((1, -1999, -2))
@example((-2, 3, 2999))
def test_is_qr_matches_search(coeffs):
    # on squarefree pairwise coprime coefficients nothing is reduced, so this
    # checks Euler's criterion at each prime of |a|, |b|, |c| against a
    # search for a square root modulo the whole coefficient
    a, b, c = coeffs
    mixed = min(coeffs) < 0 < max(coeffs)
    expect = mixed and all(
        _is_qr_reference(-u * w, abs(m)) for m, u, w in ((a, b, c), (b, a, c), (c, a, b))
    )
    assert legendre_solvable(a, b, c) == expect


def _hilbert(a, b, p):
    """(a, b)_p for nonzero integers a, b at a prime p, or at the real
    place for p = 0, from the explicit formulas (Serre, A Course in
    Arithmetic, III.1.2)."""
    if p == 0:
        return -1 if a < 0 and b < 0 else 1
    alpha = beta = 0
    while a % p == 0:
        a, alpha = a // p, alpha + 1
    while b % p == 0:
        b, beta = b // p, beta + 1
    if p == 2:
        def eps(u):
            return (u - 1) // 2 % 2

        def omega(u):
            return (u * u - 1) // 8 % 2

        return (-1) ** (eps(a) * eps(b) + alpha * omega(b) + beta * omega(a))

    def legendre(u):
        return 1 if pow(u, (p - 1) // 2, p) == 1 else -1

    return (-1) ** (alpha * beta * (p - 1) // 2) * legendre(a) ** beta * legendre(b) ** alpha


def _isotropic_by_hilbert_symbols(a, b, c):
    # a x^2 + b y^2 + c z^2 is isotropic over Q_v iff (-ac, -bc)_v = 1, and
    # both entries are v-adic units at every odd prime not dividing abc
    places = {0, 2, *_odd_primes_of(a), *_odd_primes_of(b), *_odd_primes_of(c)}
    symbols = [_hilbert(-a * c, -b * c, v) for v in sorted(places)]
    assert math.prod(symbols) == 1  # Hilbert's product formula
    return all(h == 1 for h in symbols)


@given(a=_squarefree_nonzero, b=_squarefree_nonzero, c=_squarefree_nonzero)
@example(a=1, b=-100000007, c=-99999989)
@example(a=1, b=-6, c=-2)
@example(a=3, b=5, c=-2)
def test_legendre_matches_hilbert_symbols(a, b, c):
    assert legendre_solvable(a, b, c) == _isotropic_by_hilbert_symbols(a, b, c)


def test_legendre_large_coefficients_fast():
    # the earlier loop over every residue took about 13 s here; the verdict
    # was checked against it
    t0 = time.perf_counter()
    assert not legendre_solvable(1, -100000007, -99999989)
    assert time.perf_counter() - t0 < 1.0


def test_admissibility():
    assert admissibility_test(DesignParams(7, 3, 1)).outcome == "Passes"
    assert admissibility_test(DesignParams(11, 5, 2, 3)).outcome == "Passes"
    v = admissibility_test(DesignParams(10, 5, 1))
    assert (v.test, v.outcome) == ("Admissible", "Inadmissible")
    assert v.detail == "k(k-1)=20 != lam(v-1)=9: no symmetric 2-(10,5,1) design"
    v = admissibility_test(DesignParams(9, 4, 1, 3))
    assert v.outcome == "Inadmissible"
    assert v.detail == "lam_2=7/2 is not an integer: no 3-(9,4,1) design"
    # lam_2 = 5 and lam_1 = 10 are integers, b = lam_0 = 35/2 is not
    assert admissibility_test(DesignParams(7, 4, 2, 3)).detail.startswith("lam_0=35/2 ")


_nonzero = st.integers(-3000, 3000).filter(bool)


@given(a=_nonzero, b=_nonzero, c=_nonzero)
@example(a=1, b=-6, c=-2)
@example(a=6, b=10, c=-15)
@example(a=2, b=-3, c=-5)
@example(a=4, b=-9, c=-1)
@example(a=12, b=18, c=-75)
@example(a=30, b=-42, c=70)
@example(a=-8, b=-27, c=2700)
def test_normalize_ternary(a, b, c):
    # square factors dropped and shared primes moved: the reduced form is
    # solvable exactly when the original one is, at every place
    factored = [screens._prime_factors(abs(x)) for x in (a, b, c)]
    assert screens._isotropic((a, b, c), factored) == _isotropic_by_hilbert_symbols(a, b, c)


def test_driessen_frozen_ruled_out():
    for v, k in ((11, 5), (16, 6), (22, 7), (37, 9), (46, 10)):
        verdict = driessen_test(DesignParams(v, k, 2, 3))
        assert verdict.outcome == "RuledOut", (v, k)
        assert "direct" in verdict.detail
    # u = 4, 5, 9 all fail the congruence outright
    v = driessen_test(DesignParams(11, 5, 2, 3))
    assert v.detail == "u=4 (direct): u mod 48 = 4 fails the congruence conditions"


def test_driessen_complement_shape():
    # complement of the u=4 shape: 3-(11, 6, 4)
    v = driessen_test(DesignParams(11, 6, 4, 3))
    assert v.outcome == "RuledOut" and "complement" in v.detail
    # complement of u=6: 3-(22, 15, 26)
    v = driessen_test(DesignParams(22, 15, 26, 3))
    assert v.outcome == "RuledOut" and "u=6 (complement)" in v.detail


def test_driessen_passes_and_prime_branch():
    # u = 50 = 2 mod 48 with 5^2 | u: even multiplicity, so admissible
    u = 50
    v = driessen_test(DesignParams(u * (u - 1) // 2 + u + 1, u + 1, 2, 3))
    assert v.outcome == "Passes" and v.detail == "u=50 (direct): u mod 48 and prime conditions hold"
    # u = 110 = 14 mod 48 but 5 = 5 mod 16 is not in {1,7,9,15}
    u = 110
    v = driessen_test(DesignParams(u * (u - 1) // 2 + u + 1, u + 1, 2, 3))
    assert v.outcome == "RuledOut"


def test_driessen_not_applicable():
    v = driessen_test(DesignParams(7, 3, 1, 3))
    assert v.outcome == "NotApplicable"
    assert v.detail == "3-(7,3,1) has no matching shape"
    # wrong strength never matches
    assert driessen_test(DesignParams(11, 5, 2, 2)).outcome == "NotApplicable"


CASE1_LE31 = {
    (7, 3, 1), (11, 5, 2), (13, 4, 1), (15, 7, 3), (16, 6, 2), (19, 9, 4),
    (21, 5, 1), (22, 7, 2), (23, 11, 5), (25, 9, 3), (27, 13, 6), (29, 8, 2),
    (31, 6, 1), (31, 10, 3), (31, 15, 7),
}


def test_scan3_case1_to_31():
    rows = scan_relative3(31, cases={1})
    assert {(r.n, r.r1, r.lam1) for r in rows} == CASE1_LE31
    for r in rows:
        assert r.t == 3 and r.case == 1 and r.ratio == 1
        assert r.r1 + r.r2 == r.n and r.N1 == r.N2 == r.n
        assert len(r.pairs) >= 2


def test_scan3_case1_star_rows():
    rows = scan_relative3(31, cases={1})
    starred = {(r.n, r.r1) for r in rows if r.star}
    assert starred == {(7, 3), (11, 5), (15, 7), (19, 9), (23, 11), (27, 13), (31, 15)}


CASE2_N37 = {
    Fraction(2, 7): ((0, 17), (2, 10)),
    Fraction(1, 6): ((0, 18), (1, 12), (2, 6)),
    Fraction(2, 17): ((0, 19), (2, 2)),
    Fraction(1, 11): ((0, 20), (1, 9)),
}


def test_scan3_case2_n37_block():
    rows = [r for r in scan_relative3(37, cases={2}) if r.n == 37]
    assert {r.ratio: r.pairs for r in rows} == CASE2_N37
    for r in rows:
        assert (r.r1, r.r2, r.lam1, r.lam2) == (9, 28, 2, 21)
        assert r.case == 2 and not r.star


CASE3_LE100 = {
    (31, 6, 16): ((0, 4), (1, 3)),
    (31, 15, 25): tuple((i, 19 - i) for i in range(8)),
    (85, 21, 49): tuple((i, 17 - i) for i in range(6)),
    (85, 36, 64): tuple((i, 42 - i) for i in range(16)),
}


def test_scan3_case3_to_100():
    rows = scan_relative3(100, cases={3})
    assert {(r.n, r.r1, r.r2): r.pairs for r in rows} == CASE3_LE100
    for r in rows:
        assert r.case == 3 and r.ratio == 1 and r.r1 + r.r2 != r.n


CASE4_N31 = {
    (6, 21, Fraction(1, 6)): ((0, 10), (1, 4)),
    (10, 16, Fraction(1, 5)): ((0, 8), (1, 3)),
    (10, 25, Fraction(1, 5)): ((0, 20), (1, 15), (2, 10), (3, 5)),
    (15, 21, Fraction(1, 6)): ((3, 10), (4, 4)),
    (16, 21, Fraction(4, 5)): ((0, 14), (4, 9), (8, 4)),
    (21, 25, Fraction(5, 4)): ((4, 20), (9, 16), (14, 12)),
    (21, 25, Fraction(4, 9)): ((10, 14), (14, 5)),
}


def test_scan3_case4_n31():
    rows = [r for r in scan_relative3(31, cases={4}) if r.n == 31]
    assert {(r.r1, r.r2, r.ratio): r.pairs for r in rows} == CASE4_N31


def test_scan3_line_identity():
    # every emitted point must sit on the weighted balance line
    for r in scan_relative3(60):
        P1 = r.r1 * (r.r1 - 1) * (r.r1 - 2)
        P2 = r.r2 * (r.r2 - 1) * (r.r2 - 2)
        D3 = (r.n - 1) * (r.n - 2)
        target = Fraction(P1 + r.ratio * P2, D3)
        for x, y in r.pairs:
            assert x + r.ratio * y == target, r
            assert 0 <= x <= r.lam1 and 0 <= y <= r.lam2


def test_scan3_validation():
    with pytest.raises(ValueError):
        scan_relative3(3)
    with pytest.raises(ValueError):
        scan_relative3(31, cases={5})
    with pytest.raises(ValueError):
        scan_relative3(31, cases=set())


MAINS_LE16 = {
    (11, 5, 6, 33, 33, 2, 4),
    (16, 6, 7, 56, 80, 2, 5),
    (16, 6, 9, 56, 80, 2, 12),
    (16, 7, 10, 80, 56, 5, 12),
    (16, 9, 10, 80, 56, 12, 12),
}


def test_scan4_to_16():
    rows = scan_relative4(16)
    mains = {
        (r.n, r.r1, r.r2, r.N1, r.N2, r.lam1, r.lam2)
        for r in rows
        if r.ratio == 1
    }
    assert mains == MAINS_LE16
    for r in rows:
        assert r.t == 4 and r.case == 0
        assert r.star == (r.n % 4 == 3 and (r.r1, r.r2) == ((r.n - 1) // 2, (r.n + 1) // 2))
        assert r.N1 + r.N2 == r.n * (r.n + 1) // 2


def test_scan4_frozen_pairs():
    rows = scan_relative4(22)
    by_key = {(r.n, r.r1, r.r2, r.N1, r.ratio): r.pairs for r in rows}
    assert by_key[(11, 5, 6, 33, Fraction(1))] == ((0, 2), (1, 1), (2, 0))
    assert by_key[(22, 6, 7, 77, Fraction(1))] == ((0, 1), (1, 0))
    assert by_key[(22, 15, 16, 176, Fraction(39))] == ((0, 20), (39, 19))
    assert by_key[(22, 6, 15, 77, Fraction(1, 20))] == ((0, 36), (1, 16))


def test_scan4_divisibility_invariants():
    for r in scan_relative4(20):
        for rr, nn in ((r.r1, r.N1), (r.r2, r.N2)):
            for j in (1, 2, 3):
                assert nn * math.comb(rr, j) % math.comb(r.n, j) == 0
        assert r.lam1 >= 1 and r.lam2 >= 1


def test_scan4_line_identity():
    def q4(r):
        return r * (r - 1) * (r - 2) * (r - 3)

    for r in scan_relative4(20):
        D4 = r.n * (r.n - 1) * (r.n - 2) * (r.n - 3)
        target = Fraction(r.N1 * q4(r.r1) + r.ratio * r.N2 * q4(r.r2), D4)
        for x, y in r.pairs:
            assert x + r.ratio * y == target, r
            assert 0 <= x <= r.lam1 and 0 <= y <= r.lam2


def test_scan4_validation():
    with pytest.raises(ValueError):
        scan_relative4(4)


@pytest.mark.parametrize("t, max_n", [(3, 60), (4, 30)])
def test_scan_rows_meet_the_tight_bound_and_integrality(t, max_n):
    rows = (scan_relative3 if t == 3 else scan_relative4)(max_n)
    assert rows
    for r in rows:
        assert r.t == t and r.N1 + r.N2 == tight_size(t, r.n), r
        assert t - 1 <= r.r1 < r.r2 <= r.n - 2, r
        assert r.lam1 >= 1 and r.lam2 >= 1, r
        for rr, nn in ((r.r1, r.N1), (r.r2, r.N2)):
            for j in range(1, t):
                assert nn * math.comb(rr, j) % math.comb(r.n, j) == 0, (r, j)


def test_annotate_routes_to_symmetric_tests():
    rows = annotate_existence(scan_relative3(31, cases={1}))
    for r in rows:
        assert len(r.verdicts) == 2
        expect = "BRCOdd" if r.n % 2 else "SquareEven"
        assert all(v.test == expect for v in r.verdicts)
    ruled = {(r.n, r.r1) for r in rows if any(v.outcome == "RuledOut" for v in r.verdicts)}
    assert ruled == {(22, 7), (29, 8)}


def test_annotate_routes_to_driessen():
    rows = annotate_existence(scan_relative4(16))
    assert all(v.test == "Driessen" for r in rows for v in r.verdicts)
    mains = [r for r in rows if r.ratio == 1]
    assert all(any(v.outcome == "RuledOut" for v in r.verdicts) for r in mains)


def test_annotate_copies_rows():
    rows = scan_relative4(20)
    annotated = annotate_existence(rows)
    assert all(r.verdicts == () for r in rows)
    assert annotated == [
        FeasibleRow(
            r.t, r.n, r.r1, r.r2, r.N1, r.N2, r.lam1, r.lam2, r.ratio, r.pairs, r.case, r.star,
            a.verdicts,
        )
        for r, a in zip(rows, annotated)
    ]
    assert len({hash(a) for a in annotated}) == len(annotated)
    with pytest.raises(AttributeError):
        annotated[0].n = 0


def test_rows_to_tsv_golden_line():
    rows = annotate_existence([r for r in scan_relative3(7) if r.n == 7])
    text = rows_to_tsv(rows)
    lines = text.splitlines()
    assert lines[0] == TSV_HEADER
    assert lines[1] == (
        "7\t3\t4\t7\t7\t1\t2\t1/1\t(0,1);(1,0)\t1\t*\t"
        "r3.BRCOdd=Passes;r4.BRCOdd=Passes"
    )
    assert text.endswith("\n")


def test_rows_to_tsv_placeholders():
    row = FeasibleRow(4, 11, 5, 6, 33, 33, 2, 4, Fraction(1), (), 0, False)
    assert rows_to_tsv([row]).splitlines()[1:] == [
        "11\t5\t6\t33\t33\t2\t4\t1/1\t-\t-\t-\t-"
    ]


# ---------------------------------------------------------------------------
# the closed-form balance lines against the direct searches they replaced


def _line_points_reference(base, den, step, lam1, lam2):
    """Every y in 0..lam2 tried in turn."""
    pts = []
    for y in range(lam2 + 1):
        num = base - step * y
        if num < 0:
            break
        if num % den == 0:
            x = num // den
            if x <= lam1:
                pts.append((x, y))
    pts.sort()
    return tuple(pts)


def _ratio_rows_reference(P1, P2, D, lam1, lam2, case):
    """Every coprime (d1, d2) in lam1 x lam2 tried in turn; the lines with two
    or more points, as (d1, d2, points, case), sorted by Fraction(d1, d2)."""
    lines = []
    for d1 in range(1, lam1 + 1):
        for d2 in range(1, lam2 + 1):
            if d1 == d2 or math.gcd(d1, d2) != 1:
                continue
            pts = _line_points_reference(
                P1 * d2 + P2 * d1, D * d2, D * d1, lam1, lam2
            )
            if len(pts) >= 2:
                lines.append((d1, d2, pts, case))
    return sorted(lines, key=lambda line: Fraction(line[0], line[1]))


@given(
    base=st.integers(-50, 5000),
    den=st.integers(1, 60),
    step=st.integers(1, 60),
    lam1=st.integers(0, 80),
    lam2=st.integers(0, 80),
    g=st.sampled_from([1, 1, 2, 3, 12]),
)
@example(base=-7, den=3, step=2, lam1=10, lam2=10, g=1)
@example(base=360, den=1, step=7, lam1=80, lam2=80, g=1)
@example(base=360, den=1, step=7, lam1=20, lam2=30, g=1)
@example(base=720, den=5, step=3, lam1=80, lam2=80, g=12)
@example(base=84, den=1, step=1, lam1=50, lam2=40, g=12)
def test_line_points_matches_search(base, den, step, lam1, lam2, g):
    # g scales den and step by a common factor, so gcd(den, step) > 1 is common
    den, step = den * g, step * g
    expect = _line_points_reference(base, den, step, lam1, lam2)
    assert _line_points(base, den, step, lam1, lam2) == expect


def test_line_points_edges():
    assert _line_points(-6, 2, 3, 10, 10) == ()
    assert _line_points(7, 2, 4, 10, 10) == ()  # gcd 2 does not divide 7
    assert _line_points(12, 1, 3, 12, 4) == ((0, 4), (3, 3), (6, 2), (9, 1), (12, 0))
    assert _line_points(12, 1, 3, 5, 4) == ((0, 4), (3, 3))


def test_scans_match_reference_search(monkeypatch):
    # every balance line of both scans, equal-weight ones included, against
    # the searches; the full row lists cover every (n, r1, r2[, N1])
    rows3, rows4 = scan_relative3(100), scan_relative4(40)
    monkeypatch.setattr(feasibility, "_line_points", _line_points_reference)
    # the reference orders each split's ratios by Fraction, the scan by its
    # integer key, so the row lists compare that order as well
    monkeypatch.setattr(feasibility, "_ratio_lines", _ratio_rows_reference)
    assert rows3 == scan_relative3(100)
    assert rows4 == scan_relative4(40)


SCAN_SHA256 = {
    (3, 200): "c4089243e37a2a93ffad98575bfcfddafc94cb7c6baca487a6ef86e7a36cdcef",
    (4, 50): "87dcef2f8b861202208e4713ad6bd6fca34eb86300f03642666ee130495af191",
}


@pytest.mark.parametrize("t, max_n", sorted(SCAN_SHA256))
def test_annotated_scan_digest(t, max_n):
    scan = scan_relative3 if t == 3 else scan_relative4
    text = rows_to_tsv(annotate_existence(scan(max_n)))
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_SHA256[(t, max_n)]
