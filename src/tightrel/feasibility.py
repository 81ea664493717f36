"""Feasible-parameter scans for tight two-shell candidates, and the
annotation of each row with nonexistence verdicts for its two per-shell
constituents.  The tests behind those verdicts live in screens.py, which
loads without the scans; their names are re-exported here.

One scan serves every strength t.  A tight candidate has
N1 + N2 = tight_size(t, n) blocks on shells t-1 <= r1 < r2 <= n-2, and each
shell is a (t-1)-design, so N C(r,j)/C(n,j) is an integer for j < t.  For
odd t = 2e+1 both shells meet the Ray-Chaudhuri-Wilson bound, N1 = N2 =
C(n, e): at t = 3 they are symmetric 2-(n, r, r(r-1)/(n-1)) designs.  For
even t the split is free: N1 steps through the multiples of the least
count s1 that makes shell r1 integral, and a shell whose step is not below
the total is dropped before the shells are paired.  For each split
(n, r1, r2, N1) the scan records how the per-shell strength-t coverage
counts can split along the weighted balance line

    x + (w2/w1) y = (P(r1) + (w2/w1) P(r2)) / D,
    P(r) = N perm(r, t),  D = perm(n, t).

Weight ratios are enumerated in lowest terms d1/d2 with 1 <= d1 <= lam1,
1 <= d2 <= lam2: consecutive lattice points on the line differ by
(d1, -d2), and the per-shell coverage counts take at least two values
(a shell meeting a Fisher-type bound cannot be a t-design, so a single
point would force an impossible constancy), so steps larger than the
coverage bounds or lines carrying fewer than two points are ruled out.
Nothing is searched: for each d1 the d2 whose line constant is integral
form one residue class, and the y of a line's points form one residue
class clipped to the coverage box, so they are counted before any point
is built.  The ratios are sorted by the integer floor(d1 K / d2) with
K = lam2^2 + 1, which orders them exactly: reduced ratios with
denominators at most lam2 differ by at least 1/lam2^2.  The equal-weight
line of an odd-t row must carry two points as well; for even t its split
is attached as an annotation and the row is kept whenever the divisibility
conditions hold, since the weighted split is part of the later existence
analysis rather than the search.

Every output is a view of one split stream (_splits): scan_tsv formats its
TSV lines directly, with no FeasibleRow or Fraction, and the rows use it too.
"""

from __future__ import annotations

import functools
import math

from ._base import DesignParams, _Record, tight_size
from .screens import (NonexistenceVerdict, admissibility_test, brc_test, driessen_test,
                      legendre_solvable, symmetric_square_test)

__all__ = [
    "FeasibleRow",
    "NonexistenceVerdict",
    "admissibility_test",
    "symmetric_square_test",
    "brc_test",
    "legendre_solvable",
    "driessen_test",
    "scan_relative3",
    "scan_relative4",
    "scan_tsv",
    "annotate_existence",
    "rows_to_tsv",
    "TSV_HEADER",
]


_setattr = object.__setattr__  # past the record's frozen __setattr__


class FeasibleRow(_Record):
    """One feasible parameter set.

    lam1/lam2 are the per-shell coverage constants at strength t-1;
    pairs lists the admissible integer points (x, y) of per-shell
    strength-t coverage values on the balance line; ratio is w2/w1 in
    lowest terms (1 for the equal-weight rows); at odd t, case tags the
    split (1: complementary shells, equal weight; 2: complementary,
    unequal; 3: non-complementary, equal; 4: non-complementary, unequal),
    and it is 0 at even t; star marks n = 4u-1 with r1 = 2u-1, r2 = 2u.
    """

    __slots__ = (
        "t", "n", "r1", "r2", "N1", "N2", "lam1", "lam2", "ratio", "pairs", "case", "star",
        "verdicts",
    )

    # one statement per field, not _set's loop: the scans and annotate_existence
    # build a row per table line, tens of thousands of them at larger max_n
    def __init__(self, t: int, n: int, r1: int, r2: int, N1: int, N2: int, lam1: int,
                 lam2: int, ratio, pairs: tuple, case: int, star: bool,
                 verdicts: tuple = ()):
        _setattr(self, "t", t)
        _setattr(self, "n", n)
        _setattr(self, "r1", r1)
        _setattr(self, "r2", r2)
        _setattr(self, "N1", N1)
        _setattr(self, "N2", N2)
        _setattr(self, "lam1", lam1)
        _setattr(self, "lam2", lam2)
        _setattr(self, "ratio", ratio)
        _setattr(self, "pairs", pairs)
        _setattr(self, "case", case)
        _setattr(self, "star", star)
        _setattr(self, "verdicts", verdicts)


# ---------------------------------------------------------------------------
# scans


def _line_points(base: int, den: int, step: int, lam1: int, lam2: int) -> tuple:
    """Integer points (x, y) with den*x = base - step*y, 0<=x<=lam1, 0<=y<=lam2,
    returned with x ascending (den, step >= 1): the y form one residue class
    modulo den/gcd(den, step), clipped to the box and walked downward."""
    g = math.gcd(den, step)
    if base % g:
        return ()
    mod = den // g
    y0 = base // g * pow(step // g, -1, mod) % mod
    y_lo = max(0, -((den * lam1 - base) // step))
    y_hi = min(lam2, base // step)
    y_top = y_hi - (y_hi - y0) % mod
    return tuple(((base - step * y) // den, y) for y in range(y_top, y_lo - 1, -mod))


def _ratio_lines(P1: int, P2: int, D: int, lam1: int, lam2: int, case: int) -> list:
    """(d1, d2, points, case), ascending in d1/d2, for the reduced ratios
    d1/d2 != 1 whose balance line has two or more points in the coverage box.
    With gcd(d1, d2) = 1 a line has integer points only if D | P1*d2 + P2*d1,
    so for each d1 one residue class of d2 mod D/gcd(P1, D), or none, is visited."""
    lines = []
    h = math.gcd(P1, D)
    mod = D // h
    inv = pow(P1 // h, -1, mod)
    key = lam2 * lam2 + 1  # floor(d1*key/d2) orders the ratios exactly
    for d1 in range(1, lam1 + 1):
        if P2 * d1 % h:
            continue
        first = (-(P2 * d1) // h * inv - 1) % mod + 1
        for d2 in range(first, lam2 + 1, mod):
            # x + (d1/d2) y = (P1 + (d1/d2) P2) / D is d2 x + d1 y = c, whose
            # y lie in [y_lo, y_hi] and in one residue class modulo d2
            c = (P1 * d2 + P2 * d1) // D
            y_lo = -((d2 * lam1 - c) // d1)
            y_lo = y_lo if y_lo > 0 else 0
            y_hi = c // d1
            y_hi = y_hi if y_hi < lam2 else lam2
            # room for one point at most, or not a ratio in lowest terms
            if y_hi - y_lo < d2 or d1 == d2 or math.gcd(d1, d2) != 1:
                continue
            y_top = y_hi - (y_hi - c * pow(d1, -1, d2)) % d2
            if y_top - d2 >= y_lo:
                pts = tuple(((c - d1 * y) // d2, y) for y in range(y_top, y_lo - 1, -d2))
                lines.append((d1 * key // d2, d1, d2, pts))
    lines.sort()
    return [(d1, d2, pts, case) for _, d1, d2, pts in lines]


def _divisibility_step(n: int, r: int, t: int) -> int:
    """Smallest N > 0 making N*C(r,j)/C(n,j) integral for j = 1..t-1."""
    step = 1
    for j in range(1, t):
        cn, cr = math.comb(n, j), math.comb(r, j)
        step = math.lcm(step, cn // math.gcd(cn, cr))
    return step


def _splits(t: int, max_n: int, cases: frozenset):
    """Yield (n, r1, r2, N1, N2, lam1, lam2, star, lines) for each strength-t
    split with n <= max_n that has a line whose case tag lies in cases, in
    the order (n, r1, r2, N1).  lines holds (d1, d2, points, case): the
    equal-weight line 1/1 first, then the ratios d1/d2 ascending."""
    odd = t % 2
    # the shell window t-1 <= r1 < r2 <= n-2 needs n >= t+2
    for n in range(t + 2, max_n + 1):
        total = tight_size(t, n)
        C = math.comb(n, t - 1)
        D = math.perm(n, t)
        # r >= t-1 keeps lam_{t-1} = N C(r,t-1)/C(n,t-1) >= 1 for every N >= 1
        sizes = range(t - 1, n - 1)
        if odd:
            # each shell of a tight pair has exactly C(n, e) = total/2 blocks; an
            # integral lam_{t-1} rejects most r before their full step is taken
            sizes = [r for r in sizes if total // 2 * math.comb(r, t - 1) % C == 0]
        steps = ((r, _divisibility_step(n, r, t)) for r in sizes)
        # odd t: each step divides total/2; even t: N1 >= s1, N2 >= s2 >= 1
        shells = [(r, s) for r, s in steps if (total // 2 % s == 0 if odd else s < total)]
        for i, (r1, s1) in enumerate(shells):
            for r2, s2 in shells[i + 1 :]:
                eq_case, ratio_case = ((1, 2) if r1 + r2 == n else (3, 4)) if odd else (0, 0)
                for N1 in (total // 2,) if odd else range(s1, total, s1):
                    N2 = total - N1
                    if N2 % s2:
                        continue
                    lam1 = N1 * math.comb(r1, t - 1) // C
                    lam2 = N2 * math.comb(r2, t - 1) // C
                    # the balance line x + ratio y = (P1 + ratio P2) / D, with
                    # P = N perm(r, t) and D = perm(n, t) cut by their common factor
                    P1, P2 = N1 * math.perm(r1, t), N2 * math.perm(r2, t)
                    g = math.gcd(P1, P2, D)
                    P1, P2, Dg = P1 // g, P2 // g, D // g
                    lines = []
                    if eq_case in cases:
                        pts = _line_points(P1 + P2, Dg, Dg, lam1, lam2)
                        # at odd t a single point would make both shells t-designs,
                        # which shells of C(n, e) blocks never are; at even t the
                        # row stands for its block split and the points annotate it
                        if len(pts) >= 2 or not odd:
                            lines.append((1, 1, pts, eq_case))
                    if ratio_case in cases:
                        lines += _ratio_lines(P1, P2, Dg, lam1, lam2, ratio_case)
                    if lines:  # star: n = 4u-1, r1 = 2u-1, r2 = 2u
                        star = n % 4 == 3 and r1 == (n - 1) // 2 and r2 == r1 + 1
                        yield n, r1, r2, N1, N2, lam1, lam2, star, lines


def _scan_cases(t: int, max_n: int, cases) -> frozenset:
    """The case tags a strength-t scan keeps: cases at t = 3, 0 at t = 4."""
    if t not in (3, 4):
        raise ValueError("t must be 3 or 4")
    if max_n < t + 1:
        raise ValueError(f"max_n must be >= {t + 1}")
    if t == 4:
        return frozenset({0})
    cases = frozenset(cases)
    if not cases or not cases <= {1, 2, 3, 4}:
        raise ValueError("cases must be a nonempty subset of {1,2,3,4}")
    return cases


def _rows(t: int, max_n: int, cases) -> list:
    from fractions import Fraction  # the rows' ratios; the TSV stream needs none

    return [
        FeasibleRow(t, n, r1, r2, N1, N2, lam1, lam2, Fraction(d1, d2), pts, case, star)
        for n, r1, r2, N1, N2, lam1, lam2, star, lines
        in _splits(t, max_n, _scan_cases(t, max_n, cases))
        for d1, d2, pts, case in lines
    ]


def scan_relative3(max_n: int, cases=frozenset({1, 2, 3, 4})) -> list:
    """All strength-3 feasible rows with n <= max_n whose case lies in cases.

    Both shells are symmetric 2-(n, r, r(r-1)/(n-1)) designs; the four
    cases split on whether the shells are complementary (r1 + r2 = n) and
    whether the weights are equal.
    """
    return _rows(3, max_n, cases)


def scan_relative4(max_n: int) -> list:
    """All strength-4 feasible rows with n <= max_n: shells are 3-designs
    whose block counts sum to n(n+1)/2."""
    return _rows(4, max_n, ())


# ---------------------------------------------------------------------------
# annotation and output


def _shell_verdict(n: int, r: int, lam: int, N: int, t: int) -> NonexistenceVerdict:
    if t == 3 and N == n:
        # symmetric 2-design constituent
        params = DesignParams(n, r, lam, 2)
        return symmetric_square_test(params) if n % 2 == 0 else brc_test(params)
    # strength-4 rows have 3-design constituents
    return driessen_test(DesignParams(n, r, lam, 3))


def annotate_existence(rows) -> list:
    """Attach one nonexistence verdict per shell to every row."""
    # rows share shells and verdicts are frozen: test each distinct shell once
    verdict = functools.cache(_shell_verdict)
    return [
        FeasibleRow(
            row.t, row.n, row.r1, row.r2, row.N1, row.N2, row.lam1, row.lam2,
            row.ratio, row.pairs, row.case, row.star,
            (verdict(row.n, row.r1, row.lam1, row.N1, row.t),
             verdict(row.n, row.r2, row.lam2, row.N2, row.t)),
        )
        for row in rows
    ]


def row_ruled_out(row: FeasibleRow) -> bool:
    return any(v.outcome == "RuledOut" for v in row.verdicts)


TSV_HEADER = "n\tr1\tr2\tN1\tN2\tlam1\tlam2\tratio\tpairs\tcase\tstar\tverdicts"


def _tsv_lines(n, r1, r2, N1, N2, lam1, lam2, star, lines, verdicts) -> str:
    """One split's TSV lines, each ending in a newline; verdicts may be ()."""
    head = f"{n}\t{r1}\t{r2}\t{N1}\t{N2}\t{lam1}\t{lam2}\t"
    tail = ";".join(f"r{r}.{v.test}={v.outcome}" for r, v in zip((r1, r2), verdicts))
    tail = f"\t{'*' if star else '-'}\t{tail or '-'}\n"
    return "".join(
        f"{head}{d1}/{d2}\t{';'.join([f'({x},{y})' for x, y in pts]) or '-'}\t{case or '-'}{tail}"
        for d1, d2, pts, case in lines
    )


def rows_to_tsv(rows, header: bool = True) -> str:
    chunks = [TSV_HEADER + "\n"] if header else []
    chunks += [
        _tsv_lines(row.n, row.r1, row.r2, row.N1, row.N2, row.lam1, row.lam2, row.star,
                   ((row.ratio.numerator, row.ratio.denominator, row.pairs, row.case),),
                   row.verdicts)
        for row in rows
    ]
    return "".join(chunks) or "\n"  # no header and no rows: one empty line


def scan_tsv(t: int, max_n: int, cases=frozenset({1, 2, 3, 4}), annotate: bool = False):
    """rows_to_tsv of scan_relative3(max_n, cases) (t = 3) or scan_relative4(max_n)
    (t = 4), annotated when annotate is set, as the header line and then one
    text chunk per split; bad arguments raise ValueError here, not lazily."""
    cases = _scan_cases(t, max_n, cases)

    def chunks():
        yield TSV_HEADER + "\n"
        verdict, verdicts = functools.cache(_shell_verdict), ()
        for n, r1, r2, N1, N2, lam1, lam2, star, lines in _splits(t, max_n, cases):
            if annotate:
                verdicts = (verdict(n, r1, lam1, N1, t), verdict(n, r2, lam2, N2, t))
            yield _tsv_lines(n, r1, r2, N1, N2, lam1, lam2, star, lines, verdicts)

    return chunks()
