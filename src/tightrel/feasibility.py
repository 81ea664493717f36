"""Feasible-parameter scans for tight two-shell candidates, and the
annotation of each row with nonexistence verdicts for its two per-shell
constituents.  The tests behind those verdicts (perfect-square test for
even point counts, the ternary-form test for odd ones, and the congruence
test for triple systems with lam = 2 of triangular-number shape) live in
screens.py, which loads without the scans; their names are re-exported
here.

One scan serves every strength t.  A tight candidate has
N1 + N2 = tight_size(t, n) blocks on shells t-1 <= r1 < r2 <= n-2, and each
shell is a (t-1)-design, so N C(r,j)/C(n,j) is an integer for j < t.  For
odd t = 2e+1 both shells meet the Ray-Chaudhuri-Wilson bound, N1 = N2 =
C(n, e): at t = 3 they are symmetric 2-(n, r, r(r-1)/(n-1)) designs.  For
even t the split is free, and N1 steps through the multiples of the least
count that makes shell r1 integral.  The scan enumerates everything
passing those conditions and records, per row, how the per-shell
strength-t coverage counts can split along the weighted balance line

    x + (w2/w1) y = (P(r1) + (w2/w1) P(r2)) / D,
    P(r) = N perm(r, t),  D = perm(n, t).

Weight ratios are enumerated in lowest terms d1/d2 with 1 <= d1 <= lam1,
1 <= d2 <= lam2: consecutive lattice points on the line differ by
(d1, -d2), and the per-shell coverage counts take at least two values
(a shell meeting a Fisher-type bound cannot be a t-design, so a single
point would force an impossible constancy), so steps larger than the
coverage bounds or lines carrying fewer than two points are ruled out.
Nothing is searched: the y of the lattice points on a line form one
residue class clipped to the coverage box, and for each d1 the d2 whose
line constant is integral form one residue class, so both are enumerated
directly.  The equal-weight line of an odd-t row must carry two points as
well; for even t its split is attached as an annotation and the row is
kept whenever the divisibility conditions hold, since the weighted split
is part of the later existence analysis rather than the search.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import attrgetter

from ._base import DesignParams, _Record, tight_size
from .screens import (
    NonexistenceVerdict,
    admissibility_test,
    brc_test,
    driessen_test,
    legendre_solvable,
    symmetric_square_test,
)

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
                 lam2: int, ratio: Fraction, pairs: tuple, case: int, star: bool,
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


def _ratio_rows(t, n, r1, r2, N1, N2, lam1, lam2, P1, P2, D, case) -> list:
    """Rows for reduced weight ratios d1/d2 != 1 whose balance line carries
    at least two integer points in the coverage box.  With gcd(d1, d2) = 1 a
    line has integer points only if D | P1*d2 + P2*d1, so for each d1 only
    one residue class of d2 modulo D/gcd(P1, D), or none, is visited."""
    rows = []
    star = _star(n, r1, r2)
    h = math.gcd(P1, D)
    mod = D // h
    inv = pow(P1 // h, -1, mod)
    for d1 in range(1, lam1 + 1):
        if (P2 * d1) % h:
            continue
        first = (-(P2 * d1) // h * inv - 1) % mod + 1
        for d2 in range(first, lam2 + 1, mod):
            if d1 == d2 or math.gcd(d1, d2) != 1:
                continue
            # x + (d1/d2) y = (P1 + (d1/d2) P2) / D, cleared of denominators
            pts = _line_points(P1 * d2 + P2 * d1, D * d2, D * d1, lam1, lam2)
            if len(pts) >= 2:
                rows.append(
                    FeasibleRow(
                        t, n, r1, r2, N1, N2, lam1, lam2,
                        Fraction(d1, d2), pts, case, star,
                    )
                )
    return rows


def _star(n: int, r1: int, r2: int) -> bool:
    return n % 4 == 3 and r1 == (n - 1) // 2 and r2 == (n + 1) // 2


def _divisibility_step(n: int, r: int, t: int) -> int:
    """Smallest N > 0 making N*C(r,j)/C(n,j) integral for j = 1..t-1."""
    step = 1
    for j in range(1, t):
        cn, cr = math.comb(n, j), math.comb(r, j)
        step = math.lcm(step, cn // math.gcd(cn, cr))
    return step


def _scan_one_n(n: int, t: int, cases: frozenset) -> list:
    """The strength-t rows at one n whose case tag lies in cases."""
    total = tight_size(t, n)
    odd = t % 2
    C = math.comb(n, t - 1)
    D = math.perm(n, t)
    # r >= t-1 keeps lam_{t-1} = N C(r,t-1)/C(n,t-1) >= 1 for every N >= 1
    sizes = range(t - 1, n - 1)
    if odd:
        # each shell of a tight pair has exactly C(n, e) = total/2 blocks; an
        # integral lam_{t-1} rejects most r before their full step is taken
        sizes = [r for r in sizes if total // 2 * math.comb(r, t - 1) % C == 0]
    steps = {r: _divisibility_step(n, r, t) for r in sizes}
    if odd:
        steps = {r: s for r, s in steps.items() if total // 2 % s == 0}
    shells = list(steps.items())
    rows = []
    for i, (r1, s1) in enumerate(shells):
        for r2, s2 in shells[i + 1 :]:
            star = _star(n, r1, r2)
            if odd:
                eq_case, ratio_case = (1, 2) if r1 + r2 == n else (3, 4)
                splits = (total // 2,)
            else:
                eq_case = ratio_case = 0
                splits = range(s1, total, s1)
            for N1 in splits:
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
                if eq_case in cases:
                    pts = _line_points(P1 + P2, Dg, Dg, lam1, lam2)
                    # at odd t a single point would make both shells t-designs,
                    # which shells of C(n, e) blocks never are; at even t the
                    # row stands for its block split and the points annotate it
                    if len(pts) >= 2 or not odd:
                        rows.append(
                            FeasibleRow(
                                t, n, r1, r2, N1, N2, lam1, lam2,
                                Fraction(1), pts, eq_case, star,
                            )
                        )
                if ratio_case in cases:
                    ratio_rows = _ratio_rows(
                        t, n, r1, r2, N1, N2, lam1, lam2, P1, P2, Dg, ratio_case
                    )
                    rows += sorted(ratio_rows, key=attrgetter("ratio"))
    return rows


def _scan(t: int, max_n: int, cases: frozenset) -> list:
    # the shell window t-1 <= r1 < r2 <= n-2 needs n >= t+2; each n comes
    # out sorted by (r1, r2, N1, ratio != 1, ratio)
    return [row for n in range(t + 2, max_n + 1) for row in _scan_one_n(n, t, cases)]


def scan_relative3(max_n: int, cases=frozenset({1, 2, 3, 4})) -> list:
    """All strength-3 feasible rows with n <= max_n whose case lies in cases.

    Both shells are symmetric 2-(n, r, r(r-1)/(n-1)) designs; the four
    cases split on whether the shells are complementary (r1 + r2 = n) and
    whether the weights are equal.
    """
    if max_n < 4:
        raise ValueError("max_n must be >= 4")
    cases = frozenset(cases)
    if not cases or not cases <= {1, 2, 3, 4}:
        raise ValueError("cases must be a nonempty subset of {1,2,3,4}")
    return _scan(3, max_n, cases)


def scan_relative4(max_n: int) -> list:
    """All strength-4 feasible rows with n <= max_n: shells are 3-designs
    whose block counts sum to n(n+1)/2."""
    if max_n < 5:
        raise ValueError("max_n must be >= 5")
    return _scan(4, max_n, frozenset({0}))


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
    # rows share shells and verdicts are frozen: test each distinct shell
    # once, and look the pair up again only when the shells change, which a
    # scan's rows do once per (n, r1, r2, N1)
    verdict = functools.cache(_shell_verdict)
    out, last = [], None
    for row in rows:
        shells = (row.t, row.n, row.r1, row.lam1, row.N1, row.r2, row.lam2, row.N2)
        if shells != last:
            last = shells
            verdicts = (
                verdict(row.n, row.r1, row.lam1, row.N1, row.t),
                verdict(row.n, row.r2, row.lam2, row.N2, row.t),
            )
        out.append(
            FeasibleRow(
                row.t, row.n, row.r1, row.r2, row.N1, row.N2, row.lam1, row.lam2,
                row.ratio, row.pairs, row.case, row.star, verdicts,
            )
        )
    return out


def row_ruled_out(row: FeasibleRow) -> bool:
    return any(v.outcome == "RuledOut" for v in row.verdicts)


TSV_HEADER = "n\tr1\tr2\tN1\tN2\tlam1\tlam2\tratio\tpairs\tcase\tstar\tverdicts"


def rows_to_tsv(rows, header: bool = True) -> str:
    lines = [TSV_HEADER] if header else []
    for row in rows:
        pairs = ";".join(f"({x},{y})" for x, y in row.pairs) or "-"
        verdicts = (
            ";".join(
                f"r{r}.{v.test}={v.outcome}"
                for r, v in zip((row.r1, row.r2), row.verdicts)
            )
            or "-"
        )
        lines.append(
            "\t".join(
                (
                    str(row.n),
                    str(row.r1),
                    str(row.r2),
                    str(row.N1),
                    str(row.N2),
                    str(row.lam1),
                    str(row.lam2),
                    f"{row.ratio.numerator}/{row.ratio.denominator}",
                    pairs,
                    str(row.case) if row.case else "-",
                    "*" if row.star else "-",
                    verdicts,
                )
            )
        )
    return "\n".join(lines) + "\n"
