"""Structural identities tying two-shell candidates to their per-shell
constituents: constituent extraction with closed-form indices, the
balance-sum criterion over all t-subsets, intersection-count formulas,
complement index transfer, tightness, and the outside-triple coverage
condition for complementary tight 3-designs.
"""

import math
from fractions import Fraction

from ._base import _Record, tight_size
from . import _design
from ._design import Design, _columns, _first_failing, _first_unbalanced, _integer_weights, bits_of

# is_t_design loads inside _shell_lambdas, so that check-relative --tight,
# which needs only tight_size, does not compile designs.

__all__ = [
    "union_design",
    "weight_by_size",
    "is_regular_twise_balanced",
    "ShellReport",
    "KageyamaReport",
    "kageyama_constituents",
    "check_via_thm34",
    "p_ell_formula",
    "p_ell_t_formula",
    "complement_lambda_t",
    "tight_size",
    "is_tight",
    "complementary_pair",
    "prop44_check",
]


def union_design(cand: "RelativeCandidate") -> Design:
    """Both shells merged into one mixed-size design."""
    return Design(cand.n, cand.design1.blocks + cand.design2.blocks)


def weight_by_size(cand: "RelativeCandidate") -> dict[int, Fraction]:
    return {cand.r1: cand.w1, cand.r2: cand.w2}


def is_regular_twise_balanced(design: Design, weights, t: int):
    """Weighted balance check for a design with possibly mixed block sizes.

    `weights` maps block size to a positive weight.  True iff the weighted
    coverage sum of every j-subset is constant for each j = 1..t; the
    balanced case returns [lam_1, ..., lam_t] as exact Fractions.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    wmap = {}
    for s in design.block_sizes():
        if s not in weights:
            raise ValueError(f"no weight given for block size {s}")
        w = Fraction(weights[s])
        if w <= 0:
            raise ValueError("weights must be positive")
        wmap[s] = w
    n = design.n
    shells = [(r, [b for b in design.blocks if b.bit_count() == r], w) for r, w in wmap.items()]
    cols = _columns([b for _, blocks, _ in shells for b in blocks], n)
    integral, lams, left = _integer_weights(shells), [], [_design._BUDGET]
    # with mixed block sizes, balance at level j does not imply balance below
    # it, so every level is checked, the walks sharing one work budget
    for j in range(1, t + 1):
        if _first_unbalanced(n, cols, integral, j, left) is not None:
            return False, None
        # balanced: every j-subset has the double-counting share; past j = n
        # there are no j-subsets, and the sum and C(n, j) are both 0
        total = sum(w * len(blocks) * math.comb(r, j) for r, blocks, w in shells)
        lams.append(Fraction(total, math.comb(n, j) or 1))
    return True, lams


class ShellReport(_Record):
    """One shell's constituent check."""

    __slots__ = ("r", "is_design", "lambda_observed", "lambda_formula", "matches")

    def __init__(
        self,
        r: int,
        is_design: bool,  # combinatorial (t-1)-design?
        lambda_observed: tuple | None,  # (lam_0..lam_{t-1}) when is_design
        lambda_formula: Fraction,  # closed-form lam_{t-1}
        matches: bool,
    ):
        self._set(r, is_design, lambda_observed, lambda_formula, matches)


class KageyamaReport(_Record):
    """Constituent decomposition of a two-shell candidate.

    applicable is False when the union fails to be t- and (t-1)-wise
    balanced under the shell weights, in which case nothing else is filled
    in.  When applicable, weighted_lambda holds the union's (lam_{t-1},
    lam_t) and each ShellReport compares the observed per-shell index
    against the closed form

        lam^(r1)_{t-1} = ((r2-t+1) lam_{t-1} - (n-t+1) lam_t) / ((r2-r1) w1)

    and the r2 analogue with the roles of r1 and r2 exchanged.
    """

    __slots__ = ("applicable", "t", "weighted_lambda", "shells")

    def __init__(self, applicable: bool, t: int, weighted_lambda: tuple | None,
                 shells: tuple | None):
        self._set(applicable, t, weighted_lambda, shells)


def _shell_lambdas(design: Design, t: int):
    """(lam_0, ..., lam_{t-1}) of a shell that is a (t-1)-design, else None.

    An r-block holds no (t-1)-subset when r < t-1, so such a shell is checked
    at strength r (strength 0 always holds) and padded with zeros.
    """
    from .designs import is_t_design

    j = min(t - 1, design.uniform_size())
    ok, lams = is_t_design(design, j) if j >= 1 else (True, [design.num_blocks])
    return lams + [0] * (t - len(lams)) if ok else None


def kageyama_constituents(cand: "RelativeCandidate", t: int) -> KageyamaReport:
    if t < 2:
        raise ValueError("t must be >= 2")
    ok, lams = is_regular_twise_balanced(union_design(cand), weight_by_size(cand), t)
    if not ok:
        return KageyamaReport(False, t, None, None)
    lam_tm1, lam_t = lams[t - 2], lams[t - 1]
    n = cand.n
    reports = []
    for (r, design, w), r_other in (
        ((cand.r1, cand.design1, cand.w1), cand.r2),
        ((cand.r2, cand.design2, cand.w2), cand.r1),
    ):
        formula = ((r_other - t + 1) * lam_tm1 - (n - t + 1) * lam_t) / (
            (r_other - r) * w
        )
        observed = _shell_lambdas(design, t)
        ok_d = observed is not None
        matches = ok_d and Fraction(observed[t - 1]) == formula
        reports.append(
            ShellReport(r, ok_d, tuple(observed) if ok_d else None, formula, matches)
        )
    return KageyamaReport(True, t, (lam_tm1, lam_t), tuple(reports))


def check_via_thm34(cand: "RelativeCandidate", t: int):
    """Balance-sum criterion: both shells must be (t-1)-designs and every
    t-subset T must satisfy

        w1*lam_t^(1)(T) + w2*lam_t^(2)(T)
            = sum_nu N_nu w_nu prod_{j=0}^{t-1} (r_nu - j)/(n - j).

    Returns (True, None) or (False, first failing t-subset); the shell
    precondition failing returns (False, None).  A shell with r < t-1 is a
    (t-1)-design only as a multiple of its complete shell: balance at r.
    The criterion is the relative t-design condition for every n; it equals
    the moment identities that relative_design_oracle scans only when n is
    not 2m for any m <= t, which is why on n = 2m the oracle checks the
    weighted balance at sizes m..t instead.
    """
    if not 1 <= t <= cand.n:
        raise ValueError("need 1 <= t <= n")
    if any(_shell_lambdas(design, t) is None for _, design, _ in cand.shells()):
        return False, None
    # the right side is the double-counting share of a t-subset:
    # prod_{j<t} (r-j)/(n-j) = C(r,t)/C(n,t)
    cols = _columns(cand.design1.blocks + cand.design2.blocks, cand.n)
    shells = _integer_weights([(r, d.blocks, w) for r, d, w in cand.shells()])
    witness = _first_unbalanced(cand.n, cols, shells, t)
    return witness is None, witness


# ---------------------------------------------------------------------------
# intersection-count closed forms
#
# p(ell; S) below always means the number of blocks B with B cap S = E for
# one FIXED ell-subset E of S; the count does not depend on which E is
# chosen.  The number of blocks meeting S in *some* ell-subset is C(s,ell)
# times this value.


def p_ell_formula(n: int, r: int, N: int, s: int, ell: int) -> Fraction:
    """Fixed-subset intersection count for an s-subset, s within the balance
    range: p = C(n-s, r-ell) / C(n,r) * N."""
    if not 0 <= ell <= s <= n or not 0 <= r <= n:
        raise ValueError("need 0 <= ell <= s <= n and 0 <= r <= n")
    return Fraction(math.comb(n - s, r - ell) * N, math.comb(n, r))


def p_ell_t_formula(
    n: int, r: int, N: int, t: int, ell: int, lambda_t_value
) -> Fraction:
    """Fixed-subset intersection count at subset size t, where the answer
    depends on the t-subset only through its coverage count:

    p = N/C(n,r) * (C(n-t,r-ell) - (-1)^{t-ell} C(n-t,r-t))
        + (-1)^{t-ell} lam_t(T).
    """
    if not 0 <= ell <= t - 1:
        raise ValueError("need 0 <= ell <= t-1")
    if not 1 <= t <= n or not 0 <= r <= n:
        raise ValueError("need 1 <= t <= n and 0 <= r <= n")
    sign = (-1) ** (t - ell)
    core = math.comb(n - t, r - ell) - sign * math.comb(n - t, r - t)
    return Fraction(N * core, math.comb(n, r)) + sign * Fraction(lambda_t_value)


def complement_lambda_t(n: int, r: int, N: int, t: int, lambda_t_value) -> Fraction:
    """Coverage count of the complemented blocks at the same t-subset:

    lam_t^c(T) = (-1)^t lam_t(T)
                 + N/C(n,r) * (C(n-t,r) - (-1)^t C(n-t,n-r)).
    """
    if not 1 <= t <= n or not 0 <= r <= n:
        raise ValueError("need 1 <= t <= n and 0 <= r <= n")
    sign = (-1) ** t
    core = math.comb(n - t, r) - sign * math.comb(n - t, n - r)
    return sign * Fraction(lambda_t_value) + Fraction(N * core, math.comb(n, r))


# ---------------------------------------------------------------------------
# tightness


def is_tight(cand: "RelativeCandidate", t: int) -> bool:
    """Total size meets the bound and the candidate is a relative t-design."""
    if cand.total_size != tight_size(t, cand.n):
        return False
    ok, _ = check_via_thm34(cand, t)
    return ok


def complementary_pair(design: Design) -> "RelativeCandidate":
    """The design and its complement as a two-shell candidate, unit weights.

    Block size r must differ from n-r; shells come out ordered by size.
    """
    from .constructions import complement
    from .hamming import RelativeCandidate

    r = design.uniform_size()
    if 2 * r == design.n:
        raise ValueError("complement lies on the same shell (r = n/2)")
    return RelativeCandidate.from_designs(design, complement(design))


def prop44_check(cand: "RelativeCandidate"):
    """Outside-triple coverage condition for complementary-shell candidates.

    Requires r1 + r2 = n, equal weights, and a tight relative 3-design;
    otherwise returns ("not-applicable", reason).  When applicable, checks
    that for every block B of the larger shell, every 3-subset of the r1
    points outside B is covered at least once by the smaller shell.
    Returns ("holds", None) or ("fails", (block_points, triple)).
    """
    if cand.r1 + cand.r2 != cand.n:
        return "not-applicable", "shells are not complementary (r1 + r2 != n)"
    if cand.w1 != cand.w2:
        return "not-applicable", "shell weights differ"
    if cand.total_size != tight_size(3, cand.n):
        return "not-applicable", "total size is not the tight bound 2n"
    ok, _ = check_via_thm34(cand, 3)
    if not ok:
        return "not-applicable", "not a relative 3-design"
    full, blocks = (1 << cand.n) - 1, cand.design2.blocks
    found = _first_uncovered(cand.n, cand.design1.blocks, [full ^ b for b in blocks], 3)
    if found is None:
        return "holds", None
    i, triple = found
    return "fails", (bits_of(blocks[i]), triple)


def _first_uncovered(n: int, blocks, sets, j: int):
    """(i, s) for the first of `sets` that holds a j-subset s inside no
    block, with s its lex-first such subset; None when there is none.  The
    walks of all sets share one work budget."""
    cols, full, left = _columns(blocks, n), (1 << len(blocks)) - 1, [_design._BUDGET]
    for i, s in enumerate(sets):
        if (u := _first_failing(cols, bits_of(s), j, full, bool, left)) is not None:
            return i, u
    return None
