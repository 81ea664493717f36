"""Eigenvalue arithmetic for the binary Hamming scheme H(n,2) and the
moment-identity oracle for weighted designs supported on two shells.

The base point is the all-zeros word, so shell X_r is the set of weight-r
words and a block B (a subset of coordinates) stands for its indicator
word.  The oracle checks, for every coordinate subset S with 1 <= |S| <= t,
that the weighted sum over the chosen blocks of

    Q1(r-1)^{|B cap S|} * Q1(r+1)^{|S|-|B cap S|}

matches the same product summed over the *entire* shell, scaled by
w * N / C(n,r).  Q1 is the degree-1 Krawtchouk polynomial; the distance
from a weight-1 word e_i to a weight-r word x is r-1 or r+1 according to
whether coordinate i lies in the support of x, which is what makes the
per-block product a function of |B cap S| alone.

With b = Q1(r+1) = n-2r-2 and c = |B cap S|, the product is (b+4)^c b^{s-c}
= sum_m 4^m b^{s-m} C(c,m), so the identity at S, |S| = s, reads
sum_{T <= S} 4^{|T|} sum_k w_k b_k^{s-|T|} delta_k(T) = 0, where delta_k(T)
counts the shell-k blocks holding T less their average N_k C(r_k,|T|)/C(n,|T|).
Summed over the m-supersets of an (m-1)-set U, they leave 2(r1-r2)(n-2m)
w_2 delta_2(U) = 0 once delta vanishes below m-1 (the two-shell theorem).
So after levels 1..s-1 both shells are (s-2)-designs: the terms m <= s-2
equal their average at every S and drop out, leaving the blocks that miss
at most one point of S.  Where both shells are (s-1)-designs only m = s is
left: the weighted balance of the union at S.  For n = 2m the theorem stops
at m, and the identities at sizes s >= m need not imply a relative t-design;
there the oracle checks that balance at every size from m on instead.
The scan is bit-sliced over blocks (_design._columns) and runs on the
subset walk of _design; the oracle gets the blocks missing at most one
point of each prefix from the prefix's points, and weighs the popcounts
with exact integers, over the last point of each prefix.

The first size at which the identity fails is the first at which the
weighted coverage X(S) = sum_k W_k lambda_k(S), with integer shell weights
W, takes more than one value over the s-subsets S.  For an (s-1)-set U,
summing delta_k(U+x) over the points x outside U gives (r_k-s+1)
delta_k(U), so balance at s-1 and s gives W_1 delta_1(U) + W_2 delta_2(U)
= 0 and the same with the factors r_k-s+1; as r1 != r2 both vanish.  So
balance at 1..s makes both shells (s-1)-designs, where the identity at S
is its weighted balance; the theorem above gives the converse below half,
and from half on the oracle checks balance itself.  So the oracle takes
its verdict, the first unbalanced size, from _design._unbalanced_size,
which alone chooses the route that answers it (the subset walk, or one
count of the block pairs), and walks the identity only at that size, to
name the witness.
"""

import math
import re
from fractions import Fraction

from ._base import FormatError, _Record
from ._design import Design, _INT, _ascii_int, _columns, _integer_weights, _parse_size_line
from ._design import _read_lines, _unbalanced_size, _walk, bits_of, parse_block_line

__all__ = [
    "RelativeCandidate",
    "relative_design_oracle",
    "load_candidate",
    "save_candidate",
]


class RelativeCandidate(_Record):
    """Two weighted shells of H(n,2).

    design1/design2 have uniform block sizes r1 < r2 on the same n points;
    w1/w2 are the positive per-shell weights.  Construction through
    from_designs enforces the nontrivial window 2 <= r1 < r2 <= n-2 unless
    allow_trivial is set; calling the constructor directly skips only that
    window check.
    """

    __slots__ = ("n", "r1", "r2", "design1", "design2", "w1", "w2")

    def __init__(self, n: int, r1: int, r2: int, design1: Design, design2: Design,
                 w1: Fraction, w2: Fraction):
        self._set(n, r1, r2, design1, design2, Fraction(w1), Fraction(w2))
        if self.design1.n != self.n or self.design2.n != self.n:
            raise ValueError("both shell designs must live on the same n points")
        if self.design1.num_blocks == 0 or self.design2.num_blocks == 0:
            raise ValueError("each shell needs at least one block")
        if self.design1.uniform_size() != self.r1 or self.design2.uniform_size() != self.r2:
            raise ValueError("declared shell ranks do not match the block sizes")
        if not self.r1 < self.r2:
            raise ValueError("shell ranks must satisfy r1 < r2")
        if self.w1 <= 0 or self.w2 <= 0:
            raise ValueError("shell weights must be positive")

    @classmethod
    def from_designs(cls, d_a: Design, d_b: Design, w_a=1, w_b=1, allow_trivial=False):
        """Build a candidate from two uniform designs, ordering shells by size."""
        if d_a.n != d_b.n:
            raise ValueError("designs live on different point counts")
        ra, rb = d_a.uniform_size(), d_b.uniform_size()
        if ra == rb:
            raise ValueError("the two shells must have different ranks")
        if ra > rb:
            d_a, d_b, w_a, w_b, ra, rb = d_b, d_a, w_b, w_a, rb, ra
        if not allow_trivial and not (2 <= ra and rb <= d_a.n - 2):
            raise ValueError(
                f"shells ({ra},{rb}) leave the window 2 <= r1 < r2 <= n-2; "
                "pass allow_trivial to accept"
            )
        return cls(d_a.n, ra, rb, d_a, d_b, w_a, w_b)

    @property
    def total_size(self) -> int:
        return self.design1.num_blocks + self.design2.num_blocks

    def shells(self):
        return (
            (self.r1, self.design1, self.w1),
            (self.r2, self.design2, self.w2),
        )


# ---------------------------------------------------------------------------
# file format
#
# RELDESIGN v1 (UTF-8 text):
#   line 1: RELDESIGN v1
#   line 2: n=<int> t=<int>
#   then two shell sections in increasing r order, each
#     shell r=<int> w=<p>/<q>
#   followed by that shell's block lines (one strictly increasing index
#   list per line).

# a weight is an ASCII integer or p/q: Fraction() would also take decimals
# and exponents, and w=1e1000000 would build a million-digit integer
_WEIGHT = re.compile(rf"{_INT}(/[0-9]+)?")


def load_candidate(path, allow_trivial: bool = False):
    """Parse a RELDESIGN v1 file; returns (RelativeCandidate, t)."""
    lines = _read_lines(path, "RELDESIGN v1")
    n, t = _parse_size_line(lines[1], ("n", "t"), path)
    if t < 1:
        raise FormatError(f"{path}: t must be >= 1")

    shells = []  # (r, weight, [block masks])
    current = None
    for line in lines[2:]:
        if not line.strip():
            raise FormatError(f"{path}: blank line inside the body")
        if line.startswith("shell "):
            parts = line.split()
            if len(parts) != 3 or not parts[1].startswith("r=") or not parts[2].startswith("w="):
                raise FormatError(f"{path}: malformed shell line {line!r}")
            try:
                r = _ascii_int(parts[1][2:])
                if not _WEIGHT.fullmatch(parts[2][2:]):
                    raise ValueError
                w = Fraction(parts[2][2:])
            except (ValueError, ZeroDivisionError):
                raise FormatError(f"{path}: bad shell parameters in {line!r}") from None
            current = (r, w, [])
            shells.append(current)
        else:
            if current is None:
                raise FormatError(f"{path}: block line before any shell line")
            current[2].append(parse_block_line(line, n, path))
    if len(shells) != 2:
        raise FormatError(f"{path}: expected exactly 2 shell sections, found {len(shells)}")
    (ra, wa, blocks_a), (rb, wb, blocks_b) = shells
    try:
        cand = RelativeCandidate(n, ra, rb, Design(n, blocks_a), Design(n, blocks_b), wa, wb)
    except ValueError as exc:  # shell order, empty shells, block sizes, weights
        raise FormatError(f"{path}: {exc}") from None
    # the constructor leaves the window to from_designs: pickling rebuilds
    # trivial candidates through it
    if not allow_trivial and not (2 <= ra and rb <= n - 2):
        raise FormatError(
            f"{path}: shells ({ra},{rb}) leave the window 2 <= r1 < r2 <= n-2 "
            "(use the trivial-shell override to accept)"
        )
    return cand, t


def save_candidate(cand: RelativeCandidate, t: int, path) -> None:
    if cand.r1 == 0:
        raise ValueError("a RELDESIGN v1 file has no line for the empty block")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("RELDESIGN v1\n")
        fh.write(f"n={cand.n} t={t}\n")
        for r, design, w in cand.shells():
            fh.write(f"shell r={r} w={w.numerator}/{w.denominator}\n")
            for b in design.blocks:
                fh.write(" ".join(str(i) for i in bits_of(b)) + "\n")


# ---------------------------------------------------------------------------
# the oracle


def relative_design_oracle(cand: RelativeCandidate, t: int):
    """Check the two-shell moment identity for every subset size s = 1..t.

    Returns (True, None), or (False, (s, subset)) with the lex-first failing
    subset of the smallest failing size; an s-subset costs 4 ANDs and
    popcounts.  For n = 2m the check at sizes s >= m is the weighted balance
    of the union (a failing subset is one whose blocks' weight is off the
    average), which the identities at those sizes need not imply.  The
    smallest failing size is the first at which the union's weighted
    coverage is not constant, which `_design` decides; the walk over that
    size alone names the witness, and raises ValueError past its work
    budget (_design._BUDGET).
    """
    n = cand.n
    if not 1 <= t <= n:
        raise ValueError("need 1 <= t <= n")
    shells = _integer_weights([(r, d.blocks, w) for r, d, w in cand.shells()])
    s = _unbalanced_size(n, shells, 1, t)
    if s is None:
        return True, None
    half = n // 2 if n % 2 == 0 and n >= 4 else n + 1  # n = 2m: the theorem stops at m
    # the terms m <= u drop out: below half both shells are (s-2)-designs by
    # now, and from half on u = s-1 leaves the weighted balance alone
    u = s - 1 if s >= half else max(s - 2, 0)
    target, steps = Fraction(0), []
    for r, blocks, w in shells:
        terms = [(m, 4**m * (n - 2 * r - 2) ** (s - m)) for m in range(u + 1, s + 1)]
        target += w * len(blocks) * sum(x * math.comb(s, m) * Fraction(
            math.comb(r, m), math.comb(n, m)) for m, x in terms)
        # e[v] = phi(s-v) - phi(s-v-1), phi(c) = sum_m x_m C(c,m) the weight of a
        # block meeting S in c points, so a shell's sum at S is e0 |M_0| + e1 |M_1|
        # with M_v its blocks missing <= v points of S (e1 = 0 when u = s-1)
        e = [w * sum(x * math.comb(s - v - 1, m - 1) for m, x in terms)
             for v in range(s - u)] + [0]
        steps.append((e[0] - e[1], e[1]))
    # block sums are integers, so a fractional target fails the first subset
    target = target.numerator if target.denominator == 1 else target
    (x0, x1), (y0, y1) = steps
    full, low = (1 << cand.total_size) - 1, (1 << cand.design1.num_blocks) - 1  # low: shell 1
    high, cols = full ^ low, _columns(cand.design1.blocks + cand.design2.blocks, n)
    for prefix, m0, later in _walk(cols, range(n), s, full, False):
        # M_1 of the prefix, its blocks missing at most one of its points:
        # point p turns M_1, M_0 into M_1 & c_p | M_0, M_0 & c_p
        m1 = z = full
        for p in prefix:
            m1, z = m1 & cols[p] | z, z & cols[p]
        # S = prefix + (i,): |M_1(S)| = |M_1 & c_i| + |M_0| - |M_0 & c_i|
        a0, a1, b0, b1 = m0 & low, m1 & low, m0 & high, m1 & high
        rest = target - x1 * a0.bit_count() - y1 * b0.bit_count()
        for i in later:
            c = cols[i]
            if (x0 * (a0 & c).bit_count() + x1 * (a1 & c).bit_count()
                    + y0 * (b0 & c).bit_count() + y1 * (b1 & c).bit_count() != rest):
                return False, (s, (*prefix, i))
    raise RuntimeError(f"the union is unbalanced at size {s}, but no {s}-subset fails")
