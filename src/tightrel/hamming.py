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

The oracle is bit-sliced over blocks: each point is one Python int whose
bit k says whether block k contains it, so N blocks take n*N bits.  A
depth-first walk over the subsets ANDs these columns, counts blocks with
int.bit_count, and weighs the counts with exact Python integers, so weights
of any size share one scan.  The columns come from designs._columns, which
the coverage walk uses too.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import and_, mul

from .designs import Design, FormatError, _INT, _Record, _ascii_int, _columns, _parse_size_line
from .designs import _read_lines, parse_block_line

__all__ = [
    "RelativeCandidate",
    "krawtchouk",
    "shell_moment",
    "relative_design_oracle",
    "load_candidate",
    "save_candidate",
]


def krawtchouk(n: int, k: int, x: int) -> int:
    """Q_k(x) on H(n,2), as an exact integer.

    Q_k(x) = sum_j (-1)^j C(x,j) C(n-x,k-j).
    """
    if not 0 <= k <= n or not 0 <= x <= n:
        raise ValueError("need 0 <= k <= n and 0 <= x <= n")
    return sum(
        (-1) ** j * math.comb(x, j) * math.comb(n - x, k - j)
        for j in range(0, k + 1)
    )


def shell_moment(n: int, s: int, r: int) -> int:
    """Sum over the whole shell X_r of the degree-1 product for s coordinates.

    Equals sum_{l=0}^{s} C(s,l) C(n-s,r-l) Q1(r-1)^l Q1(r+1)^{s-l}; the value
    does not depend on which s distinct coordinates are chosen.
    """
    if not 1 <= s <= n:
        raise ValueError("need 1 <= s <= n")
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    a = n - 2 * (r - 1)  # Q1(r-1)
    b = n - 2 * (r + 1)  # Q1(r+1)
    total = 0
    for l in range(0, s + 1):
        if r - l < 0:
            break
        total += math.comb(s, l) * math.comb(n - s, r - l) * a**l * b ** (s - l)
    return total


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
        return cls(d_a.n, ra, rb, d_a, d_b, Fraction(w_a), Fraction(w_b))

    @property
    def total_size(self) -> int:
        return self.design1.num_blocks + self.design2.num_blocks

    def shells(self):
        return (
            (self.r1, self.design1, self.w1),
            (self.r2, self.design2, self.w2),
        )

    def union_design(self) -> Design:
        """Both shells merged into one mixed-size design."""
        return Design(self.n, self.design1.blocks + self.design2.blocks)

    def weight_by_size(self) -> dict[int, Fraction]:
        return {self.r1: self.w1, self.r2: self.w2}


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
    from .designs import bits_of

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

    Returns (True, None), or (False, (s, subset)) with the lexicographically
    smallest failing coordinate subset.  Subset sizes are scanned in
    ascending order and subsets in lexicographic order, so the witness is
    deterministic.  The sums are exact integers for weights of any size.
    The scan holds n*N bits for N blocks, and an s-subset costs 2(s-1)
    ANDs and popcounts of block columns.
    """
    n = cand.n
    if not 1 <= t <= n:
        raise ValueError("need 1 <= t <= n")
    scale = math.lcm(cand.w1.denominator, cand.w2.denominator)
    full = (1 << cand.total_size) - 1
    low = (1 << cand.design1.num_blocks) - 1  # the blocks of shell 1
    # each point's column, split into its shell-1 and its shell-2 blocks
    split = [(c & low, c & ~low) for c in _columns(cand.design1.blocks + cand.design2.blocks, n)]

    for s in range(1, t + 1):
        lhs = Fraction(0)
        for r, d, w in cand.shells():
            lhs += w * d.num_blocks * Fraction(shell_moment(n, s, r), math.comb(n, r))
        lhs_scaled = lhs * scale
        if lhs_scaled.denominator != 1:
            # block sums are integers after scaling, so nothing can match
            return False, (s, tuple(range(s)))

        # f[c]: scaled weight of one block meeting S in c points.  With A_v
        # the blocks of a shell meeting a prefix P in at least v points, the
        # shell's sum at P is f[0] N + sum_{v>=1} df[v] |A_v|, where
        # df[v] = f[v] - f[v-1], and a point i joining P adds to it
        # df[1] |c_i| + sum_{v>=1} (df[v+1] - df[v]) |A_v & c_i|.
        target = lhs_scaled.numerator
        dfs = []
        for r, d, w in cand.shells():
            a, b = n - 2 * (r - 1), n - 2 * (r + 1)
            f = [int(w * scale) * a**c * b ** (s - c) for c in range(s + 1)]
            target -= f[0] * d.num_blocks
            dfs.append([f[v] - f[v - 1] for v in range(1, s + 1)])
        df1, df2 = dfs
        hs = [df[v] - df[v - 1] for df in dfs for v in range(1, s)]
        lead = [df1[0] * lo.bit_count() + df2[0] * hi.bit_count() for lo, hi in split]
        row = [[lo] * (s - 1) + [hi] * (s - 1) for lo, hi in split]

        def walk(prefix, masks, start):
            """The first failing s-subset that extends prefix by points from
            start on, or None; masks holds A_1..A_len(prefix) of both shells."""
            if len(prefix) < s - 1:
                for j in range(start, n + len(prefix) + 1 - s):
                    # A'_v = A_v | (A_{v-1} & c_j), with A_0 every block
                    c = split[j][0] | split[j][1]
                    moved = [m | (lo & c) for lo, m in zip([full, *masks], [*masks, 0])]
                    found = walk(prefix + (j,), moved, j + 1)
                    if found:
                        return found
                return None
            rest = target - sum(x * (m & low).bit_count() + y * (m & ~low).bit_count()
                                for x, y, m in zip(df1, df2, masks))
            both = masks * 2  # ANDed with shell 1's part of c_i, then shell 2's
            for i in range(start, n):
                if lead[i] + sum(map(mul, hs, map(int.bit_count, map(and_, both, row[i])))) != rest:
                    return s, prefix + (i,)
            return None

        found = walk((), [], 0)
        if found:
            return False, found
    return True, None
