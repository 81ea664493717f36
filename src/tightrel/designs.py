"""Block designs on points 0..n-1: counting, verification, transforms,
and two classical constructions (quadratic-residue translates, the
4-(23,7,1) design from the length-23 residue code).

Blocks are stored as int bitsets, so membership tests and complements are
single integer operations.  All counting is exact, with the standard
library only.  Every coverage question goes through one walk over bit-sliced
block columns (point i is an int whose bit k says whether block k holds
it): it visits, in lex order, the subsets that some block contains, and
ANDs their points' columns to get the blocks that contain them.
"""

from __future__ import annotations

import math
import re
from functools import reduce
from itertools import combinations, groupby
from operator import and_

# the shared pieces live in the leaf module; the library also imports them from here
from ._base import DesignParams, FormatError, _Record  # noqa: F401

MAX_POINTS = 128  # blocks fit in two machine words
# Bound on the coverage walk's work for one block size r: the C(r, j)
# j-subsets of all blocks of that size, and the j positions of each j-subset
# of an r-set.  Past it the walk raises ValueError before it starts.
MAX_RANKS = 1 << 24


def bits_of(mask: int) -> tuple[int, ...]:
    """Positions of set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


# the canonical block order: lex on ascending point indices.  A block's bits
# read from bit 0 up, with 1 and 0 swapped, sort in that order as strings
_SWAP01 = str.maketrans("01", "10")


def _block_key(b: int) -> str:
    return bin(b)[:1:-1].translate(_SWAP01) if b else ""


class Design(_Record):
    """Multiset of blocks on the point set {0,...,n-1}.

    The block list is kept in a canonical order (lexicographic on the
    ascending index sequence of each block), so two Designs are equal
    exactly when their block lists are equal.  Duplicate blocks are
    permitted and preserved.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple[int, ...]):
        if not 1 <= n <= MAX_POINTS:
            raise ValueError(f"point count must be in 1..{MAX_POINTS}, got {n}")
        blocks = tuple(sorted((int(b) for b in blocks), key=_block_key))
        for b in blocks:
            if b < 0 or b >> n:
                raise ValueError("block contains a point index outside 0..n-1")
        self._set(n, blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> set[int]:
        return {b.bit_count() for b in self.blocks}

    def uniform_size(self) -> int:
        """The common block size; raises when sizes are mixed or no blocks exist."""
        sizes = self.block_sizes()
        if len(sizes) != 1:
            raise ValueError("design does not have a single uniform block size")
        return next(iter(sizes))


# ---------------------------------------------------------------------------
# file format
#
# DESIGN v1 (UTF-8 text):
#   line 1: DESIGN v1
#   line 2: n=<int> b=<int>
#   then exactly b lines, each a strictly increasing space-separated
#   list of 0-based point indices.


# an integer in a file is ASCII digits with an optional minus sign: int()
# would also take other scripts' digits, underscores and a plus sign
_INT = "-?[0-9]+"
_is_int = re.compile(_INT).fullmatch
# a whole block line: such integers between runs of whitespace, where \s is
# exactly what str.split splits on, so one match checks every token
_is_int_line = re.compile(rf"\s*{_INT}(?:\s+{_INT})*\s*").fullmatch


def _ascii_int(text: str) -> int:
    """The integer spelled by `text`; ValueError unless it matches _INT."""
    if not _is_int(text):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def load_design(path) -> Design:
    lines = _read_lines(path, "DESIGN v1")
    n, b = _parse_size_line(lines[1], ("n", "b"), path)
    body = lines[2:]
    if len(body) != b:
        raise FormatError(f"{path}: declared b={b} but found {len(body)} block lines")
    blocks = [parse_block_line(line, n, path) for line in body]
    return Design(n, tuple(blocks))


def _read_lines(path, header: str) -> list:
    """Lines of a UTF-8 file that opens with header and a size line,
    trailing blank lines dropped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or lines[0].strip() != header:
        raise FormatError(f"{path}: missing '{header}' header")
    if len(lines) < 2:
        raise FormatError(f"{path}: missing size line")
    return lines


def _parse_size_line(line: str, keys: tuple[str, str], path) -> tuple[int, int]:
    """The two integers of a '<key>=<int> <key>=<int>' line; the first is
    the point count, which must lie in 1..MAX_POINTS."""
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"{path}: malformed size line {line!r}")
    vals = []
    for part, key in zip(parts, keys):
        if not part.startswith(key + "="):
            raise FormatError(f"{path}: expected '{key}=<int>' in {line!r}")
        try:
            vals.append(_ascii_int(part[len(key) + 1 :]))
        except ValueError:
            raise FormatError(f"{path}: bad integer in {line!r}") from None
    if not 1 <= vals[0] <= MAX_POINTS:
        raise FormatError(f"{path}: point count must be in 1..{MAX_POINTS}, got {vals[0]}")
    return vals[0], vals[1]


def parse_block_line(line: str, n: int, path="<string>") -> int:
    if not _is_int_line(line):
        if line.strip():
            raise FormatError(f"{path}: non-integer token in block line {line!r}")
        raise FormatError(f"{path}: empty block line")
    idx = list(map(int, line.split()))
    for a, b in zip(idx, idx[1:]):
        if b <= a:
            raise FormatError(f"{path}: indices not strictly increasing in {line!r}")
    if idx[0] < 0 or idx[-1] >= n:
        raise FormatError(f"{path}: point index out of range in {line!r}")
    return mask_of(idx)


def design_text(design: Design) -> str:
    if 0 in design.blocks:
        raise ValueError("a DESIGN v1 file has no line for the empty block")
    lines = ["DESIGN v1", f"n={design.n} b={design.num_blocks}"]
    lines.extend(" ".join(str(i) for i in bits_of(b)) for b in design.blocks)
    return "\n".join(lines) + "\n"


def save_design(design: Design, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(design_text(design))


# ---------------------------------------------------------------------------
# counting and verification


def lambda_count(design: Design, subset) -> int:
    """Number of blocks containing every point of `subset`, with multiplicity.

    `subset` is an iterable of point indices, or an int bitmask.
    """
    m = subset if isinstance(subset, int) else mask_of(subset)
    if m < 0 or m >> design.n:
        raise ValueError("subset contains a point index outside 0..n-1")
    return sum(1 for b in design.blocks if b & m == m)


def _columns(blocks, n: int) -> list[int]:
    """Entry i has bit k set when block k contains point i."""
    if not blocks:
        return [0] * n
    # one n-digit row per block, last block first: the stride-n slice at
    # point i's digit is then a binary numeral with block 0 lowest
    rows = "".join(format(b, f"0{n}b") for b in reversed(blocks))
    return [int(rows[n - 1 - i :: n], 2) for i in range(n)]


def _check_work(blocks, j: int) -> None:
    """Refuse more than MAX_RANKS j-subsets of the blocks of one size r, or
    j-subset positions of an r-set."""
    for r, group in groupby(sorted(map(int.bit_count, blocks))):
        count, per_block = len(list(group)), math.comb(r, j)
        if per_block * max(count, j) > MAX_RANKS:
            raise ValueError(
                f"counting {j}-subsets of {count} block(s) of size {r} "
                f"({per_block:,} per block) exceeds the coverage kernel's limit of "
                f"{MAX_RANKS:,} ranks or positions"
            )


def _covered(cols, points, j: int, mask: int):
    """Each j-subset of `points` (ascending) inside some block of `mask`, in
    lex order, with the mask of the blocks that contain it.  A prefix keeps
    the blocks that contain it and have enough points after it to reach
    size j, and as candidates the later points of those blocks; when every
    candidate lies in every such block, its extensions are combinations."""
    if j == 0:
        if mask:
            yield (), mask
        return
    # after[p][c]: the blocks of mask with at least c of the points after p
    after, at_least = {}, [mask] + [0] * j
    for p in reversed(points):
        after[p] = at_least
        at_least = [mask] + [a | (b & cols[p]) for a, b in zip(at_least[1:], at_least)]
    mask = at_least[j]
    prefix, stack = [], []  # one (mask, cand, k) on the stack per prefix point
    cand, k, fresh = [p for p in points if cols[p] & mask], 0, True
    while True:
        need = j - len(prefix)
        if fresh and reduce(and_, map(cols.__getitem__, cand), mask) == mask:
            for rest in combinations(cand, need):
                yield (*prefix, *rest), mask
            k = len(cand)
        elif len(cand) - k == need:  # the one extension takes every candidate
            if m := reduce(and_, map(cols.__getitem__, cand[k:]), mask):
                yield (*prefix, *cand[k:]), m
            k = len(cand)
        while k <= len(cand) - need:
            p = cand[k]
            k += 1
            if not (m := mask & cols[p] & after[p][need - 1]):
                continue
            if need == 1:
                yield (*prefix, p), m
            elif need == 2:  # the last point needs no candidate list
                for q in cand[k:]:
                    if mq := m & cols[q]:
                        yield (*prefix, p, q), mq
            else:
                stack.append((mask, cand, k))
                prefix.append(p)
                mask, fresh = m, m != mask
                if fresh:
                    cand, k = [q for q in cand[k:] if cols[q] & m], 0
                break
        else:
            if not stack:
                return
            mask, cand, k = stack.pop()
            prefix.pop()
            fresh = False


def _first_failing(cols, points, j: int, mask: int, holds):
    """The lex-first j-subset of `points` (ascending) whose mask m of
    containing blocks fails holds(m), or None; an uncovered one has m = 0."""
    every = None if holds(0) else combinations(points, j)
    for s, m in _covered(cols, points, j, mask):
        # covered subsets come in the order of combinations(points, j), so
        # the first step where they differ is the first uncovered subset
        if every is not None and (u := next(every)) != s:
            return u
        if not holds(m):
            return s
    return None if every is None else next(every, None)


def _coverage(n: int, blocks, j: int):
    """The j-subsets of range(n) inside some block, in lex order, and how
    many blocks (with multiplicity) contain each."""
    _check_work(blocks, j)
    covered = list(_covered(_columns(blocks, n), range(n), j, (1 << len(blocks)) - 1))
    return [s for s, _ in covered], [m.bit_count() for _, m in covered]


def _first_off_target(n: int, blocks, j: int, weight, target):
    """The lex-first j-subset of range(n) whose coverage sum, each block
    counted weight[its size] times, is not `target` (a j-subset in no block
    sums to 0); None when there is none."""
    _check_work(blocks, j)
    sizes = [b.bit_count() for b in blocks]
    # the mask of each size class of blocks, with the weight of its size
    weighted = [(mask_of(k for k, s in enumerate(sizes) if s == r), weight[r]) for r in set(sizes)]

    def holds(m):
        total = 0
        for c, w in weighted:
            total += w * (m & c).bit_count()
        return total == target

    return _first_failing(_columns(blocks, n), range(n), j, (1 << len(blocks)) - 1, holds)


def _first_uncovered(n: int, blocks, sets, j: int):
    """(i, s) for the first of `sets` that holds a j-subset s inside no
    block, with s its lex-first such subset; None when there is none."""
    _check_work(blocks, j)
    _check_work(sets, j)
    cols, full = _columns(blocks, n), (1 << len(blocks)) - 1
    found = ((i, _first_failing(cols, bits_of(s), j, full, bool)) for i, s in enumerate(sets))
    return next(((i, s) for i, s in found if s is not None), None)


def coverage_map(design: Design, j: int) -> dict[tuple[int, ...], int]:
    """Coverage count of every j-subset that lies in at least one block.

    Keys are ascending index tuples, in lexicographic order; subsets covered
    by no block are absent.  The walk visits only prefixes that some block
    contains, so it never scans all C(n,j) subsets against the block list.
    """
    return dict(zip(*_coverage(design.n, design.blocks, j)))


def is_t_design(design: Design, t: int):
    """Whether every j-subset (j=1..t) lies in a constant number of blocks.

    Returns (True, [lam_0, ..., lam_t]) with lam_0 the block count, or
    (False, None).  Blocks must all have one size r >= t.  Only level t is
    counted: with uniform blocks a t-design is a j-design for every j < t,
    with lam_j = lam_t C(n-j,t-j) / C(r-j,t-j).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if design.num_blocks == 0:
        return True, [0] * (t + 1)
    r = design.uniform_size()
    if t > r:
        raise ValueError("t exceeds the block size")
    n = design.n
    # double counting fixes lam_t; a remainder also rejects at once a design
    # with too few blocks to cover every t-subset
    lam_t, rest = divmod(design.num_blocks * math.comb(r, t), math.comb(n, t))
    if rest or _first_off_target(n, design.blocks, t, {r: 1}, lam_t) is not None:
        return False, None
    return True, [
        lam_t * math.comb(n - j, t - j) // math.comb(r - j, t - j) for j in range(t + 1)
    ]


def is_regular_twise_balanced(design: Design, weights, t: int):
    """Weighted balance check for a design with possibly mixed block sizes.

    `weights` maps block size to a positive weight.  True iff the weighted
    coverage sum of every j-subset is constant for each j = 1..t; the
    balanced case returns [lam_1, ..., lam_t] as exact Fractions.
    """
    from fractions import Fraction  # here, so that verify does not import it

    if t < 1:
        raise ValueError("t must be >= 1")
    sizes = design.block_sizes()
    wmap = {}
    for s in sizes:
        if s not in weights:
            raise ValueError(f"no weight given for block size {s}")
        w = Fraction(weights[s])
        if w <= 0:
            raise ValueError("weights must be positive")
        wmap[s] = w
    # scale to integers so the inner loop stays in int arithmetic
    scale = math.lcm(*(w.denominator for w in wmap.values())) if wmap else 1
    iw = {s: int(w * scale) for s, w in wmap.items()}
    lams = []
    # with mixed block sizes, balance at level j does not imply balance below
    # it, so every level is counted against its double-counting value
    for j in range(1, t + 1):
        total = sum(iw[b.bit_count()] * math.comb(b.bit_count(), j) for b in design.blocks)
        lam, rest = divmod(total, math.comb(design.n, j) or 1)
        if rest or _first_off_target(design.n, design.blocks, j, iw, lam) is not None:
            return False, None
        lams.append(Fraction(lam, scale))
    return True, lams


# ---------------------------------------------------------------------------
# transforms


def complement(design: Design) -> Design:
    """Replace every block by its set complement in {0,...,n-1}."""
    full = (1 << design.n) - 1
    return Design(design.n, tuple(full ^ b for b in design.blocks))


def _delete_point(mask: int, point: int) -> int:
    low = (1 << point) - 1
    return (mask & low) | ((mask >> 1) & ~low)


def derived(design: Design, point: int) -> Design:
    """Blocks through `point`, with the point removed and the rest renumbered."""
    if not 0 <= point < design.n:
        raise ValueError("point index out of range")
    bit = 1 << point
    kept = tuple(_delete_point(b ^ bit, point) for b in design.blocks if b & bit)
    return Design(design.n - 1, kept)


def residual(design: Design, point: int) -> Design:
    """Blocks avoiding `point`, renumbered onto n-1 points."""
    if not 0 <= point < design.n:
        raise ValueError("point index out of range")
    bit = 1 << point
    kept = tuple(_delete_point(b, point) for b in design.blocks if not b & bit)
    return Design(design.n - 1, kept)


def extend_pair(d_r: Design, d_r1: Design) -> Design:
    """Adjoin a new point to every block of d_r and merge with d_r1.

    Both inputs live on the same n points and have uniform block sizes r and
    r+1; the result lives on n+1 points, the new point having index n.  No
    balance verification is performed here.
    """
    if d_r.n != d_r1.n:
        raise ValueError("designs live on different point counts")
    r = d_r.uniform_size()
    r1 = d_r1.uniform_size()
    if r1 != r + 1:
        raise ValueError(f"block sizes must be r and r+1, got {r} and {r1}")
    new_bit = 1 << d_r.n
    blocks = tuple(b | new_bit for b in d_r.blocks) + d_r1.blocks
    return Design(d_r.n + 1, blocks)


# ---------------------------------------------------------------------------
# constructions


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def construct_paley_hadamard(q: int) -> Design:
    """Symmetric 2-(q, (q-1)/2, (q-3)/4) design from quadratic residues mod q.

    q must be a prime with q % 4 == 3; block x is the translate x + R of the
    set R of nonzero quadratic residues.
    """
    if q % 4 != 3 or not _is_prime(q):
        raise ValueError("q must be a prime congruent to 3 mod 4")
    residues = {pow(x, 2, q) for x in range(1, q)}
    blocks = tuple(mask_of((x + s) % q for s in residues) for x in range(q))
    return Design(q, blocks)


def construct_witt_23() -> Design:
    """The 253 blocks of a 4-(23,7,1) design.

    Blocks are the supports of the weight-7 codewords of the binary [23,12,7]
    quadratic-residue code: the cyclic shifts of the residue indicator span a
    12-dimensional space over GF(2), and its 4096 codewords contain exactly
    253 of weight 7.
    """
    n = 23
    full = (1 << n) - 1
    residues = {pow(x, 2, n) for x in range(1, n)}
    gen = mask_of(residues)
    shifts = [((gen << s) | (gen >> (n - s))) & full for s in range(n)]
    basis: dict[int, int] = {}
    for row in shifts:
        cur = row
        while cur:
            top = cur.bit_length() - 1
            if top not in basis:
                basis[top] = cur
                break
            cur ^= basis[top]
    if len(basis) != 12:
        raise RuntimeError(f"residue shifts span dimension {len(basis)}, expected 12")
    code = [0]
    for vec in basis.values():
        code += [c ^ vec for c in code]
    blocks = tuple(c for c in code if c.bit_count() == 7)
    if len(blocks) != 253:
        raise RuntimeError(f"found {len(blocks)} weight-7 codewords, expected 253")
    return Design(n, blocks)
