"""The Design record on points 0..n-1, its bit helpers, its DESIGN v1 text
format, its bit-sliced block columns, the one walk over subsets of them,
and the count of block pairs by the size of their intersection, with the
moments of the weighted coverage that it gives and the test that reads a
verdict from them (_pair_moments, the one place where shells become pair
counts and moments).  Both are priced in one unit: the walk counts its work,
and pauses once it has spent what that count would cost (_allowance).  A
count that would pass the one work budget (_BUDGET) is never started, and a
walk with no count to fall back on stops with ValueError there.  Blocks are
int bitsets, so membership tests and complements are single integer
operations.  This module imports only the leaf `_base` from tightrel, so a
verb that reads design files and runs the moment oracle compiles no
coverage kernel, and the coverage questions count block pairs without the
oracle's modules.
"""

import math
import re
from functools import reduce
from itertools import combinations, compress
from operator import and_

from ._base import FormatError, _Record

MAX_POINTS = 128  # blocks fit in two machine words


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


def _rows(blocks, n: int) -> str:
    """One n-digit binary row per block, last block first, each with point
    n-1 first."""
    return "".join(format(b, f"0{n}b") for b in reversed(blocks))


def _columns(blocks, n: int) -> list[int]:
    """Entry i has bit k set when block k contains point i."""
    if not blocks:
        return [0] * n
    # the stride-n slice at point i's digit of the rows is a binary numeral
    # with block 0 lowest
    rows = _rows(blocks, n)
    return [int(rows[n - 1 - i :: n], 2) for i in range(n)]


_DIGITS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to the bytes 0 and 1
_CHUNK = 1 << 18  # bytes of intersection sizes counted per bytes.count pass


def _pair_counts(blocks, others, n: int, lo: int, hi: int) -> list:
    """cnt[i], i < hi: the pairs of a block of `blocks` and a block of
    `others` that share i points, counted for lo <= i < hi (zero below lo).
    When others is blocks, each pair of positions k < k' counts once.

    Point j's byte column holds one byte per block of others, 1 where the
    block holds j; the columns of a block's points add up to its
    intersection sizes with every block of others, a byte each, since
    n <= 128 < 256 leaves no carry.  bytes.count then counts each size."""
    m, same = len(others), blocks is others
    grid = _rows(others, n).encode().translate(_DIGITS)
    columns = [int.from_bytes(grid[n - 1 - j :: n], "big") for j in range(n)]
    # a block's selector lists its points from point 0 up, as compress wants
    selectors = (grid if same else _rows(blocks, n).encode().translate(_DIGITS))[::-1]

    def row(k):  # block k's intersection sizes, with every block or with those after it
        skip = k + 1 if same else 0
        sizes = sum(compress(columns, selectors[k * n : k * n + n])) >> 8 * skip
        return sizes.to_bytes(m - skip, "little")

    cnt = [0] * hi
    per = max(1, _CHUNK // m)
    for first in range(0, len(blocks), per):
        data = b"".join(map(row, range(first, min(first + per, len(blocks)))))
        for i in range(lo, hi):
            if i in data:  # a memchr; designs have few intersection sizes
                cnt[i] += data.count(i)
    return cnt


# The one cost model of both routes, in budget units.  A walk step (one mask
# that the walk or its caller builds) weighs _STEP units plus the 64-bit words
# of the block mask: 0.28-1.15 us at 1-7 words and 7.8 us at 2,887 words in
# process, 0.6-2.9 ns per unit.  A count of block pairs (_pair_counts) weighs
# a unit per _UNIT_BYTES bytes that it adds and scans, a row as _ROW_BYTES:
# 0.28 ns per byte and 1.9 us per row (fitted to 23 counts of 0.04-400 ms),
# about 13 ns per unit (2 vCPU, Python 3.11.7).  So a walk pauses after a
# fifth to a twentieth of the count's time; pausing at about that time (a unit
# per 4 bytes) was slower on the routed benchmark calls, the Witt pair's oracle
# at t = 5 taking 2-3 times its count.  _BUDGET bounds both routes: a walk is
# refused within about 3 s (three overlapping 30-point blocks at t = 15 after
# 2.5 million steps), and a count over it, about 13 s, is never started.
_BUDGET = 10**9
_STEP = 400
_UNIT_BYTES = 48
_ROW_BYTES = 6_800


def _allowance(n: int, shells, t: int = 0):
    """The cost of one count of the pairs of blocks of `shells`, a list of
    (r, block count), as a one-item list that the walk draws down before it
    pauses for that count; None when it passes _BUDGET.  Per ordered pair
    the count adds r bytes, one per point of the first block, and scans a
    byte per intersection size from t up that the two block sizes allow;
    it makes a row per block for its own shell and each later one."""
    rows = size = 0
    for k, (r, b) in enumerate(shells):
        rows += b * (len(shells) - k)
        for q, c in shells:
            size += b * c * (r + min(r, q) + 1 - max(t, r + q - n))
    cost = (_ROW_BYTES * rows + size) // _UNIT_BYTES
    return None if cost > _BUDGET else [cost]


def _walk(cols, points, j: int, mask: int, skip: bool = True, left=None, width: int = 0,
          spent=None):
    """The one subset walk: the j-subsets of `points` (ascending), j >= 1, in
    lex order, as one (prefix, m, later) per prefix of j - 1 points.  m masks
    the blocks of `mask` that contain the prefix, and `later` lists the
    points after it that complete a subset, whose mask is m & cols[q]; a
    subset in no block has mask 0.

    With skip the walk visits only the prefixes that some block contains,
    so it leaves out most subsets in no block, and callers pass over the
    rest by their mask 0.  A prefix keeps the blocks that contain it and
    have enough points after it to reach size j, and as candidates their
    later points; when every candidate lies in every such block, its
    extensions are combinations.  Without skip it visits every j-subset.
    With a width (the block count, and no skip), m also holds, shifted up by
    width, the blocks that miss at most one point of the prefix: point p
    turns m0, m1 into m0 & c_p, m1 & c_p | m0 with one AND of both.

    The walk counts its steps, the masks that it and its caller build, one
    per node and per candidate, each weighing _STEP units plus the 64-bit
    words of `mask`.  `left` is a one-item list that holds an allowance in
    those units: where the work passes it the walk yields None, once, and
    goes on when resumed.  A walk with no allowance, or resumed past it,
    raises ValueError where its work passes what is left of _BUDGET; walks
    that share a budget add their units to the one-item list `spent`.
    """
    step, spent = _STEP + (mask.bit_length() >> 6) + 1, [0] if spent is None else spent
    high = mask << width if width else 0
    reps = [c | c << width for c in cols] if width else cols
    mask |= high
    work, limit = 0, (_BUDGET - spent[0] if left is None else left[0]) // step

    def paused():  # True once, where the work passes the allowance; raises past the budget
        nonlocal left, limit
        if work <= limit:
            return False
        if left is None:
            raise ValueError(f"the {j}-subset walk passed its work budget of {_BUDGET:,} units "
                             f"after {work:,} steps of {step:,} units")
        left[0], left, limit = left[0] - work * step, None, (_BUDGET - spent[0]) // step
        return True

    cand = list(points)
    if skip:
        # after[p][c]: the blocks of mask with at least c of the points after p
        after, at_least = {}, [mask] + [0] * j
        for p in reversed(points):
            after[p] = at_least
            at_least = [mask] + [a | (b & cols[p]) for a, b in zip(at_least[1:], at_least)]
        mask = at_least[j]
        cand = [p for p in points if cols[p] & mask]
        work = len(points) * (j + 1)
    prefix, stack = [], []  # one (mask, cand, k) on the stack per prefix point
    k, fresh = 0, skip
    while len(prefix) < j - 1:
        need = j - len(prefix)  # at least 2
        if fresh and reduce(and_, map(cols.__getitem__, cand), mask) == mask:
            # each extension keeps mask: its first need - 1 points, then the rest
            for pos in combinations(range(len(cand) - 1), need - 1):
                later = cand[pos[-1] + 1 :]
                work += len(later)
                if paused():
                    yield None
                yield (*prefix, *map(cand.__getitem__, pos)), mask, later
            k = len(cand)
        while k <= len(cand) - need:
            p = cand[k]
            k += 1
            work += 1
            m = mask & reps[p] | mask << width & high
            if skip and not (m := m & after[p][need - 1]):
                continue
            if need == 2:  # a prefix of j - 1 points
                work += len(cand) - k
                if paused():
                    yield None
                yield (*prefix, p), m, cand[k:]
            else:
                stack.append((mask, cand, k))
                prefix.append(p)
                mask, fresh = m, skip and m != mask
                if fresh:
                    work += len(cand) - k
                    cand, k = [q for q in cand[k:] if cols[q] & m], 0
                if paused():
                    yield None
                break
        else:
            if not stack:
                break
            mask, cand, k = stack.pop()
            prefix.pop()
            fresh = False
    else:  # j = 1: the empty prefix
        work += len(cand)
        if cand:
            if paused():
                yield None
            yield (), mask, cand
    if left is None:
        spent[0] += work * step
    else:
        left[0] -= work * step


def _first_failing(cols, points, j: int, mask: int, holds, left=None, spent=None):
    """The lex-first j-subset of `points` (ascending) whose mask m of the
    blocks of `mask` that contain it fails holds(m), or None; False when the
    walk pauses at its allowance `left` first.  An uncovered subset has
    m = 0, so the walk skips such subsets only when holds(0)."""
    if j == 0:
        return None if holds(mask) else ()
    for item in _walk(cols, points, j, mask, holds(0), left, 0, spent):
        if item is None:
            return False
        prefix, m, later = item
        for q in later:
            if not holds(m & cols[q]):
                return (*prefix, q)
    return None


def _two_values(m0: int, m1: int, m2: int):
    """(a, h) when m0 integers with sum m1 and sum of squares m2 all equal
    a or a+1, h of them a+1; None when they take other values.  With
    a = m1 // m0 the sum of (x-a)(x-a-1) over the integers x,
    m2 - (2a+1) m1 + a(a+1) m0, has no negative term, so it is 0 exactly
    when every x is a or a+1."""
    a = m1 // m0
    if m2 - (2 * a + 1) * m1 + a * (a + 1) * m0:
        return None
    return a, m1 - a * m0


def _pair_moments(n: int, shells, lo: int, hi: int) -> list:
    """_two_values of the weighted coverage X(S) = sum_k W_k lambda_k(S)
    over the j-subsets S of range(n), for j = lo..hi, from one count of the
    block pairs.  shells lists (r, blocks, W) with integer W.  X sums to
    m1 = sum_B W C(r, j), and X^2 to m2 = sum_{B,B'} W W' C(|B cap B'|, j)
    over ordered pairs: each block with itself, then each counted pair both
    ways.  The pairs of each two shells, a shell with itself included, are
    counted by intersection sizes from max(lo, r + q - n) up, as
    C(i, j) = 0 for i < j."""
    pairs = [(w * v, _pair_counts(blocks, others, n, max(lo, r + q - n), min(r, q) + 1))
             for k, (r, blocks, w) in enumerate(shells) for q, others, v in shells[k:]]
    out = []
    for j in range(lo, hi + 1):
        m1 = sum(w * len(blocks) * math.comb(r, j) for r, blocks, w in shells)
        m2 = sum(w * w * len(blocks) * math.comb(r, j) for r, blocks, w in shells)
        m2 += 2 * sum(ww * c * math.comb(i, j) for ww, cnt in pairs for i, c in enumerate(cnt))
        out.append(_two_values(math.comb(n, j), m1, m2))
    return out


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
    text = design_text(design)  # before open: a refused design leaves the file as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
