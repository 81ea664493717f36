"""The Design record on points 0..n-1, its bit helpers, its DESIGN v1 text
format and its bit-sliced block columns.  Blocks are int bitsets, so
membership tests and complements are single integer operations.  This
module imports only the leaf `_base` from tightrel, so a verb that reads
design files and runs the moment oracle compiles no coverage kernel.
"""

from __future__ import annotations

import re

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


def _columns(blocks, n: int) -> list[int]:
    """Entry i has bit k set when block k contains point i."""
    if not blocks:
        return [0] * n
    # one n-digit row per block, last block first: the stride-n slice at
    # point i's digit is then a binary numeral with block 0 lowest
    rows = "".join(format(b, f"0{n}b") for b in reversed(blocks))
    return [int(rows[n - 1 - i :: n], 2) for i in range(n)]


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
