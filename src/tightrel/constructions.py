"""Designs built from others and from scratch: complement, derived and
residual designs and the one-point extension of a pair, and two classical
constructions (quadratic-residue translates, the 4-(23,7,1) design from the
length-23 residue code).  Only the construct and transform verbs load this
module.
"""

from __future__ import annotations

from ._design import MAX_POINTS, Design, mask_of

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
    # Design refuses such a q too, but only after trial division and q blocks
    if not 1 <= q <= MAX_POINTS:
        raise ValueError(f"point count must be in 1..{MAX_POINTS}, got {q}")
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
