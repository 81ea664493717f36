"""The pair profile of a two-shell candidate: its ordered block pairs
counted by their two shells and the size of their intersection, and the
subset sizes at which the moment identity fails, decided from those counts
(see the hamming docstring for the identity).  The pairs are counted by
_design._pair_counts and each size is judged in integers by
_design._two_values; this module holds the moment polynomials of the
oracle, and only the oracle imports it, once its walk has spent the
allowance of one count of the block pairs.
"""

import math

from ._design import _pair_counts, _two_values


def _pair_moments(n: int, r: int, q: int, lo: int, hi: int, top: int) -> list:
    """Row i - lo, i = lo..hi: the coefficients of z^0..z^top in
    (1+aa'z)^i (1+ab'z)^(r-i) (1+ba'z)^(q-i) (1+bb'z)^(n-r-q+i), where
    a, b = n-2r+2, n-2r-2 and a', b' = n-2q+2, n-2q-2.  Coefficient s is
    the sum over s-subsets S of a^|B cap S| b^(s-|B cap S|) times the same
    product for B', for any two blocks of sizes r and q sharing i points."""
    a, b, a2, b2 = n - 2 * r + 2, n - 2 * r - 2, n - 2 * q + 2, n - 2 * q - 2
    p = [1] + [0] * top
    for c, e in ((a * a2, lo), (a * b2, r - lo), (b * a2, q - lo), (b * b2, n - r - q + lo)):
        power = [math.comb(e, x) * c**x for x in range(min(e, top) + 1)]
        p = [sum(p[j - x] * power[x] for x in range(min(j, e) + 1)) for j in range(top + 1)]
    rows = [p]
    for _ in range(lo, hi):
        # one more shared point: times (1+aa'z)(1+bb'z), over (1+ab'z)(1+ba'z)
        p = p[:]
        for c in (a * a2, b * b2):
            for j in range(top, 0, -1):
                p[j] += c * p[j - 1]
        for c in (a * b2, b * a2):
            for j in range(1, top + 1):
                p[j] -= c * p[j - 1]
        rows.append(p)
    return rows


def first_failing_size(n: int, shells, start: int, t: int, half: int):
    """The smallest s in start..t at which some s-subset fails, or None.

    shells holds two (r, blocks, W) with integer weights W.  Below `half`
    the check at S is the moment identity, from `half` on the weighted
    balance of the union, as in hamming.relative_design_oracle.  A level
    passes when the block sums X(S) of its s-subsets S, all integers, take
    one value, as _design._two_values tells from their sum and sum of
    squares.
    """
    top = min(t, half - 1)  # the moment-identity sizes
    profile = []  # (weight of the pair, lo, counts, K_s(r, q, i) in row i - lo)
    for j, (r, rows, w) in enumerate(shells):
        for q, cols, v in shells[j:]:
            lo, hi = max(0, r + q - n), min(r, q)
            counts = _pair_counts(rows, cols, n, lo, hi)
            if rows is cols:  # each unordered pair both ways
                counts = [2 * c for c in counts]
            # the rest share hi points, each block with itself among them
            counts.append(len(rows) * len(cols) - sum(counts))
            kernels = [k + [math.comb(i, s) for s in range(half, t + 1)]  # the balance sizes
                       for i, k in enumerate(_pair_moments(n, r, q, lo, hi, top), lo)]
            # the pairs of a later shell with an earlier one count alike
            profile.append((w * v * (1 if rows is cols else 2), lo, counts, kernels))
    for s in range(start, t + 1):
        # the sums over the s-subsets S of the weighted block sum X(S), and of
        # X(S)^2; a block's product at S is a^|B cap S| b^(s-|B cap S|), with
        # a, b = 1, 0 at the balance sizes, where a block counts when it holds S
        m1 = m2 = 0
        for r, blocks, w in shells:
            a, b = (n - 2 * r + 2, n - 2 * r - 2) if s < half else (1, 0)
            m1 += w * len(blocks) * sum(math.comb(r, x) * math.comb(n - r, s - x)
                                        * a**x * b ** (s - x) for x in range(s + 1))
        for factor, lo, cnt, kernels in profile:
            m2 += factor * sum(c * k[s] for c, k in zip(cnt[lo:], kernels))
        two = _two_values(math.comb(n, s), m1, m2)
        if two is None or two[1]:
            return s
    return None
