"""Seeded inputs for the benchmark workloads, and the expected CLI result of
every invocation.

Nothing here imports tightrel.  Designs are built from their definitions:
the 4-(23,7,1) design from the binary Golay generator polynomial, and the
Paley designs from quadratic residues.  Expected outputs come from closed
forms, from this module's own exact integer counting, or from scan tables
pinned when the benchmark was introduced.  A seed fixes the point
relabellings, the rational weights, the replaced blocks and the order of
the corpus; the amount of work per pass does not depend on it.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

PINNED = Path(__file__).resolve().parent / "pinned"

# sha256 and row count of the large scan TSVs, recorded when the benchmark
# was introduced; pinned/ holds the small tables in full
SCAN_SHA256 = {
    ("scan-3", 200): "c4089243e37a2a93ffad98575bfcfddafc94cb7c6baca487a6ef86e7a36cdcef",
    ("scan-4", 50): "87dcef2f8b861202208e4713ad6bd6fca34eb86300f03642666ee130495af191",
}
SCAN_ROWS = {("scan-3", 200): 2575, ("scan-4", 50): 925}
PINNED_TABLES = {"scan-3": "scan3_max47.tsv", "scan-4": "scan4_max36.tsv"}

PALEY_QS = (7, 11, 19, 23, 31, 43, 47)
CORPUS_SCAN3 = ((47, None), (47, (1,)), (47, (2, 4)), (31, (1, 3)), (40, (3,)), (23, (4,)))
CORPUS_SCAN4 = (11, 16, 22, 30, 33, 36)


@dataclass
class Call:
    """One CLI invocation: argv after the program name, the exit code it
    must return, and a check that returns a reason when stdout is wrong."""

    argv: list
    code: int
    check: Callable[[str], str | None]

    @property
    def verb(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# sets and designs as int bitmasks


def bits(mask: int) -> list:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mask(indices) -> int:
    return sum(1 << i for i in indices)


def relabel(blocks, perm) -> list:
    return [mask(perm[i] for i in bits(b)) for b in blocks]


def complement(n: int, blocks) -> list:
    full = (1 << n) - 1
    return [full ^ b for b in blocks]


def drop_point(mask_: int, p: int) -> int:
    low = (1 << p) - 1
    return (mask_ & low) | ((mask_ >> 1) & ~low)


def golay_steiner() -> list:
    """The 253 weight-7 words of the cyclic [23,12,7] code generated by
    g(x) = x^11 + x^9 + x^7 + x^6 + x^5 + x + 1: a 4-(23,7,1) design."""
    g = mask((0, 1, 5, 6, 7, 9, 11))
    words = set()
    for m in range(1 << 12):
        w = 0
        for i in bits(m):
            w ^= g << i
        words.add(w)
    blocks = [w for w in words if w.bit_count() == 7]
    if len(words) != 4096 or len(blocks) != 253:
        raise RuntimeError("Golay construction gave the wrong code")
    return blocks


def paley(q: int) -> list:
    residues = {x * x % q for x in range(1, q)}
    return [mask((x + s) % q for s in residues) for x in range(q)]


def histogram(n: int, blocks, t: int) -> str:
    """lambda-seq output: count*value tokens of the coverage histogram."""
    cov = Counter(sub for b in blocks for sub in combinations(bits(b), t))
    hist = Counter(cov.values())
    zeros = math.comb(n, t) - len(cov)
    if zeros:
        hist[0] = zeros
    return " ".join(f"{c}*{v}" for v, c in sorted(hist.items()))


class Moments:
    """The two-shell moment identity at one coordinate subset, evaluated
    from its definition with exact integers.

    shells is a list of (r, blocks, weight).  defect(S) is zero exactly
    when sum_B w a^|B&S| b^(|S|-|B&S|) over the chosen blocks equals the
    same sum over the whole shell scaled by w N / C(n, r), where a and b
    are the degree-1 Krawtchouk values Q1(r-1) and Q1(r+1).
    """

    def __init__(self, n: int, shells):
        self.n = n
        scale = math.lcm(*(Fraction(w).denominator for _, _, w in shells))
        self.shells = [(r, blocks, int(Fraction(w) * scale)) for r, blocks, w in shells]
        self.common = math.lcm(*(math.comb(n, r) for r, _, _ in shells))
        self._tables = {}

    def _table(self, s: int):
        if s not in self._tables:
            n, rows = self.n, []
            for r, blocks, p in self.shells:
                a, b = n - 2 * (r - 1), n - 2 * (r + 1)
                pw = [a**c * b ** (s - c) for c in range(s + 1)]
                whole = sum(math.comb(s, c) * math.comb(n - s, r - c) * pw[c] for c in range(s + 1))
                cnr = math.comb(n, r)
                rows.append((blocks, pw, p * (self.common // cnr), cnr, len(blocks) * whole))
            self._tables[s] = rows
        return self._tables[s]

    def defect(self, subset) -> int:
        m = mask(subset)
        total = 0
        for blocks, pw, factor, cnr, whole in self._table(len(subset)):
            acc = sum(pw[(b & m).bit_count()] for b in blocks)
            total += factor * (acc * cnr - whole)
        return total

    def first_failure_is(self, s: int, subset) -> str | None:
        """None when `subset` is the lexicographically first failing subset
        in the oracle's scan order (sizes ascending); else a reason."""
        for size in range(1, s):
            for sub in combinations(range(self.n), size):
                if self.defect(sub) != 0:
                    return f"earlier failure at {sub}"
        for sub in combinations(range(self.n), s):
            if sub == subset:
                return None if self.defect(sub) != 0 else f"identity holds at {sub}"
            if self.defect(sub) != 0:
                return f"earlier failure at {sub}"
        return f"{subset} is not an {s}-subset of {self.n} points"


# ---------------------------------------------------------------------------
# files


def write_design(path: Path, n: int, blocks, rng: random.Random) -> None:
    order = list(blocks)
    rng.shuffle(order)
    lines = ["DESIGN v1", f"n={n} b={len(order)}"]
    lines += [" ".join(map(str, bits(b))) for b in order]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_candidate(path: Path, n: int, t: int, shells, rng: random.Random) -> None:
    lines = ["RELDESIGN v1", f"n={n} t={t}"]
    for r, blocks, w in sorted(shells, key=lambda sh: sh[0]):
        w = Fraction(w)
        lines.append(f"shell r={r} w={w.numerator}/{w.denominator}")
        order = list(blocks)
        rng.shuffle(order)
        lines += [" ".join(map(str, bits(b))) for b in order]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# checks


def expect_text(text: str):
    def check(out: str):
        return None if out == text else f"expected {text!r}, got {out[:200]!r}"
    return check


WITNESS = re.compile(r"relative-design: false  witness: s=(\d+) S=\((\d+(?:,\d+)*)\)")


def expect_witness(moments: Moments, tight: bool):
    tail = ["tight: false"] if tight else []

    def check(out: str):
        lines = out.split("\n")
        if lines[-1] != "" or lines[1:-1] != tail:
            return f"unexpected lines in {out[:200]!r}"
        m = WITNESS.fullmatch(lines[0])
        if not m:
            return f"no witness in {lines[0]!r}"
        s, subset = int(m.group(1)), tuple(int(x) for x in m.group(2).split(","))
        if len(subset) != s:
            return f"witness {subset} does not have size {s}"
        return moments.first_failure_is(s, subset)
    return check


def expect_sha256(key):
    digest, rows = SCAN_SHA256[key], SCAN_ROWS[key]

    def check(out: str):
        if out.count("\n") != rows + 1:
            return f"expected {rows} rows, got {out.count(chr(10)) - 1}"
        got = hashlib.sha256(out.encode()).hexdigest()
        return None if got == digest else f"sha256 {got} differs from the pinned table"
    return check


def pinned_table(verb: str, max_n: int, cases=None) -> str:
    """The rows of a pinned scan table with n <= max_n (and, for scan-3,
    a case in `cases`), as the CLI prints them."""
    lines = (PINNED / PINNED_TABLES[verb]).read_text(encoding="utf-8").splitlines()
    kept = [lines[0]] + [
        ln for ln in lines[1:]
        if int(ln.split("\t")[0]) <= max_n and (cases is None or int(ln.split("\t")[9]) in cases)
    ]
    return "\n".join(kept) + "\n"


def scan_call(verb: str, max_n: int, cases=None, check=None) -> Call:
    """An annotated scan; checked against the pinned digest or table."""
    argv = [verb, "--max-n", str(max_n), "--annotate"]
    if cases is not None:
        argv += ["--cases", ",".join(map(str, cases))]
    # The pool forks all its workers at once; never ask for more than the
    # processors this process may run on.
    nproc = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > nproc:
        argv += ["--threads", str(nproc)]
    if check is None:
        if (verb, max_n) in SCAN_SHA256:
            check = expect_sha256((verb, max_n))
        else:
            check = expect_text(pinned_table(verb, max_n, cases))
    return Call(argv, 0, check)


def expect_rows_present(verb: str, max_n: int, wanted):
    """The pinned table, with the given (n, r1, r2, N1, N2) rows in it."""
    text = pinned_table(verb, max_n)
    have = {tuple(int(x) for x in ln.split("\t")[:5]) for ln in text.splitlines()[1:]}
    missing = [row for row in wanted if row not in have]
    if missing:
        raise RuntimeError(f"rows {missing} are not in the pinned {verb} table")
    return expect_text(text)


def nonexist_expectation(v: int, k: int, lam: int, outcome: str) -> Call:
    d = k - lam
    if v % 2 == 0:
        detail = f"k-lam={d} is {'' if outcome == 'Passes' else 'not '}a perfect square"
    else:
        sign = "+" if v % 4 == 1 else "-"
        verdict = "solvable" if outcome == "Passes" else "insolvable"
        detail = f"x^2 = {d}y^2 {sign} {lam}z^2 : {verdict}"
    return Call(["nonexist", "--params", f"{v},{k},{lam}"],
                1 if outcome == "RuledOut" else 0, expect_text(detail + "\n"))


def scan3_shell_verdicts() -> dict:
    """(v, k, lam) -> outcome for every shell of the pinned scan-3 rows."""
    out = {}
    for ln in pinned_table("scan-3", 47).splitlines()[1:]:
        col = ln.split("\t")
        n, r1, r2, lam1, lam2 = (int(col[i]) for i in (0, 1, 2, 5, 6))
        for (r, lam), verdict in zip(((r1, lam1), (r2, lam2)), col[11].split(";")):
            out[(n, r, lam)] = verdict.split("=")[1]
    return out


# ---------------------------------------------------------------------------
# workloads


def _weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _perm(rng: random.Random, n: int) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _fresh_block(rng: random.Random, n: int, r: int, blocks) -> int:
    """A random r-subset that is not already a block: replacing a block by
    a copy of another one can leave the candidate balanced."""
    existing = set(blocks)
    while True:
        new = mask(rng.sample(range(n), r))
        if new not in existing:
            return new


def _conjecture2_dir(d: Path, n: int, designs, t: int, rng) -> Call:
    """Write designs as d/dK.blk and expect every pair with distinct block
    sets and equal coverage histograms."""
    d.mkdir()
    names = [f"d{i}.blk" for i in range(len(designs))]
    for name, blocks in zip(names, designs):
        write_design(d / name, n, blocks, rng)
    hists = [histogram(n, blocks, t) for blocks in designs]
    sets = [Counter(blocks) for blocks in designs]
    lines = [
        f"{names[i]}\t{names[j]}\n"
        for i, j in combinations(range(len(designs)), 2)
        if sets[i] != sets[j] and hists[i] == hists[j]
    ]
    return Call(["conjecture2", str(d), "--t", str(t)], 0, expect_text("".join(lines)))


def _paley_tour(tmp: Path, rng: random.Random, q: int) -> list:
    """check-relative, verify, lambda-seq and conjecture2 on one relabelled
    Paley complementary pair; every answer is known by construction."""
    base = relabel(paley(q), _perm(rng, q))
    comp = complement(q, base)
    r = (q - 1) // 2
    w = _weight(rng)
    write_candidate(tmp / "tour.rel", q, 3, [(r, base, w), (r + 1, comp, w)], rng)
    write_design(tmp / "tour.blk", q, base, rng)
    write_design(tmp / "tour_c.blk", q, comp, rng)
    copies = [relabel(base, _perm(rng, q)) for _ in range(3)]
    return [
        Call(["check-relative", str(tmp / "tour.rel"), "--tight"], 0,
             expect_text("relative-design: true\ntight: true\n")),
        Call(["verify", str(tmp / "tour.blk"), "--t", "2"], 0,
             expect_text(f"t-design: true  lambda=[{q},{r},{(q - 3) // 4}]\n")),
        Call(["verify", str(tmp / "tour_c.blk"), "--t", "2"], 0,
             expect_text(f"t-design: true  lambda=[{q},{r + 1},{(q + 1) // 4}]\n")),
        Call(["lambda-seq", str(tmp / "tour.blk"), "--t", "3"], 0,
             expect_text(histogram(q, base, 3) + "\n")),
        _conjecture2_dir(tmp / "tour_c2", q, copies, 3, rng),
    ]


def certify_witt(tmp: Path, rng: random.Random) -> list:
    n = 23
    witt = relabel(golay_steiner(), _perm(rng, n))
    witt_c = complement(n, witt)
    w = _weight(rng)
    write_design(tmp / "witt.blk", n, witt, rng)
    write_design(tmp / "witt_c.blk", n, witt_c, rng)
    write_candidate(tmp / "witt.rel", n, 5, [(7, witt, w), (16, witt_c, w)], rng)
    calls = [
        Call(["check-relative", str(tmp / "witt.rel"), "--tight", "--t", "5"], 0,
             expect_text("relative-design: true\ntight: true\n")),
        Call(["verify", str(tmp / "witt.blk"), "--t", "4"], 0,
             expect_text("t-design: true  lambda=[253,77,21,5,1]\n")),
        Call(["verify", str(tmp / "witt_c.blk"), "--t", "4"], 0,
             expect_text("t-design: true  lambda=[253,176,120,80,52]\n")),
        Call(["lambda-seq", str(tmp / "witt.blk"), "--t", "5"], 0,
             expect_text("28336*0 5313*1\n")),
        Call(["lambda-seq", str(tmp / "witt_c.blk"), "--t", "5"], 0,
             expect_text("5313*32 28336*33\n")),
    ]
    # the four n=22 relative 4-designs from the derived and residual designs
    p = rng.randrange(n)
    y6 = [drop_point(b ^ (1 << p), p) for b in witt if b >> p & 1]
    y7 = [drop_point(b, p) for b in witt if not b >> p & 1]
    y6c, y7c = complement(22, y6), complement(22, y7)
    rows = []
    for i, (a, ra, b, rb) in enumerate(
        ((y6, 6, y7, 7), (y7c, 15, y6c, 16), (y6, 6, y7c, 15), (y7, 7, y6c, 16))
    ):
        w = _weight(rng)
        path = tmp / f"n22_{i}.rel"
        write_candidate(path, 22, 4, [(ra, a, w), (rb, b, w)], rng)
        calls.append(Call(["check-relative", str(path), "--tight", "--t", "4"], 0,
                          expect_text("relative-design: true\ntight: true\n")))
        rows.append((22, ra, rb, len(a), len(b)))
    # locate the pairs in the feasibility tables, and compare two Witt
    # relabellings, so that every verb the metrics name runs here
    calls += [
        scan_call("scan-4", 22, check=expect_rows_present("scan-4", 22, rows)),
        scan_call("scan-3", 23),
        _conjecture2_dir(tmp / "c2", n, [witt, relabel(witt, _perm(rng, n))], 4, rng),
    ]
    return calls


def scan_tables(tmp: Path, rng: random.Random) -> list:
    # the tour realizes the q=23 row of the scan-3 table, so that every
    # verb the metrics name runs here; its size does not depend on the seed
    return [scan_call("scan-3", 200), scan_call("scan-4", 50)] + _paley_tour(tmp, rng, 23)


def corpus_small(tmp: Path, rng: random.Random) -> list:
    calls = []
    for q in PALEY_QS:
        base = relabel(paley(q), _perm(rng, q))
        comp = complement(q, base)
        r = (q - 1) // 2
        name = tmp / f"p{q}"
        write_design(name.with_suffix(".blk"), q, base, rng)
        write_design(name.with_name(f"p{q}_c.blk"), q, comp, rng)
        for tight in (False, True):
            extra = ["--tight"] if tight else []
            # equal rational weights: a tight relative 3-design
            w = _weight(rng)
            path = name.with_name(f"p{q}_eq{int(tight)}.rel")
            write_candidate(path, q, 3, [(r, base, w), (r + 1, comp, w)], rng)
            text = "relative-design: true\n" + ("tight: true\n" if tight else "")
            calls.append(Call(["check-relative", str(path)] + extra, 0, expect_text(text)))
            # unequal weights fail at s = 3
            w1 = _weight(rng)
            w2 = w1 + Fraction(rng.randint(1, 9), rng.randint(1, 9))
            shells = [(r, base, w1), (r + 1, comp, w2)] if rng.random() < 0.5 else \
                     [(r, base, w2), (r + 1, comp, w1)]
            path = name.with_name(f"p{q}_ne{int(tight)}.rel")
            write_candidate(path, q, 3, shells, rng)
            calls.append(Call(["check-relative", str(path)] + extra, 1,
                              expect_witness(Moments(q, shells), tight)))
            # one block replaced by an r-subset that is not already a block
            blocks = list(base)
            blocks[rng.randrange(q)] = _fresh_block(rng, q, r, base)
            shells = [(r, blocks, w), (r + 1, comp, w)]
            path = name.with_name(f"p{q}_rb{int(tight)}.rel")
            write_candidate(path, q, 3, shells, rng)
            calls.append(Call(["check-relative", str(path)] + extra, 1,
                              expect_witness(Moments(q, shells), tight)))
        blk, blk_c = str(name.with_suffix(".blk")), str(name.with_name(f"p{q}_c.blk"))
        calls += [
            Call(["verify", blk, "--t", "2"], 0,
                 expect_text(f"t-design: true  lambda=[{q},{r},{(q - 3) // 4}]\n")),
            Call(["verify", blk_c, "--t", "2"], 0,
                 expect_text(f"t-design: true  lambda=[{q},{r + 1},{(q + 1) // 4}]\n")),
            # a symmetric design is never a 3-design
            Call(["verify", blk, "--t", "3"], 1, expect_text("t-design: false\n")),
            Call(["lambda-seq", blk, "--t", "3"], 0, expect_text(histogram(q, base, 3) + "\n")),
            Call(["lambda-seq", blk_c, "--t", "3"], 0, expect_text(histogram(q, comp, 3) + "\n")),
        ]
    verdicts = scan3_shell_verdicts()
    for v, k, lam in rng.sample(sorted(verdicts), 22):
        calls.append(nonexist_expectation(v, k, lam, verdicts[(v, k, lam)]))
    # short scans of fixed sizes, several of each so that their per-verb
    # totals rest on more than one sample
    calls += [scan_call("scan-3", m, c) for m, c in CORPUS_SCAN3]
    calls += [scan_call("scan-4", m) for m in CORPUS_SCAN4]
    # relabelled Paley(19) copies, one with a replaced block, one a reordered duplicate
    q, r = 19, 9
    copies = [relabel(paley(q), _perm(rng, q)) for _ in range(4)]
    broken = list(copies[0])
    broken[0] = _fresh_block(rng, q, r, broken)
    calls.append(_conjecture2_dir(tmp / "c2", q, copies + [broken, copies[1][::-1]], 3, rng))
    rng.shuffle(calls)
    return calls


WORKLOADS = {"certify-witt": certify_witt, "scan-tables": scan_tables, "corpus-small": corpus_small}


def build(workload: str, seed: int, tmp: Path) -> list:
    """Write the inputs of one workload into `tmp` and return its calls in
    pass order.  The same seed gives the same files and calls."""
    return WORKLOADS[workload](tmp, random.Random(f"{workload}:{seed}"))
