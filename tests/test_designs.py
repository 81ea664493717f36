import ast
import functools
import inspect
import itertools
import math
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tightrel import (
    Design,
    DesignParams,
    FormatError,
    complement,
    construct_paley_hadamard,
    construct_witt_23,
    coverage_map,
    derived,
    design_text,
    extend_pair,
    is_regular_twise_balanced,
    is_t_design,
    lambda_sequence,
    load_design,
    residual,
    save_design,
)
from tightrel import _design
from tightrel._design import _columns, _first_unbalanced, _integer_weights, _pair_counts
from tightrel._design import _pair_moments, _unbalanced_size
from tightrel.analysis import _first_uncovered
from tightrel.designs import bits_of, mask_of
from tightrel.designs import parse_block_line

from conftest import cheap_levels, designs, lambda_count, reference_coverage, relabel
from conftest import reference_lambda_sequence


def test_bits_mask_round_trip():
    for bits in ((), (0,), (2, 5), (0, 1, 2, 3), (7, 40, 127)):
        assert bits_of(mask_of(bits)) == bits
    assert mask_of((0, 3)) == 0b1001
    assert bits_of(0) == ()


def test_blocks_canonicalized_to_ascending_lex():
    a = mask_of((1, 2))
    b = mask_of((0, 3))
    d = Design(4, (a, b))
    assert d.blocks == (b, a)
    assert [bits_of(x) for x in d.blocks] == [(0, 3), (1, 2)]


def test_duplicate_blocks_are_kept():
    m = mask_of((0, 1))
    d = Design(4, (m, m))
    assert d.num_blocks == 2
    assert lambda_count(d, (0, 1)) == 2


def test_design_validation():
    with pytest.raises(ValueError):
        Design(0, ())
    with pytest.raises(ValueError):
        Design(129, ())
    with pytest.raises(ValueError):
        Design(4, (mask_of((0, 4)),))  # index 4 out of range


def test_uniform_size():
    d = Design(5, (mask_of((0, 1)), mask_of((2, 3))))
    assert d.uniform_size() == 2
    mixed = Design(5, (mask_of((0, 1)), mask_of((0, 1, 2))))
    with pytest.raises(ValueError):
        mixed.uniform_size()
    with pytest.raises(ValueError):
        Design(5, ()).uniform_size()


def test_design_params_validation():
    DesignParams(7, 3, 1)
    with pytest.raises(ValueError):
        DesignParams(7, 8, 1)
    with pytest.raises(ValueError):
        DesignParams(7, 3, 0)
    with pytest.raises(ValueError):
        DesignParams(7, 3, 1, 0)


def test_save_load_round_trip(tmp_path, fano, witt):
    for d in (fano, witt):
        p = tmp_path / "d.blk"
        save_design(d, p)
        assert load_design(p) == d


def test_refused_save_leaves_the_file(tmp_path, fano):
    # the empty block has no line in the format; the refusal comes before the
    # file is opened, so an existing file keeps its bytes
    p = tmp_path / "d.blk"
    save_design(fano, p)
    before = p.read_bytes()
    with pytest.raises(ValueError):
        save_design(Design(3, (0, 3)), p)
    assert p.read_bytes() == before


def test_design_text_format(fano):
    text = design_text(fano)
    lines = text.splitlines()
    assert lines[0] == "DESIGN v1"
    assert lines[1] == "n=7 b=7"
    assert len(lines) == 9
    assert lines[2] == "0 1 3"  # lex-first translate of the residue set


@settings(max_examples=60, deadline=None)
@given(designs(uniform=False))
def test_design_file_round_trips(design):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/d.blk"
        if 0 in design.blocks:
            # the format has no line for the empty block, so none is written
            with pytest.raises(ValueError):
                save_design(design, path)
            return
        save_design(design, path)
        assert load_design(path) == design


def test_load_tolerates_trailing_blank_lines(tmp_path, fano):
    p = tmp_path / "d.blk"
    p.write_text(design_text(fano) + "\n\n")
    assert load_design(p) == fano


@pytest.mark.parametrize(
    "text",
    [
        "DESIGN v2\nn=7 b=1\n0 1 3\n",          # wrong header
        "n=7 b=1\n0 1 3\n",                      # missing header
        "DESIGN v1\nn=7 b=2\n0 1 3\n",           # fewer blocks than declared
        "DESIGN v1\nn=7 b=1\n0 1 3\n1 2 4\n",    # more blocks than declared
        "DESIGN v1\nn=7 b=1\n0 0 1\n",           # indices not strictly increasing
        "DESIGN v1\nn=7 b=1\n2 1 0\n",           # decreasing
        "DESIGN v1\nn=7 b=1\n0 1 7\n",           # index = n
        "DESIGN v1\nn=7 b=1\n\n0 1 3\n",         # blank line inside body
        "DESIGN v1\nn=7\n0 1 3\n",               # malformed size line
        "DESIGN v1\nn=seven b=1\n0 1 3\n",       # non-integer n
        "DESIGN v1\nn=7 b=1\n0 one 3\n",         # non-integer index
    ],
)
def test_load_rejects_malformed_files(tmp_path, text):
    p = tmp_path / "bad.blk"
    p.write_text(text)
    with pytest.raises(FormatError):
        load_design(p)


def test_parse_block_line():
    assert parse_block_line("0 2 5", 7) == mask_of((0, 2, 5))
    with pytest.raises(FormatError):
        parse_block_line("", 7)
    with pytest.raises(FormatError):
        parse_block_line("3 3", 7)


def _parse_block_line_per_token(line, n, path="<string>"):
    """parse_block_line as it was before it matched whole lines: one regex
    match per token."""

    def ascii_int(text):
        if not re.fullmatch("-?[0-9]+", text):
            raise ValueError(f"not an ASCII integer: {text!r}")
        return int(text)

    try:
        idx = [ascii_int(tok) for tok in line.split()]
    except ValueError:
        raise FormatError(f"{path}: non-integer token in block line {line!r}") from None
    if not idx:
        raise FormatError(f"{path}: empty block line")
    for a, b in zip(idx, idx[1:]):
        if b <= a:
            raise FormatError(f"{path}: indices not strictly increasing in {line!r}")
    if idx[0] < 0 or idx[-1] >= n:
        raise FormatError(f"{path}: point index out of range in {line!r}")
    return mask_of(idx)


def _parsed(parse, line, n):
    try:
        return parse(line, n, "f.blk")
    except FormatError as exc:
        return f"FormatError: {exc}"


# every character str.split splits on: tabs, form feeds, the separators
# U+001C..U+001F, U+0085, no-break and ideographic spaces, and the rest
_SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
_TOKENS = st.one_of(
    st.integers(-3, 42).map(str),
    st.integers(0, 42).map(lambda i: f"00{i}"),
    # int() takes all of these; a block file takes none of them
    st.sampled_from(["+1", "1_0", "\u0663", "\uff15", "1\u0663", "-", "--1", "1-", "x", "1.0", "0x1"]),
)


@st.composite
def _block_lines(draw):
    if draw(st.booleans()):  # mostly well-formed: ascending integers
        tokens = [str(i) for i in sorted(draw(st.sets(st.integers(-2, 42), max_size=8)))]
    else:
        tokens = draw(st.lists(_TOKENS, max_size=8))
    # runs of blanks before, between and after; an empty run joins two tokens
    runs = draw(st.lists(st.text(st.sampled_from(_SPACES), max_size=3),
                         min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return "".join(run + tok for run, tok in zip(runs, tokens + [""]))


@settings(max_examples=500, deadline=None)
@given(_block_lines(), st.integers(1, 40))
@example("", 7)
@example(" \t\u3000 ", 7)
@example("0 2 5", 7)
@example("0\t2  5 \t", 7)
@example("0 2 7", 7)
@example("-1 2", 7)
@example("2 1", 7)
@example("1 1", 7)
@example("+1 2", 7)
@example("1_0", 20)
@example("\u0663 4", 7)
@example("0\xa01\x1c2", 7)
def test_parse_block_line_matches_the_per_token_parser(line, n):
    assert _parsed(parse_block_line, line, n) == _parsed(_parse_block_line_per_token, line, n)


def test_lambda_count_accepts_iterable_or_mask(fano):
    for pair in itertools.combinations(range(7), 2):
        assert lambda_count(fano, pair) == 1
        assert lambda_count(fano, mask_of(pair)) == 1
    assert lambda_count(fano, ()) == 7


def test_coverage_map_totals(fano, witt):
    for d, j in ((fano, 2), (fano, 3), (witt, 4)):
        cov = coverage_map(d, j)
        r = d.uniform_size()
        assert sum(cov.values()) == d.num_blocks * math.comb(r, j)
    assert coverage_map(fano, 2) == {p: 1 for p in itertools.combinations(range(7), 2)}


def test_is_t_design_fano(fano):
    assert is_t_design(fano, 2) == (True, [7, 3, 1])
    assert is_t_design(fano, 1) == (True, [7, 3])
    ok, lams = is_t_design(fano, 3)
    assert not ok and lams is None


def test_is_t_design_rejects_bad_t(fano):
    with pytest.raises(ValueError):
        is_t_design(fano, 0)
    with pytest.raises(ValueError):
        is_t_design(fano, 4)


def test_is_t_design_empty_design():
    assert is_t_design(Design(7, ()), 2) == (True, [0, 0, 0])
    assert is_t_design(Design(7, ()), 7) == (True, [0] * 8)
    with pytest.raises(ValueError, match="point count"):
        is_t_design(Design(7, ()), 8)
    # the inputs that test_is_t_design_matches_reference once drew
    with pytest.raises(ValueError, match="t exceeds the point count"):
        is_t_design(Design(1, ()), 2)
    assert is_t_design(Design(3, ()), 2) == (True, [0, 0, 0])


def test_is_t_design_detects_uncovered_subset():
    # two disjoint pairs on 4 points: the pair (0,2) is never covered
    d = Design(4, (mask_of((0, 1)), mask_of((2, 3))))
    assert is_t_design(d, 2) == (False, None)
    assert is_t_design(d, 1) == (True, [2, 1])
    # enough blocks to cover every pair, and the covered pairs agree
    d = Design(4, (mask_of((0, 1, 2)),) * 2)
    assert is_t_design(d, 2) == (False, None)


def test_regular_twise_balanced_mixed_sizes(fano):
    union = Design(7, fano.blocks + complement(fano).blocks)
    ok, lams = is_regular_twise_balanced(union, {3: 1, 4: 1}, 3)
    assert ok and lams == [7, 3, 1]
    # doubling one shell's weight breaks 3-wise balance but keeps 2-wise
    ok, lams = is_regular_twise_balanced(union, {3: 1, 4: 2}, 3)
    assert not ok and lams is None
    ok, lams = is_regular_twise_balanced(union, {3: 1, 4: 2}, 2)
    assert ok and lams == [11, 5]
    # past j = n there are no j-subsets, so every level from n + 1 on is 0
    ok, lams = is_regular_twise_balanced(Design(3, (3, 5, 6)), {2: 1}, 5)
    assert ok and lams == [2, 1, 0, 0, 0]
    assert all(type(lam) is Fraction for lam in lams)


def test_regular_twise_balanced_weight_validation(fano):
    union = Design(7, fano.blocks + complement(fano).blocks)
    with pytest.raises(ValueError):
        is_regular_twise_balanced(union, {3: 1}, 2)
    with pytest.raises(ValueError):
        is_regular_twise_balanced(union, {3: 1, 4: 0}, 2)


def test_complement(fano):
    c = complement(fano)
    assert c.uniform_size() == 4
    assert is_t_design(c, 2) == (True, [7, 4, 2])
    assert complement(c) == fano


def test_derived_residual_witt(witt, y6, y7):
    assert (y6.n, y6.uniform_size(), y6.num_blocks) == (22, 6, 77)
    assert (y7.n, y7.uniform_size(), y7.num_blocks) == (22, 7, 176)
    assert is_t_design(y6, 3) == (True, [77, 21, 5, 1])
    assert is_t_design(y7, 3) == (True, [176, 56, 16, 4])


def test_derived_residual_renumber_interior_point(fano):
    d = derived(fano, 3)
    r = residual(fano, 3)
    assert d.n == r.n == 6
    assert d.num_blocks + r.num_blocks == fano.num_blocks
    assert {b.bit_count() for b in d.blocks} == {2}
    assert {b.bit_count() for b in r.blocks} == {3}


def test_extend_pair_round_trip(witt, y6, y7):
    ext = extend_pair(y6, y7)
    assert (ext.n, ext.num_blocks) == (23, 253)
    assert is_t_design(ext, 4) == (True, [253, 77, 21, 5, 1])
    assert frozenset(derived(ext, 22).blocks) == frozenset(y6.blocks)
    assert frozenset(residual(ext, 22).blocks) == frozenset(y7.blocks)


def test_extend_pair_validation(fano, y6):
    with pytest.raises(ValueError):
        extend_pair(fano, y6)  # different point counts
    with pytest.raises(ValueError):
        extend_pair(fano, fano)  # sizes must be r and r+1


@pytest.mark.parametrize("q", [7, 11, 19, 23])
def test_paley_designs(q):
    d = construct_paley_hadamard(q)
    assert d.n == d.num_blocks == q
    assert d.uniform_size() == (q - 1) // 2
    assert is_t_design(d, 2) == (True, [q, (q - 1) // 2, (q - 3) // 4])


@pytest.mark.parametrize("q", [4, 5, 9, 15, 21])
def test_paley_rejects_non_prime_or_wrong_residue(q):
    with pytest.raises(ValueError):
        construct_paley_hadamard(q)


def test_witt_design(witt):
    assert (witt.n, witt.num_blocks, witt.uniform_size()) == (23, 253, 7)
    assert is_t_design(witt, 4) == (True, [253, 77, 21, 5, 1])


def test_witt_is_steiner_4_cover(witt):
    # every 4-subset lies in exactly one block
    cov = coverage_map(witt, 4)
    assert len(cov) == math.comb(23, 4)
    assert set(cov.values()) == {1}


def _reference_is_t_design(design, t):
    """Level-by-level check on the dict-of-tuples coverage."""
    if design.num_blocks == 0:
        return True, [0] * (t + 1)
    lams = [design.num_blocks]
    for j in range(1, t + 1):
        counts = reference_coverage(design, j)
        if len(counts) < math.comb(design.n, j) or len(set(counts.values())) != 1:
            return False, None
        lams.append(next(iter(counts.values())))
    return True, lams


def _reference_twise_balanced(design, weights, t):
    scale = math.lcm(*(Fraction(w).denominator for w in weights.values()))
    iw = {s: int(Fraction(w) * scale) for s, w in weights.items()}
    lams = []
    for j in range(1, t + 1):
        counts = reference_coverage(design, j, iw)
        if not counts:
            lams.append(Fraction(0))
        elif len(counts) < math.comb(design.n, j) or len(set(counts.values())) != 1:
            return False, None
        else:
            lams.append(Fraction(next(iter(counts.values())), scale))
    return True, lams


@settings(max_examples=60, deadline=None)
@given(designs(uniform=False))
def test_coverage_map_matches_reference(design):
    top = max(design.block_sizes(), default=0)
    for j in [0] + cheap_levels(design, top + 1):
        cov = coverage_map(design, j)
        assert cov == reference_coverage(design, j)
        assert list(cov) == sorted(cov)


@settings(max_examples=60, deadline=None)
@given(designs(), st.data())
def test_is_t_design_matches_reference(design, data):
    if design.num_blocks and design.uniform_size() == 0:
        return
    # with no blocks any t <= n is valid, and t > n is refused
    top = design.uniform_size() if design.num_blocks else min(3, design.n)
    t = data.draw(st.sampled_from(cheap_levels(design, top, prefix=True)), label="t")
    assert is_t_design(design, t) == _reference_is_t_design(design, t)


@settings(max_examples=60, deadline=None)
@given(designs(uniform=False), st.data())
def test_twise_balanced_matches_reference(design, data):
    weights = {s: data.draw(st.fractions(Fraction(1, 6), 6), label=f"w{s}") for s in design.block_sizes()}
    t = data.draw(st.sampled_from(cheap_levels(design, 4, prefix=True)), label="t")
    got = is_regular_twise_balanced(design, weights, t)
    assert got == _reference_twise_balanced(design, weights, t)


def test_twise_balanced_matches_reference_on_unions(fano, paley11):
    for d in (fano, paley11):
        union = Design(d.n, d.blocks + complement(d).blocks)
        r = d.uniform_size()
        for w in ({r: 1, r + 1: 1}, {r: Fraction(2, 3), r + 1: Fraction(2, 3)}, {r: 1, r + 1: 3}):
            for t in (1, 2, 3, 4):
                expect = _reference_twise_balanced(union, w, t)
                assert is_regular_twise_balanced(union, w, t) == expect


@st.composite
def _design_and_level(draw):
    """A random design, which may fail first at an uncovered subset or at a
    covered one with the wrong sum, and a level j."""
    design = draw(designs(uniform=False))
    levels = [j for j in [0] + cheap_levels(design, 4) if 1 <= math.comb(design.n, j) <= 20_000]
    return design, draw(st.sampled_from(levels))


@functools.cache
def _balanced_bases():
    """(design, t) for t-designs, and for the union of one with its complement."""
    fano, paley11 = construct_paley_hadamard(7), construct_paley_hadamard(11)
    triples = Design(8, tuple(mask_of(c) for c in itertools.combinations(range(8), 3)))
    with_complements = [(Design(d.n, d.blocks + complement(d).blocks), 2) for d in (fano, paley11)]
    return [(fano, 2), (paley11, 2), (construct_paley_hadamard(19), 2), (triples, 3),
            (construct_witt_23(), 4), *with_complements]


@st.composite
def _balanced_with_one_block_replaced(draw):
    """A relabelled t-design, or such a union, with its lex-last block
    replaced by another of its size, and a level j <= t.  The new block lies
    on the points from just before the old one's first, so the first failure
    comes after every j-subset that starts lower: deep in the walk.  (Just
    before: the old block may be the top r points, the only r-set above.)"""
    base, t = draw(st.sampled_from(_balanced_bases()))
    n = base.n
    blocks = relabel(base, dict(enumerate(draw(st.permutations(range(n)))))).blocks
    last = blocks[-1]
    first = bits_of(last)[0] - 1
    other = st.sets(st.integers(first, n - 1), min_size=last.bit_count(), max_size=last.bit_count())
    new = draw(other.map(mask_of).filter(lambda b: b != last))
    return Design(n, blocks[:-1] + (new,)), draw(st.integers(1, t))


@settings(max_examples=80, deadline=None)
@given(_design_and_level() | _balanced_with_one_block_replaced(), st.data())
def test_first_unbalanced_is_lex_first_failure(case, data):
    design, j = case
    n = design.n
    weight = {
        s: data.draw(st.integers(1, 6) | st.integers(1, 2**70) | st.fractions(Fraction(1, 6), 6),
                     label=f"w{s}")
        for s in sorted(design.block_sizes())
    }
    sums = reference_coverage(design, j, weight)
    double = Fraction(sum(sums.values()), math.comb(n, j))
    expect = next(
        (s for s in itertools.combinations(range(n), j) if sums.get(s, 0) != double), None
    )
    shells = _weighted_shells(design, weight)
    cols = _columns([b for _, blocks, _ in shells for b in blocks], n)
    assert _first_unbalanced(n, cols, shells, j) == expect


def _weighted_shells(design, weight):
    """The blocks of each size r as a shell (r, blocks, W), with the
    weights weight[r] scaled to integers W."""
    return _integer_weights([(r, [b for b in design.blocks if b.bit_count() == r], w)
                             for r, w in sorted(weight.items())])


@settings(max_examples=80, deadline=None)
@given(designs(uniform=False), st.data())
def test_unbalanced_size_on_both_routes(design, data):
    # the least unbalanced size, from the walk alone (an allowance it never
    # spends) and from the pair count alone (an allowance of 0, so the walk
    # stops at once), is the first size whose weighted coverage sums take
    # more than one value, an uncovered subset's 0 among them
    n = design.n
    weight = {s: data.draw(st.integers(1, 6) | st.fractions(Fraction(1, 6), 6), label=f"w{s}")
              for s in sorted(design.block_sizes())}
    # sizes up to n, as the callers ask; the walk visits every subset of a
    # balanced size
    levels = [j for j in cheap_levels(design, min(n, 4), prefix=True) if math.comb(n, j) <= 20_000]
    hi = data.draw(st.sampled_from(levels), label="hi")
    lo = data.draw(st.integers(1, hi), label="lo")

    def unbalanced(j):
        sums = reference_coverage(design, j, weight)
        values = set(sums.values()) | ({0} if len(sums) < math.comb(n, j) else set())
        return len(values) > 1

    expect = next((j for j in range(lo, hi + 1) if unbalanced(j)), None)
    shells = _weighted_shells(design, weight)
    for allowance in (2**200, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_design, "_allowance", lambda *args: [allowance])
            assert _unbalanced_size(n, shells, lo, hi) == expect, allowance


def test_first_uncovered_after_the_last_covered_subset(fano):
    # on 8 points the Fano lines miss point 7, whose singleton comes last
    assert _first_uncovered(8, fano.blocks, [(1 << 8) - 1], 1) == (0, (7,))
    assert _first_uncovered(7, fano.blocks, [(1 << 7) - 1], 1) is None


def test_one_module_holds_the_subset_walk():
    # _design defines the one subset walk and the one work budget that stops
    # it, so no other module, the oracle's included, walks subsets by hand
    # or estimates a walk's work before it starts.  It alone chooses between
    # the walk and the count of block pairs, so no other module names the
    # count or its price; and the walk has one mask, with no stacked mode,
    # and one limit, with no second budget and no pause sentinel
    src = Path(sys.modules["tightrel"].__file__).parent
    for path in src.rglob("*.py"):
        text = path.read_text()
        if path.name != "_design.py":
            assert not re.search(r"def _?(walk|covered)\b", text), path.name
            assert not re.search(r"_allowance|_pair_moments|_pair_counts", text), path.name
        assert "_check_work" not in text, path.name
    assert "width" not in inspect.signature(_design._walk).parameters
    assert "spent" not in inspect.signature(_design._walk).parameters
    assert "yield None" not in Path(_design.__file__).read_text()


def test_src_modules_use_every_name_they_import():
    # compileall does not catch an import left behind.  An import statement
    # marked `# noqa: F401` re-exports its names, and a name listed in a
    # literal __all__ counts as used
    src = Path(sys.modules["tightrel"].__file__).parent
    for path in src.rglob("*.py"):
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            names = [getattr(x, "id", None) for x in getattr(node, "targets", ())]
            if "__all__" in names and isinstance(node.value, (ast.List, ast.Tuple)):
                used |= {x.value for x in node.value.elts if isinstance(x, ast.Constant)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                assert name in used, f"{path.relative_to(src)}:{node.lineno} imports {name} unused"


# C(n, j) past 2**31 and 2**63, and strengths just below the block size,
# where every covered subset is a long prefix of the walk
@pytest.mark.parametrize(
    "n, size, j",
    [(80, 20, 7), (128, 20, 6), (128, 20, 19), (37, 36, 35), (40, 39, 38), (128, 127, 126), (128, 119, 118)],
)
def test_coverage_at_large_ranks(n, size, j):
    block = Design(n, (mask_of(range(n - size - 1, n - 1)),) * 2)
    assert coverage_map(block, j) == reference_coverage(block, j)
    assert is_t_design(block, j) == (False, None)
    assert lambda_sequence(block, j).entries == reference_lambda_sequence(block, j)


@pytest.mark.parametrize("n, t", [(37, 35), (40, 38), (128, 126)])
def test_full_block_is_a_design_at_high_strength(n, t):
    full = Design(n, ((1 << n) - 1,))
    assert is_t_design(full, t) == (True, [1] * (t + 1))


def _pair_count_spy(monkeypatch):
    """The calls of the block-pair count that is_t_design and lambda_sequence make."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _pair_counts(*args)

    monkeypatch.setattr(_design, "_pair_counts", spy)
    return calls


def test_coverage_routes(monkeypatch, fano):
    # is_t_design counts the block pairs only where its walk spends the
    # allowance of that count first: on the Witt design and its complement
    # at t = 4, the Paley designs at t = 2 and Fano at t = 3.  At t = 5 the
    # Witt walks fail the first 5-subset within it.  The complete 10-uniform
    # design on 20 points (184,756 blocks, 34 billion pairs) would pass the
    # work budget with its count, so at t = 1 and 2 it walks, and finishes
    # within the budget
    calls = _pair_count_spy(monkeypatch)
    witt = construct_witt_23()
    complete = Design(20, tuple(map(mask_of, itertools.combinations(range(20), 10))))
    for d, t, counted in [(witt, 4, True), (witt, 5, False), (complement(witt), 4, True),
                          (complement(witt), 5, False), (construct_paley_hadamard(19), 2, True),
                          (construct_paley_hadamard(47), 2, True), (fano, 3, True),
                          (complete, 1, False), (complete, 2, False)]:
        calls.clear()
        assert is_t_design(d, t)[0] == (d is not fano and t < 5)
        assert bool(calls) == counted, (d.n, d.num_blocks, t)


def test_is_t_design_exits_early_without_counting_pairs(monkeypatch):
    # 200 random 64-point blocks on 128 points at t = 64 cover only 200
    # subsets, and the first 64-subset is not one of them: the walk fails it
    # on its way into the first block, and counts no block pairs
    calls = _pair_count_spy(monkeypatch)
    rng = random.Random(1)
    wide = Design(128, tuple(mask_of(rng.sample(range(128), 64)) for _ in range(200)))
    assert is_t_design(wide, 64) == (False, None)
    assert calls == []
    # the pair count gives the same answer: 200 counts of 1, the rest 0
    assert _pair_moments(128, [(64, wide.blocks, 1)], 64, 64) == [(0, 200)]


def test_coverage_refuses_oversized_size_class(monkeypatch, fano):
    # Fano at j = 2: the walk takes 48 steps of one mask word, 401 units each
    monkeypatch.setattr(_design, "_BUDGET", 48 * 401)
    assert sum(coverage_map(fano, 2).values()) == 21
    monkeypatch.setattr(_design, "_BUDGET", 48 * 401 - 1)
    with pytest.raises(ValueError, match="passed its work budget"):
        coverage_map(fano, 2)
    # one 26-block at j = 13: its 10,400,600 subsets would each be a step; at
    # the real budget the map holds 2.5 million of them when the walk stops
    monkeypatch.setattr(_design, "_BUDGET", 10**6)
    with pytest.raises(ValueError, match=r"budget of 1,000,000 units after 2,496 steps of 401 units"):
        coverage_map(Design(26, (2**26 - 1,)), 13)
