"""The eight immutable records (Design, DesignParams, RelativeCandidate,
ShellReport, KageyamaReport, NonexistenceVerdict, LambdaSequence,
FeasibleRow) keep the semantics they had as frozen dataclasses: field
equality within one class, a hash and a repr of the field tuple, no
assignment, and copies rebuilt through the validating constructor."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tightrel import (
    Design,
    DesignParams,
    FeasibleRow,
    KageyamaReport,
    LambdaSequence,
    NonexistenceVerdict,
    RelativeCandidate,
    ShellReport,
    annotate_existence,
    brc_test,
    complement,
    complementary_pair,
    construct_paley_hadamard,
    kageyama_constituents,
    lambda_sequence,
    scan_relative3,
    scan_relative4,
)
from tightrel.designs import bits_of, mask_of


def _records():
    fano = construct_paley_hadamard(7)
    cand = RelativeCandidate.from_designs(
        Design(3, (1, 2)), Design(3, (3, 6)), 1, Fraction(2, 3), allow_trivial=True
    )
    report = kageyama_constituents(complementary_pair(fano), 3)
    return [
        (Design(4, (12, 3, 5)), "Design(n=4, blocks=(3, 5, 12))"),
        (DesignParams(7, 3, 1), "DesignParams(v=7, k=3, lam=1, t=2)"),
        (DesignParams(v=11, k=5, lam=2, t=3), "DesignParams(v=11, k=5, lam=2, t=3)"),
        (
            cand,
            "RelativeCandidate(n=3, r1=1, r2=2, design1=Design(n=3, blocks=(1, 2)), "
            "design2=Design(n=3, blocks=(3, 6)), w1=Fraction(1, 1), w2=Fraction(2, 3))",
        ),
        (
            report.shells[0],
            "ShellReport(r=3, is_design=True, lambda_observed=(7, 3, 1), "
            "lambda_formula=Fraction(1, 1), matches=True)",
        ),
        (
            report,
            "KageyamaReport(applicable=True, t=3, weighted_lambda=(Fraction(3, 1), "
            "Fraction(1, 1)), shells=(ShellReport(r=3, is_design=True, "
            "lambda_observed=(7, 3, 1), lambda_formula=Fraction(1, 1), matches=True), "
            "ShellReport(r=4, is_design=True, lambda_observed=(7, 4, 2), "
            "lambda_formula=Fraction(2, 1), matches=True)))",
        ),
        (
            kageyama_constituents(RelativeCandidate.from_designs(fano, complement(fano), 1, 2), 3),
            "KageyamaReport(applicable=False, t=3, weighted_lambda=None, shells=None)",
        ),
        (
            brc_test(DesignParams(29, 8, 2)),
            "NonexistenceVerdict(test='BRCOdd', outcome='RuledOut', "
            "detail='x^2 = 6y^2 + 2z^2 : insolvable')",
        ),
        (lambda_sequence(fano, 2), "LambdaSequence(t=2, entries=((1, 21),))"),
        (
            annotate_existence([r for r in scan_relative3(7) if r.n == 7])[0],
            "FeasibleRow(t=3, n=7, r1=3, r2=4, N1=7, N2=7, lam1=1, lam2=2, "
            "ratio=Fraction(1, 1), pairs=((0, 1), (1, 0)), case=1, star=True, "
            "verdicts=(NonexistenceVerdict(test='BRCOdd', outcome='Passes', "
            "detail='x^2 = 2y^2 - 1z^2 : solvable'), NonexistenceVerdict(test='BRCOdd', "
            "outcome='Passes', detail='x^2 = 2y^2 - 2z^2 : solvable')))",
        ),
        (
            next(r for r in scan_relative4(11) if r.ratio != 1),
            "FeasibleRow(t=4, n=11, r1=5, r2=6, N1=33, N2=33, lam1=2, lam2=4, "
            "ratio=Fraction(1, 3), pairs=((0, 3), (1, 0)), case=0, star=True, verdicts=())",
        ),
    ]


RECORDS = _records()
IDS = [type(rec).__name__ for rec, _ in RECORDS]


FIELDS = {
    Design: ("n", "blocks"),
    DesignParams: ("v", "k", "lam", "t"),
    RelativeCandidate: ("n", "r1", "r2", "design1", "design2", "w1", "w2"),
    ShellReport: ("r", "is_design", "lambda_observed", "lambda_formula", "matches"),
    KageyamaReport: ("applicable", "t", "weighted_lambda", "shells"),
    NonexistenceVerdict: ("test", "outcome", "detail"),
    LambdaSequence: ("t", "entries"),
    FeasibleRow: ("t", "n", "r1", "r2", "N1", "N2", "lam1", "lam2", "ratio", "pairs", "case",
                  "star", "verdicts"),
}


def _fields(rec):
    return tuple(getattr(rec, name) for name in FIELDS[type(rec)])


@pytest.mark.parametrize("rec,text", RECORDS, ids=IDS)
def test_repr_matches_the_dataclass_repr(rec, text):
    assert repr(rec) == text


@pytest.mark.parametrize("rec,text", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(rec, text):
    cls = type(rec)
    twin = cls(*_fields(rec))
    assert twin == rec and not twin != rec
    assert hash(twin) == hash(rec) == hash(_fields(rec))
    # a tuple of the same fields is another type: not equal either way
    assert rec != _fields(rec) and _fields(rec) != rec
    assert rec.__eq__(_fields(rec)) is NotImplemented
    assert len({rec, twin}) == 1


def test_records_with_other_fields_differ():
    assert Design(4, (3,)) != Design(4, (5,))
    assert Design(4, (3,)) != Design(5, (3,))
    assert DesignParams(7, 3, 1) != DesignParams(7, 3, 1, 3)
    report = ShellReport(3, True, None, Fraction(1), True)
    assert report != ShellReport(3, True, None, Fraction(1), False)
    assert KageyamaReport(False, 3, None, None) != KageyamaReport(False, 4, None, None)


@pytest.mark.parametrize("rec,text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(rec, text):
    name = FIELDS[type(rec)][0]
    with pytest.raises(AttributeError):
        setattr(rec, name, 0)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert repr(rec) == text
    # the frozen dataclass's own error, with its message
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
        setattr(rec, name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
        delattr(rec, name)


@pytest.mark.parametrize("rec,text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(rec, text):
    for clone in (
        pickle.loads(pickle.dumps(rec)),
        pickle.loads(pickle.dumps(rec, protocol=0)),
        copy.copy(rec),
        copy.deepcopy(rec),
    ):
        assert type(clone) is type(rec)
        assert clone == rec and repr(clone) == text
    # a copy is built by the constructor, so it is validated like one
    assert rec.__reduce__() == (type(rec), _fields(rec))


def test_keyword_construction_and_defaults():
    assert Design(n=4, blocks=(3,)) == Design(4, (3,))
    assert DesignParams(v=7, k=3, lam=1) == DesignParams(7, 3, 1, 2)
    fano = construct_paley_hadamard(7)
    cand = complementary_pair(fano)
    assert RelativeCandidate(
        n=7, r1=3, r2=4, design1=fano, design2=complement(fano), w1=1, w2=Fraction(1)
    ) == cand
    assert ShellReport(
        r=3, is_design=False, lambda_observed=None, lambda_formula=Fraction(1, 2), matches=False
    ) == ShellReport(3, False, None, Fraction(1, 2), False)
    assert KageyamaReport(applicable=False, t=3, weighted_lambda=None, shells=None) == (
        KageyamaReport(False, 3, None, None)
    )
    row = FeasibleRow(
        t=4, n=11, r1=5, r2=6, N1=33, N2=33, lam1=2, lam2=4, ratio=Fraction(1), pairs=(),
        case=0, star=False,
    )
    assert row == FeasibleRow(4, 11, 5, 6, 33, 33, 2, 4, Fraction(1), (), 0, False, ())


def test_constructor_converts_like_before():
    cand = RelativeCandidate(3, 1, 2, Design(3, (1, 2)), Design(3, (3, 6)), 2, "3/4")
    assert (type(cand.w1), cand.w1, cand.w2) == (Fraction, 2, Fraction(3, 4))
    assert Design(4, [True, 12]).blocks == (1, 12)


def test_invalid_arguments_raise_the_same_errors():
    fano = construct_paley_hadamard(7)
    comp = complement(fano)
    cases = [
        (lambda: Design(0, ()), "point count must be in 1..128, got 0"),
        (lambda: Design(4, (16,)), "block contains a point index outside 0..n-1"),
        # a negative int must not hang the sort key
        (lambda: Design(4, (-1,)), "block contains a point index outside 0..n-1"),
        (lambda: DesignParams(7, 8, 1), "need 0 < t <= k <= v"),
        (lambda: DesignParams(7, 3, 1, 0), "need 0 < t <= k <= v"),
        (lambda: DesignParams(7, 3, 0), "lam must be >= 1"),
        (lambda: RelativeCandidate(8, 3, 4, fano, comp, 1, 1),
         "both shell designs must live on the same n points"),
        (lambda: RelativeCandidate(7, 3, 4, Design(7, ()), comp, 1, 1),
         "each shell needs at least one block"),
        (lambda: RelativeCandidate(7, 3, 5, fano, comp, 1, 1),
         "declared shell ranks do not match the block sizes"),
        (lambda: RelativeCandidate(7, 4, 3, comp, fano, 1, 1), "shell ranks must satisfy r1 < r2"),
        (lambda: RelativeCandidate(7, 3, 4, fano, comp, 1, 0), "shell weights must be positive"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


@st.composite
def block_lists(draw):
    """Blocks of mixed sizes on up to 128 points, with empty blocks and
    repeats."""
    n = draw(st.integers(1, 128))
    block = st.sets(st.integers(0, n - 1), max_size=min(n, 10)).map(mask_of) | st.integers(
        0, 2**n - 1
    )
    blocks = draw(st.lists(block, max_size=30))
    if blocks:
        blocks += draw(st.lists(st.sampled_from(blocks), max_size=5))
    return n, draw(st.permutations(blocks))


@settings(max_examples=300, deadline=None)
@given(block_lists())
def test_canonical_order_is_lex_on_ascending_indices(case):
    n, blocks = case
    assert Design(n, tuple(blocks)).blocks == tuple(sorted(blocks, key=bits_of))
