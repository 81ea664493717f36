"""The nonexistence tests of tightrel.screens: exact on plain integers, and
the same objects under their tightrel.feasibility names."""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from tightrel import DesignParams, NonexistenceVerdict, admissibility_test, feasibility, screens


def _admissibility_by_fractions(p):
    """admissibility_test as it was, on Fraction: the reference for the
    integer-only version."""
    name = f"{p.t}-({p.v},{p.k},{p.lam})"
    if p.t == 2:
        lhs, rhs = p.k * (p.k - 1), p.lam * (p.v - 1)
        if lhs != rhs:
            return NonexistenceVerdict(
                "Admissible", "Inadmissible",
                f"k(k-1)={lhs} != lam(v-1)={rhs}: no symmetric {name} design",
            )
        return NonexistenceVerdict("Admissible", "Passes", f"k(k-1)=lam(v-1)={lhs}")
    for i in range(p.t - 1, -1, -1):
        lam_i = Fraction(p.lam * math.comb(p.v - i, p.t - i), math.comb(p.k - i, p.t - i))
        if lam_i.denominator != 1:
            return NonexistenceVerdict(
                "Admissible", "Inadmissible",
                f"lam_{i}={lam_i} is not an integer: no {name} design",
            )
    return NonexistenceVerdict("Admissible", "Passes", f"lam_0..lam_{p.t - 1} are integers")


@st.composite
def _params(draw):
    t = draw(st.sampled_from([2, 3]))
    v = draw(st.integers(t, 400))
    k = draw(st.integers(t, v))
    # a multiple of C(k, t) often makes every lam_i integral at t = 3
    lam = draw(st.integers(1, 60) | st.integers(1, 4).map(lambda m: m * math.comb(k, t)))
    return DesignParams(v, k, lam, t)


@settings(max_examples=500, deadline=None)
@given(_params())
@example(DesignParams(7, 3, 1))
@example(DesignParams(10, 5, 1))
@example(DesignParams(9, 4, 1, 3))
@example(DesignParams(7, 4, 2, 3))
@example(DesignParams(8, 4, 1, 3))
@example(DesignParams(11, 5, 2, 3))
@example(DesignParams(22, 7, 16, 3))
def test_integer_admissibility_matches_the_fraction_formula(p):
    got, want = admissibility_test(p), _admissibility_by_fractions(p)
    assert (got.test, got.outcome, got.detail) == (want.test, want.outcome, want.detail)
    assert got == want


def test_feasibility_names_are_the_screens_objects():
    # the scans annotate with these very functions, and the benchmark's
    # tracer counts calls under their feasibility names
    for name in screens.__all__:
        assert getattr(feasibility, name) is getattr(screens, name)
