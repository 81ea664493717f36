"""The nonexistence tests of tightrel.screens: exact on plain integers, and
the same objects under their tightrel.feasibility names."""

import math
from fractions import Fraction

import pytest
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


def _prime_factors_by_trial_division(m):
    """2 and every odd f with f*f <= m tried in turn."""
    out, f = [], 2
    while f * f <= m:
        e = 0
        while m % f == 0:
            m, e = m // f, e + 1
        if e:
            out.append((f, e))
        f += 1 if f == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


_primes_near = st.sampled_from([2, 3, 997, 1009, 1013, 65537, 999983, 1000003])


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 10**12)
    | st.tuples(_primes_near, _primes_near, st.integers(1, 10**4)).map(math.prod)
)
@example(m=1)
@example(m=1009 * 1013)
@example(m=999983**2)
@example(m=2**39)
@example(m=1000003 * 999983)
def test_prime_factors_match_trial_division(m):
    assert screens._prime_factors(m) == _prime_factors_by_trial_division(m)


def test_prime_factors_of_two_large_primes():
    p, q = 998244353, 1000000007
    assert screens._prime_factors(p * q) == [(p, 1), (q, 1)]
    assert screens._prime_factors(p * q * q * 12) == [(2, 2), (3, 1), (p, 1), (q, 2)]
    # two 13-digit primes: about a million rho steps, within the budget
    a, b = 10**12 + 39, 10**12 + 61
    assert screens._prime_factors(a * b) == [(a, 1), (b, 1)]


def test_prime_factors_refuse_what_they_cannot_prove(monkeypatch):
    # 2^89 - 1 is prime, but past the range where Miller-Rabin proves it
    with pytest.raises(ValueError, match="cannot prove 618970019642690137449562111 prime"):
        screens._prime_factors(2**89 - 1)
    # a composite past that range still splits into pieces inside it
    assert screens._prime_factors((2**61 - 1) * (2**31 - 1)) == [(2**31 - 1, 1), (2**61 - 1, 1)]
    monkeypatch.setattr(screens, "_RHO_STEPS", 1000)
    with pytest.raises(ValueError, match="within 1000 Pollard rho steps"):
        screens._prime_factors(998244353 * 1000000007)
