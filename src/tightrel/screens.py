"""Number-theoretic nonexistence tests for design parameters: the counting
conditions, the perfect-square test for symmetric designs on an even number
of points, the ternary-form test for an odd number, and the congruence test
for triple systems with lam = 2 of triangular-number shape.

Each test returns a NonexistenceVerdict.  nonexistence_test, at the end of
this module, is the one place that picks the test for a parameter set: the
nonexist verb and the scans' annotation both call it.  The arithmetic is
exact and on ints only, so this module needs nothing beyond math and
_base.py.
"""

from __future__ import annotations

import math

from ._base import DesignParams, _Record

__all__ = [
    "NonexistenceVerdict",
    "admissibility_test",
    "symmetric_square_test",
    "brc_test",
    "legendre_solvable",
    "driessen_test",
    "nonexistence_test",
]


class NonexistenceVerdict(_Record):
    """test: Admissible | SquareEven | BRCOdd | Driessen;
    outcome: RuledOut | Passes | NotApplicable | Inadmissible."""

    __slots__ = ("test", "outcome", "detail")

    def __init__(self, test: str, outcome: str, detail: str):
        self._set(test, outcome, detail)


def _is_square(m: int) -> bool:
    return m >= 0 and math.isqrt(m) ** 2 == m


def admissibility_test(p: DesignParams) -> NonexistenceVerdict:
    """The counting conditions the other tests take for granted.  At t = 2
    the parameters are those of a symmetric design (b = v blocks), so
    k(k-1) = lam(v-1); at any other t every lam_i = lam C(v-i,t-i)/C(k-i,t-i),
    i < t, must be an integer (for t = 3: lam_2, lam_1 and b = lam_0)."""
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
        num, den = p.lam * math.comb(p.v - i, p.t - i), math.comb(p.k - i, p.t - i)
        if num % den:
            g = math.gcd(num, den)  # lam_i in lowest terms
            return NonexistenceVerdict(
                "Admissible", "Inadmissible",
                f"lam_{i}={num // g}/{den // g} is not an integer: no {name} design",
            )
    return NonexistenceVerdict("Admissible", "Passes", f"lam_0..lam_{p.t - 1} are integers")


def symmetric_square_test(p: DesignParams) -> NonexistenceVerdict:
    """Even point count: a symmetric 2-(v,k,lam) design needs k-lam square."""
    if p.v % 2 != 0:
        return NonexistenceVerdict("SquareEven", "NotApplicable", f"v={p.v} is odd")
    d = p.k - p.lam
    if _is_square(d):
        return NonexistenceVerdict("SquareEven", "Passes", f"k-lam={d} is a perfect square")
    return NonexistenceVerdict("SquareEven", "RuledOut", f"k-lam={d} is not a perfect square")


# Trial division takes the primes below _TRIAL_BOUND.  Miller-Rabin with the
# first 13 primes as bases is exact below _MR_LIMIT (Sorenson and Webster,
# 2015), and Pollard-Brent may take _RHO_STEPS steps per factorisation.
_TRIAL_BOUND = 1000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
_RHO_STEPS = 1 << 22


def _prime_factors(m: int) -> list:
    """(p, exponent) for each prime p dividing m >= 1, ascending.

    Trial division finds the small primes; what is left splits by
    Pollard's rho until each piece passes Miller-Rabin.  ValueError when a
    piece passes it at or past _MR_LIMIT, where passing proves nothing, or
    when the splits need more than _RHO_STEPS steps.
    """
    out = {}
    f = 2
    while f < _TRIAL_BOUND and f * f <= m:
        while m % f == 0:
            m //= f
            out[f] = out.get(f, 0) + 1
        f += 1 if f == 2 else 2
    # every prime factor left is at least f, so a piece below f^2 is prime
    pending, budget = ([m] if m > 1 else []), [_RHO_STEPS]
    while pending:
        q = pending.pop()
        if q < f * f or _strong_probable_prime(q):
            if q >= _MR_LIMIT:
                raise ValueError(
                    f"cannot prove {q} prime: Miller-Rabin is exact only below {_MR_LIMIT}"
                )
            out[q] = out.get(q, 0) + 1
        else:
            d = _rho_factor(q, budget)
            pending += [d, q // d]
    return sorted(out.items())


def _strong_probable_prime(q: int) -> bool:
    """Miller-Rabin to every base of _MR_BASES, for odd q > 41: False proves
    q composite, and True proves it prime below _MR_LIMIT."""
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _rho_factor(q: int, budget: list) -> int:
    """A proper divisor of the composite q: Pollard's rho on y -> y^2 + c
    with Brent's cycle search and one gcd per batch of 64 steps.  budget[0]
    holds the steps left, and is charged for the ones taken."""
    for c in range(1, q):
        y, r, g, acc = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % q
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(64, r - k)):
                    y = (y * y + c) % q
                    acc = acc * abs(x - y) % q
                g = math.gcd(acc, q)
                k += 64
            budget[0] -= 2 * r
            if budget[0] < 0:
                raise ValueError(f"cannot split {q} within {_RHO_STEPS} Pollard rho steps")
            r *= 2
        if g == q:  # the batch passed the collision: redo it one gcd a step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % q
                g = math.gcd(abs(x - ys), q)
        if g != q:
            return g
    raise AssertionError(f"no divisor of {q} found")


def legendre_solvable(a: int, b: int, c: int) -> bool:
    """Whether a x^2 + b y^2 + c z^2 = 0 has a nontrivial integer solution.

    The coefficients must be nonzero and squarefree; one factorisation of
    each both validates it and feeds _isotropic.
    """
    if 0 in (a, b, c):
        raise ValueError("coefficients must be nonzero")
    factored = [_prime_factors(abs(x)) for x in (a, b, c)]
    if any(e > 1 for f in factored for _, e in f):
        raise ValueError("coefficients must be squarefree")
    return _isotropic((a, b, c), factored)


def _isotropic(coeffs: tuple, factored: list) -> bool:
    """Whether sum c_i x_i^2 = 0 has a nontrivial integer solution, for three
    nonzero coefficients c_i given with their _prime_factors.

    Each c_i keeps its sign and the set of its primes of odd exponent: a
    square factor moves into x_i.  A prime p in two of the sets leaves both
    and is toggled in the third, since (p a) x^2 + (p b) y^2 + c z^2 times p
    is a (p x)^2 + b (p y)^2 + (p c) z^2.  One pass leaves the sets pairwise
    disjoint, and Legendre's criterion decides: the signs are mixed, and at
    each prime p of one coefficient minus the product of the other two is a
    square mod p, which Euler's criterion decides (at p = 2 its exponent is
    0, and every residue is a square).
    """
    signs = [-1 if x < 0 else 1 for x in coeffs]
    if len(set(signs)) == 1:
        return False
    primes = [{p for p, e in f if e % 2} for f in factored]
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        shared = primes[i] & primes[j]
        primes[i] -= shared
        primes[j] -= shared
        primes[k] ^= shared
    a, b, c = (s * math.prod(ps) for s, ps in zip(signs, primes))
    return all(
        pow(-rest, (p - 1) // 2, p) == 1
        for ps, rest in zip(primes, (b * c, a * c, a * b))
        for p in ps
    )


def brc_form(p: DesignParams) -> tuple:
    """Raw ternary form of the odd-v symmetric test:
    x^2 - (k-lam) y^2 - eps*lam z^2 with eps = (-1)^((v-1)/2)."""
    eps = -1 if ((p.v - 1) // 2) % 2 else 1
    return 1, -(p.k - p.lam), -eps * p.lam


def brc_test(p: DesignParams) -> NonexistenceVerdict:
    """Odd point count: x^2 = (k-lam) y^2 + (-1)^((v-1)/2) lam z^2 must have
    a nontrivial solution for a symmetric 2-(v,k,lam) design to exist."""
    if p.v % 2 == 0:
        return NonexistenceVerdict("BRCOdd", "NotApplicable", f"v={p.v} is even")
    a, b, c = brc_form(p)
    eps_term = f"+ {p.lam}z^2" if c < 0 else f"- {p.lam}z^2"
    form = f"x^2 = {p.k - p.lam}y^2 {eps_term}"
    # k = lam leaves y free, so (0, 1, 0) solves the form
    if b == 0 or _isotropic((a, b, c), [_prime_factors(abs(x)) for x in (a, b, c)]):
        return NonexistenceVerdict("BRCOdd", "Passes", f"{form} : solvable")
    return NonexistenceVerdict("BRCOdd", "RuledOut", f"{form} : insolvable")


def _driessen_u_admissible(u: int) -> bool:
    """Congruence condition: a 3-(u(u-1)/2 + u + 1, u+1, 2) design needs
    u = 2 mod 48 with every odd prime of odd multiplicity = 1,3,9,11 mod 16,
    or u = 14 mod 48 with those primes = 1,7,9,15 mod 16."""
    if u % 48 == 2:
        allowed = {1, 3, 9, 11}
    elif u % 48 == 14:
        allowed = {1, 7, 9, 15}
    else:
        return False
    return all(e % 2 == 0 or p % 16 in allowed for p, e in _prime_factors(u) if p != 2)


def _driessen_shape(p: DesignParams):
    """Recognize (v,k,lam) as the lam=2 triangular shape with parameter u,
    or as its complement; returns (u, which) or None."""
    if p.t != 3:
        return None
    # direct shape: 3-(C(u,2)+u+1, u+1, 2)
    if p.lam == 2 and p.k >= 3:
        u = p.k - 1
        if p.v == u * (u - 1) // 2 + u + 1:
            return u, "direct"
    # complement shape: 3-(C(u+1,2)+1, C(u,2), (u^2-u-4)(u-2)/4)
    u = (1 + math.isqrt(1 + 8 * p.k)) // 2
    if u >= 3 and u * (u - 1) // 2 == p.k and p.v == u * (u + 1) // 2 + 1:
        num = (u * u - u - 4) * (u - 2)
        if num % 4 == 0 and num // 4 == p.lam:
            return u, "complement"
    return None


def driessen_test(p: DesignParams) -> NonexistenceVerdict:
    """Congruence test for triple systems with lam = 2 whose point count is a
    triangular number plus u+1 (or the complement of such a system)."""
    shape = _driessen_shape(p)
    if shape is None:
        return NonexistenceVerdict(
            "Driessen", "NotApplicable", f"{p.t}-({p.v},{p.k},{p.lam}) has no matching shape"
        )
    u, which = shape
    if _driessen_u_admissible(u):
        return NonexistenceVerdict(
            "Driessen", "Passes", f"u={u} ({which}): u mod 48 and prime conditions hold"
        )
    return NonexistenceVerdict(
        "Driessen", "RuledOut", f"u={u} ({which}): u mod 48 = {u % 48} fails the congruence conditions"
    )


def nonexistence_test(p: DesignParams) -> NonexistenceVerdict:
    """The verdict on p: the counting conditions of admissibility_test, then,
    if they hold, the test that matches p: symmetric_square_test at t = 2
    and even v, brc_test at t = 2 and odd v, driessen_test otherwise."""
    verdict = admissibility_test(p)
    if verdict.outcome != "Passes":
        return verdict
    if p.t != 2:
        return driessen_test(p)
    return symmetric_square_test(p) if p.v % 2 == 0 else brc_test(p)
