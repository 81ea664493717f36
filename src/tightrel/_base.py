"""The pieces that every verb shares: the file-format error, the immutable
record base, design parameters and the tight-size bound.  This module
imports nothing from tightrel, so a verb that needs only these pays for
nothing else.
"""

from __future__ import annotations

import math


class FormatError(ValueError):
    """A design file violates its declared text format."""


class _Record:
    """Immutable record over the fields named in __slots__.

    Equality, hash and repr are those of a frozen dataclass: equal only to
    an instance of the same class with equal fields, hashed by the field
    tuple, shown as Name(field=value, ...).  Assignment and deletion raise
    the frozen dataclass's FrozenInstanceError, an AttributeError.
    Pickling and copying rebuild through the constructor, so a copy is
    validated like a new instance.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    # dataclasses (with inspect) costs more to import than most verbs take
    # to run, so it loads only here, on the way to an error
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class DesignParams(_Record):
    """Parameter tuple of a t-(v,k,lam) design."""

    __slots__ = ("v", "k", "lam", "t")

    def __init__(self, v: int, k: int, lam: int, t: int = 2):
        if not 0 < t <= k <= v:
            raise ValueError("need 0 < t <= k <= v")
        if lam < 1:
            raise ValueError("lam must be >= 1")
        self._set(v, k, lam, t)


def tight_size(t: int, n: int) -> int:
    """Fisher-type lower bound on the total block count of a two-shell
    relative t-design on n points, met with equality by a tight one.

    For odd t = 2e+1 each shell is a 2e-design, so Ray-Chaudhuri-Wilson
    gives each at least C(n, e) blocks and the bound is 2 C(n, e); for even
    t = 2e it is C(n, e) + C(n, e-1).  Hence 2n at t = 3, n(n+1)/2 at t = 4
    and 2 C(n, 2) at t = 5.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    e, odd = divmod(t, 2)
    if odd:
        return 2 * math.comb(n, e)
    return math.comb(n, e) + math.comb(n, e - 1)
