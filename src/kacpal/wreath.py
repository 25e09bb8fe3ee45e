"""The generalised symmetric group: m-tuples of Z_n twists permuted by S_m.

Elements are validated tuples (n, twists, perm), as Perm is a validated
tuple of images, with the product rule that routes the right factor's
twists through the left factor's inverse permutation.  A dense integer
index (Lehmer rank of the permutation, then mixed-radix twists) gives
cache-friendly addressing for the group algebra; twist_index and
perm_index are the package's only index arithmetic.  No routine enumerates
the group: kacpal.conjugacy sweeps the conjugacy classes as generator
orbits.  CAPS holds
the default bound on the group order of every brute-force path, and
check_cap is the one comparison against it.

The module also holds the few helpers that every other module shares,
so that a command loads them with the group and nothing more: the
repeated-squaring loop power and the action permute_character of a
permutation on a character of Z_n^m.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain, repeat
from math import factorial
from operator import itemgetter

# Each cap name that an error prints, against its default bound on |G|.
# The rank check's bound is measured: every classification check took 7.3 s
# at (1000, 1) and 43 s at (2000, 1), n^3 model-check steps, and 0.26 s at
# (22, 2), the largest m = 2 order within it (Python 3.11, shared 2-core VM).
CAPS = {
    "relation-suite": 10000,
    "rank-check": 1000,
    "tensor-square": 100,
    "conjugacy": 10000,
    "enumeration": 10000,
}


class CapExceededError(Exception):
    """A brute-force computation would exceed its configured cap."""


class CheckFailedError(Exception):
    """An exact mathematical check or invariant does not hold."""


def power(x, exponent: int, one):
    """x ** exponent for exponent >= 0 by repeated squaring; one() gives x ** 0.

    Starts from the lowest set bit and squares only while bits remain, so
    x ** 4 costs two products and x ** 5 three.
    """
    if not exponent:
        return one()
    while not exponent & 1:
        x = x * x
        exponent >>= 1
    result = x
    exponent >>= 1
    while exponent:
        x = x * x
        if exponent & 1:
            result = result * x
        exponent >>= 1
    return result


class Perm(tuple):
    """A permutation of {0,..,m-1}: its one-line tuple of images, validated."""

    __slots__ = ()

    def __new__(cls, images):
        self = tuple.__new__(cls, images)
        if sorted(self) != list(range(len(self))):
            raise ValueError(f"not a permutation of 0..{len(self) - 1}: {tuple(self)}")
        return self

    @staticmethod
    def _make(images) -> "Perm":
        # products and inverses of valid permutations need no re-validation
        return tuple.__new__(Perm, images)

    @classmethod
    def identity(cls, m: int) -> "Perm":
        return cls(range(m))

    @classmethod
    def transposition(cls, m: int, i: int, j: int) -> "Perm":
        images = list(range(m))
        images[i], images[j] = images[j], images[i]
        return cls(images)

    @property
    def m(self) -> int:
        return len(self)

    def __mul__(self, other: "Perm") -> "Perm":
        # composition: (self * other)(i) = self(other(i))
        if not isinstance(other, Perm):
            return NotImplemented
        return Perm._make([self[j] for j in other])

    def inverse(self) -> "Perm":
        inv = [0] * len(self)
        for i, img in enumerate(self):
            inv[img] = i
        return Perm._make(inv)

    def cycles(self) -> list[tuple[int, int]]:
        """(least point, length) of each cycle, by least point."""
        seen = [False] * len(self)
        out = []
        for start in range(len(self)):
            length, cur = 0, start
            while not seen[cur]:
                seen[cur], cur, length = True, self[cur], length + 1
            if length:
                out.append((start, length))
        return out

    def sign(self) -> int:
        # a cycle of length k is a product of k - 1 transpositions
        return -1 if (len(self) - len(self.cycles())) % 2 else 1

    @classmethod
    def from_lehmer(cls, m: int, rank: int) -> "Perm":
        if not 0 <= rank < factorial(m):
            raise ValueError(f"Lehmer rank {rank} out of range for m={m}")
        available = list(range(m))
        images = []
        for i in range(m):
            f = factorial(m - 1 - i)
            digit, rank = divmod(rank, f)
            images.append(available.pop(digit))
        return cls(images)

    def __repr__(self):
        return f"Perm({list(self)})"


def permute_character(lam: tuple[int, ...], perm) -> tuple[int, ...]:
    """The character lam composed with a slot permutation: entry j of the
    result is lam[perm(j)], so entry i of lam moves to slot perm^(-1)(i).

    perm is a Perm, which is its one-line tuple.  Composition is
    contravariant: permuting by a then by b is permuting by a * b.
    """
    return tuple([lam[j] for j in perm])


class WreathElement(tuple):
    """A group element: Z_n twist vector plus a permutation of the slots, as
    the validated tuple (n, twists, perm)."""

    __slots__ = ()

    def __new__(cls, n: int, twists, perm: Perm):
        twists = tuple(int(t) for t in twists)
        if len(twists) != perm.m:
            raise ValueError("twist vector and permutation size differ")
        if any(not 0 <= t < n for t in twists):
            raise ValueError(f"twists must lie in 0..{n - 1}: {twists}")
        return tuple.__new__(cls, (n, twists, perm))

    @staticmethod
    def _make(n: int, twists: tuple[int, ...], perm: Perm) -> "WreathElement":
        # products and inverses of valid elements need no re-validation
        return tuple.__new__(WreathElement, (n, twists, perm))

    n = property(itemgetter(0))
    twists = property(itemgetter(1))
    perm = property(itemgetter(2))

    @property
    def m(self) -> int:
        return len(self.twists)

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if not isinstance(other, WreathElement):
            return NotImplemented
        (n, mine, perm), (n_other, theirs, perm_other) = self, other
        if n != n_other or len(mine) != len(theirs):
            raise ValueError("wreath parameter mismatch")
        inv = perm.inverse()
        twists = tuple((mine[i] + theirs[inv[i]]) % n for i in range(len(mine)))
        return WreathElement._make(n, twists, perm * perm_other)

    def inverse(self) -> "WreathElement":
        n, mine, perm = self
        twists = tuple((-mine[perm[j]]) % n for j in range(len(mine)))
        return WreathElement._make(n, twists, perm.inverse())

    def __repr__(self):
        return f"WreathElement(n={self.n}, twists={list(self.twists)}, perm={list(self.perm)})"


def group_order(n: int, m: int) -> int:
    return n**m * factorial(m)


def check_cap(n: int, m: int, what: str, cap: int | None = None) -> int:
    """The group order, or CapExceededError if it exceeds cap, which
    defaults to CAPS[what]."""
    if cap is None:
        cap = CAPS[what]
    # An order past the cap and past the longest decimal Python prints (the
    # default 4300 digits where no limit is set) is refused under its
    # formula, so it is built one factor at a time and no further: the
    # refusal costs what those bounds cost, not what m does.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    named = max(cap, 10**digits - 1)
    order = 1
    for factor in chain(range(2, m + 1), repeat(n, m)):
        order *= factor
        if order > named:
            raise CapExceededError(f"group order {n}^{m}*{m}! exceeds {what} cap {cap}")
    if order > cap:
        raise CapExceededError(f"group order {order} exceeds {what} cap {cap}")
    return order


def generator_a(n: int, m: int, i: int) -> WreathElement:
    """The order-n twist generator at slot i (1-based)."""
    if not 1 <= i <= m:
        raise ValueError(f"twist generator index {i} out of range 1..{m}")
    twists = tuple(1 % n if j == i - 1 else 0 for j in range(m))
    return WreathElement(n, twists, Perm.identity(m))


def generator_b(n: int, m: int, l: int) -> WreathElement:
    """The adjacent-transposition generator swapping slots l, l+1 (1-based)."""
    if not 1 <= l <= m - 1:
        raise ValueError(f"transposition generator index {l} out of range 1..{m - 1}")
    return WreathElement(n, (0,) * m, Perm.transposition(m, l - 1, l))


def twist_index(n: int, twists) -> int:
    """The mixed-radix value of a twist vector, slot 0 least significant."""
    index = 0
    for t in reversed(twists):
        index = index * n + t
    return index


@lru_cache(maxsize=None)
def perm_index(images: tuple[int, ...]) -> int:
    """The Lehmer rank of a permutation in one-line notation."""
    m = len(images)
    rank = 0
    for i in range(m):
        smaller = sum(1 for j in range(i + 1, m) if images[j] < images[i])
        rank += smaller * factorial(m - 1 - i)
    return rank


def element_index(u: WreathElement) -> int:
    """Dense index: Lehmer rank of the permutation, then base-n twists."""
    return perm_index(u.perm) * u.n**u.m + twist_index(u.n, u.twists)


def element_at(n: int, m: int, index: int) -> WreathElement:
    if not 0 <= index < group_order(n, m):
        raise ValueError(f"group index {index} out of range for (n={n}, m={m})")
    base = n**m
    perm_rank, twist_part = divmod(index, base)
    twists = []
    for _ in range(m):
        twist_part, t = divmod(twist_part, n)
        twists.append(t)
    return WreathElement(n, twists, Perm.from_lehmer(m, perm_rank))
