"""The generalised symmetric group: m-tuples of Z_n twists permuted by S_m.

Elements are pairs (twists, perm) with the product rule that routes the
right factor's twists through the left factor's inverse permutation.  A
dense integer index (Lehmer rank of the permutation, then mixed-radix
twists) gives cache-friendly addressing for the group algebra.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial


DEFAULT_ENUMERATION_CAP = 10000


class CapExceededError(Exception):
    """A brute-force computation would exceed its configured cap."""


class CheckFailedError(Exception):
    """An exact mathematical check or invariant does not hold."""


class Perm:
    """A permutation of {0,..,m-1} in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    @staticmethod
    def _make(images: tuple[int, ...]) -> "Perm":
        # products and inverses of valid permutations need no re-validation
        self = object.__new__(Perm)
        object.__setattr__(self, "images", images)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

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
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __iter__(self):
        # the images in order, as a one-line tuple yields them
        return iter(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        # composition: (self * other)(i) = self(other(i))
        if not isinstance(other, Perm):
            return NotImplemented
        mine = self.images
        return Perm._make(tuple([mine[j] for j in other.images]))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return Perm._make(tuple(inv))

    def sign(self) -> int:
        sgn = 1
        seen = [False] * len(self.images)
        for start in range(len(self.images)):
            if seen[start]:
                continue
            length = 0
            cur = start
            while not seen[cur]:
                seen[cur] = True
                cur = self.images[cur]
                length += 1
            if length % 2 == 0:
                sgn = -sgn
        return sgn

    def lehmer_rank(self) -> int:
        n = len(self.images)
        rank = 0
        for i in range(n):
            smaller = sum(1 for j in range(i + 1, n) if self.images[j] < self.images[i])
            rank += smaller * factorial(n - 1 - i)
        return rank

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

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm({list(self.images)})"


class WreathElement:
    """A group element: Z_n twist vector plus a permutation of the slots."""

    __slots__ = ("n", "twists", "perm")

    def __init__(self, n: int, twists, perm: Perm):
        twists = tuple(int(t) for t in twists)
        if len(twists) != perm.m:
            raise ValueError("twist vector and permutation size differ")
        if any(not 0 <= t < n for t in twists):
            raise ValueError(f"twists must lie in 0..{n - 1}: {twists}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "twists", twists)
        object.__setattr__(self, "perm", perm)

    @staticmethod
    def _make(n: int, twists: tuple[int, ...], perm: Perm) -> "WreathElement":
        self = object.__new__(WreathElement)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "twists", twists)
        object.__setattr__(self, "perm", perm)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("WreathElement is immutable")

    @classmethod
    def identity(cls, n: int, m: int) -> "WreathElement":
        return cls(n, (0,) * m, Perm.identity(m))

    @property
    def m(self) -> int:
        return len(self.twists)

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if not isinstance(other, WreathElement):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            raise ValueError("wreath parameter mismatch")
        inv = self.perm.inverse().images
        mine, theirs, n = self.twists, other.twists, self.n
        twists = tuple((mine[i] + theirs[inv[i]]) % n for i in range(len(mine)))
        return WreathElement._make(n, twists, self.perm * other.perm)

    def inverse(self) -> "WreathElement":
        perm = self.perm.images
        twists = tuple((-self.twists[perm[j]]) % self.n for j in range(self.m))
        return WreathElement._make(self.n, twists, self.perm.inverse())

    def __eq__(self, other):
        return (
            isinstance(other, WreathElement)
            and self.n == other.n
            and self.twists == other.twists
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((self.n, self.twists, self.perm))

    def __repr__(self):
        return f"WreathElement(n={self.n}, twists={list(self.twists)}, perm={list(self.perm.images)})"

    def to_json(self) -> dict:
        return {"twists": list(self.twists), "perm": list(self.perm.images)}

    @classmethod
    def from_json(cls, n: int, data: dict) -> "WreathElement":
        return cls(n, data["twists"], Perm(data["perm"]))


def group_order(n: int, m: int) -> int:
    return n**m * factorial(m)


def check_cap(n: int, m: int, cap: int, what: str) -> int:
    """The group order, or CapExceededError if it exceeds the named cap."""
    order = group_order(n, m)
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


def element_index(u: WreathElement) -> int:
    """Dense index: Lehmer rank of the permutation, then base-n twists."""
    base = u.n**u.m
    twist_part = 0
    for t in reversed(u.twists):
        twist_part = twist_part * u.n + t
    return u.perm.lehmer_rank() * base + twist_part


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


@lru_cache(maxsize=None)
def elements(n: int, m: int) -> tuple[WreathElement, ...]:
    """All group elements in index order (index 0 is the identity)."""
    return tuple(element_at(n, m, ix) for ix in range(group_order(n, m)))


@lru_cache(maxsize=None)
def mul_row(n: int, m: int, i: int) -> tuple[int, ...]:
    """Row i of the multiplication table: indices of element_i * element_j."""
    elems = elements(n, m)
    left = elems[i]
    return tuple(element_index(left * right) for right in elems)


def conjugacy_class_count(n: int, m: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Number of conjugacy classes, by a brute-force orbit sweep."""
    order = check_cap(n, m, cap, "conjugacy")
    elems = elements(n, m)
    visited = bytearray(order)
    count = 0
    for rep_ix in range(order):
        if visited[rep_ix]:
            continue
        count += 1
        rep = elems[rep_ix]
        for g in elems:
            visited[element_index(g * rep * g.inverse())] = 1
    return count
