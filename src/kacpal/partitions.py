"""Partitions, Young tableaux, hook lengths, and normalised Young symmetrizers.

The symmetrizer of a standard tableau is returned as an exact rational
formal sum over permutations; with the standard-tableau-count prefactor it
is an idempotent of the symmetric group algebra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial

from .sparse import SparseSum
from .wreath import Perm


class Partition:
    """A non-increasing tuple of positive integers; () is the partition of 0."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be non-increasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(
            sum(1 for p in self.parts if p > c) for c in range(self.parts[0])
        )

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def to_json(self) -> list[int]:
        return list(self.parts)


@lru_cache(maxsize=None)
def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k in reverse-lexicographic order."""
    if k < 0:
        raise ValueError("partitions_of requires k >= 0")

    def gen(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(k, k))


@lru_cache(maxsize=None)
def partition_count(k: int) -> int:
    """The partition function p(k), by the Euler recurrence."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    total = 0
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > k and g2 > k:
            break
        sign = -1 if j % 2 == 0 else 1
        if g1 <= k:
            total += sign * partition_count(k - g1)
        if g2 <= k:
            total += sign * partition_count(k - g2)
        j += 1
    return total


def hook_length(mu: Partition, row: int, col: int) -> int:
    """Boxes in the hook of the 0-based box (row, col): itself, right, below."""
    if not (0 <= row < len(mu) and 0 <= col < mu[row]):
        raise ValueError(f"box ({row}, {col}) outside shape {mu!r}")
    arm = mu[row] - col - 1
    leg = sum(1 for r in range(row + 1, len(mu)) if mu[r] > col)
    return arm + leg + 1


def standard_tableaux_count(mu: Partition) -> int:
    """Number of standard tableaux of the shape, by the hook length formula."""
    k = mu.size
    denom = 1
    for r in range(len(mu)):
        for c in range(mu[r]):
            denom *= hook_length(mu, r, c)
    count, rem = divmod(factorial(k), denom)
    assert rem == 0
    return count


class Tableau:
    """A filling of a Young diagram with 1..k, stored as rows."""

    __slots__ = ("shape", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        shape = Partition(len(row) for row in rows)
        k = shape.size
        if sorted(v for row in rows for v in row) != list(range(1, k + 1)):
            raise ValueError("tableau entries must be a bijection onto 1..k")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    @property
    def size(self) -> int:
        return self.shape.size

    def is_standard(self) -> bool:
        for r, row in enumerate(self.rows):
            for c, v in enumerate(row):
                if c + 1 < len(row) and not v < row[c + 1]:
                    return False
                if r + 1 < len(self.rows) and c < len(self.rows[r + 1]) and not v < self.rows[r + 1][c]:
                    return False
        return True

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Tableau({[list(r) for r in self.rows]})"

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def row_consecutive_tableau(mu: Partition) -> Tableau:
    """The standard tableau whose rows are filled with consecutive integers."""
    rows = []
    start = 1
    for part in mu:
        rows.append(range(start, start + part))
        start += part
    return Tableau(rows)


def standard_tableaux(mu: Partition) -> list[Tableau]:
    """Brute-force enumeration of all standard tableaux of the shape."""
    k = mu.size
    results: list[Tableau] = []
    counts = [0] * len(mu)
    cells: list[list[int]] = [[] for _ in mu]

    def place(value: int):
        if value > k:
            results.append(Tableau([list(r) for r in cells]))
            return
        for r in range(len(mu)):
            if counts[r] < mu[r] and (r == 0 or counts[r - 1] > counts[r]):
                cells[r].append(value)
                counts[r] += 1
                place(value + 1)
                counts[r] -= 1
                cells[r].pop()

    if k == 0:
        return [Tableau([])]
    place(1)
    return results


def _value_perms_preserving(blocks: list[tuple[int, ...]], k: int) -> list[Perm]:
    """All permutations of {0..k-1} preserving each block of values (1-based)."""
    out = []
    for choice in product(*(permutations(block) for block in blocks)):
        images = list(range(k))
        for block, permuted in zip(blocks, choice):
            for orig, new in zip(block, permuted):
                images[orig - 1] = new - 1
        out.append(Perm(images))
    return out


def horizontal_group(t: Tableau) -> list[Perm]:
    """Permutations preserving the entry set of every row."""
    return _value_perms_preserving([row for row in t.rows], t.size)


def vertical_group(t: Tableau) -> list[Perm]:
    """Permutations preserving the entry set of every column."""
    cols = []
    if t.rows:
        for c in range(t.shape[0]):
            cols.append(tuple(row[c] for row in t.rows if c < len(row)))
    return _value_perms_preserving(cols, t.size)


class SymFormalSum(SparseSum):
    """A finitely supported rational formal sum over permutations of m points."""

    __slots__ = ("m",)

    def __init__(self, m: int, terms=None):
        clean: dict[Perm, Fraction] = {}
        for perm, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                if perm.m != m:
                    raise ValueError("permutation size does not match ambient size")
                clean[perm] = coeff
        self._assign(m, clean)

    # The benchmark's tracer wraps SymFormalSum.__mul__ found in this class's
    # own __dict__; without this binding its product counts would read zero.
    __mul__ = SparseSum.__mul__

    def _scalar(self, value) -> Fraction:
        return Fraction(value)

    def _one(self) -> "SymFormalSum":
        return SymFormalSum.identity(self.m)

    def _row(self, perm: Perm):
        return perm.__mul__

    @classmethod
    def identity(cls, m: int) -> "SymFormalSum":
        return cls(m, {Perm.identity(m): Fraction(1)})

    def __repr__(self):
        body = " + ".join(f"{c}*{list(p.images)}" for p, c in sorted(
            self.terms.items(), key=lambda item: item[0].images))
        return f"SymFormalSum({self.m}, {body or '0'})"


def young_symmetrizer(t: Tableau) -> SymFormalSum:
    """The normalised Young symmetrizer of a standard tableau.

    Row sum times sign-weighted column sum, scaled by the number of standard
    tableaux over k factorial; with that prefactor the result squares to
    itself.
    """
    if not t.is_standard():
        raise ValueError("young_symmetrizer requires a standard tableau")
    k = t.size
    if k == 0:
        return SymFormalSum.identity(0)
    h = SymFormalSum(k, {p: Fraction(1) for p in horizontal_group(t)})
    v = SymFormalSum(k, {p: Fraction(p.sign()) for p in vertical_group(t)})
    prefactor = Fraction(standard_tableaux_count(t.shape), factorial(k))
    return (h * v).scale(prefactor)
