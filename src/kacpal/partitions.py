"""Partitions, Young tableaux, hook lengths, and normalised Young symmetrizers.

count_formula, the number of labelled partitions, lives here beside the
partition counts it is built from, so that the count command loads no more:
the symmetrizers import fractions when called.

The symmetrizer of a standard tableau is returned as an exact rational
element of Q[S_k], the character basis at n = 1, as the plain map
{((0,)*k, p): c} that wreath.character_product multiplies; with the
standard-tableau-count prefactor it is an idempotent of that algebra.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import factorial

from .wreath import CheckFailedError, Perm, character_product


class Partition(tuple):
    """A non-increasing tuple of positive integers; () is the partition of 0."""

    __slots__ = ()

    def __new__(cls, parts=()):
        self = tuple.__new__(cls, (int(p) for p in parts))
        if any(p <= 0 for p in self):
            raise ValueError(f"partition parts must be positive: {tuple(self)}")
        if any(self[i] < self[i + 1] for i in range(len(self) - 1)):
            raise ValueError(f"partition parts must be non-increasing: {tuple(self)}")
        return self

    @property
    def size(self) -> int:
        return sum(self)

    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        return Partition(
            sum(1 for p in self if p > c) for c in range(self[0])
        )

    def __repr__(self):
        return f"Partition({list(self)})"

    def to_json(self) -> list[int]:
        return list(self)


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


def partition_counts(k: int) -> list[int]:
    """[p(0), ..., p(k)], filled bottom-up by the Euler recurrence over the
    generalised pentagonal numbers g = j(3j -+ 1)/2."""
    p = [1]
    for i in range(1, k + 1):
        total = 0
        j = 1
        g = 1  # j(3j - 1)/2; the other pentagonal number of j is g + j
        while g <= i:
            term = p[i - g] + (p[i - g - j] if g + j <= i else 0)
            total += term if j % 2 else -term
            j += 1
            g += 3 * j - 2
        p.append(total)
    return p


def count_formula(n: int, m: int) -> int:
    """The number of labelled partitions, n-tuples of partitions whose sizes
    sum to m: the sum over compositions of m into n parts of the product of
    the parts' partition counts, which is the coefficient of x^m in P(x)^n
    with P(x) = sum_k p(k) x^k.

    J. C. P. Miller's power recurrence gives the coefficients q_k of P^n as
    k q_k = sum_{j=1..k} ((n+1) j - k) p(j) q_(k-j), each division exact, in
    O(m^2) steps whatever n is.
    """
    p = partition_counts(m)
    q = [1]
    for k in range(1, m + 1):
        q.append(sum(((n + 1) * j - k) * p[j] * q[k - j] for j in range(1, k + 1)) // k)
    return q[m]


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
    if rem:
        raise CheckFailedError(f"hook lengths of {mu!r} do not divide {k}!")
    return count


class Tableau(tuple):
    """A filling of a Young diagram with 1..k: the tuple of its rows."""

    __slots__ = ()

    def __new__(cls, rows):
        self = tuple.__new__(cls, (tuple(int(v) for v in row) for row in rows))
        k = self.shape.size  # the shape validates the row lengths
        if sorted(v for row in self for v in row) != list(range(1, k + 1)):
            raise ValueError("tableau entries must be a bijection onto 1..k")
        return self

    @property
    def shape(self) -> Partition:
        return Partition(len(row) for row in self)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self)

    def is_standard(self) -> bool:
        for r, row in enumerate(self):
            for c, v in enumerate(row):
                if c + 1 < len(row) and not v < row[c + 1]:
                    return False
                if r + 1 < len(self) and c < len(self[r + 1]) and not v < self[r + 1][c]:
                    return False
        return True

    def __repr__(self):
        return f"Tableau({[list(r) for r in self]})"


def row_consecutive_tableau(mu: Partition) -> Tableau:
    """The standard tableau whose rows are filled with consecutive integers."""
    rows = []
    start = 1
    for part in mu:
        rows.append(range(start, start + part))
        start += part
    return Tableau(rows)


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
    return _value_perms_preserving(list(t), t.size)


def vertical_group(t: Tableau) -> list[Perm]:
    """Permutations preserving the entry set of every column."""
    cols = []
    if t:
        for c in range(t.shape[0]):
            cols.append(tuple(row[c] for row in t if c < len(row)))
    return _value_perms_preserving(cols, t.size)


def young_symmetrizer(t: Tableau) -> dict:
    """The normalised Young symmetrizer of a standard tableau, in Q[S_k].

    Row sum times sign-weighted column sum, scaled by the number of standard
    tableaux over k factorial; with that prefactor the result squares to
    itself.  Q[S_k] is the character basis at (1, k): the element is the
    map {((0,)*k, p): c}, whose key ((0,)*k, p) is the permutation p.
    """
    # imported here, so that the count command, which needs only the counts
    # above, loads no fractions
    from fractions import Fraction

    if not t.is_standard():
        raise ValueError("young_symmetrizer requires a standard tableau")
    k = t.size
    trivial = (0,) * k
    h = {(trivial, p): 1 for p in horizontal_group(t)}
    v = {(trivial, p): p.sign() for p in vertical_group(t)}
    prefactor = Fraction(standard_tableaux_count(t.shape), factorial(k))
    return {key: c * prefactor for key, c in character_product(h, v).items()}
