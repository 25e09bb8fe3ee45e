"""Partitions, hook lengths, and Young symmetrizers in integer form.

count_formula, the number of labelled partitions, lives here beside the
partition counts it is built from, so that the count command loads no more.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, permutations, product
from math import factorial

from .wreath import CheckFailedError, Perm


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


def young_symmetrizer(mu: Partition) -> tuple:
    """The Young symmetrizer of the shape's row-consecutive tableau, whose
    rows are filled with consecutive integers, in integer form: the terms
    {((0,)*k, p): +-1} of y = h v in Q[S_k], the character basis at n = 1,
    and the scale (f, k!) that makes it idempotent, f the number of standard
    tableaux.  h and v sum the row group R and, signed, the column group C
    of that filling; y is written out as r c with the sign of c for each
    pair of R x C, whose |R| |C| terms are distinct exactly when R and C meet
    only in 1, so none cancels.  A collision raises CheckFailedError."""
    k = mu.size
    rows = [range(end - part, end) for part, end in zip(mu, accumulate(mu))]
    columns = [[row[c] for row in rows if c < len(row)] for c in range(mu[0] if mu else 0)]

    def preserving(blocks):
        # each choice moves the slots of the blocks, in order, to its images
        slots = [*chain(*blocks)]
        for choice in product(*map(permutations, blocks)):
            yield Perm._make(image for _, image in sorted(zip(slots, chain(*choice))))

    trivial = (0,) * k
    row_group = [*preserving(rows)]
    column_group = [(c, c.sign()) for c in preserving(columns)]
    terms = {(trivial, r * c): sign for r in row_group for c, sign in column_group}
    if len(terms) != len(row_group) * len(column_group):
        raise CheckFailedError(f"the row and column groups of {mu!r} meet beyond 1")
    return terms, (standard_tableaux_count(mu), factorial(k))
