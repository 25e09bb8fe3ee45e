"""Classification of the irreducible representations by labelled partitions.

A labelled partition assigns one (possibly empty) partition to each of the
n twist characters, with sizes summing to m.  Each produces a primitive
idempotent: the character idempotent of its non-decreasing character vector
times the embedded Young symmetrizers of its blocks.  The idempotent is built
in the character basis (kacpal.character_basis), where its coordinates are
rational, by that model's own product, and mapped to the group basis by an
exact change of basis.
Counting and dimension formulas are cross-checked three ways (closed formula,
hook lengths, exact rank of the generated left ideal).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, product
from math import factorial
from operator import itemgetter

from .character_basis import ONE, CharacterElement, permute_character
from .partitions import (
    Partition,
    count_formula,
    hook_length,
    partitions_of,
    row_consecutive_tableau,
    standard_tableaux_count,
    young_symmetrizer,
)
from .wreath import CheckFailedError, check_cap, group_order


class LabelledPartition(tuple):
    """A map from the n labels to partitions whose sizes sum to m, as the
    validated tuple (n, blocks)."""

    __slots__ = ()

    def __new__(cls, n: int, blocks):
        blocks = tuple(blocks)
        if len(blocks) != n:
            raise ValueError(f"expected {n} blocks, got {len(blocks)}")
        if not all(isinstance(b, Partition) for b in blocks):
            raise ValueError("blocks must be Partitions")
        return tuple.__new__(cls, (n, blocks))

    n = property(itemgetter(0))
    blocks = property(itemgetter(1))

    @property
    def m(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)

    def spec_string(self) -> str:
        """Compact form like '0:3,2,2;2:1,1,1' (empty labels omitted)."""
        pieces = []
        for label, block in enumerate(self.blocks):
            if block.size:
                pieces.append(f"{label}:" + ",".join(str(p) for p in block))
        return ";".join(pieces)

    @classmethod
    def parse(cls, n: int, m: int, text: str) -> "LabelledPartition":
        """Parse a spec string, validating labels and the total size."""
        blocks = [Partition() for _ in range(n)]
        seen: set[int] = set()
        text = text.strip()
        if text:
            for piece in text.split(";"):
                if ":" not in piece:
                    raise ValueError(f"malformed labelled-partition entry: {piece!r}")
                label_text, parts_text = piece.split(":", 1)
                label = int(label_text)
                if not 0 <= label < n:
                    raise ValueError(f"label {label} out of range 0..{n - 1}")
                if label in seen:
                    raise ValueError(f"label {label} given twice")
                seen.add(label)
                blocks[label] = Partition(int(p) for p in parts_text.split(",") if p)
        beta = cls(n, blocks)
        if beta.m != m:
            raise ValueError(f"block sizes sum to {beta.m}, expected {m}")
        return beta

    def __repr__(self):
        return f"LabelledPartition({self.n}, {[list(b) for b in self.blocks]})"

    def to_json(self) -> list[list[int]]:
        return [b.to_json() for b in self.blocks]


def _compositions(n: int, m: int):
    """All n-tuples of non-negative integers summing to m, lexicographically.

    Stars and bars: the n - 1 bars sit among m + n - 1 places, and the parts
    are the runs of stars between them.  Bar positions in lexicographic order
    give the parts in lexicographic order, with no recursion on n.
    """
    for bars in combinations(range(m + n - 1), n - 1):
        edges = (-1, *bars, m + n - 1)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(n))


def enumerate_labelled_partitions(n: int, m: int) -> list[LabelledPartition]:
    """All labelled partitions, ordered lexicographically by block sizes and
    reverse-lexicographically within each block."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    out = []
    for comp in _compositions(n, m):
        for blocks in product(*(partitions_of(size) for size in comp)):
            out.append(LabelledPartition(n, blocks))
    return out


def lambda_from_beta(beta: LabelledPartition) -> tuple[int, ...]:
    """The non-decreasing character vector with block_sizes[i] entries equal to i."""
    lam = []
    for label, size in enumerate(beta.block_sizes):
        lam.extend([label] * size)
    return tuple(lam)


def embed_permutation(p, offset: int, m: int) -> tuple[int, ...]:
    """The permutation of m slots that acts as p on the slots offset, ...,
    offset + len(p) - 1 and fixes the others."""
    images = list(range(m))
    for a, image in enumerate(p):
        images[offset + a] = offset + image
    return tuple(images)


@lru_cache(maxsize=None)
def block_terms(block: Partition) -> tuple:
    """The (p, coeff) terms of the block's row-consecutive Young symmetrizer
    in Q[S_k], built once per partition: they depend on neither n nor the
    label.  A tuple, so that no caller can change what the next one reads."""
    symmetrizer = young_symmetrizer(row_consecutive_tableau(block))
    return tuple((p, coeff) for (_, p), coeff in symmetrizer.terms.items())


def character_idempotent(beta: LabelledPartition) -> CharacterElement:
    """The classification idempotent in the character basis: F(lam, 1) times
    the row-consecutive Young symmetrizer of each block, embedded on the
    block's contiguous slots (offset by the sizes of the earlier blocks) and
    keyed (lam, sigma).

    The model's product F(lam, s) F(lam, t) = [lam = lam o s] F(lam, st)
    keeps every term only because each block permutation fixes lam, which is
    non-decreasing and constant on each block: the blocks' permutations lie
    in the stabiliser of lam.  That lemma is checked on every embedded
    permutation, and a failure raises CheckFailedError.
    """
    n, m = beta.n, beta.m
    lam = lambda_from_beta(beta)
    result = CharacterElement._make(n, m, {(lam, tuple(range(m))): ONE})
    offset = 0
    for block in beta.blocks:
        if block.size:
            terms = {}
            for p, coeff in block_terms(block):
                sigma = embed_permutation(p, offset, m)
                if permute_character(lam, sigma) != lam:
                    raise CheckFailedError(
                        f"the block permutations of {beta.spec_string()} do not fix "
                        f"lambda = {list(lam)}: the stabiliser lemma fails at {list(sigma)}"
                    )
                terms[lam, sigma] = coeff
            result = result * CharacterElement._make(n, m, terms)
        offset += block.size
    return result


def idempotent_from_beta(beta: LabelledPartition):
    """The classification idempotent: character idempotent times the embedded
    row-consecutive Young symmetrizers of the blocks, in the group basis (an
    AlgebraElement)."""
    return character_idempotent(beta).to_group()


def irrep_dimension(beta: LabelledPartition) -> int:
    """Closed-form dimension: multinomial of block sizes times the product of
    standard-tableau counts."""
    dim = factorial(beta.m)
    for block in beta.blocks:
        dim //= factorial(block.size)
        dim *= standard_tableaux_count(block)
    return dim


def dimension_by_hooks(beta: LabelledPartition) -> int:
    """m! divided by the product of all hook lengths over all blocks."""
    denom = 1
    for block in beta.blocks:
        for r in range(len(block)):
            for c in range(block[r]):
                denom *= hook_length(block, r, c)
    dim, rem = divmod(factorial(beta.m), denom)
    if rem:
        raise CheckFailedError(f"hook lengths of {beta!r} do not divide {beta.m}!")
    return dim


class IrrepRecord:
    """One classified irreducible with its three dimension computations.

    element is its idempotent in the character basis; idempotent, the
    group-basis image, is built on first use.
    """

    def __init__(
        self,
        beta: LabelledPartition,
        lam: tuple[int, ...],
        element: CharacterElement,
        dim_formula: int,
        dim_hook: int,
        dim_rank: int | None = None,
    ):
        # A rank disagreement is left to irrep_table's rank_agreement check.
        if dim_formula != dim_hook:
            raise CheckFailedError(
                f"dimension formulas disagree for {beta!r}: {dim_formula} != {dim_hook}"
            )
        self.beta, self.lam, self.element = beta, lam, element
        self.dim_formula, self.dim_hook, self.dim_rank = dim_formula, dim_hook, dim_rank

    @cached_property
    def idempotent(self):
        return self.element.to_group()


class IrrepTable:
    def __init__(self, n: int, m: int, records: tuple[IrrepRecord, ...], checks: dict):
        self.n, self.m, self.records, self.checks = n, m, records, checks

    def to_json(self) -> dict:
        irreps = [
            {
                "beta": rec.beta.spec_string(),
                "blocks": rec.beta.to_json(),
                "lambda": list(rec.lam),
                "dimension": rec.dim_formula,
                "dim_formula": rec.dim_formula,
                "dim_hook": rec.dim_hook,
                "dim_rank": rec.dim_rank,
            }
            for rec in self.records
        ]
        return {"n": self.n, "m": self.m, "irreps": irreps, "checks": self.checks}

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["beta_spec", "lambda", "dim_formula", "dim_hook", "dim_rank"])
        for rec in self.records:
            writer.writerow(
                [
                    rec.beta.spec_string(),
                    " ".join(str(v) for v in rec.lam),
                    rec.dim_formula,
                    rec.dim_hook,
                    "" if rec.dim_rank is None else rec.dim_rank,
                ]
            )
        return buf.getvalue()


def irrep_table(
    n: int,
    m: int,
    *,
    check_idempotency: bool = False,
    check_ranks: bool = False,
    check_orthogonality: bool = False,
    check_conjugacy: bool = False,
    cap: int | None = None,
) -> IrrepTable:
    """Build the full table of irreducibles with optional exact cross-checks.

    The summary always reports the count against the closed counting formula
    and the sum of squared dimensions against the algebra dimension.  The
    idempotency, rank and orthogonality checks run in the character basis,
    after check_model has verified that basis against the group algebra at
    this (n, m); a failure there raises CheckFailedError.  cap, when given,
    replaces the default rank-check and conjugacy caps of wreath.CAPS.
    """
    order = group_order(n, m)
    if check_ranks or check_orthogonality:
        check_cap(n, m, "rank-check", cap)
    if check_conjugacy:
        check_cap(n, m, "conjugacy", cap)
    if check_idempotency or check_ranks or check_orthogonality:
        # the model and the ranks are loaded only when a check runs
        from .character_model import check_model, left_ideal_basis, sandwich_rank

        check_model(n, m)

    records = []
    bases = []  # a basis of each left ideal A e, built once for all k^2 sandwiches
    for beta in enumerate_labelled_partitions(n, m):
        e = character_idempotent(beta)
        dim_rank = None
        if check_ranks or check_orthogonality:
            bases.append(left_ideal_basis(e))
            if check_ranks:
                dim_rank = len(bases[-1])
        records.append(
            IrrepRecord(
                beta=beta,
                lam=lambda_from_beta(beta),
                element=e,
                dim_formula=irrep_dimension(beta),
                dim_hook=dimension_by_hooks(beta),
                dim_rank=dim_rank,
            )
        )

    checks: dict = {}
    checks["count_formula"] = "pass" if len(records) == count_formula(n, m) else "fail"
    checks["sum_dim_sq"] = (
        "pass" if sum(r.dim_formula**2 for r in records) == order else "fail"
    )

    if check_idempotency:
        ok = all(not r.element.is_zero() and r.element * r.element == r.element for r in records)
        checks["idempotency"] = "pass" if ok else "fail"

    if check_ranks:
        checks["rank_agreement"] = (
            "pass" if all(r.dim_rank == r.dim_formula for r in records) else "fail"
        )

    if check_orthogonality:
        # dim e_i A e_j is the rank of e_i times a basis of A e_j.
        ok = all(
            sandwich_rank(ri.element, basis) == (1 if i == j else 0)
            for i, ri in enumerate(records)
            for j, basis in enumerate(bases)
        )
        checks["orthogonality"] = "pass" if ok else "fail"

    if check_conjugacy:
        from .conjugacy import conjugacy_class_count

        classes = conjugacy_class_count(n, m, cap=cap)
        checks["conjugacy_count"] = "pass" if classes == len(records) else "fail"
        checks["conjugacy_classes"] = classes

    return IrrepTable(n=n, m=m, records=tuple(records), checks=checks)
