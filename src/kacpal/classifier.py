"""Classification of the irreducible representations by labelled partitions.

A labelled partition assigns one (possibly empty) partition to each of the
n twist characters, with sizes summing to m.  Each produces a primitive
idempotent: the character idempotent of its non-decreasing character vector
times the embedded Young symmetrizers of its blocks.  The idempotent is built
in the character basis F(lam, p) = Lambda_lam p, where its coordinates are
rational, as the plain map {(lam, sigma): c} that wreath.character_product
multiplies; every term lies on its one character vector, so the idempotent
command writes its group-basis coordinates as the pairs of
roots.lambda_coefficients scaled by those rationals.  The group-basis
product of the same factors, and the element type whose product
character_product replaced, are the references in
tests/group_basis_oracle.py.
Counting and dimension formulas are cross-checked three ways (closed formula,
hook lengths, and the rank of the left ideal A e as the trace m! c_(lam, 1),
c_(lam, 1) = prod f^mu / b_i!, which rests on the exact square e * e == e).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress, product, repeat
from math import factorial
from operator import itemgetter, sub

from .partitions import (
    Partition,
    count_formula,
    hook_length,
    partitions_of,
    standard_tableaux_count,
    young_symmetrizer,
)
from .wreath import (
    CheckFailedError,
    character_product,
    check_cap,
    group_order,
    permute_character,
)


class LabelledPartition(tuple):
    """A map from the n labels to partitions whose sizes sum to m, as the
    validated tuple (n, blocks)."""

    __slots__ = ()

    def __new__(cls, n: int, blocks):
        blocks = tuple(blocks)
        if len(blocks) != n:
            raise ValueError(f"expected {n} blocks, got {len(blocks)}")
        if not all(map(isinstance, blocks, repeat(Partition))):
            raise ValueError("blocks must be Partitions")
        return tuple.__new__(cls, (n, blocks))

    n = property(itemgetter(0))
    blocks = property(itemgetter(1))

    @property
    def labelled_blocks(self):
        """(label, block) for the nonempty blocks, in label order; the empty
        ones, all but one at m = 1, are skipped in C."""
        return compress(enumerate(self.blocks), self.blocks)

    @property
    def m(self) -> int:
        return sum(b.size for _, b in self.labelled_blocks)

    def spec_string(self) -> str:
        """Compact form like '0:3,2,2;2:1,1,1' (empty labels omitted)."""
        return ";".join(
            f"{label}:" + ",".join(str(p) for p in block) for label, block in self.labelled_blocks
        )

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
                try:
                    label = int(label_text)
                    # "label:" is an empty block; an empty part between commas is an error
                    parts = [int(part) for part in parts_text.split(",")] if parts_text else []
                except ValueError:
                    raise ValueError(f"malformed labelled-partition entry: {piece!r}") from None
                if not 0 <= label < n:
                    raise ValueError(f"label {label} out of range 0..{n - 1}")
                if label in seen:
                    raise ValueError(f"label {label} given twice")
                seen.add(label)
                blocks[label] = Partition(parts)
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
    give the parts in lexicographic order, with no recursion on n.  Bar i at
    place b has b - i stars before it, and a part is a difference of those.
    """
    for bars in combinations(range(m + n - 1), n - 1):
        stars = (0, *map(sub, bars, range(n - 1)), m)
        yield tuple(map(sub, stars[1:], stars))


def enumerate_labelled_partitions(n: int, m: int) -> list[LabelledPartition]:
    """All labelled partitions, ordered lexicographically by block sizes and
    reverse-lexicographically within each block."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    out = []
    for comp in _compositions(n, m):
        for blocks in product(*map(partitions_of, comp)):
            out.append(LabelledPartition(n, blocks))
    return out


def lambda_from_beta(beta: LabelledPartition) -> tuple[int, ...]:
    """The non-decreasing character vector with as many entries i as block i has boxes."""
    lam = []
    for label, block in beta.labelled_blocks:
        lam.extend([label] * block.size)
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
    """The (p, coeff) terms of young_symmetrizer(block), the Young
    symmetrizer of the block's row-consecutive tableau in Q[S_k], built from
    the shape once per partition: they depend on neither n nor the label.
    A tuple, so that no caller can change what the next one reads."""
    symmetrizer = young_symmetrizer(block)
    return tuple((p, coeff) for (_, p), coeff in symmetrizer.items())


def character_idempotent(beta: LabelledPartition) -> dict:
    """The classification idempotent in the character basis: F(lam, 1) times
    the row-consecutive Young symmetrizer of each block, embedded on the
    block's contiguous slots (offset by the sizes of the earlier blocks), as
    the map {(lam, sigma): c} of wreath.character_product.

    The model's product F(lam, s) F(lam, t) = [lam = lam o s] F(lam, st)
    keeps every term only because each block permutation fixes lam, which is
    non-decreasing and constant on each block: the blocks' permutations lie
    in the stabiliser of lam.  That lemma is checked on every embedded
    permutation, and a failure raises CheckFailedError.
    """
    m = beta.m
    lam = lambda_from_beta(beta)
    result = {(lam, tuple(range(m))): 1}
    offset = 0
    for _, block in beta.labelled_blocks:
        terms = {}
        for p, coeff in block_terms(block):
            sigma = embed_permutation(p, offset, m)
            if permute_character(lam, sigma) != lam:
                raise CheckFailedError(
                    f"the block permutations of {beta.spec_string()} do not fix "
                    f"lambda = {list(lam)}: the stabiliser lemma fails at {list(sigma)}"
                )
            terms[lam, sigma] = coeff
        result = character_product(result, terms)
        offset += block.size
    return result


def irrep_dimension(beta: LabelledPartition) -> int:
    """Closed-form dimension: multinomial of block sizes times the product of
    standard-tableau counts."""
    dim = factorial(beta.m)
    for _, block in beta.labelled_blocks:
        dim //= factorial(block.size)
        dim *= standard_tableaux_count(block)
    return dim


def dimension_by_hooks(beta: LabelledPartition) -> int:
    """m! divided by the product of all hook lengths over all blocks."""
    denom = 1
    for _, block in beta.labelled_blocks:
        for r in range(len(block)):
            for c in range(block[r]):
                denom *= hook_length(block, r, c)
    dim, rem = divmod(factorial(beta.m), denom)
    if rem:
        raise CheckFailedError(f"hook lengths of {beta!r} do not divide {beta.m}!")
    return dim


class IrrepRecord:
    """One classified irreducible with its three dimension computations;
    element is its idempotent in the character basis, the map
    {(lam, sigma): c}."""

    def __init__(
        self,
        beta: LabelledPartition,
        lam: tuple[int, ...],
        element: dict,
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

    def to_text(self) -> str:
        """The table as aligned text lines, then the count, the sum of
        squared dimensions and each check's verdict."""
        records = self.records
        lines = [f"irreducible representations for n={self.n}, m={self.m}"]
        lines.append(f"{'beta':<24}{'lambda':<16}{'dim':>5}{'rank':>6}")
        for rec in records:
            lam = "(" + ",".join(str(v) for v in rec.lam) + ")"
            rank_text = "" if rec.dim_rank is None else str(rec.dim_rank)
            lines.append(
                f"{rec.beta.spec_string():<24}{lam:<16}{rec.dim_formula:>5}{rank_text:>6}"
            )
        lines.append(f"count = {len(records)}")
        lines.append(f"sum of squared dimensions = {sum(r.dim_formula ** 2 for r in records)}")
        for name, value in self.checks.items():
            lines.append(f"check {name}: {value}")
        return "\n".join(lines) + "\n"


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
    this (n, m); a failure there raises CheckFailedError.  The ranks and
    sandwich dimensions are traces, ranks only of idempotents: a record whose
    exact square fails gets dim_rank None and fails both checks.  cap, when
    given, replaces the default rank-check and conjugacy caps of wreath.CAPS.
    """
    order = group_order(n, m)
    traced = check_ranks or check_orthogonality
    if traced:
        check_cap(n, m, "rank-check", cap)
    if check_conjugacy:
        check_cap(n, m, "conjugacy", cap)
    squared = check_idempotency or traced
    if squared:
        # the model and the traces are loaded only when a check runs
        from .character_model import check_model, is_idempotent, left_ideal_rank
        from .character_model import sandwich_rank, stabiliser_classes

        check_model(n, m)

    records = []
    squares = []  # whether each e * e == e, on which every trace rests
    class_sums = []  # of each e, shared by its rank and its k sandwiches
    for beta in enumerate_labelled_partitions(n, m):
        e = character_idempotent(beta)
        dim_rank = None
        if traced:
            class_sums.append(stabiliser_classes(e))
        if squared:
            squares.append(is_idempotent(e))
            if check_ranks and squares[-1]:
                dim_rank = left_ideal_rank(class_sums[-1], m)
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
        ok = all(squares) and all(r.element for r in records)
        checks["idempotency"] = "pass" if ok else "fail"

    if check_ranks:
        checks["rank_agreement"] = (
            "pass" if all(r.dim_rank == r.dim_formula for r in records) else "fail"
        )

    if check_orthogonality:
        # dim e_i A e_j is a trace only when both squares hold
        ok = all(squares) and all(
            sandwich_rank(ci, cj) == (1 if i == j else 0)
            for i, ci in enumerate(class_sums)
            for j, cj in enumerate(class_sums)
        )
        checks["orthogonality"] = "pass" if ok else "fail"

    if check_conjugacy:
        from .conjugacy import conjugacy_class_count

        classes = conjugacy_class_count(n, m, cap=cap)
        checks["conjugacy_count"] = "pass" if classes == len(records) else "fail"
        checks["conjugacy_classes"] = classes

    return IrrepTable(n=n, m=m, records=tuple(records), checks=checks)
