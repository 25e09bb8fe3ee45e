"""The group-basis classification, kept as the reference that the
character-basis construction and ranks are tested against.

The idempotent of a labelled partition is the character idempotent of its
character vector times, for each block, the row-consecutive Young
symmetrizer embedded into the group algebra at the block's slots: a chain
of group-algebra products.  The dimension of a left ideal A e is the rank
of the |G| left translates g * e, and a sandwich dimension dim e A f the
rank of e times a basis of A f, all taken by the package's one echelon.
"""

from kacpal.algebra import AlgebraElement, _echelon, _sparse_rank, lambda_idempotent
from kacpal.classifier import LabelledPartition, lambda_from_beta
from kacpal.cyclotomic import CycNumber
from kacpal.partitions import SymFormalSum, row_consecutive_tableau, young_symmetrizer
from kacpal.wreath import Perm, WreathElement, check_cap, element_index, mul_row


def iota_embed(beta: LabelledPartition, label: int, s: SymFormalSum) -> AlgebraElement:
    """Embed a formal sum over the label's block slots into the group algebra.

    Permutations act on the contiguous slot range of the block (offset by
    the sizes of the earlier blocks); twists stay zero.
    """
    sizes = beta.block_sizes
    if not 0 <= label < beta.n:
        raise ValueError(f"label {label} out of range")
    size = sizes[label]
    if s.m != size:
        raise ValueError(f"formal sum over S_{s.m} does not fit block of size {size}")
    offset = sum(sizes[:label])
    n, m = beta.n, beta.m
    terms = {}
    for perm, coeff in s.terms.items():
        images = list(range(m))
        for a in range(size):
            images[offset + a] = offset + perm(a)
        index = element_index(WreathElement(n, (0,) * m, Perm(images)))
        terms[index] = CycNumber.from_rational(2 * n, coeff)
    return AlgebraElement(n, m, terms)


def idempotent_by_products(beta: LabelledPartition, labels=None) -> AlgebraElement:
    """lambda_idempotent times the embedded symmetrizers, multiplied in the
    group algebra in the given label order (ascending by default)."""
    result = lambda_idempotent(beta.n, beta.m, lambda_from_beta(beta))
    for label in range(beta.n) if labels is None else labels:
        block = beta.blocks[label]
        if block.size:
            result = result * iota_embed(beta, label, young_symmetrizer(row_consecutive_tableau(block)))
    return result


def basis_element(n: int, m: int, index: int) -> AlgebraElement:
    return AlgebraElement._make(n, m, {index: CycNumber.one(2 * n)})


def _left_translates(e: AlgebraElement, cap: int | None = None):
    """The vectors g * e for g in G; the cap is checked before the first one."""
    n, m = e.n, e.m
    order = check_cap(n, m, "rank-check", cap)
    rows = (mul_row(n, m, g) for g in range(order))
    return ({row[h]: c for h, c in e.terms.items()} for row in rows)


def left_ideal_dimension(e: AlgebraElement, cap: int | None = None) -> int:
    """Dimension of the left ideal generated by e: rank of {g * e : g in G}."""
    return _sparse_rank(_left_translates(e, cap))


def sandwich_dimension(e: AlgebraElement, f: AlgebraElement, cap: int | None = None) -> int:
    """Rank of the span of {e * g * f : g in G}.

    Since A f = span{g * f}, this is the rank of {e * v} over a basis v of
    A f, which needs dim(A f) products instead of |G| columns.  For
    idempotents of a split semisimple algebra it is 1 exactly when e is
    primitive and f generates an isomorphic simple module, and 0 exactly
    when the modules are non-isomorphic.
    """
    e._check(f)
    basis = _echelon(_left_translates(f, cap))
    return _sparse_rank((e * AlgebraElement._make(e.n, e.m, row)).terms for row in basis)
