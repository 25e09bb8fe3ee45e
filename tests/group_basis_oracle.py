"""The group-basis construction of the classification idempotents, kept as
the reference that the character-basis construction is tested against.

The idempotent of a labelled partition is the character idempotent of its
character vector times, for each block, the row-consecutive Young
symmetrizer embedded into the group algebra at the block's slots: a chain
of group-algebra products.
"""

from kacpal.algebra import AlgebraElement, lambda_idempotent
from kacpal.classifier import LabelledPartition, lambda_from_beta
from kacpal.cyclotomic import CycNumber
from kacpal.partitions import SymFormalSum, row_consecutive_tableau, young_symmetrizer
from kacpal.wreath import Perm, WreathElement, element_index


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
