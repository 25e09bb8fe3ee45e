"""The group-basis classification, model check and relation suite, kept as
the reference that the character-basis versions are tested against.

The idempotent of a labelled partition is the character idempotent of its
character vector times, for each block, the row-consecutive Young
symmetrizer embedded into the group algebra at the block's slots: a chain
of group-algebra products.  The dimension of a left ideal A e is the rank
of the |G| left translates g * e, and a sandwich dimension dim e A f the
rank of e times a basis of A f, all taken by the package's one echelon.

check_model_by_products compares, under Phi, both products of every
generator with every basis element of the character basis, and
relation_suite_by_group_basis evaluates the relation families by group-basis
convolution; z_square_rhs is the group-basis value of z_l^2.

elements enumerates G, and conjugacy_class_count sweeps the classes by
conjugating by all of it, the reference for the generator-orbit sweep of
conjugacy.conjugacy_class_count.
"""

from functools import lru_cache, partial
from itertools import product

from kacpal.algebra import (
    AlgebraElement,
    _sparse_rank,
    character_combination,
    lambda_idempotent,
    s_element,
    x_monomial,
    y_element,
    y_inverse_element,
)
from kacpal.character_basis import CharacterElement, symmetric_group
from kacpal.character_model import MonomialModel, _echelon, _generator_tables
from kacpal.classifier import LabelledPartition, lambda_from_beta
from kacpal.cyclotomic import CycNumber
from kacpal.partitions import row_consecutive_tableau, young_symmetrizer
from kacpal.relations import relation_families, relation_suite_report, z_square_sum
from kacpal.wreath import (
    CheckFailedError,
    Perm,
    WreathElement,
    check_cap,
    element_at,
    element_index,
    group_order,
    mul_row,
)


@lru_cache(maxsize=None)
def elements(n: int, m: int) -> tuple[WreathElement, ...]:
    """All group elements in index order (index 0 is the identity)."""
    return tuple(element_at(n, m, ix) for ix in range(group_order(n, m)))


def conjugacy_class_count(n: int, m: int) -> int:
    """Number of conjugacy classes, by conjugating a representative of each
    class by every element of G."""
    elems = elements(n, m)
    pairs = [(g, g.inverse()) for g in elems]
    visited = bytearray(len(elems))
    count = 0
    for rep_ix, rep in enumerate(elems):
        if visited[rep_ix]:
            continue
        count += 1
        for g, g_inv in pairs:
            visited[element_index(g * rep * g_inv)] = 1
    return count


def iota_embed(beta: LabelledPartition, label: int, s: CharacterElement) -> AlgebraElement:
    """Embed an element of Q[S_k], the character model at (1, k) keyed
    ((0,)*k, p), over the label's block slots into the group algebra.

    Permutations act on the contiguous slot range of the block (offset by
    the sizes of the earlier blocks); twists stay zero.
    """
    sizes = beta.block_sizes
    if not 0 <= label < beta.n:
        raise ValueError(f"label {label} out of range")
    size = sizes[label]
    if (s.n, s.m) != (1, size):
        raise ValueError(f"element of the model at ({s.n}, {s.m}) does not fit block of size {size}")
    offset = sum(sizes[:label])
    n, m = beta.n, beta.m
    terms = {}
    for (_, perm), coeff in s.terms.items():
        images = list(range(m))
        for a in range(size):
            images[offset + a] = offset + perm[a]
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


def check_model_by_products(n: int, m: int) -> None:
    """Check that Phi intertwines the group's generators with the model, on
    every basis element F; CheckFailedError names the first failure.

    For each generator g with preimage g~ it checks Phi(g~) = g, then
    g Phi(F) = Phi(g~ F) and Phi(F) g = Phi(F g~), with the products on the
    right taken by the model's own rule and those on the left by the group's
    product of elements.  On the left these read x_i Phi(F(lam, p)) =
    zeta^(-2 lam_i) Phi(F(lam, p)) and s_l Phi(F(lam, p)) =
    Phi(F(lam o s_l, s_l p)).  The right products put every p on the left of
    the rule, where its inverse matters (a 3-cycle is not an involution).
    The cost is about 4m |G| n^m coefficient comparisons.
    """
    columns: dict = {}
    elems = elements(n, m)
    gens = []
    for name, g, table in _generator_tables(MonomialModel(n, m)):
        image = table.exact()
        if character_combination(n, m, image.terms, columns) != AlgebraElement.basis(g):
            raise CheckFailedError(
                f"the character basis does not model the group algebra at (n={n}, m={m}): "
                f"Phi maps the image of {name} elsewhere"
            )
        left = [element_index(g * h) for h in elems]
        right = [element_index(h * g) for h in elems]
        gens.append((name, image, left, right))
    for lam in product(range(n), repeat=m):
        for p in symmetric_group(m):
            f = CharacterElement._make(n, m, {(lam, p): 1})
            phi = character_combination(n, m, f.terms, columns).terms
            for name, image, left, right in gens:
                for side, moved, model in (("left", left, image * f), ("right", right, f * image)):
                    phi_model = character_combination(n, m, model.terms, columns).terms
                    if phi_model != {moved[h]: c for h, c in phi.items()}:
                        raise CheckFailedError(
                            f"the character basis does not model the group algebra at "
                            f"(n={n}, m={m}): the {side} product of {name} and "
                            f"F({lam}, {list(p)}) differs under Phi"
                        )


def z_square_rhs(n: int, m: int, l: int) -> AlgebraElement:
    """(1/n) sum over i,j in 0..n-1 of q^(-ij) x_l^i x_{l+1}^j.

    The exact value of z_l^2; the sum starts at zero, which is the only
    range consistent with z_l^2 = y_l^(-2).
    """
    return z_square_sum(n, m, l, partial(x_monomial, n, m))


def relation_suite_by_group_basis(n: int, m: int, cap: int | None = None) -> dict:
    """verify_defining_relations' report, with every relation family
    evaluated on group-basis elements by convolution and the order of y_l
    found by repeated products."""
    if n < 2:
        raise ValueError(f"the relation suite needs n >= 2, got n={n}: at n = 1 every y_l is 1")
    check_cap(n, m, "relation-suite", cap)
    one = AlgebraElement.one(n, m)
    ys = {l: y_element(n, m, l) for l in range(1, m)}
    families = relation_families(
        n,
        m,
        partial(x_monomial, n, m),
        ys,
        {l: y_inverse_element(n, m, l) for l in ys},
        {l: s_element(n, m, l) for l in ys},
        partial(lambda_idempotent, n, m),
    )

    def y_order(l):
        power = one
        for k in range(1, 2 * n + 1):
            power = power * ys[l]
            if power == one:
                return k
        return None

    return relation_suite_report(n, m, families, y_order)
