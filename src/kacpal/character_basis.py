"""The character basis F(lam, p) = Lambda_lam p of the group algebra.

Lambda_lam, for lam in Z_n^m, are the character idempotents of the twist
subgroup Z_n^m, and p runs over S_m.  With the package's conventions
(p x^t p^(-1) = x^(t o p^(-1))) a permutation moves a character idempotent
as p Lambda_mu = Lambda_(mu o p^(-1)) p, so the product of two basis
elements is

    F(lam, p) F(mu, q) = [lam = mu o p^(-1)] F(lam, pq),

either zero or one basis element.  This is the crossed-product form of
C[Z_n^m] x| S_m behind Mackey's little-group method (Serre, Linear
Representations of Finite Groups, 8.2).  A classification idempotent has
rational coordinates here, and only m! of its |G| left translates are
nonzero, so its rank, its sandwiches and its square need no cyclotomic
arithmetic.

The change of basis Phi: F(lam, p) -> Lambda_lam p is exact,

    Lambda_lam p = n^(-m) sum_t zeta^(2 lam . t) (t, p),

and check_model verifies at a given (n, m) that Phi carries the model's
product to the group's before any check relies on the model.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import lcm

from . import algebra
from .algebra import ONE, AlgebraElement, _echelon, lambda_idempotent, permute_character
from .cyclotomic import zeta_power
from .sparse import SparseSum, add_into
from .wreath import (
    CheckFailedError,
    Perm,
    element_index,
    elements,
    generator_a,
    generator_b,
)


class CharacterElement(SparseSum):
    """A sparse element over the basis F(lam, p), keyed by (lam, p): lam a
    tuple in Z_n^m and p a permutation of m points in one-line notation (a
    tuple, like Perm.images), so keys hash and compare as plain tuples.

    Coefficients are Fractions.  The generator images that check_model
    multiplies by carry roots of unity (CycNumbers of order 2n) instead;
    they multiply by the same rule.
    """

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int, terms=None):
        clean: dict[tuple, Fraction] = {}
        for (lam, p), coeff in (terms or {}).items():
            lam, p = tuple(lam), tuple(p)
            if len(lam) != m or any(not 0 <= v < n for v in lam):
                raise ValueError(f"character {lam} not in Z_{n}^{m}")
            if sorted(p) != list(range(m)):
                raise ValueError(f"{p} is not a permutation of {m} slots")
            coeff = Fraction(coeff)
            if coeff:
                clean[lam, p] = coeff
        self._assign(n, m, clean)

    def _scalar(self, value) -> Fraction:
        return Fraction(value)

    def _one(self) -> "CharacterElement":
        return CharacterElement.one(self.n, self.m)

    def _row(self, key):
        lam, p = key
        # lam = mu o p^(-1) exactly when mu = lam o p
        partner = permute_character(lam, p)

        def row(right):
            mu, q = right
            return (lam, tuple([p[j] for j in q])) if mu == partner else None

        return row

    @classmethod
    def one(cls, n: int, m: int) -> "CharacterElement":
        """The identity: the sum of all F(lam, 1)."""
        ident = tuple(range(m))
        return cls._make(n, m, {(lam, ident): ONE for lam in product(range(n), repeat=m)})

    def to_group(self) -> AlgebraElement:
        """The group-basis image Phi(self), with no group-algebra product."""
        return AlgebraElement._make(self.n, self.m, _group_terms(self, {}, {}))


def _group_terms(x: CharacterElement, columns: dict, bases: dict) -> dict:
    """Phi(x) as {group index: coefficient}.

    The index of (t, p) is lehmer(p) * n^m plus the index of t, so
    F(lam, p) maps to c * Lambda_lam shifted by lehmer(p) * n^m.  columns
    caches c * Lambda_lam per (lam, c) and bases the shift per p, so terms
    sharing a character and a coefficient share their multiplications.
    """
    n, m = x.n, x.m
    acc: dict = {}
    for (lam, p), c in x.terms.items():
        col = columns.get((lam, c))
        if col is None:
            col = columns[lam, c] = {
                t: z * c for t, z in lambda_idempotent(n, m, lam).terms.items()
            }
        base = bases.get(p)
        if base is None:
            base = bases[p] = Perm(p).lehmer_rank() * n**m
        shifted = {base + t: z for t, z in col.items()}
        acc = add_into(acc, shifted) if acc else shifted
    return acc


def symmetric_group(m: int) -> list[Perm]:
    """All permutations of m points, in Lehmer-rank order."""
    return [Perm(images) for images in permutations(range(m))]


def left_translates(x: CharacterElement):
    """The nonzero left translates F(mu, q) x, which span the left ideal A x.

    F(mu, q) F(lam, s) is nonzero only when mu = lam o q^(-1), so each q
    gives one translate per character in the support of x: m! vectors for a
    classification idempotent, against |G| in the group basis.
    """
    n, m = x.n, x.m
    chars = dict.fromkeys(lam for lam, _ in x.terms)
    for q in symmetric_group(m):
        q_inv = q.inverse()
        for lam in chars:
            translate = CharacterElement._make(n, m, {(permute_character(lam, q_inv), q.images): ONE})
            yield (translate * x).terms


def left_ideal_basis(x: CharacterElement) -> list[dict]:
    """Echelon rows spanning the left ideal A x; its dimension is their number."""
    return _echelon(left_translates(x))


def sandwich_rank(e: CharacterElement, basis: list[dict]) -> int:
    """The rank of {e v : v in basis}; when basis spans the left ideal A f
    this is dim e A f, the sandwich dimension.

    Scaling a vector leaves a rank unchanged, so e and the rows are taken
    with integer coordinates and their products run on ints.
    """
    n, m = e.n, e.m
    left = CharacterElement._make(n, m, integral(e.terms))
    vectors = ((left * CharacterElement._make(n, m, integral(row))).terms for row in basis)
    # Looked up on the algebra module at call time, so that a wrapper put there
    # (the benchmark's tracer counts rank vectors) sees these ranks too.
    return algebra._sparse_rank(vectors)


def integral(terms: dict) -> dict:
    """The vector times the lcm of its coefficient denominators: integer
    coordinates on the same line, whose products need no Fraction arithmetic."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in terms.items()}


def _generator_images(n: int, m: int) -> list[tuple]:
    """(name, g, g~) for each generator g of the group, with g~ = Phi^(-1)(g):
    x_i = sum_lam zeta^(-2 lam_i) F(lam, 1) and s_l = sum_lam F(lam, s_l)."""
    order = 2 * n
    chars = list(product(range(n), repeat=m))
    ident = tuple(range(m))
    images = []
    for i in range(1, m + 1):
        terms = {(lam, ident): zeta_power(order, -2 * lam[i - 1]) for lam in chars}
        images.append((f"x_{i}", generator_a(n, m, i), CharacterElement._make(n, m, terms)))
    for l in range(1, m):
        g = generator_b(n, m, l)
        terms = {(lam, g.perm.images): ONE for lam in chars}
        images.append((f"s_{l}", g, CharacterElement._make(n, m, terms)))
    return images


def check_model(n: int, m: int) -> None:
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
    bases: dict = {}
    elems = elements(n, m)
    gens = []
    for name, g, image in _generator_images(n, m):
        if _group_terms(image, columns, bases) != AlgebraElement.basis(g).terms:
            raise CheckFailedError(
                f"the character basis does not model the group algebra at (n={n}, m={m}): "
                f"Phi maps the image of {name} elsewhere"
            )
        left = [element_index(g * h) for h in elems]
        right = [element_index(h * g) for h in elems]
        gens.append((name, image, left, right))
    for lam in product(range(n), repeat=m):
        for p in symmetric_group(m):
            f = CharacterElement._make(n, m, {(lam, p.images): ONE})
            phi = _group_terms(f, columns, bases)
            for name, image, left, right in gens:
                for side, moved, model in (("left", left, image * f), ("right", right, f * image)):
                    if _group_terms(model, columns, bases) != {moved[h]: c for h, c in phi.items()}:
                        raise CheckFailedError(
                            f"the character basis does not model the group algebra at "
                            f"(n={n}, m={m}): the {side} product of {name} and "
                            f"F({lam}, {list(p.images)}) differs under Phi"
                        )
