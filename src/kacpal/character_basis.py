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

computed by algebra.character_combination beside lambda_idempotent, and
check_model verifies at a given (n, m) that Phi carries the model's
product to the group's before any check relies on the model.  Its inverse,
character_coordinates, keeps cyclotomic coefficients,

    (t, p) = x^t p = sum_lam zeta^(-2 lam . t) F(lam, p),

and is how kacpal.hopf reads the comultiplication and the antipode in this
basis.  The tensor square of the algebra at (n, m) is modelled by the same
elements at (n, 2m), keyed by tensor_key.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import lcm

from . import algebra
from .algebra import ONE, AlgebraElement, _echelon, character_combination, permute_character
from .cyclotomic import CycNumber, zeta_power
from .sparse import SparseSum
from .wreath import (
    CheckFailedError,
    Perm,
    element_at,
    element_index,
    elements,
    generator_a,
    generator_b,
    twist_index,
)


class CharacterElement(SparseSum):
    """A sparse element over the basis F(lam, p), keyed by (lam, p): lam a
    tuple in Z_n^m and p a permutation of m points: a Perm, or its one-line
    tuple, which is the same key because a Perm is that tuple.

    Coefficients are Fractions, or CycNumbers of order 2n: the generator
    images that check_model multiplies by carry roots of unity, and tensors,
    elements at (n, 2m) keyed by tensor_key, carry any coefficients in
    Q(zeta_2n); all multiply by the same rule.
    """

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int, terms=None):
        clean: dict = {}
        self._assign(n, m, clean)  # _scalar reads n
        for (lam, p), coeff in (terms or {}).items():
            lam, p = tuple(lam), Perm(p)
            if len(lam) != m or any(not 0 <= v < n for v in lam):
                raise ValueError(f"character {lam} not in Z_{n}^{m}")
            if p.m != m:
                raise ValueError(f"{tuple(p)} is not a permutation of {m} slots")
            coeff = self._scalar(coeff)
            if coeff:
                clean[lam, p] = coeff

    def _scalar(self, value):
        """value in Q(zeta_2n): a CycNumber of order 2n, or a rational as a Fraction."""
        if isinstance(value, CycNumber):
            if value.order != 2 * self.n:
                raise ValueError(f"coefficient order {value.order} != {2 * self.n}")
            return value
        return Fraction(value)

    def _one(self) -> "CharacterElement":
        return CharacterElement.one(self.n, self.m)

    def __mul__(self, other):
        """F(lam, p) F(mu, q) = [mu = lam o p] F(lam, pq): each left key meets
        only the right terms on its partner character, found by lookup."""
        self._check(other)
        by_character: dict = {}
        for (mu, q), b in other.terms.items():
            by_character.setdefault(mu, []).append((q, b))
        acc: dict = {}
        for (lam, p), a in self.terms.items():
            # lam = mu o p^(-1) exactly when mu = lam o p
            for q, b in by_character.get(permute_character(lam, p), ()):
                key = (lam, tuple([p[j] for j in q]))
                c = a * b
                cur = acc.get(key)
                acc[key] = c if cur is None else cur + c
        return self._new({k: v for k, v in acc.items() if v})

    @classmethod
    def one(cls, n: int, m: int) -> "CharacterElement":
        """The identity: the sum of all F(lam, 1)."""
        ident = tuple(range(m))
        return cls._make(n, m, {(lam, ident): ONE for lam in product(range(n), repeat=m)})

    def to_group(self) -> AlgebraElement:
        """The group-basis image Phi(self), with no group-algebra product."""
        return character_combination(self.n, self.m, self.terms, {})


def tensor_key(left: tuple, right: tuple) -> tuple:
    """The key of F(lam, p) (x) F(nu, q) in the model at (n, 2m).

    The tensor square of the algebra at (n, m) is that of G x G, the subgroup
    of the group at (n, 2m) whose permutations keep each half of the slots,
    so F(lam, p) (x) F(nu, q) is F(lam nu, p (+) q), with q moved to the
    slots m..2m-1; the model's product on these keys is that of each leg.
    """
    (lam, p), (nu, q) = left, right
    m = len(p)
    return (*lam, *nu), (*p, *[m + j for j in q])


@lru_cache(maxsize=None)
def characters(n: int, m: int) -> tuple:
    """The characters of Z_n^m in twist-index order: entry k has twist_index k."""
    return tuple(element_at(n, m, k).twists for k in range(n**m))


@lru_cache(maxsize=None)
def _fourier(n: int, m: int) -> tuple:
    """Row k: zeta^(-2 lam . t) for the twist vector t of twist_index k, over
    the characters lam in twist-index order."""
    order = 2 * n
    chars = characters(n, m)
    return tuple(
        tuple(zeta_power(order, -2 * sum(a * b for a, b in zip(lam, t))) for lam in chars)
        for t in chars
    )


def character_coordinates(n: int, m: int, terms: dict) -> dict:
    """Phi^(-1) on coordinates: a group-basis vector {index: c} as
    {(lam, p): c'}, with the coefficients kept in Q(zeta_2n).

    The group element (t, p) is x^t p = sum_lam zeta^(-2 lam . t) F(lam, p),
    so each term spreads over the n^m characters of its own permutation.
    """
    chars, rows = characters(n, m), _fourier(n, m)
    acc: dict = {}
    for index, c in terms.items():
        u = element_at(n, m, index)
        p = u.perm
        for lam, z in zip(chars, rows[twist_index(n, u.twists)]):
            key = (lam, p)
            v = c * z
            cur = acc.get(key)
            acc[key] = v if cur is None else cur + v
    return {key: v for key, v in acc.items() if v}


def symmetric_group(m: int) -> list[Perm]:
    """All permutations of m points, in Lehmer-rank order."""
    return [Perm._make(images) for images in permutations(range(m))]


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
            translate = CharacterElement._make(n, m, {(permute_character(lam, q_inv), q): ONE})
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
        terms = {(lam, g.perm): ONE for lam in chars}
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
    elems = elements(n, m)
    gens = []
    for name, g, image in _generator_images(n, m):
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
            f = CharacterElement._make(n, m, {(lam, p): ONE})
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
