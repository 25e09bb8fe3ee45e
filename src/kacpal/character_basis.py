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

computed by algebra.character_combination beside lambda_idempotent.
kacpal.character_model holds what a check needs beyond the product: the
model check check_model, which verifies at a given (n, m) that Phi carries
the model's product to the group's before any check relies on the model,
the exponent tables of monomial elements, the key of the tensor square,
and the ranks of left ideals and sandwiches.  This module holds only the
element type and the character action permute_character, so that building
an idempotent loads none of them; an element with rational coefficients
loads neither the field nor the group-basis algebra, so the table of
irreducibles without checks needs neither.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from .sparse import SparseSum
from .wreath import Perm

ONE = Fraction(1)


def permute_character(lam: tuple[int, ...], perm) -> tuple[int, ...]:
    """The character lam composed with a slot permutation: entry j of the
    result is lam[perm(j)], so entry i of lam moves to slot perm^(-1)(i).

    perm is a Perm, which is its one-line tuple.  Composition is
    contravariant: permuting by a then by b is permuting by a * b.
    """
    return tuple([lam[j] for j in perm])


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
        """value in Q(zeta_2n): a CycNumber of order 2n, or a rational as a Fraction.

        The field is imported only for a value that is not an int or a
        Fraction, so that rational elements load none of it."""
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        from .cyclotomic import CycNumber, _rational

        if isinstance(value, CycNumber):
            if value.order != 2 * self.n:
                raise ValueError(f"coefficient order {value.order} != {2 * self.n}")
            return value
        return _rational(value)

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

    def to_group(self):
        """The group-basis image Phi(self), an AlgebraElement, with no
        group-algebra product."""
        from .algebra import character_combination

        return character_combination(self.n, self.m, self.terms, {})


def symmetric_group(m: int) -> list[Perm]:
    """All permutations of m points, in Lehmer-rank order."""
    return [Perm._make(images) for images in permutations(range(m))]
