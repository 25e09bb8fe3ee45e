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

with the pairs of roots.lambda_coefficients as its coefficients: the
idempotent command writes a classification idempotent's group-basis
coordinates from them, and character_model.Monomial.difference_head reads
a failing relation's group-basis head from them on exponent tables.
kacpal.character_model holds what a check needs beyond the product: the
model check check_model, which verifies at a given (n, m) that Phi carries
the model's product to the group's before any check relies on the model,
the exponent tables of monomial elements, the key of the tensor square,
and the ranks of left ideals and sandwiches, as traces.  This module holds
only the element type and its linear core, and the product reads the
character action wreath.permute_character, so that building an
idempotent loads none of them.  Its coefficients are rational, so neither
the table of irreducibles nor the idempotent command needs a field.

SparseSum is the linear core of an element at (n, m): sum, difference,
negation, scaling, powers, equality and hashing of a sparse map from keys
to nonzero scalars, with add_into, the in-place accumulator.
CharacterElement, the package's one element type, subclasses it with its
scalars, its identity and its product; the group-basis algebra and its
tensor square of the test oracles (tests/group_basis_oracle.py and
tests/hopf_group_basis_oracle.py), which multiply by rows of the group's
multiplication table, subclass it too, with coefficients in Q(zeta_2n)
from the field class of tests/cyclotomic_oracle.py.  The repeated-squaring
loop, wreath.power, is shared with that field.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .wreath import Perm, permute_character, power

ONE = Fraction(1)


def add_into(acc: dict, terms: dict, factor=None) -> dict:
    """In place acc += factor * terms (factor defaults to one).

    Coefficients that cancel to zero are removed, so acc stays a valid
    sparse sum.  Returns acc.
    """
    for key, c in terms.items():
        if factor is not None:
            c = c * factor
        cur = acc.get(key)
        if cur is not None:
            c = cur + c
        if c:
            acc[key] = c
        else:
            acc.pop(key, None)
    return acc


class SparseSum:
    """An immutable finitely supported sum at (n, m): terms maps keys to
    nonzero scalars, and two sums combine only when their (n, m) agree.

    A subclass defines _scalar(value), which coerces a scalar; _one(), its
    identity element; and __mul__, its product.  Its __init__ validates the
    terms into the dict it hands to SparseSum.__init__.
    """

    __slots__ = ("n", "m", "terms")

    def __init__(self, n: int, m: int, terms: dict):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _make(cls, n: int, m: int, terms: dict):
        """An element from (n, m) and a terms dict, unchecked; the element
        takes ownership of the dict."""
        self = object.__new__(cls)
        SparseSum.__init__(self, n, m, terms)
        return self

    @classmethod
    def zero(cls, n: int, m: int):
        return cls._make(n, m, {})

    def _new(self, terms: dict):
        return self._make(self.n, self.m, terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError(f"{type(self).__name__} parameter mismatch")

    # -- linear operations ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return self._new(add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, factor):
        factor = self._scalar(factor)
        if not factor:
            return self._new({})
        return self._new({k: c * factor for k, c in self.terms.items()})

    # -- multiplicative operations -------------------------------------------

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError(f"negative powers are not supported on {type(self).__name__}")
        return power(self, exponent, self._one)

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and (self.n, self.m) == (other.n, other.m)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.m, frozenset(self.terms.items())))


class CharacterElement(SparseSum):
    """A sparse element over the basis F(lam, p), keyed by (lam, p): lam a
    tuple in Z_n^m and p a permutation of m points: a Perm, or its one-line
    tuple, which is the same key because a Perm is that tuple.

    Coefficients are Fractions: the package builds elements only for the
    classification idempotents and the Young symmetrizers of Q[S_k], whose
    coordinates here are rational.  The generators, Lambda_lam and the
    tensor square, whose coefficients are roots of unity, are exponent
    tables of kacpal.character_model.
    """

    __slots__ = ()

    def __init__(self, n: int, m: int, terms=None):
        clean: dict = {}
        super().__init__(n, m, clean)  # _scalar reads n
        for (lam, p), coeff in (terms or {}).items():
            lam, p = tuple(lam), Perm(p)
            if len(lam) != m or any(not 0 <= v < n for v in lam):
                raise ValueError(f"character {lam} not in Z_{n}^{m}")
            if p.m != m:
                raise ValueError(f"{tuple(p)} is not a permutation of {m} slots")
            coeff = self._scalar(coeff)
            if coeff:
                clean[lam, p] = coeff

    def _scalar(self, value) -> Fraction:
        """value as a Fraction.  A float raises TypeError: its binary value
        (0.1 reads as 3602879701896397/36028797018963968) is seldom the
        number meant."""
        if isinstance(value, float):
            raise TypeError(f"a float ({value!r}) cannot enter exact arithmetic: use an int or a Fraction")
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
