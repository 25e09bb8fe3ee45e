"""The group algebra of the generalised symmetric group.

This algebra carries the generalised Kac-Paljutkin structure: the twist
generators x_i, the transposition basis elements s_l, the character
idempotents Lambda_lambda of the abelian subalgebra, and the square roots
z_l = y_l^(-1) s_l reconstructed from the diagonal units y_l.  Every
defining relation of the abstract presentation is verified exactly rather
than imposed, by relations.verify_defining_relations on the exponent tables
of kacpal.character_model, which build no element of this module; these
elements are the reference that tests/group_basis_oracle.py checks the
suite against, and the group-basis images of the classification
idempotents.

Scalars live in Q(zeta_2n); elements are sparse maps from dense group
indices to scalars.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .cyclotomic import CycNumber, _make, zeta_power
from .roots import lambda_coefficients
from .sparse import SparseSum, add_into
from .wreath import (
    WreathElement,
    element_index,
    generator_b,
    group_order,
    mul_row,
    perm_index,
    twist_index,
)

class AlgebraElement(SparseSum):
    """A sparse element of the group algebra over Q(zeta_2n)."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int, terms=None):
        order = group_order(n, m)
        clean: dict[int, CycNumber] = {}
        self._assign(n, m, clean)  # _scalar reads n
        for index, coeff in (terms or {}).items():
            if not 0 <= index < order:
                raise ValueError(f"group index {index} out of range for (n={n}, m={m})")
            coeff = self._scalar(coeff)
            if coeff:
                clean[index] = coeff

    # The benchmark's tracer wraps AlgebraElement.__mul__ found in this class's
    # own __dict__; without this binding its product counts would read zero.
    __mul__ = SparseSum.__mul__

    def _scalar(self, value) -> CycNumber:
        """value in Q(zeta_2n): a CycNumber of order 2n, or a rational."""
        if isinstance(value, CycNumber):
            if value.order != 2 * self.n:
                raise ValueError(f"coefficient order {value.order} != {2 * self.n}")
            return value
        return CycNumber.from_rational(2 * self.n, value)

    def _one(self) -> "AlgebraElement":
        return AlgebraElement.one(self.n, self.m)

    def _row(self, index: int):
        return mul_row(self.n, self.m, index).__getitem__

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, n: int, m: int) -> "AlgebraElement":
        return cls._make(n, m, {0: CycNumber.one(2 * n)})

    @classmethod
    def basis(cls, element: WreathElement) -> "AlgebraElement":
        return cls._make(
            element.n, element.m, {element_index(element): CycNumber.one(2 * element.n)}
        )

    # -- structure ---------------------------------------------------------

    def __repr__(self):
        head = ", ".join(f"{ix}: {c!r}" for ix, c in sorted(self.terms.items())[:4])
        more = "" if len(self.terms) <= 4 else f", ... ({len(self.terms)} terms)"
        return f"AlgebraElement(n={self.n}, m={self.m}, {{{head}{more}}})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        terms = [{"index": ix, "coeff": c.to_json()} for ix, c in sorted(self.terms.items())]
        return {"n": self.n, "m": self.m, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraElement":
        terms = {item["index"]: CycNumber.from_json(item["coeff"]) for item in data["terms"]}
        return cls(data["n"], data["m"], terms)


# -- distinguished elements -------------------------------------------------


def x_element(n: int, m: int, i: int) -> AlgebraElement:
    """The twist generator at slot i (1-based) as a basis element."""
    if not 1 <= i <= m:
        raise ValueError(f"x index {i} out of range 1..{m}")
    return x_monomial(n, m, tuple(1 if j == i - 1 else 0 for j in range(m)))


def x_monomial(n: int, m: int, exponents) -> AlgebraElement:
    """The product of x generators with the given exponent vector."""
    exponents = tuple(e % n for e in exponents)
    if len(exponents) != m:
        raise ValueError("exponent vector length must be m")
    # x-monomials carry the identity permutation, whose Lehmer rank is 0,
    # so their index is just the mixed-radix twist value.
    return AlgebraElement._make(n, m, {twist_index(n, exponents): CycNumber.one(2 * n)})


@lru_cache(maxsize=None)
def lambda_idempotent(n: int, m: int, lam: tuple[int, ...]) -> AlgebraElement:
    """The character idempotent of the abelian subalgebra for character lam.

    Averages all x-monomials against the character q^(lam . i); the family
    over all lam forms a complete set of orthogonal idempotents.  Each
    coefficient is zeta^(2 lam . i) over the common denominator n^m, the
    pairs of roots.lambda_coefficients; an x-monomial's index is its twist
    index.
    """
    if len(lam) != m or any(not 0 <= v < n for v in lam):
        raise ValueError(f"character {lam} not in Z_{n}^{m}")
    order, pairs = 2 * n, lambda_coefficients(n, m, lam)
    return AlgebraElement._make(n, m, {t: _make(order, *pair) for t, pair in enumerate(pairs)})


def character_combination(n: int, m: int, terms: dict, columns: dict) -> AlgebraElement:
    """Phi: the group-basis element sum of c * Lambda_lam p over the terms
    {(lam, p): c} of an element of the character basis F(lam, p) = Lambda_lam p.

    The index of (t, p) is perm_index(p) * n^m plus the index of t, so
    c * Lambda_lam p is c * Lambda_lam shifted by perm_index(p) * n^m.
    columns caches c * Lambda_lam per (lam, c), so terms sharing a character
    and a coefficient share their multiplications.
    """
    size = n**m
    acc: dict = {}
    for (lam, p), c in terms.items():
        col = columns.get((lam, c))
        if col is None:
            col = columns[lam, c] = {
                t: z * c for t, z in lambda_idempotent(n, m, lam).terms.items()
            }
        base = perm_index(p) * size
        shifted = {base + t: z for t, z in col.items()}
        acc = add_into(acc, shifted) if acc else shifted
    return AlgebraElement._make(n, m, acc)


def _check_transposition_index(m: int, l: int):
    if not 1 <= l <= m - 1:
        raise ValueError(f"index {l} out of range 1..{m - 1}")


def diagonal_element(n: int, m: int, exponent) -> AlgebraElement:
    """sum_lam zeta^exponent(lam) Lambda_lam, by the change of basis."""
    ident = tuple(range(m))
    terms = {
        (lam, ident): zeta_power(2 * n, exponent(lam)) for lam in product(range(n), repeat=m)
    }
    return character_combination(n, m, terms, {})


def _y_power(n: int, m: int, l: int, sign: int) -> AlgebraElement:
    # the relation table defines y_l by its eigenvalues
    from .relations import y_exponent

    _check_transposition_index(m, l)
    return diagonal_element(n, m, lambda lam: sign * y_exponent(lam, l))


@lru_cache(maxsize=None)
def y_element(n: int, m: int, l: int) -> AlgebraElement:
    """The unit of order 2n acting on the character idempotents by
    zeta^(-lam_l * lam_{l+1})."""
    return _y_power(n, m, l, 1)


@lru_cache(maxsize=None)
def y_inverse_element(n: int, m: int, l: int) -> AlgebraElement:
    """Inverse of y_element, by inverting each diagonal eigenvalue."""
    return _y_power(n, m, l, -1)


@lru_cache(maxsize=None)
def s_element(n: int, m: int, l: int) -> AlgebraElement:
    """The transposition generator as a group basis element."""
    return AlgebraElement.basis(generator_b(n, m, l))


@lru_cache(maxsize=None)
def z_element(n: int, m: int, l: int) -> AlgebraElement:
    """The square-root generator, reconstructed as y_l^(-1) s_l."""
    return y_inverse_element(n, m, l) * s_element(n, m, l)
