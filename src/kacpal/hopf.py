"""Comultiplication, counit, and antipode on the group-algebra realization.

The comultiplication is group-like on x-monomials and is given on the
square-root generators by the twisted formula
delta(z_l) = ((1/n) sum q^(-ij) x_l^i (x) x_{l+1}^j) (z_l (x) z_l),
extended multiplicatively along a canonical adjacent-transposition word for
each basis permutation.  Well-definedness of that extension is not assumed;
it is covered by the relation-preservation checks in the axiom report.

The counit is the group-algebra counit (one on every basis element); the
comultiplication above leaves it no other choice, which the axiom checks
confirm.  The antipode inverts x-monomials and fixes the square-root
generators, extended anti-homomorphically along the same canonical words.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    AlgebraElement,
    basis_element,
    character_combination,
    presentation,
    s_element,
    x_element,
    x_monomial,
    y_element,
    z_element,
    z_square_sum,
)
from .cyclotomic import CycNumber, zeta_power
from .partitions import SymFormalSum
from .sparse import SparseSum, add_into
from .wreath import check_cap, elements, group_order, mul_row


class TensorElement(SparseSum):
    """A sparse element of the tensor square of the group algebra."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int, terms=None):
        order = group_order(n, m)
        clean: dict[tuple[int, int], CycNumber] = {}
        for (i, j), coeff in (terms or {}).items():
            if not (0 <= i < order and 0 <= j < order):
                raise ValueError(f"tensor index ({i}, {j}) out of range")
            if not coeff.is_zero():
                clean[(i, j)] = coeff
        self._assign(n, m, clean)

    # The benchmark's tracer wraps TensorElement.__mul__ found in this class's
    # own __dict__; without this binding its product counts would read zero.
    __mul__ = SparseSum.__mul__

    # Scalars are those of the algebra, Q(zeta_2n).
    _scalar = AlgebraElement._scalar

    def _one(self) -> "TensorElement":
        return TensorElement.unit(self.n, self.m)

    def _row(self, key: tuple[int, int]):
        # componentwise group product in both tensor legs
        left = mul_row(self.n, self.m, key[0])
        right = mul_row(self.n, self.m, key[1])
        return lambda k: (left[k[0]], right[k[1]])

    @classmethod
    def unit(cls, n: int, m: int) -> "TensorElement":
        return cls._make(n, m, {(0, 0): CycNumber.one(2 * n)})

    def flip(self) -> "TensorElement":
        return TensorElement._make(
            self.n, self.m, {(j, i): c for (i, j), c in self.terms.items()}
        )

    def __repr__(self):
        return f"TensorElement(n={self.n}, m={self.m}, {len(self.terms)} terms)"


def tensor(a: AlgebraElement, b: AlgebraElement) -> TensorElement:
    """The elementary tensor of two algebra elements."""
    a._check(b)
    terms = {}
    for i, ca in a.terms.items():
        for j, cb in b.terms.items():
            terms[(i, j)] = ca * cb
    return TensorElement._make(a.n, a.m, terms)


def _diagonal(a: AlgebraElement) -> TensorElement:
    """Apply the group-like comultiplication to an element supported on
    x-monomials."""
    return TensorElement._make(a.n, a.m, {(i, i): c for i, c in a.terms.items()})


@lru_cache(maxsize=None)
def _delta_z(n: int, m: int, l: int) -> TensorElement:
    """The defining comultiplication of the square-root generator: the z_l^2
    double sum with each monomial x_l^i x_{l+1}^j split as x_l^i (x) x_{l+1}^j,
    times z_l (x) z_l."""

    def split(e):
        left = x_monomial(n, m, e[:l] + (0,) * (m - l))
        return tensor(left, x_monomial(n, m, (0,) * l + e[l:]))

    z = z_element(n, m, l)
    return z_square_sum(n, m, l, split) * tensor(z, z)


@lru_cache(maxsize=None)
def _delta_s(n: int, m: int, l: int) -> TensorElement:
    """delta(s_l) = delta(y_l) delta(z_l); y_l is a combination of x-monomials,
    so its comultiplication is diagonal."""
    return _diagonal(y_element(n, m, l)) * _delta_z(n, m, l)


def _perm_word(images: tuple[int, ...]) -> tuple[int, ...]:
    """A canonical adjacent-transposition word for a permutation.

    Bubble sort the one-line form; the reversed swap sequence gives 1-based
    subscripts w so that the basis element equals s_{w[0]} * s_{w[1]} * ...
    """
    work = list(images)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                swaps.append(i + 1)
                changed = True
    return tuple(reversed(swaps))


@lru_cache(maxsize=None)
def _delta_basis(n: int, m: int, index: int) -> TensorElement:
    """Comultiplication of a single group basis element."""
    u = elements(n, m)[index]
    result = _diagonal(x_monomial(n, m, u.twists))
    for l in _perm_word(u.perm):
        result = result * _delta_s(n, m, l)
    return result


def delta(a: AlgebraElement) -> TensorElement:
    """Comultiplication, extended linearly over the group basis."""
    acc: dict[tuple[int, int], CycNumber] = {}
    for ix, c in a.terms.items():
        add_into(acc, _delta_basis(a.n, a.m, ix).terms, c)
    return TensorElement._make(a.n, a.m, acc)


def counit(a: AlgebraElement) -> CycNumber:
    """The counit: one on every group basis element, extended linearly."""
    return sum(a.terms.values(), CycNumber.zero(2 * a.n))


@lru_cache(maxsize=None)
def _antipode_s(n: int, m: int, l: int) -> AlgebraElement:
    """The antipode of s_l: fixes z_l and reverses the factors,
    S(s_l) = z_l * sum over lam of zeta^(-lam_l lam_{l+1}) Lambda_(-lam).

    Negating the character representatives changes the integer products in
    the exponents, so for n >= 3 this differs from s_l itself.
    """
    order = 2 * n

    def weight(lam):
        neg_l = (-lam[l - 1]) % n
        neg_next = (-lam[l]) % n
        return zeta_power(order, -neg_l * neg_next)

    return z_element(n, m, l) * character_combination(n, m, weight)


@lru_cache(maxsize=None)
def _antipode_basis(n: int, m: int, index: int) -> AlgebraElement:
    """Antipode of one basis element: reversed word of s-antipodes times the
    inverted x-monomial."""
    u = elements(n, m)[index]
    result = x_monomial(n, m, tuple((-t) % n for t in u.twists))
    for l in _perm_word(u.perm):
        result = _antipode_s(n, m, l) * result
    return result


def antipode(a: AlgebraElement) -> AlgebraElement:
    """The antipode: x-monomials map to their inverses, square-root
    generators are fixed, extended anti-homomorphically along the canonical
    word of each basis element."""
    acc: dict[int, CycNumber] = {}
    for ix, c in a.terms.items():
        add_into(acc, _antipode_basis(a.n, a.m, ix).terms, c)
    return AlgebraElement._make(a.n, a.m, acc)


# -- axiom verification -------------------------------------------------------


def _delta_leg(t: TensorElement, leg: int) -> dict:
    """(delta (x) id)(t) for leg 0, (id (x) delta)(t) for leg 1, as a sparse
    map from index triples."""
    out: dict[tuple[int, int, int], CycNumber] = {}
    for (i, j), c in t.terms.items():
        image = _delta_basis(t.n, t.m, (i, j)[leg]).terms
        add_into(
            out, {((p, q, j) if leg == 0 else (i, p, q)): d for (p, q), d in image.items()}, c
        )
    return out


def coassociativity_holds(u: AlgebraElement) -> bool:
    d = delta(u)
    return _delta_leg(d, 0) == _delta_leg(d, 1)


def counit_axiom_holds(u: AlgebraElement) -> bool:
    d = delta(u)
    left: dict[int, CycNumber] = {}  # epsilon on the first leg
    right: dict[int, CycNumber] = {}
    for (i, j), c in d.terms.items():
        add_into(left, {j: c})
        add_into(right, {i: c})
    return left == u.terms and right == u.terms


def antipode_axiom_holds(u: AlgebraElement) -> bool:
    d = delta(u)
    n, m = u.n, u.m
    target = AlgebraElement.one(n, m).scale(counit(u))
    left: dict[int, CycNumber] = {}
    right: dict[int, CycNumber] = {}
    for (i, j), c in d.terms.items():
        add_into(left, (antipode(basis_element(n, m, i)) * basis_element(n, m, j)).terms, c)
        add_into(right, (basis_element(n, m, i) * antipode(basis_element(n, m, j))).terms, c)
    return left == target.terms and right == target.terms


def _generators(n: int, m: int) -> list[tuple[str, AlgebraElement]]:
    gens = [(f"x_{i}", x_element(n, m, i)) for i in range(1, m + 1)]
    gens += [(f"z_{l}", z_element(n, m, l)) for l in range(1, m)]
    gens += [(f"s_{l}", s_element(n, m, l)) for l in range(1, m)]
    return gens


def _delta_relation_pairs(n: int, m: int) -> list[tuple[str, TensorElement, TensorElement]]:
    """Comultiplication applied to both sides of every defining relation,
    computed multiplicatively from the generator images."""
    families = presentation(
        n,
        m,
        lambda e: _diagonal(x_monomial(n, m, e)),
        {l: _delta_z(n, m, l) for l in range(1, m)},
    )
    return [
        (f"delta({name})", lhs, rhs) for items in families.values() for name, lhs, rhs in items
    ]


def hopf_axiom_report(n: int, m: int, cap: int | None = None) -> dict:
    """Verify every coalgebra and antipode axiom on the generators.

    Includes the relation-preservation suite (well-definedness of the
    multiplicative extension), multiplicativity spot checks on fixed
    pseudo-random sparse elements, and the non-cocommutativity witnesses.
    """
    if n < 2:
        raise ValueError(
            f"the Hopf report needs n >= 2, got n={n}: at n = 1 the algebra is Q[S_m], "
            "whose comultiplication is cocommutative"
        )
    if m < 2:
        raise ValueError(
            f"the Hopf report needs m >= 2, got m={m}: at m = 1 there is no z_l, "
            "so no non-cocommutativity witness exists"
        )
    check_cap(n, m, "tensor-square", cap)
    report: dict = {"n": n, "m": m, "axioms": {}}
    gens = _generators(n, m)

    coassoc = {name: coassociativity_holds(u) for name, u in gens}
    report["axioms"]["coassociativity"] = (
        "pass" if all(coassoc.values()) else {"status": "fail", "detail": coassoc}
    )

    counit_ok = {name: counit_axiom_holds(u) for name, u in gens}
    report["axioms"]["counit"] = (
        "pass" if all(counit_ok.values()) else {"status": "fail", "detail": counit_ok}
    )

    antipode_ok = {name: antipode_axiom_holds(u) for name, u in gens}
    report["axioms"]["antipode"] = (
        "pass" if all(antipode_ok.values()) else {"status": "fail", "detail": antipode_ok}
    )

    failures = [name for name, lhs, rhs in _delta_relation_pairs(n, m) if lhs != rhs]
    report["axioms"]["delta_preserves_relations"] = (
        "pass" if not failures else {"status": "fail", "detail": failures}
    )

    rng = random.Random(20240 + 100 * n + m)
    mult_ok = True
    for _ in range(3):
        a = _fixed_sparse(n, m, rng)
        b = _fixed_sparse(n, m, rng)
        if delta(a * b) != delta(a) * delta(b):
            mult_ok = False
            break
    report["axioms"]["delta_multiplicative"] = "pass" if mult_ok else "fail"

    report["non_cocommutativity"] = cocommutativity_witness(n, m, cap=cap)
    report["all_pass"] = all(v == "pass" for v in report["axioms"].values()) and all(
        entry["status"] == "noncocommutative"
        for key, entry in report["non_cocommutativity"].items()
        if key.startswith("z_")
    )
    return report


def _fixed_sparse(n: int, m: int, rng: random.Random, size: int = 3) -> AlgebraElement:
    """A deterministic sparse element driven by the caller's seeded RNG."""
    order = group_order(n, m)
    terms: dict[int, CycNumber] = {}
    for _ in range(size):
        ix = rng.randrange(order)
        coeff = zeta_power(2 * n, rng.randrange(2 * n)) * CycNumber.from_rational(
            2 * n, Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        )
        add_into(terms, {ix: coeff})
    return AlgebraElement(n, m, terms)


def cocommutativity_witness(n: int, m: int, cap: int | None = None) -> dict:
    """Report that delta(z_l) differs from its flip, with one nonzero
    coordinate as witness, and that the x generators are symmetric."""
    check_cap(n, m, "tensor-square", cap)
    out: dict = {}
    for l in range(1, m):
        d = delta(z_element(n, m, l))
        diff = d - d.flip()
        if diff.is_zero():
            out[f"z_{l}"] = {"status": "cocommutative"}
        else:
            key = min(diff.terms)
            out[f"z_{l}"] = {
                "status": "noncocommutative",
                "witness": {
                    "pair": list(key),
                    "coefficient": diff.terms[key].to_json(),
                },
            }
    x_symmetric = all(
        delta(x_element(n, m, i)) == delta(x_element(n, m, i)).flip()
        for i in range(1, m + 1)
    )
    out["x_generators"] = "symmetric" if x_symmetric else "asymmetric"
    return out


def quotient_to_sym(a: AlgebraElement) -> SymFormalSum:
    """Project onto the symmetric group algebra by forgetting twists.

    The projection kills x_i - 1, so every x-monomial maps to the identity
    permutation.  Raises ValueError if a projected coefficient is not
    rational (such a value cannot be represented in a rational formal sum).
    """
    elems = elements(a.n, a.m)
    acc: dict = {}
    for ix, c in a.terms.items():
        add_into(acc, {elems[ix].perm: c})
    return SymFormalSum(a.m, {perm: c.rational() for perm, c in acc.items()})
