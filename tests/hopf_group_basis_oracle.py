"""The group-basis checks of the Hopf axioms, kept as the reference that the
character-basis report is tested against.

Each check applies the package's delta, counit and antipode to one
group-algebra element and compares the two sides of an axiom as dense
tensor-square or group-algebra sums: (delta x id) delta against
(id x delta) delta, (eps x id) delta against the identity, and
m (S x id) delta against eps 1.  relation_failures evaluates the defining
relations on dense character-basis tensors at (n, 2m), the reference for the
report's check on exponent tables.  character_coordinates and to_characters
are the dense change of basis Phi^(-1), one CycNumber product per term and
character, the reference for the rotation kernel of
kacpal.character_basis.block_coordinates.
"""

import random
from fractions import Fraction
from functools import lru_cache

from group_basis_oracle import basis_element
from kacpal import hopf
from kacpal.algebra import AlgebraElement, presentation, x_monomial
from kacpal.character_basis import CharacterElement, characters, tensor_key
from kacpal.cyclotomic import CycNumber, zeta_power
from kacpal.hopf import TensorElement, _delta_basis, antipode, counit, delta
from kacpal.sparse import add_into
from kacpal.wreath import element_at, group_order, twist_index


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


def to_characters(t: TensorElement) -> CharacterElement:
    """The exact change of basis of both legs of a tensor, one leg at a time:
    an element of the model at (n, 2m), keyed by tensor_key."""
    n, m = t.n, t.m
    columns: dict = {}
    for (i, j), c in t.terms.items():
        columns.setdefault(j, {})[i] = c
    rows: dict = {}
    for j, column in columns.items():
        for key, c in character_coordinates(n, m, column).items():
            rows.setdefault(key, {})[j] = c
    return CharacterElement._make(
        n,
        2 * m,
        {
            tensor_key(key, key2): c
            for key, row in rows.items()
            for key2, c in character_coordinates(n, m, row).items()
        },
    )


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


def relation_failures(n: int, m: int) -> list[str]:
    """The defining relations that delta breaks, as the report names them,
    with the images of the x-monomials and of the z_l changed to the
    character basis on both legs and multiplied as CharacterElements at
    (n, 2m).  delta(z_l) is looked up on kacpal.hopf at call time, so a test
    that replaces it there reaches both this and the report's check."""
    families = presentation(
        n,
        m,
        lambda e: to_characters(hopf._diagonal(x_monomial(n, m, e))),
        {l: to_characters(hopf._delta_z(n, m, l)) for l in range(1, m)},
    )
    return [
        f"delta({name})" for items in families.values() for name, lhs, rhs in items if lhs != rhs
    ]
