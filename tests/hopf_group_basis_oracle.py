"""The group-basis Hopf structure and the checks of the Hopf axioms on it,
kept as the reference that the character-basis report is tested against.

TensorElement, tensor and the group-like _diagonal are the tensor square of
the group algebra of group_basis_oracle, multiplied by rows of the group's
table on each leg; _GroupBasis holds the primitives of the package's defining
formulas there, and _delta_z, _delta_s and _antipode_s evaluate
hopf._delta_z_image, hopf._delta_s_image and hopf._antipode_s_image on it,
each looked up at call time, so a test that replaces a formula (and clears
these caches) reaches both representations.  delta and antipode extend them
along the canonical word of each basis element (_perm_word), and
cocommutativity_witness compares _delta_z with its flip as dense tensors.
tables_along_words multiplies the report's own generator tables along the
same words, the reference for its breadth-first tables of delta(p) and S(p).

Each check applies delta, counit and antipode to one group-algebra element
and compares the two sides of an axiom as dense tensor-square or
group-algebra sums: (delta x id) delta against (id x delta) delta,
(eps x id) delta against the identity, and m (S x id) delta against eps 1.
relation_failures evaluates the defining relations on dense character-basis
tensors at (n, 2m), as _Characters, which carry the root sum of the z_l^2
relation: the reference for the report's check on exponent tables.
character_coordinates and to_characters are the dense change of basis
Phi^(-1), one CycNumber product per term and character, the reference for
the generator tables that the report builds from the defining formulas.

WalkHopf is the report's _CharacterHopf as it was before it checked every
axiom on the generators alone: one breadth-first walk over the Cayley graph
of S_m builds delta(p) and S(p) for every p, with multiplicativity as
delta(p) delta(s_l) = delta(p s_l) on every edge of the walk, and the
counit, antipode and cocycle loops run over every p (the cocycle loop over
the generators alone once every edge passes).  It is the reference for the
verdicts and the failure details of the checks on the generators.
multiplicativity_failure and antipode_failure are the walk's checks before
it compared products on its edges and the antipode identity on exponents:
every pair of permutations, and sums of CycNumbers.
coassociativity_on_every_p runs the walk's cocycle loop over every
permutation, the reference for its run over the generators.
"""

import random
from copy import copy
from fractions import Fraction
from functools import cached_property, lru_cache

from cyclotomic_oracle import CycNumber, _make, zeta_power
from group_basis_oracle import (
    AlgebraElement,
    CharacterElement,
    SparseSum,
    add_into,
    basis_element,
    counit,
    diagonal_element,
    mul_row,
    root_sum,
    row_product,
    x_element,
    x_monomial,
    z_element,
)
from kacpal import hopf
from kacpal.character_model import characters, tensor_key
from kacpal.relations import presentation
from kacpal.roots import root_count_sum, root_exponent
from kacpal.wreath import element_at, group_order, symmetric_group, twist_index


class TensorElement(SparseSum):
    """A sparse element of the tensor square of the group algebra."""

    __slots__ = ()

    def __init__(self, n: int, m: int, terms=None):
        order = group_order(n, m)
        clean: dict[tuple[int, int], CycNumber] = {}
        super().__init__(n, m, clean)  # _scalar reads n
        for (i, j), coeff in (terms or {}).items():
            if not (0 <= i < order and 0 <= j < order):
                raise ValueError(f"tensor index ({i}, {j}) out of range")
            coeff = self._scalar(coeff)
            if coeff:
                clean[(i, j)] = coeff

    # Scalars are those of the algebra, Q(zeta_2n).
    _scalar = AlgebraElement._scalar
    __mul__ = row_product
    root_sum = root_sum

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


class _GroupBasis:
    """The primitives of the defining formulas in the group basis."""

    tensor = staticmethod(tensor)
    group_like = staticmethod(_diagonal)

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m

    def x(self, t) -> AlgebraElement:
        return x_monomial(self.n, self.m, t)

    def diagonal(self, exponent) -> AlgebraElement:
        return diagonal_element(self.n, self.m, exponent)

    def z(self, l: int) -> AlgebraElement:
        return z_element(self.n, self.m, l)

    @staticmethod
    def monomial(a, what: str):
        # the group algebra takes any coefficient
        return a


@lru_cache(maxsize=None)
def _delta_z(n: int, m: int, l: int) -> TensorElement:
    return hopf._delta_z_image(_GroupBasis(n, m), l)


@lru_cache(maxsize=None)
def _delta_s(n: int, m: int, l: int) -> TensorElement:
    return hopf._delta_s_image(_GroupBasis(n, m), l, _delta_z(n, m, l))


@lru_cache(maxsize=None)
def _antipode_s(n: int, m: int, l: int) -> AlgebraElement:
    return hopf._antipode_s_image(_GroupBasis(n, m), l)


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


def tables_along_words(hopf) -> tuple[dict, dict]:
    """delta(p) and the exponents of S(p) for every p of a WalkHopf, each
    multiplied out along the canonical word of p: the reference for its
    breadth-first walk."""
    delta, sigma = {}, {}
    for p in hopf.perms:
        table, antipode = hopf.model2.one(), hopf.model.one()
        for l in _perm_word(p):
            table = table * hopf.delta_s[l]
            antipode = hopf.antipode_s[l] * antipode
        delta[p], sigma[p] = table, antipode.entries
    return delta, sigma


class WalkHopf(hopf._CharacterHopf):
    """The report's tables and checks before they ran on the generators
    alone: delta_p[p] is the table of delta(p) at (n, 2m) and sigma[p][a]
    the exponent of F(a, p^(-1)) in S(p), for every p, built by the
    breadth-first walk; omega(p) and antipode_terms(p) read them."""

    def __init__(self, n: int, m: int):
        super().__init__(n, m)
        self.perms = symmetric_group(m)

    @cached_property
    def _walk(self) -> tuple[dict, dict, str | None]:
        """delta(p) and the exponents of S(p) for every p, and the first
        edge that is not multiplicative: each edge p -> p s_l takes one
        table product, delta(p) delta(s_l), and the first edge to reach
        p s_l stores it as delta(p s_l), with S(p s_l) = S(s_l) S(p)."""
        one, size = self.perms[0], len(self.chars)
        delta, antipode = {one: self.model2.one()}, {one: self.model.one()}
        failure, reached = None, [one]
        for p in reached:  # grows as the walk reaches new permutations
            for l, s in self.gens.items():
                product, q = delta[p] * self.delta_s[l], p * s
                if q not in delta:
                    delta[q] = product
                    antipode[q] = self.antipode_s[l] * antipode[p]
                    reached.append(q)
                elif failure is None and product.entries != delta[q].entries:
                    # the first differing term F(a, q) (x) F(b, q) in the order of a, b
                    got, want = product.entries, delta[q].entries
                    a, b = min((k % size, k // size) for k, e in enumerate(got) if e != want[k])
                    lam = self.plus[a][b]
                    failure = (
                        f"delta(F F') and delta(F) delta(F') differ for F = "
                        f"{self.name(lam, p)}, F' = {self.name(self.model.moved(p)[lam], s)} "
                        f"at the term {self.name(a, q)} (x) {self.name(b, q)}"
                    )
        return delta, {p: table.entries for p, table in antipode.items()}, failure

    delta_p = cached_property(lambda self: self._walk[0])
    sigma = cached_property(lambda self: self._walk[1])

    def omega(self, p) -> list:
        """Row a of the table of delta(p): entry b is the exponent of
        F(a, p) (x) F(b, p)."""
        return self.rows(self.delta_p[p])

    def antipode_terms(self, p) -> list[tuple[int, int]]:
        """Entry a is (e, b): S(F(a, p)) = S(p) F(-a, 1) = zeta^e F(b, p^(-1)), b = (-a) o p."""
        sigma, act = self.sigma[p], self.model.moved(p)
        return [(sigma[b], b) for b in (act[c] for c in self.neg)]

    def multiplicativity_failure(self) -> str | None:
        return self._walk[2]

    def coassociativity_failure(self) -> str | None:
        # on the generators when every edge of the walk is multiplicative
        if self.multiplicativity_failure() is None:
            tables = [(p, self.delta_s[l]) for l, p in self.gens.items()]
        else:
            tables = [(p, self.delta_p[p]) for p in self.perms]
        plus, order, size = self.plus, self.order, len(self.chars)
        for p, table in tables:
            w = self.rows(table)
            for a in range(size):
                wa = w[a]
                for b in range(size):
                    wab, wb, w_sum, plus_b = wa[b], w[b], w[plus[a][b]], plus[b]
                    for c in range(size):
                        if (wab + w_sum[c] - wa[plus_b[c]] - wb[c]) % order:
                            lam = plus[plus[a][b]][c]
                            return (
                                f"(delta x id) delta and (id x delta) delta differ on "
                                f"{self.name(lam, p)} at the term "
                                f"{self.name(a, p)} (x) {self.name(b, p)} (x) {self.name(c, p)}"
                            )
        return None

    def counit_failure(self) -> str | None:
        # eps[a] = [a = 0] and omega_p = 0 wherever a or b is 0, for every p;
        # the first failing pair in the order of p, a, b
        order = self.order
        bad = [a for a, e in enumerate(self.eps) if e != root_count_sum(order, (int(a == 0),))]
        for p in self.perms:
            w = self.omega(p)
            failing = [(x, 0) for x in bad[:1]] + [(0, x) for x in bad[:1]]
            failing += [(0, b) for b, e in enumerate(w[0]) if e][:1]
            failing += [(a, 0) for a, row in enumerate(w) if row[0]][:1]
            if failing:
                a, b = min(failing)
                return (
                    f"(eps x id) delta or (id x eps) delta is not the identity on "
                    f"{self.name(self.plus[a][b], p)}"
                )
        return None

    def antipode_failure(self) -> str | None:
        # m (S x id) delta = eps 1 and its mirror on every F(lam, p), each
        # side a {character: exponent} map
        order, size = self.order, len(self.chars)

        def unit_times(value):
            if not any(value[0]):
                return {}
            k = root_exponent(order, value)
            return None if k is None else dict.fromkeys(range(size), k)

        expected = [unit_times(value) for value in self.eps]
        for p in self.perms:
            w, terms = self.omega(p), self.antipode_terms(p)
            fwd, back = self.model.moved(p), self.model.moved(p.inverse())
            for lam in range(size):
                left: dict = {}
                right: dict = {}
                for a in range(size):
                    b = self.plus[lam][self.neg[a]]
                    e = w[a][b]
                    k, c = terms[a]
                    if back[c] == b:
                        left[c] = (e + k) % order
                    k, c = terms[b]
                    if c == fwd[a]:
                        right[a] = (e + k) % order
                if left != expected[lam] or right != expected[lam]:
                    return (
                        f"m (S x id) delta or m (id x S) delta is not eps 1 on "
                        f"{self.name(lam, p)}"
                    )
        return None


@lru_cache(maxsize=None)
def _delta_basis(n: int, m: int, index: int) -> TensorElement:
    """Comultiplication of a single group basis element."""
    u = element_at(n, m, index)
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


@lru_cache(maxsize=None)
def _antipode_basis(n: int, m: int, index: int) -> AlgebraElement:
    """Antipode of one basis element: reversed word of s-antipodes times the
    inverted x-monomial."""
    u = element_at(n, m, index)
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


def cocommutativity_witness(n: int, m: int) -> dict:
    """The report's non_cocommutativity entry from dense tensors: delta(z_l)
    against its flip, with the least differing pair of indices as witness,
    and delta(x_i) against its flip."""
    out: dict = {}
    for l in range(1, m):
        d = _delta_z(n, m, l)
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


class _Characters(CharacterElement):
    """Elements of the character model with the root sum that
    relations.z_square_sum takes, which the package leaves to the exponent
    tables."""

    root_sum = root_sum


def _summable(x: CharacterElement) -> _Characters:
    return _Characters._make(x.n, x.m, x.terms)


def relation_failures(n: int, m: int) -> list[str]:
    """The defining relations that delta breaks, as the report names them,
    with the images of the x-monomials and of the z_l changed to the
    character basis on both legs and multiplied as CharacterElements at
    (n, 2m).  The group-basis delta(z_l) is built by hopf._delta_z_image,
    looked up at call time, so a test that replaces that formula (and clears
    the cache of _delta_z) reaches both this and the report's check."""
    families = presentation(
        n,
        m,
        lambda e: _summable(to_characters(_diagonal(x_monomial(n, m, e)))),
        {l: _summable(to_characters(_delta_z(n, m, l))) for l in range(1, m)},
    )
    return [
        f"delta({name})" for items in families.values() for name, lhs, rhs in items if lhs != rhs
    ]


def multiplicativity_failure(hopf) -> str | None:
    """delta(p) delta(q) = delta(pq) on the tables of a WalkHopf,
    checked entry by entry for every pair of permutations:
    omega_pq(mu, nu) = omega_p(mu, nu) + omega_q(mu o p, nu o p) mod 2n."""
    order, size = hopf.order, len(hopf.chars)
    omega = {p: hopf.omega(p) for p in hopf.perms}
    for p in hopf.perms:
        wp, act = omega[p], hopf.model.moved(p)
        for q in hopf.perms:
            wq, wpq = omega[q], omega[p * q]
            for a in range(size):
                rp, rpq, rq = wp[a], wpq[a], wq[act[a]]
                for b in range(size):
                    if (rpq[b] - rp[b] - rq[act[b]]) % order:
                        lam = hopf.plus[a][b]
                        return (
                            f"delta(F F') and delta(F) delta(F') differ for F = "
                            f"{hopf.name(lam, p)}, F' = {hopf.name(act[lam], q)} at the term "
                            f"{hopf.name(a, p * q)} (x) {hopf.name(b, p * q)}"
                        )
    return None


def coassociativity_on_every_p(hopf) -> str | None:
    """The cocycle loop over every permutation of a WalkHopf, as it runs
    when an edge of the walk is not multiplicative: the reference for the
    run over the generators."""
    every_p = copy(hopf)
    every_p.multiplicativity_failure = lambda: "an edge of the walk, as if not multiplicative"
    return every_p.coassociativity_failure()


def antipode_failure(hopf) -> str | None:
    """m (S x id) delta = eps 1 and its mirror on every F(lam, p), on the
    tables of a WalkHopf, with each side summed as CycNumbers."""
    order, size = hopf.order, len(hopf.chars)
    zetas = [zeta_power(order, k) for k in range(order)]
    for p in hopf.perms:
        w, terms = hopf.omega(p), hopf.antipode_terms(p)
        fwd, back = hopf.model.moved(p), hopf.model.moved(p.inverse())
        for lam in range(size):
            # eps(F(lam, p)) 1, with 1 = sum F(mu, 1); eps holds pairs
            eps = _make(order, *hopf.eps[lam])
            expected = dict.fromkeys(range(size), eps) if eps else {}
            left: dict = {}
            right: dict = {}
            for a in range(size):
                b = hopf.plus[lam][hopf.neg[a]]
                e = w[a][b]
                k, c = terms[a]
                if back[c] == b:
                    add_into(left, {c: zetas[(e + k) % order]})
                k, c = terms[b]
                if c == fwd[a]:
                    add_into(right, {a: zetas[(e + k) % order]})
            if left != expected or right != expected:
                return (
                    f"m (S x id) delta or m (id x S) delta is not eps 1 on "
                    f"{hopf.name(lam, p)}"
                )
    return None
