"""The group algebra of the generalised symmetric group.

This algebra carries the generalised Kac-Paljutkin structure: the twist
generators x_i, the transposition basis elements s_l, the character
idempotents Lambda_lambda of the abelian subalgebra, and the square roots
z_l = y_l^(-1) s_l reconstructed from the diagonal units y_l.  Every
defining relation of the abstract presentation is then verified exactly
rather than imposed, in the character basis of kacpal.character_basis.

Scalars live in Q(zeta_2n); elements are sparse maps from dense group
indices to scalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import gcd, lcm

from .cyclotomic import CycNumber, zeta_over, zeta_power
from .sparse import SparseSum, add_into
from .wreath import (
    CapExceededError,  # re-exported for callers of the capped checks below
    Perm,
    WreathElement,
    check_cap,
    element_index,
    generator_b,
    group_order,
    mul_row,
    perm_index,
    twist_index,
)

ONE = Fraction(1)


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

    def root_sum(self, pairs, den: int):
        """(1/den) sum of zeta^k x over the (k, x) pairs, x of this type and
        zeta of order 2n; self gives only the type and its parameters."""
        order = 2 * self.n
        acc: dict = {}
        for k, x in pairs:
            add_into(acc, x.terms, zeta_over(order, k, den))
        return self._new(acc)

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
    coefficient is zeta^(2 lam . i) over the common denominator n^m.
    """
    if len(lam) != m or any(not 0 <= v < n for v in lam):
        raise ValueError(f"character {lam} not in Z_{n}^{m}")
    order, den = 2 * n, n**m
    terms: dict[int, CycNumber] = {}
    for exps in product(range(n), repeat=m):
        dot = sum(a * b for a, b in zip(lam, exps))
        terms[twist_index(n, exps)] = zeta_over(order, 2 * dot, den)
    return AlgebraElement._make(n, m, terms)


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


def y_exponent(lam: tuple[int, ...], l: int) -> int:
    """y_l acts on Lambda_lam by zeta^k for this k, -lam_l * lam_{l+1}."""
    return -lam[l - 1] * lam[l]


def diagonal_element(n: int, m: int, exponent) -> AlgebraElement:
    """sum_lam zeta^exponent(lam) Lambda_lam, by the change of basis."""
    ident = tuple(range(m))
    terms = {
        (lam, ident): zeta_power(2 * n, exponent(lam)) for lam in product(range(n), repeat=m)
    }
    return character_combination(n, m, terms, {})


def _y_power(n: int, m: int, l: int, sign: int) -> AlgebraElement:
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


def z_square_sum(n: int, m: int, l: int, mono):
    """(1/n) sum over i,j in 0..n-1 of q^(-ij) mono(x_l^i x_{l+1}^j), q = zeta^2.

    mono maps an x-monomial's exponent vector (a tuple) to its image; the
    images' root_sum forms the sum, which has their type.
    """
    before, after = (0,) * (l - 1), (0,) * (m - l - 1)
    pairs = [(-2 * i * j, mono(before + (i, j) + after)) for i in range(n) for j in range(n)]
    return pairs[0][1].root_sum(pairs, n)


def permute_character(lam: tuple[int, ...], perm) -> tuple[int, ...]:
    """The character lam composed with a slot permutation: entry j of the
    result is lam[perm(j)], so entry i of lam moves to slot perm^(-1)(i).

    perm is a Perm, which is its one-line tuple.  Composition is
    contravariant: permuting by a then by b is permuting by a * b.
    """
    return tuple([lam[j] for j in perm])


# -- relation verification ----------------------------------------------------


def _swap(l: int, i: int) -> int:
    """The slot that slot i moves to under the transposition of l and l+1."""
    return {l: l + 1, l + 1: l}.get(i, i)


def _braid(p: str, g: dict) -> dict:
    """The Coxeter relations of generators g[1..m-1] named with prefix p:
    distant generators commute and neighbours satisfy the braid relation."""
    return {
        f"{p}_commute": [
            (f"{p}_{l} {p}_{k} = {p}_{k} {p}_{l}", g[l] * g[k], g[k] * g[l])
            for l in g
            for k in g
            if k >= l + 2
        ],
        f"{p}_braid": [
            (
                f"{p}_{l} {p}_{l + 1} {p}_{l} = {p}_{l + 1} {p}_{l} {p}_{l + 1}",
                g[l] * g[l + 1] * g[l],
                g[l + 1] * g[l] * g[l + 1],
            )
            for l in g
            if l + 1 in g
        ],
    }


def _moves_x(p: str, g: dict, xs: dict) -> list:
    """g_l x_i = x_swap(l,i) g_l for generators g[l] named with prefix p."""
    return [
        (f"{p}_{l} x_{i} = x_{_swap(l, i)} {p}_{l}", g[l] * xs[i], xs[_swap(l, i)] * g[l])
        for l in g
        for i in xs
    ]


def presentation(n: int, m: int, mono, z: dict) -> dict:
    """The defining relations of the generalised Kac-Paljutkin algebra,
    evaluated on images of its generators.

    mono(exponents) is the image of the x-monomial with that exponent tuple
    and z[l] the image of z_l for l = 1..m-1, all sparse sums of one type.
    Returns an ordered dict family -> [(name, lhs, rhs)].
    """
    one = mono((0,) * m)
    xs = {i: mono(tuple(int(j == i - 1) for j in range(m))) for i in range(1, m + 1)}
    return {
        "x_power": [(f"x_{i}^{n} = 1", xs[i] ** n, one) for i in xs],
        "x_commute": [
            (f"x_{i} x_{j} = x_{j} x_{i}", xs[i] * xs[j], xs[j] * xs[i])
            for i in xs
            for j in xs
            if i < j
        ],
        "zx": _moves_x("z", z, xs),
        **_braid("z", z),
        "z_square": [
            (
                f"z_{l}^2 = (1/n) sum q^(-ij) x_{l}^i x_{l + 1}^j",
                z[l] * z[l],
                z_square_sum(n, m, l, mono),
            )
            for l in z
        ],
    }


def relation_families(n: int, m: int, mono, ys: dict, y_invs: dict, ss: dict, idempotent) -> dict:
    """presentation and the further families of the relation suite, on
    images of one type.

    mono is as in presentation; ys, y_invs and ss map l = 1..m-1 to the
    images of y_l, y_l^(-1) and s_l, and idempotent(lam) is the image of
    Lambda_lam.  z_l is taken as y_l^(-1) s_l.  Returns an ordered dict
    family -> [(name, lhs, rhs)].
    """
    one = mono((0,) * m)
    xs = {i: mono(tuple(int(j == i - 1) for j in range(m))) for i in range(1, m + 1)}
    zs = {l: y_invs[l] * ss[l] for l in ss}
    moved = {l: partial(permute_character, perm=generator_b(n, m, l).perm) for l in ss}
    checks = presentation(n, m, mono, zs)
    checks["z_square_y"] = [(f"z_{l}^2 = y_{l}^(-2)", zs[l] * zs[l], y_invs[l] ** 2) for l in zs]
    checks["z_lambda"] = [
        (
            f"z_{l} Lambda_{lam} = Lambda_{moved[l](lam)} z_{l}",
            zs[l] * idempotent(lam),
            idempotent(moved[l](lam)) * zs[l],
        )
        for l in zs
        for lam in product(range(n), repeat=m)
    ]
    checks["s_square"] = [(f"s_{l}^2 = 1", ss[l] * ss[l], one) for l in ss]
    checks.update(_braid("s", ss))
    checks["sx"] = _moves_x("s", ss, xs)
    checks["s_from_y_z"] = [(f"s_{l} = y_{l} z_{l}", ss[l], ys[l] * zs[l]) for l in ss]
    return checks


def relation_report(families: dict) -> dict:
    """Check each family of (name, lhs, rhs) relations: pass, or fail with
    the first failing relation and the head term of lhs - rhs, a group-basis
    element."""
    report = {}
    for family, items in families.items():
        entry: dict = {"status": "pass"}
        for name, lhs, rhs in items:
            if lhs != rhs:
                diff = lhs - rhs
                head = min(diff.terms)
                entry = {
                    "status": "fail",
                    "counterexample": {
                        "relation": name,
                        "difference_head": {"index": head, "coeff": diff.terms[head].to_json()},
                    },
                }
                break
        report[family] = entry
    return report


def relation_suite_report(n: int, m: int, families: dict, y_order) -> dict:
    """The relation suite's report on relation_families' families.

    y_order(l) is the least k <= 2n with y_l^k = 1, or None; y_l must have
    multiplicative order exactly 2n.
    """
    report: dict = {"n": n, "m": m, "relations": relation_report(families)}
    y_entry: dict = {"status": "pass"}
    for l in range(1, m):
        k = y_order(l)
        if k != 2 * n:
            relation = f"y_{l}^{2 * n} != 1" if k is None else f"y_{l}^{k} = 1 with {k} < {2 * n}"
            y_entry = {"status": "fail", "counterexample": {"relation": relation}}
            break
    report["relations"]["y_order"] = y_entry
    report["notes"] = [
        "the z_l^2 relation is checked with the index range starting at 0; "
        "a range starting at 1 is inconsistent with z_l^2 = y_l^(-2)"
    ]
    report["all_pass"] = all(e["status"] == "pass" for e in report["relations"].values())
    return report


def verify_defining_relations(n: int, m: int, cap: int | None = None) -> dict:
    """Exactly check every defining relation on the reconstructed generators.

    Returns a JSON-ready report mapping each relation family to pass/fail,
    with the head term of the first nonzero difference as counterexample.

    The relations are evaluated in the character basis F(lam, p) =
    Lambda_lam p, where x^t, s_l, y_l^(+-1), z_l and Lambda_lam = F(lam, 1)
    are monomial: one permutation and, per character, a 2n-th root of unity
    or zero.  There they are exponent tables (character_basis.Monomial) that
    multiply by adding integers, and the z_l^2 sum counts its exponents per
    character before one reduction.  check_model first proves at (n, m) that
    the change of basis Phi carries these products to the group algebra's.
    At m = 1 the suite has only x-monomials, whose tables are the characters
    of Z_n: they multiply by adding exponents, as the group does, and are 1
    only at x^0, so they need no model check.  A failing relation is rebuilt
    exactly and its difference mapped through Phi, so its counterexample is a
    group index.  The group-basis evaluation is kept as the reference in
    tests/group_basis_oracle.py.
    """
    if n < 2:
        raise ValueError(f"the relation suite needs n >= 2, got n={n}: at n = 1 every y_l is 1")
    check_cap(n, m, "relation-suite", cap)
    # kacpal.character_basis builds on this module, so it is imported here.
    from .character_basis import MonomialModel, check_model

    if m > 1:
        check_model(n, m)
    model = MonomialModel(n, m)
    ys = {l: model.diagonal([y_exponent(lam, l) for lam in model.chars]) for l in range(1, m)}
    y_invs = {l: model.diagonal([-y_exponent(lam, l) for lam in model.chars]) for l in ys}
    ss = {l: model.monomial(generator_b(n, m, l).perm) for l in ys}
    families = relation_families(n, m, model.x_monomial, ys, y_invs, ss, model.idempotent)
    order = 2 * n

    def y_order(l):
        # y_l is diagonal: y_l^k = 1 exactly when k e = 0 mod 2n for each exponent e
        return lcm(*(order // gcd(e, order) for e in ys[l].entries))

    return relation_suite_report(n, m, families, y_order)


# -- exact linear algebra -----------------------------------------------------


def _echelon(vectors) -> list[dict]:
    """Normalised pivot rows spanning an iterable of sparse {position: scalar}
    vectors; the only elimination loop in the package.

    The scalars are ints, Fractions or CycNumbers (the rows come out as
    Fractions or CycNumbers); positions need only be hashable and mutually
    ordered.  Incremental echelon: each new vector is reduced
    against the pivots in insertion order (each pivot row is already clean at
    all earlier pivot positions), then normalised on its first nonzero
    position.
    """
    pivots: list[tuple] = []
    for vec in vectors:
        vec = {p: c for p, c in vec.items() if c}
        for pos, row in pivots:
            c = vec.get(pos)
            if c is None:
                continue
            for p2, r2 in row.items():
                cur = vec.get(p2)
                s = -(c * r2) if cur is None else cur - c * r2
                if s:
                    vec[p2] = s
                else:
                    vec.pop(p2, None)
        if not vec:
            continue
        lead = min(vec)
        inv = ONE / vec[lead]
        pivots.append((lead, {p: c * inv for p, c in vec.items()}))
    return [row for _, row in pivots]


def _sparse_rank(vectors) -> int:
    """Rank of an iterable of sparse {position: scalar} vectors."""
    return len(_echelon(vectors))
