"""The defining relations of the generalised Kac-Paljutkin algebra, as one
table evaluated on any images of its generators, and the relation suite's
report on them.

presentation is the abstract presentation: x_i^n = 1, the x_i commute, z_l
moves x_i as the transposition (l, l+1) moves slot i, the z_l satisfy the
Coxeter relations, and z_l^2 is the double sum z_square_sum.
group_presentation is that of the group Z_n wr S_m, with the s_l as
Coxeter generators (coxeter) moving the x_i; kacpal.hopf proves by coset
enumeration, by induction on m, that the Coxeter relations present S_m.
relation_families adds the suite's further families on the same images:
z_l^2 = y_l^(-2), with y_l acting on Lambda_lam by zeta^y_exponent,
z_l Lambda_lam = Lambda_(lam o s_l) z_l, group_presentation and
s_l = y_l z_l.  The images may be of any type with *, ** and ==:
verify_defining_relations evaluates them on exponent tables, kacpal.hopf
evaluates group_presentation on the tables of the comultiplication and of
the antipode, and presentation on those of a comultiplication that is no
algebra map, and the group-basis evaluation is the reference in
tests/group_basis_oracle.py.  Only the relation suite and the Hopf report
load this module, and the suite loads no element type and no fractions,
whether a relation passes or fails: a failing relation's counterexample,
the head of its difference in the group basis, is read from the two
exponent tables by character_model.Monomial.difference_head, which reads
the Hopf report's witness too.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from math import gcd, lcm

from .character_model import MonomialModel, check_model
from .wreath import check_cap, generator_b, permute_character


def y_exponent(lam: tuple[int, ...], l: int) -> int:
    """y_l acts on Lambda_lam by zeta^k for this k, -lam_l * lam_{l+1}."""
    return -lam[l - 1] * lam[l]


def z_square_sum(n: int, m: int, l: int, mono):
    """(1/n) sum over i,j in 0..n-1 of q^(-ij) mono(x_l^i x_{l+1}^j), q = zeta^2.

    mono maps an x-monomial's exponent vector (a tuple) to its image; the
    images' root_sum forms the sum, which has their type.
    """
    before, after = (0,) * (l - 1), (0,) * (m - l - 1)
    pairs = [(-2 * i * j, mono(before + (i, j) + after)) for i in range(n) for j in range(n)]
    return pairs[0][1].root_sum(pairs, n)


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


def _x_images(m: int, mono) -> tuple:
    """The image of 1 and those of x_1 .. x_m, as mono maps exponent tuples."""
    return mono((0,) * m), {i: mono(tuple(int(j == i - 1) for j in range(m))) for i in range(1, m + 1)}


def _x_families(n: int, one, xs: dict) -> dict:
    """x_i^n = 1 and the x_i commute, on the images of _x_images."""
    return {
        "x_power": [(f"x_{i}^{n} = 1", xs[i] ** n, one) for i in xs],
        "x_commute": [
            (f"x_{i} x_{j} = x_{j} x_{i}", xs[i] * xs[j], xs[j] * xs[i])
            for i in xs
            for j in xs
            if i < j
        ],
    }


def presentation(n: int, m: int, mono, z: dict) -> dict:
    """The defining relations of the generalised Kac-Paljutkin algebra,
    evaluated on images of its generators.

    mono(exponents) is the image of the x-monomial with that exponent tuple
    and z[l] the image of z_l for l = 1..m-1, all of one type.
    Returns an ordered dict family -> [(name, lhs, rhs)].
    """
    one, xs = _x_images(m, mono)
    return {
        **_x_families(n, one, xs),
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


def coxeter(g: dict, one) -> dict:
    """The Coxeter presentation of S_m on images g[1..m-1] of its adjacent
    transpositions s_l and the image one of 1."""
    return {"s_square": [(f"s_{l}^2 = 1", g[l] * g[l], one) for l in g], **_braid("s", g)}


def group_presentation(n: int, m: int, mono, ss: dict) -> dict:
    """A presentation of Z_n wr S_m on images, with mono as in presentation
    and ss[l] the image of s_l.  sx moves every x to the left, so it presents
    a group of order at most n^m times that of coxeter, m! by
    hopf.check_coxeter's induction on m."""
    one, xs = _x_images(m, mono)
    return {**_x_families(n, one, xs), **coxeter(ss, one), "sx": _moves_x("s", ss, xs)}


def relation_families(n: int, m: int, mono, ys: dict, y_invs: dict, ss: dict, idempotent) -> dict:
    """presentation, group_presentation and the further families of the
    relation suite, on images of one type.

    mono is as in presentation; ys, y_invs and ss map l = 1..m-1 to the
    images of y_l, y_l^(-1) and s_l, and idempotent(lam) is the image of
    Lambda_lam.  z_l is taken as y_l^(-1) s_l.  Returns an ordered dict
    family -> [(name, lhs, rhs)].
    """
    one, xs = _x_images(m, mono)
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
    # group_presentation's families beyond presentation's x families
    checks.update(coxeter(ss, one))
    checks["sx"] = _moves_x("s", ss, xs)
    checks["s_from_y_z"] = [(f"s_{l} = y_{l} z_{l}", ss[l], ys[l] * zs[l]) for l in ss]
    return checks


def relation_report(families: dict) -> dict:
    """Check each family of (name, lhs, rhs) relations: pass, or fail with
    the first failing relation and the head term of Phi(lhs - rhs), the
    least group index at which it is nonzero, as lhs.difference_head(rhs)
    gives it on exponent tables and on the group-basis reference alike."""
    report = {}
    for family, items in families.items():
        entry: dict = {"status": "pass"}
        for name, lhs, rhs in items:
            if lhs != rhs:
                index, coeff = lhs.difference_head(rhs)
                entry = {
                    "status": "fail",
                    "counterexample": {
                        "relation": name,
                        "difference_head": {"index": index, "coeff": coeff},
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
    or zero.  There they are exponent tables (character_model.Monomial) that
    multiply by adding integers, and the z_l^2 sum counts its exponents per
    character before one reduction.  check_model first proves at (n, m) that
    the change of basis Phi carries these products to the group algebra's.
    At m = 1 the suite has only x-monomials, whose tables are the characters
    of Z_n: they multiply by adding exponents, as the group does, and are 1
    only at x^0, so they need no model check.  A failing relation's
    counterexample is the least group index at which Phi of its difference
    is nonzero, read from its two tables.  The group-basis evaluation is
    kept as the reference in tests/group_basis_oracle.py.
    """
    if n < 2:
        raise ValueError(f"the relation suite needs n >= 2, got n={n}: at n = 1 every y_l is 1")
    check_cap(n, m, "relation-suite", cap)
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
