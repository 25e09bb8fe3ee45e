import random
from copy import copy
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from cyclotomic_oracle import CycNumber, zeta, zeta_power
from group_basis_oracle import (
    AlgebraElement,
    CharacterElement,
    basis_element,
    counit,
    elements,
    exact,
    lambda_idempotent,
    mul_row,
    quotient_to_sym,
    s_element,
    symmetric_group,
    to_group,
    x_element,
    x_monomial,
    y_element,
    z_element,
)
import hopf_group_basis_oracle as oracle
from hopf_group_basis_oracle import (
    TensorElement,
    _antipode_basis,
    _antipode_s,
    _delta_basis,
    _delta_s,
    _delta_z,
    _diagonal,
    _fixed_sparse,
    _perm_word,
    antipode,
    antipode_axiom_holds,
    coassociativity_holds,
    counit_axiom_holds,
    delta,
    relation_failures,
    tensor,
)
from test_mutations import _bumped, _counit_of_two, _delta_s1_coboundary, _delta_s1_off, _group_like_delta_z
from kacpal import hopf
from kacpal.character_model import Monomial, characters, tensor_key
from kacpal.cli import main
from kacpal.hopf import _CharacterHopf, cocommutativity_witness, hopf_axiom_report
from kacpal.wreath import (
    CapExceededError,
    CheckFailedError,
    Perm,
    WreathElement,
    element_at,
    element_index,
    generator_b,
    group_order,
    twist_index,
)


def test_tensor_unit():
    n, m = 2, 2
    one = AlgebraElement.one(n, m)
    unit = tensor(one, one)
    assert unit == TensorElement.unit(n, m)
    t = tensor(z_element(n, m, 1), s_element(n, m, 1))
    assert unit * t == t
    assert t * unit == t


def test_flip_involution():
    n, m = 2, 2
    t = delta(z_element(n, m, 1))
    assert t.flip().flip() == t


def test_tensor_of_factors():
    n, m = 2, 2
    rng = random.Random(11)
    for _ in range(4):
        a = _fixed_sparse(n, m, rng)
        b = _fixed_sparse(n, m, rng)
        one = AlgebraElement.one(n, m)
        assert tensor(a, one) * tensor(one, b) == tensor(a, b)


def test_delta_group_like_on_x():
    n, m = 2, 3
    for i in (1, 2, 3):
        x = x_element(n, m, i)
        assert delta(x) == tensor(x, x)
    one = AlgebraElement.one(n, m)
    assert delta(one) == tensor(one, one)


def test_delta_z_matches_defining_formula():
    # cocommutativity_witness reads _delta_z in place of delta(z_l)
    for n, m in [(2, 2), (3, 2), (2, 3)]:
        for l in range(1, m):
            assert delta(z_element(n, m, l)) == _delta_z(n, m, l)


def test_delta_of_z_square():
    n, m = 2, 2
    z = z_element(n, m, 1)
    d = delta(z)
    assert d * d == delta(z * z)


def test_perm_word_reconstructs_basis():
    n, m = 2, 3
    for u in elements(n, m):
        if any(u.twists):
            continue
        word = _perm_word(tuple(u.perm))
        acc = AlgebraElement.one(n, m)
        for l in word:
            acc = acc * s_element(n, m, l)
        assert acc == AlgebraElement.basis(u)


def test_counit_on_generators():
    n, m = 2, 3
    one_scalar = CycNumber.one(2 * n)
    for i in (1, 2, 3):
        assert counit(x_element(n, m, i)) == one_scalar
    for l in (1, 2):
        assert counit(z_element(n, m, l)) == one_scalar
        assert counit(s_element(n, m, l)) == one_scalar


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3)])
def test_counit_kills_nontrivial_characters(n, m):
    for lam in product(range(n), repeat=m):
        expected = CycNumber.from_rational(2 * n, 1 if not any(lam) else 0)
        assert counit(lambda_idempotent(n, m, lam)) == expected


def test_counit_axiom_on_generators():
    n, m = 3, 2
    assert counit_axiom_holds(x_element(n, m, 1))
    assert counit_axiom_holds(z_element(n, m, 1))
    assert counit_axiom_holds(s_element(n, m, 1))


def test_antipode_on_x():
    n, m = 3, 2
    x = x_element(n, m, 1)
    assert antipode(x) == x ** (n - 1)
    assert antipode(x) * x == AlgebraElement.one(n, m)
    assert antipode(AlgebraElement.one(n, m)) == AlgebraElement.one(n, m)


def test_antipode_fixes_z():
    for n, m in [(2, 2), (3, 2), (2, 3)]:
        for l in range(1, m):
            assert antipode(z_element(n, m, l)) == z_element(n, m, l)


def test_antipode_of_s_reverses_factors():
    # S(s_l) = z_l S(y_l); only for twist order two does this collapse to s_l
    n, m = 3, 2
    z, y = z_element(n, m, 1), y_element(n, m, 1)
    assert antipode(s_element(n, m, 1)) == z * antipode(y)
    assert antipode(s_element(n, m, 1)) != s_element(n, m, 1)
    assert antipode(s_element(2, 2, 1)) == s_element(2, 2, 1)


def test_antipode_is_anti_homomorphism():
    rng = random.Random(3)
    for n, m in [(2, 2), (3, 2)]:
        for _ in range(3):
            a = _fixed_sparse(n, m, rng)
            b = _fixed_sparse(n, m, rng)
            assert antipode(a * b) == antipode(b) * antipode(a)


def test_antipode_axiom_direct():
    n, m = 2, 2
    z = z_element(n, m, 1)
    d = delta(z)
    total = AlgebraElement.zero(n, m)
    for (i, j), c in d.terms.items():
        total = total + (antipode(basis_element(n, m, i)) * basis_element(n, m, j)).scale(c)
    assert total == AlgebraElement.one(n, m)


def test_coassociativity_on_generators():
    for n, m in [(2, 2), (3, 2)]:
        assert coassociativity_holds(x_element(n, m, 1))
        assert coassociativity_holds(z_element(n, m, 1))


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
def test_axiom_report_all_pass(n, m):
    report = hopf_axiom_report(n, m)
    assert report["all_pass"], report
    assert report["axioms"]["coassociativity"] == "pass"
    assert report["axioms"]["counit"] == "pass"
    assert report["axioms"]["antipode"] == "pass"
    assert report["axioms"]["delta_preserves_relations"] == "pass"
    assert report["axioms"]["delta_multiplicative"] == "pass"


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_group_basis_oracle_on_generators(n, m):
    gens = [x_element(n, m, i) for i in range(1, m + 1)]
    gens += [f(n, m, l) for f in (z_element, s_element) for l in range(1, m)]
    for u in gens:
        assert coassociativity_holds(u)
        assert counit_axiom_holds(u)
        assert antipode_axiom_holds(u)


def character_basis_images(hopf):
    """(lam, p, Phi(F(lam, p))) for every basis element, p over the
    permutations of a WalkHopf."""
    n, m = hopf.n, hopf.m
    for p in hopf.perms:
        for lam, chars in enumerate(hopf.chars):
            yield lam, p, to_group(CharacterElement._make(n, m, {(chars, p): Fraction(1)}))


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_character_delta_matches_the_group_basis_delta(n, m):
    # delta of every basis element F(lam, p), the walk's products of the
    # generator tables, against the group-basis delta changed to the
    # character basis
    hopf = oracle.WalkHopf(n, m)
    size = len(hopf.chars)
    for lam, p, phi in character_basis_images(hopf):
        expected = {
            tensor_key((hopf.chars[a], p), (hopf.chars[b], p)): zeta_power(
                2 * n, hopf.omega(p)[a][b]
            )
            for a in range(size)
            for b in range(size)
            if hopf.plus[a][b] == lam
        }
        assert oracle.to_characters(delta(phi)).terms == expected, (hopf.chars[lam], p)


# (3, 3) is the smallest size where sigma is not zero (n >= 3) and a word
# has two letters (m >= 3)
@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_character_antipode_matches_the_group_basis_antipode(n, m):
    hopf = oracle.WalkHopf(n, m)
    for lam, p, phi in character_basis_images(hopf):
        e, b = hopf.antipode_terms(p)[lam]
        expected = {(hopf.chars[b], p.inverse()): zeta_power(2 * n, e)}
        assert oracle.character_coordinates(n, m, antipode(phi).terms) == expected, (
            hopf.chars[lam],
            p,
        )


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4)])
def test_generator_tables_match_the_group_basis_images(n, m):
    # the tables built from the defining formulas against the group-basis
    # images under the dense change of basis: delta(z_l) and delta(s_l) at
    # (n, 2m), S(s_l) at (n, m), and delta(x_i) = x_i (x) x_i at (n, 2m)
    hopf = _CharacterHopf(n, m)
    for l in range(1, m):
        assert exact(hopf.delta_z[l]) == oracle.to_characters(_delta_z(n, m, l)), l
        assert exact(hopf.delta_s[l]) == oracle.to_characters(_delta_s(n, m, l)), l
        expected = oracle.character_coordinates(n, m, _antipode_s(n, m, l).terms)
        assert exact(hopf.antipode_s[l]).terms == expected, l
    for i in range(1, m + 1):
        t = tuple(int(j == i - 1) for j in range(m))
        x_twice = hopf.model2.x_monomial(t + t)
        assert hopf.group_like(hopf.x(t)) == x_twice == hopf.tensor(hopf.x(t), hopf.x(t))
        assert exact(x_twice) == oracle.to_characters(_diagonal(x_monomial(n, m, t)))


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (4, 3)])
def test_breadth_first_tables_equal_the_products_along_words(n, m):
    # the oracle's walk: delta(p) and S(p), one table product per permutation
    # from the first p that reaches it, against the products along each
    # canonical word
    hopf = oracle.WalkHopf(n, m)
    delta_p, sigma = oracle.tables_along_words(hopf)
    assert hopf.delta_p == delta_p
    assert hopf.sigma == sigma


def _seeded_entry_off(hopf, tables: str, rng):
    """A copy of a WalkHopf, with its walk not yet taken, whose one table of
    delta(s_l) ("delta_s") or of S(s_l) ("antipode_s") has one entry times a
    root of unity."""
    broken, l = copy(hopf), rng.randrange(1, hopf.m)
    for walked in ("_walk", "delta_p", "sigma"):
        broken.__dict__.pop(walked, None)
    table = getattr(hopf, tables)[l]
    k, r = rng.randrange(len(table.entries)), rng.randrange(1, hopf.order)
    setattr(broken, tables, {**getattr(hopf, tables), l: _bumped(table, k, r)})
    return broken


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (2, 4)])
def test_multiplicativity_on_generators_matches_the_all_pairs_oracle(n, m):
    # the group presentation on the generator tables against the walk's check
    # on its edges and delta(p) delta(q) = delta(pq) over every pair: the true
    # tables, and seeded entries of a delta(s_l) off
    walk = oracle.WalkHopf(n, m)
    assert _CharacterHopf.multiplicativity_failure(walk) is None
    assert walk.multiplicativity_failure() is None
    assert oracle.multiplicativity_failure(walk) is None
    rng, failed = random.Random(7 * n + m), 0
    for _ in range(8):
        broken = _seeded_entry_off(walk, "delta_s", rng)
        detail = _CharacterHopf.multiplicativity_failure(broken)
        assert (detail is None) == (broken.multiplicativity_failure() is None)
        assert (detail is None) == (oracle.multiplicativity_failure(broken) is None)
        if detail is not None:
            failed += 1
            assert detail.startswith("delta(s_") and detail.endswith(") fails, so delta is not an algebra map")
    assert failed


def _count_products(patch, hopf):
    # the number of table products at (n, 2m) and at (n, m), as they are taken
    counts = {hopf.model2: 0, hopf.model: 0}
    real = Monomial.__mul__

    def mul(self, other):
        if self.model in counts:
            counts[self.model] += 1
        return real(self, other)

    patch.setattr(Monomial, "__mul__", mul)
    return counts


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (2, 4)])
def test_the_checks_on_the_generators_take_no_product_per_permutation(monkeypatch, n, m):
    # the walk took m! (m - 1) products of delta tables and m! - 1 of
    # antipode tables.  The cocycle, the counit and the antipode identity take
    # none; multiplicativity takes those of group_presentation on the delta
    # tables at (n, 2m), and the antipode those of group_presentation on the
    # iota S tables at (n, m)
    from kacpal.relations import group_presentation

    hopf = _CharacterHopf(n, m)
    with monkeypatch.context() as patch:
        counts = _count_products(patch, hopf)
        assert hopf.coassociativity_failure() is None
        assert hopf.counit_failure() is None
        assert counts == {hopf.model2: 0, hopf.model: 0}
        assert hopf.multiplicativity_failure() is None
        assert hopf.antipode_failure() is None
        taken = dict(counts)
        counts.update({hopf.model2: 0, hopf.model: 0})
        group_presentation(n, m, lambda e: hopf.model2.x_monomial(e + e), hopf.delta_s)
        group_presentation(n, m, hopf.x, {l: hopf.inverted(t) for l, t in hopf.antipode_s.items()})
    assert taken == counts


# (n, m, random cases of each kind): at (4, 3) the loop over every p takes
# about half a second a case, so it checks the true tables only
@pytest.mark.parametrize(
    "n,m,cases", [(2, 2, 6), (3, 2, 6), (2, 3, 6), (3, 3, 6), (2, 4, 6), (4, 3, 0)]
)
def test_coassociativity_on_generators_matches_the_loop_over_every_p(monkeypatch, n, m, cases):
    # the cocycle identity on omega_(s_1) .. omega_(s_(m-1)) against the
    # walk's loop over every permutation: the true tables, then seeded random
    # cases of one entry of delta(s_1) off and of omega_(s_1) plus a coboundary
    from kacpal import hopf as module

    hopf = oracle.WalkHopf(n, m)
    assert hopf.multiplicativity_failure() is None
    assert _CharacterHopf.coassociativity_failure(hopf) is None
    assert oracle.coassociativity_on_every_p(hopf) is None
    rng, size, order = random.Random(19 * n + m), n**m, 2 * n
    real = module._delta_s_image
    for _ in range(cases):
        off = _delta_s1_off(real, rng.randrange(size), rng.randrange(size))
        f = [0] + [rng.randrange(order) for _ in range(size - 1)]
        for patched in (off, _delta_s1_coboundary(real, f)):
            with monkeypatch.context() as patch:
                patch.setattr(module, "_delta_s_image", patched)
                broken = oracle.WalkHopf(n, m)
            verdict = _CharacterHopf.coassociativity_failure(broken)
            assert (verdict is None) == (oracle.coassociativity_on_every_p(broken) is None)
            if patched is not off:
                assert verdict is None


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 2)])
def test_coassociativity_on_generators_takes_no_walk(monkeypatch, n, m):
    # the cocycle identity runs on the tables delta(s_l) themselves, so no
    # table of another permutation is built: no table product is taken
    from kacpal import hopf as module

    hopf = _CharacterHopf(n, m)
    with monkeypatch.context() as patch:
        counts = _count_products(patch, hopf)
        assert hopf.coassociativity_failure() is None
    assert counts == {hopf.model2: 0, hopf.model: 0}
    # one entry of delta(s_(m-1)) off (the last generator) breaks the identity
    real = module._delta_s_image
    size = n**m

    def perturbed(im, l, delta_z):
        d = real(im, l, delta_z)
        return _bumped(d, 1 + 2 * size) if l == m - 1 else d

    monkeypatch.setattr(module, "_delta_s_image", perturbed)
    detail = _CharacterHopf(n, m).coassociativity_failure()
    assert detail is not None and detail.startswith("(delta x id) delta and (id x delta) delta differ")
    assert f"{list(generator_b(n, m, m - 1).perm)})" in detail


@pytest.mark.parametrize("n,m", [(3, 2), (2, 3), (3, 3)])
def test_coassociativity_on_generators_sees_the_last_generator(monkeypatch, n, m):
    # with multiplicativity forced to pass, coassociativity must still see
    # one entry of delta(s_(m-1)) off
    from kacpal import hopf as module

    real = module._delta_s_image

    def perturbed(im, l, delta_z):
        d = real(im, l, delta_z)
        return _bumped(d, 1 + 2 * len(im.chars)) if l == m - 1 else d

    monkeypatch.setattr(module, "_delta_s_image", perturbed)
    monkeypatch.setattr(_CharacterHopf, "multiplicativity_failure", lambda self: None)
    report = hopf_axiom_report(n, m, cap=group_order(n, m))
    assert report["axioms"]["delta_multiplicative"] == "pass"
    assert report["axioms"]["coassociativity"]["status"] == "fail"
    assert f"{list(generator_b(n, m, m - 1).perm)})" in report["axioms"]["coassociativity"]["detail"]
    assert not report["all_pass"]


@pytest.mark.parametrize("n,m", [(3, 2), (2, 3), (3, 3)])
def test_antipode_on_exponents_matches_the_cyclotomic_oracle(monkeypatch, n, m):
    # the antipode identity on F(lam, 1) and F(lam, s_l), compared on
    # exponents, against the sums of CycNumbers on every F(lam, p) of the walk:
    # the true tables, a counit of 2, one entry of delta(s_1) off, one
    # exponent of S(s_(m-1)) off, and a pair of them that only the mirror
    # sees.  The identity reads the entries F(a, p) (x) F(-a, p) of delta(p)
    # only
    from kacpal import hopf as module

    hopf = oracle.WalkHopf(n, m)
    assert _CharacterHopf.antipode_failure(hopf) is None
    assert oracle.antipode_failure(hopf) is None
    cases = []
    with monkeypatch.context() as patch:
        off = _delta_s1_off(module._delta_s_image, 1, hopf.neg[1])
        patch.setattr(module, "_delta_s_image", off)
        cases.append(oracle.WalkHopf(n, m))
    with monkeypatch.context() as patch:
        patch.setattr(module, "check_model", _counit_of_two(module.check_model))
        cases.append(oracle.WalkHopf(n, m))
    skewed = oracle.WalkHopf(n, m)
    skewed.antipode_s = {**skewed.antipode_s, m - 1: _bumped(skewed.antipode_s[m - 1], 1)}
    cases.append(skewed)
    if n > 2:
        # S(s_1) times zeta at the character 1 = (-a) o s_1, and omega_(s_1)(a, -a)
        # times zeta^(-1): m (S x id) delta still holds, and only its mirror
        # fails (at n = 2 every character is its own negative, and both hold)
        mirror = oracle.WalkHopf(n, m)
        a = next(a for a, c in enumerate(mirror.model.moved(mirror.gens[1])) if c == mirror.neg[1])
        k = a + len(mirror.chars) * mirror.neg[a]
        mirror.antipode_s = {**mirror.antipode_s, 1: _bumped(mirror.antipode_s[1], 1)}
        mirror.delta_s = {**mirror.delta_s, 1: _bumped(mirror.delta_s[1], k, -1)}
        cases.append(mirror)
    for broken in cases:
        failure = _CharacterHopf.antipode_failure(broken)
        assert failure is not None
        assert failure == oracle.antipode_failure(broken) == broken.antipode_failure()


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_inverted_tables_are_the_group_inverse(n, m):
    # iota(F(lam, p)) = F((-lam) o p, p^(-1)) against g -> g^(-1) in the group
    # basis, on the S(s_l) tables and a seeded table on each permutation
    hopf = _CharacterHopf(n, m)
    rng = random.Random(10 * n + m)
    tables = list(hopf.antipode_s.values())
    tables += [hopf.model.monomial(p, [rng.randrange(2 * n) for _ in hopf.chars]) for p in symmetric_group(m)]
    for t in tables:
        group = to_group(exact(t)).terms
        inverse = {element_index(element_at(n, m, i).inverse()): c for i, c in group.items()}
        assert to_group(exact(hopf.inverted(t))).terms == inverse, t.perm


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (2, 3), (3, 3)])
def test_an_antipode_that_is_no_anti_map_fails_by_name(n, m):
    # negative control: S(s_1) times zeta on the characters c and -c, and the
    # entries omega_(s_1)(a, -a) that meet them moved back, so the identity
    # holds on every F(lam, 1) and F(lam, s_1) but S(s_1)^2 is not 1 in the
    # opposite algebra.  The walk multiplied S along words without asking
    # whether they agree, and passed it
    walk = oracle.WalkHopf(n, m)
    size, act = n**m, walk.model.moved(walk.gens[1])
    targets = {1, walk.neg[1]}
    sigma, omega = list(walk.antipode_s[1].entries), list(walk.delta_s[1].entries)
    for c in targets:
        sigma[c] += 1
    for a in range(size):
        if act[a] in targets:
            omega[a + size * walk.neg[a]] -= 1
    walk.antipode_s = {**walk.antipode_s, 1: walk.model.monomial(walk.antipode_s[1].perm, sigma)}
    walk.delta_s = {**walk.delta_s, 1: walk.model2.monomial(walk.delta_s[1].perm, omega)}
    detail = "S(s_1^2 = 1) fails in the opposite algebra, so S is not an anti-map"
    assert _CharacterHopf.antipode_failure(walk) == detail
    assert walk.antipode_failure() is None
    assert _CharacterHopf.multiplicativity_failure(walk) == "delta(s_1^2 = 1) fails, so delta is not an algebra map"


AXIOMS = ("coassociativity", "counit", "antipode", "multiplicativity")


def _failures(hopf, checks) -> dict:
    return {name: getattr(checks, f"{name}_failure")(hopf) for name in AXIOMS}


# (n, m, seeded cases of each kind): the walk's loops over every p take
# about a tenth of a second a case at (4, 3)
@pytest.mark.parametrize(
    "n,m,cases", [(2, 2, 25), (3, 2, 25), (4, 2, 25), (2, 3, 25), (3, 3, 25), (4, 3, 20)]
)
def test_every_verdict_matches_the_walk_oracle(n, m, cases):
    # each axiom checked on the generators against the walk over S_m with
    # its loops over every p: the true tables, seeded single entries of a
    # delta(s_l) and of an S(s_l) times a root of unity, and omega_(s_1) plus
    # a coboundary.  The counit and the antipode give the walk's details;
    # so does coassociativity when every edge of the walk is multiplicative
    walk = oracle.WalkHopf(n, m)  # copied below before its walk is taken
    rng, size, order = random.Random(31 * n + m), n**m, 2 * n
    tables = [walk] + [_seeded_entry_off(walk, t, rng) for t in ("delta_s", "antipode_s") for _ in range(cases)]
    # and one entry in row 0, and one in column 0, of delta(s_(m-1)), which
    # the counit reads
    row_0, column_0, both = copy(walk), copy(walk), copy(walk)
    row_0.delta_s = {**walk.delta_s, m - 1: _bumped(walk.delta_s[m - 1], size * rng.randrange(1, size))}
    column_0.delta_s = {**walk.delta_s, m - 1: _bumped(walk.delta_s[m - 1], rng.randrange(1, size))}
    # and s_1 and s_(m-1) both off, whose first failure Lehmer order decides
    both.delta_s = {**walk.delta_s, 1: row_0.delta_s[m - 1] if m == 2 else _bumped(walk.delta_s[1], size)}
    both.delta_s[m - 1] = row_0.delta_s[m - 1]
    both.antipode_s = {l: _bumped(table, 1) for l, table in walk.antipode_s.items()}
    f = [0] + [rng.randrange(order) for _ in range(size - 1)]
    d = walk.delta_s[1]
    coboundary = copy(walk)
    coboundary.delta_s = {
        **walk.delta_s,
        1: d.model.monomial(
            d.perm,
            [e + f[k % size] + f[k // size] - f[walk.plus[k % size][k // size]] for k, e in enumerate(d.entries)],
        ),
    }
    failed = {name: 0 for name in AXIOMS}
    for hopf in [*tables, row_0, column_0, both, coboundary]:
        new, old = _failures(hopf, _CharacterHopf), _failures(hopf, oracle.WalkHopf)
        assert {k: v is None for k, v in new.items()} == {k: v is None for k, v in old.items()}
        assert (new["counit"], new["antipode"]) == (old["counit"], old["antipode"])
        if old["multiplicativity"] is None:
            assert new["coassociativity"] == old["coassociativity"]
        for name in AXIOMS:
            failed[name] += new[name] is not None
    assert all(failed.values()), failed
    assert _failures(coboundary, _CharacterHopf)["coassociativity"] is None


def _counted(monkeypatch) -> list:
    """(level, bound, count, relators) of each enumeration that
    hopf.check_coxeter runs."""
    real, counts = hopf._cosets, []

    def counted(relators, letters, subgroup, bound, what):
        counts.append((letters // 2 + 1, bound, real(relators, letters, subgroup, bound, what), relators))
        return counts[-1][2]

    monkeypatch.setattr(hopf, "_cosets", counted)
    return counts


@pytest.mark.parametrize("m", range(1, 9))
def test_the_coxeter_relations_present_a_group_of_order_m_factorial(monkeypatch, m):
    # the induction closes at exactly k cosets at each level k, defining at
    # most 5 k; the oracle, the same enumeration on the relators of the last
    # level with no subgroup generator, counts the m! elements of the group
    real, counts = hopf._cosets, _counted(monkeypatch)
    hopf.check_coxeter(m)
    assert [count[:3] for count in counts] == [(k, 5 * k, k) for k in range(2, m + 1)]
    relators = counts[-1][3] if counts else []
    assert real(relators, 2 * m - 2, [], 5 * factorial(m), "S_m") == factorial(m)


def test_every_level_of_the_induction_closes_at_exactly_k_cosets(monkeypatch):
    # level k is the same at every m >= k, so the lemma at m = 40 runs every
    # level up to 40
    counts = _counted(monkeypatch)
    hopf.check_coxeter(40)
    assert [count[:3] for count in counts] == [(k, 5 * k, k) for k in range(2, 41)]


def _without_one(real, family, index):
    # the Coxeter relations with one relation of the family left out
    def braid(p, g):
        families = real(p, g)
        families[f"{p}_{family}"] = [r for i, r in enumerate(families[f"{p}_{family}"]) if i != index]
        return families

    return braid


@pytest.mark.parametrize("m, family, index", [(3, "braid", 0), (4, "braid", 1), (5, "commute", 2), (6, "braid", 3)])
def test_a_missing_coxeter_relation_fails_the_lemma(monkeypatch, capsys, m, family, index):
    # mutation: with one relation left out of the families, the enumeration
    # at the level that first holds it, level m, passes its bound of 5 m
    # cosets; the lemma fails by name and level, and the Hopf report exits 1
    # with one line on stderr
    from kacpal import relations

    monkeypatch.setattr(relations, "_braid", _without_one(relations._braid, family, index))
    with pytest.raises(CheckFailedError, match=f"the Coxeter relations do not present S_{m}: "):
        hopf.check_coxeter(m)
    code = main(["verify", "--n", "2", "--m", str(m), "--checks", "hopf", "--cap-group-order", str(group_order(2, m))])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (
        f"the Coxeter relations do not present S_{m}: at level {m} of the induction, "
        f"the enumeration did not close in {5 * m} cosets\n"
    )


def test_an_extra_coxeter_relation_fails_the_lemma(monkeypatch):
    # s_1 s_2 = s_2 s_1 beside the braid relation makes s_1 = s_2: the
    # cosets of <s_1> close at 1, not 3
    from kacpal import relations

    real = relations._braid

    def braid(p, g):
        families = real(p, g)
        families[f"{p}_commute"] = [("extra", g[1] * g[2], g[2] * g[1])]
        return families

    monkeypatch.setattr(relations, "_braid", braid)
    with pytest.raises(CheckFailedError, match="S_3: at level 3 of the induction, the enumeration closed at 1 cosets, not 3$"):
        hopf.check_coxeter(3)


def coefficients(n):
    return st.builds(
        lambda k, r: zeta_power(2 * n, k) * CycNumber.from_rational(2 * n, r),
        st.integers(0, 2 * n - 1),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )


def sparse_elements(n, m):
    terms = st.dictionaries(st.integers(0, group_order(n, m) - 1), coefficients(n), max_size=3)
    return terms.map(lambda t: AlgebraElement(n, m, t))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2), (2, 3)]), st.data())
def test_delta_multiplicative_on_random_pairs(size, data):
    # the group-basis reference for the report's delta_multiplicative
    a = data.draw(sparse_elements(*size))
    b = data.draw(sparse_elements(*size))
    assert delta(a * b) == delta(a) * delta(b)


def sparse_tensors(n, m):
    index = st.integers(0, group_order(n, m) - 1)
    terms = st.dictionaries(st.tuples(index, index), coefficients(n), max_size=4)
    return terms.map(lambda t: TensorElement(n, m, t))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2), (2, 3)]), st.data())
def test_character_model_at_2m_multiplies_as_the_tensor_square(size, data):
    # the keyed product at (n, 2m) against the group-basis tensor product
    n, m = size
    a, b = data.draw(sparse_tensors(n, m)), data.draw(sparse_tensors(n, m))
    to_characters = oracle.to_characters
    assert to_characters(a * b) == to_characters(a) * to_characters(b)
    assert to_characters(TensorElement.unit(n, m)) == CharacterElement.one(n, 2 * m)


def test_tensor_coefficients_are_checked_and_coerced():
    with pytest.raises(ValueError, match="coefficient order 6 != 4"):
        TensorElement(2, 2, {(0, 0): CycNumber.one(6)})
    half = CycNumber.from_rational(4, Fraction(1, 2))
    assert TensorElement(2, 2, {(0, 1): Fraction(1, 2), (1, 0): 0}).terms == {(0, 1): half}
    assert TensorElement(2, 2, {(0, 0): 1}) == TensorElement.unit(2, 2)


def test_delta_multiplicative_random():
    n, m = 2, 2
    rng = random.Random(5)
    for _ in range(4):
        a = _fixed_sparse(n, m, rng)
        b = _fixed_sparse(n, m, rng)
        assert delta(a * b) == delta(a) * delta(b)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_non_cocommutativity_witness(n, m):
    out = cocommutativity_witness(n, m)
    for l in range(1, m):
        entry = out[f"z_{l}"]
        assert entry["status"] == "noncocommutative"
        pair = entry["witness"]["pair"]
        d = delta(z_element(n, m, l))
        diff = d - d.flip()
        assert not CycNumber.from_json(entry["witness"]["coefficient"]).is_zero()
        assert diff.terms[tuple(pair)] == CycNumber.from_json(entry["witness"]["coefficient"])
    assert out["x_generators"] == "symmetric"


def _one_entry_off(l_star, a, b):
    """The formula of delta(z_l), for l = l_star with the coefficient of
    F(chars[a], s_l) (x) F(chars[b], s_l) times zeta: one entry of its
    exponent table off by one, or, in the group basis, a multiple of
    Phi(F(chars[a], s_l)) (x) Phi(F(chars[b], s_l)) added."""

    def patch(real):
        def perturbed(im, l):
            d = real(im, l)
            if l != l_star:
                return d
            n, m = im.n, im.m
            if isinstance(d, Monomial):
                return _bumped(d, a + n**m * b)
            chars, s = characters(n, m), generator_b(n, m, l).perm
            left, right = (chars[a], s), (chars[b], s)
            c = oracle.to_characters(d).terms[tensor_key(left, right)]
            phi = [to_group(CharacterElement(n, m, {key: 1})) for key in (left, right)]
            return d + tensor(*phi).scale(c * (zeta(2 * n) - CycNumber.one(2 * n)))

        return perturbed

    return patch


def _left_x1(real):
    # (x_1 (x) 1) delta(z_l): a tensor that is not its flip
    def perturbed(im, l):
        unit = (1,) + (0,) * (im.m - 1)
        return im.tensor(im.x(unit), im.x((0,) * im.m)) * real(im, l)

    return perturbed


def _right_last_twist(real):
    # (1 (x) x_m) delta(z_l): a twist on the last slot of the right leg
    def perturbed(im, l):
        unit = (0,) * (im.m - 1) + (1,)
        return im.tensor(im.x((0,) * im.m), im.x(unit)) * real(im, l)

    return perturbed


@pytest.mark.parametrize("n, m", [(1, 3), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4)])
@pytest.mark.parametrize(
    "patch",
    [None, _group_like_delta_z, _left_x1, _right_last_twist],
    ids=["true", "group_like", "left_x1", "right_last_twist"],
)
def test_witness_on_tables_matches_the_group_basis_witness(
    monkeypatch, capsys, n, m, patch
):
    # the witness read from the delta(z_l) tables against the group-basis
    # delta(z_l) minus its flip, each made from the one formula both evaluate
    if patch is not None:
        monkeypatch.setattr(hopf, "_delta_z_image", patch(hopf._delta_z_image))
    out = cocommutativity_witness(n, m, cap=group_order(n, m))
    assert out == oracle.cocommutativity_witness(n, m)
    if patch is _group_like_delta_z:
        assert all(out[f"z_{l}"] == {"status": "cocommutative"} for l in range(1, m))
        if n >= 2:
            argv = ["verify", "--n", str(n), "--m", str(m), "--checks", "hopf"]
            assert main([*argv, "--cap-group-order", str(group_order(n, m))]) == 1
            capsys.readouterr()


def test_hopf_report_builds_no_group_product_rows(monkeypatch):
    # every axiom and the witness on tables: no group-basis product row, no
    # enumeration of G and no group-algebra product
    def refuse(*args):
        raise AssertionError("a group-algebra product in the Hopf report")

    monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
    mul_row.cache_clear()
    report = hopf_axiom_report(3, 3, cap=200)
    assert report["all_pass"]
    assert mul_row.cache_info().currsize == 0


Z1_SQUARE = "delta(z_1^2 = (1/n) sum q^(-ij) x_1^i x_2^j)"


def test_wrong_delta_z_fails_relation_preservation(monkeypatch):
    # negative controls: the report names exactly the relations a broken
    # delta(z_l) violates.  One entry of delta(z_l) breaks z_l^2, the braid
    # relations with its neighbours and its commutation with the distant
    # z_k; a relation between x-monomials, or moving x_i past z_l, cannot
    # see it
    real = hopf._delta_z_image
    caches = (oracle._delta_z, oracle._delta_s, oracle._delta_basis)
    cases = [
        (_group_like_delta_z, 2, 2, [Z1_SQUARE]),
        (_one_entry_off(1, 1, 2), 2, 2, [Z1_SQUARE]),
        (_one_entry_off(1, 1, 2), 2, 3, ["delta(z_1 z_2 z_1 = z_2 z_1 z_2)", Z1_SQUARE]),
        (
            _one_entry_off(3, 1, 2),
            2,
            4,
            [
                "delta(z_1 z_3 = z_3 z_1)",
                "delta(z_2 z_3 z_2 = z_3 z_2 z_3)",
                "delta(z_3^2 = (1/n) sum q^(-ij) x_3^i x_4^j)",
            ],
        ),
    ]
    for patch, n, m, detail in cases:
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(hopf, "_delta_z_image", patch(real))
        try:
            report = hopf_axiom_report(n, m, cap=group_order(n, m))
        finally:
            for cache in caches:
                cache.cache_clear()
        entry = report["axioms"]["delta_preserves_relations"]
        assert entry["status"] == "fail", (n, m)
        assert entry["detail"] == detail, (n, m)
        assert not report["all_pass"]


@pytest.mark.parametrize("n,m", [(3, 2), (2, 3), (3, 3)])
def test_delta_preserves_relations_follows_from_multiplicativity(monkeypatch, n, m):
    # a multiplicative delta preserves every relation of the algebra, so the
    # report evaluates none of them; with one entry of delta(s_(m-1)) off,
    # delta is no algebra map and the delta(z_l) tables still keep them
    from kacpal import hopf as module

    def refuse(self):
        raise AssertionError("the relations evaluated for a multiplicative delta")

    with monkeypatch.context() as patch:
        patch.setattr(_CharacterHopf, "relation_failures", refuse)
        assert hopf_axiom_report(n, m, cap=group_order(n, m))["all_pass"]
    real = module._delta_s_image

    def perturbed(im, l, delta_z):
        d = real(im, l, delta_z)
        return _bumped(d, 1 + 2 * len(im.chars)) if l == m - 1 else d

    monkeypatch.setattr(module, "_delta_s_image", perturbed)
    report = hopf_axiom_report(n, m, cap=group_order(n, m))
    assert report["axioms"]["delta_multiplicative"]["status"] == "fail"
    assert report["axioms"]["delta_preserves_relations"] == "pass"


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (2, 3), (4, 2)])
@pytest.mark.parametrize(
    "patch",
    [None, _group_like_delta_z, _one_entry_off(1, 1, 2)],
    ids=["true", "group_like", "one_entry_off"],
)
def test_relation_check_on_tables_matches_the_dense_oracle(
    monkeypatch, n, m, patch
):
    # the relation check on exponent tables against the evaluation on dense
    # CharacterElements at (n, 2m), for the true delta(z_l) and two breaks,
    # each made in the one formula that both evaluate
    if patch is not None:
        monkeypatch.setattr(hopf, "_delta_z_image", patch(hopf._delta_z_image))
    expected = relation_failures(n, m)
    assert _CharacterHopf(n, m).relation_failures() == expected
    assert bool(expected) == (patch is not None)


def _prefactor_off_the_roots(monkeypatch, shift):
    # the prefactor of delta(z_1) in the model with its first coefficient
    # replaced by zeta^shift times itself, doubled: off the roots of unity
    real = hopf.z_square_sum

    def doubled(n, m, l, mono):
        prefactor = real(n, m, l, mono)
        if not isinstance(prefactor, Monomial):
            return prefactor
        entries, order = prefactor.entries, prefactor.model.order
        value = zeta_power(order, entries[0] + shift) * 2
        pair = (value.num, value.den)
        return Monomial(prefactor.model, prefactor.perm, (None, *entries[1:]), {0: pair})

    monkeypatch.setattr(hopf, "z_square_sum", doubled)


def _prefactor_failure(n, coefficient):
    return (
        f"the prefactor of delta(z_1) has the coefficient {coefficient} in the character "
        f"basis, which is not a power of zeta_{2 * n}\n"
    )


def test_non_monomial_delta_z_is_a_failed_check(monkeypatch, capsys):
    # negative control: the report names delta(z_1) before any table
    # product takes the coefficient
    _prefactor_off_the_roots(monkeypatch, 0)
    code = main(["verify", "--n", "2", "--m", "2", "--checks", "hopf"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", _prefactor_failure(2, "CycNumber(4, '2')"))


@pytest.mark.parametrize("n, coefficient", [(3, "CycNumber(6, '2*z')"), (4, "CycNumber(8, '2*z')")])
def test_a_non_root_prefactor_is_printed_as_its_cyc_number(monkeypatch, capsys, n, coefficient):
    _prefactor_off_the_roots(monkeypatch, 1)
    code = main(["verify", "--n", str(n), "--m", "2", "--checks", "hopf"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", _prefactor_failure(n, coefficient))


# every axiom each perturbation below breaks: those named in its broken set,
# and these too
ALSO_FAILING = {(1, 2): {"antipode"}, (0, 1): {"coassociativity", "delta_multiplicative"}}


@pytest.mark.parametrize(
    "entry, broken",
    [
        ((1, 2), {"coassociativity", "delta_multiplicative"}),
        ((0, 1), {"counit"}),
    ],
)
def test_perturbed_cocycle_fails(monkeypatch, entry, broken):
    # negative control: one exponent of omega_(s_1) moved by one, the entry
    # of F(chars[a], s_1) (x) F(chars[b], s_1) in the table of delta(s_1)
    # built from its formula; an entry in row 0 is the counit's
    monkeypatch.setattr(hopf, "_delta_s_image", _delta_s1_off(hopf._delta_s_image, *entry))
    report = hopf_axiom_report(3, 2)
    failed = {name for name, status in report["axioms"].items() if status != "pass"}
    assert failed & broken, report["axioms"]
    assert failed == broken | ALSO_FAILING[entry], report["axioms"]
    assert all(report["axioms"][name]["status"] == "fail" for name in failed)
    assert not report["all_pass"]


def test_basis_maps_decode_one_index(monkeypatch):
    # delta and S of a basis element and the quotient look up each index on
    # its own; none of them may enumerate the 3840 elements of (2, 5)
    import group_basis_oracle

    def refuse(n, m):
        raise AssertionError(f"enumerated all of G at (n={n}, m={m})")

    monkeypatch.setattr(group_basis_oracle, "elements", refuse)
    n, m = 2, 5
    twists = (1, 0, 1, 1, 0)
    x = x_monomial(n, m, twists)
    index = twist_index(n, twists)
    assert _delta_basis.__wrapped__(n, m, index) == tensor(x, x)
    assert _antipode_basis.__wrapped__(n, m, index) == x ** (n - 1)
    u = WreathElement(n, (1, 0, 0, 1, 1), Perm((4, 2, 3, 0, 1)))
    assert quotient_to_sym(AlgebraElement.basis(u) + x) == sym(m, u.perm, Perm.identity(m))


def test_hopf_report_needs_n_at_least_2():
    with pytest.raises(ValueError, match="n >= 2"):
        hopf_axiom_report(1, 3)


def test_tensor_cap():
    with pytest.raises(CapExceededError):
        hopf_axiom_report(2, 4)
    with pytest.raises(CapExceededError):
        cocommutativity_witness(3, 3)


def sym(m, *perms):
    """The sum of the given permutations in Q[S_m], the character model at (1, m)."""
    return CharacterElement(1, m, {((0,) * m, p): Fraction(1) for p in perms})


def test_quotient_on_generators():
    n, m = 2, 3
    sigma1 = generator_b(n, m, 1).perm
    assert quotient_to_sym(x_element(n, m, 1)) == CharacterElement.one(1, m)
    assert quotient_to_sym(s_element(n, m, 1)) == sym(m, sigma1)
    assert quotient_to_sym(z_element(n, m, 1)) == sym(m, sigma1)
    assert quotient_to_sym(y_element(n, m, 1)) == CharacterElement.one(1, m)


def test_quotient_kills_nontrivial_characters():
    n, m = 2, 2
    for lam in product(range(n), repeat=m):
        image = quotient_to_sym(lambda_idempotent(n, m, lam))
        if any(lam):
            assert image.is_zero()
        else:
            assert image == CharacterElement.one(1, m)


def test_quotient_is_algebra_map():
    n, m = 2, 3
    rng = random.Random(9)
    for _ in range(4):
        # rational coefficients so both sides stay representable
        a = AlgebraElement(
            n, m, {rng.randrange(48): CycNumber.from_rational(2 * n, rng.randint(-3, 3))}
        )
        b = AlgebraElement(
            n, m, {rng.randrange(48): CycNumber.from_rational(2 * n, rng.randint(1, 3))}
        )
        assert quotient_to_sym(a * b) == quotient_to_sym(a) * quotient_to_sym(b)


def test_quotient_rejects_irrational_projection():
    n, m = 2, 2
    bad = AlgebraElement.one(n, m).scale(zeta(2 * n))
    with pytest.raises(ValueError):
        quotient_to_sym(bad)


def test_quotient_reproduces_transposition_relations():
    n, m = 2, 3
    pi = quotient_to_sym
    z1, z2 = z_element(n, m, 1), z_element(n, m, 2)
    assert pi(z1 * z1) == CharacterElement.one(1, m)
    assert pi(z1 * z2 * z1) == pi(z2 * z1 * z2)
