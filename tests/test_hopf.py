import random
from fractions import Fraction
from itertools import product

import pytest

from kacpal.algebra import (
    AlgebraElement,
    lambda_idempotent,
    s_element,
    x_element,
    y_element,
    z_element,
)
from kacpal.cyclotomic import CycNumber, zeta
from kacpal.hopf import (
    TensorElement,
    _delta_z,
    _fixed_sparse,
    _perm_word,
    antipode,
    coassociativity_holds,
    cocommutativity_witness,
    counit,
    counit_axiom_holds,
    delta,
    hopf_axiom_report,
    quotient_to_sym,
    tensor,
)
from kacpal.partitions import SymFormalSum
from kacpal.wreath import CapExceededError, Perm, elements, generator_b


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
        word = _perm_word(u.perm.images)
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
        from kacpal.algebra import basis_element

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


def test_wrong_delta_z_fails_relation_preservation(monkeypatch):
    # negative control: a group-like delta(z_l) = z_l (x) z_l respects every
    # relation except the twisted square of z_l
    from kacpal import hopf

    n, m = 2, 2
    caches = (hopf._delta_z, hopf._delta_s, hopf._delta_basis)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(
        hopf, "_delta_z", lambda n, m, l: tensor(z_element(n, m, l), z_element(n, m, l))
    )
    try:
        report = hopf_axiom_report(n, m)
    finally:
        for cache in caches:
            cache.cache_clear()
    entry = report["axioms"]["delta_preserves_relations"]
    assert entry["status"] == "fail"
    assert entry["detail"] == ["delta(z_1^2 = (1/n) sum q^(-ij) x_1^i x_2^j)"]
    assert not report["all_pass"]


def test_hopf_report_needs_n_at_least_2():
    with pytest.raises(ValueError, match="n >= 2"):
        hopf_axiom_report(1, 3)


def test_tensor_cap():
    with pytest.raises(CapExceededError):
        hopf_axiom_report(2, 4)
    with pytest.raises(CapExceededError):
        cocommutativity_witness(3, 3)


def test_quotient_on_generators():
    n, m = 2, 3
    sigma1 = generator_b(n, m, 1).perm
    assert quotient_to_sym(x_element(n, m, 1)) == SymFormalSum.identity(m)
    assert quotient_to_sym(s_element(n, m, 1)) == SymFormalSum(m, {sigma1: Fraction(1)})
    assert quotient_to_sym(z_element(n, m, 1)) == SymFormalSum(m, {sigma1: Fraction(1)})
    assert quotient_to_sym(y_element(n, m, 1)) == SymFormalSum.identity(m)


def test_quotient_kills_nontrivial_characters():
    n, m = 2, 2
    for lam in product(range(n), repeat=m):
        image = quotient_to_sym(lambda_idempotent(n, m, lam))
        if any(lam):
            assert image.is_zero()
        else:
            assert image == SymFormalSum.identity(m)


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
    assert pi(z1 * z1) == SymFormalSum.identity(m)
    assert pi(z1 * z2 * z1) == pi(z2 * z1 * z2)
