"""The character basis F(lam, p) = Lambda_lam p against the group basis it models."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from group_basis_oracle import check_model_by_products, left_ideal_dimension, sandwich_dimension
from hopf_group_basis_oracle import TensorElement, to_characters
from kacpal import algebra, character_basis, character_model
from kacpal.algebra import (
    AlgebraElement,
    character_combination,
    lambda_idempotent,
    y_element,
    y_inverse_element,
)
from kacpal.character_basis import CharacterElement, permute_character, symmetric_group
from kacpal.character_model import (
    MonomialModel,
    check_model,
    integral,
    left_ideal_basis,
    sandwich_rank,
)
from kacpal.cyclotomic import CycNumber, zeta, zeta_power
from kacpal.sparse import add_into
from kacpal.wreath import CheckFailedError, Perm, WreathElement, element_index, twist_index

SIZES = [(2, 2), (3, 2), (2, 3)]
PHI_SIZES = [(2, 2), (3, 2), (2, 3), (4, 2)]


def basis_keys(n, m):
    return [(lam, tuple(p)) for lam in product(range(n), repeat=m) for p in symmetric_group(m)]


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def character_elements(n, m, coeffs=RATIONALS, max_size=4):
    terms = st.dictionaries(st.sampled_from(basis_keys(n, m)), coeffs, max_size=max_size)
    return terms.map(lambda t: CharacterElement(n, m, t))


@pytest.mark.parametrize("n, m", SIZES)
def test_product_matches_the_group_product_on_every_basis_pair(n, m):
    basis = [CharacterElement(n, m, {key: 1}) for key in basis_keys(n, m)]
    images = [f.to_group() for f in basis]
    for f, phi_f in zip(basis, images):
        for g, phi_g in zip(basis, images):
            assert (f * g).to_group() == phi_f * phi_g, (f.terms, g.terms)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIZES), st.data())
def test_product_matches_the_group_product(nm, data):
    n, m = nm
    x, y = (data.draw(character_elements(n, m)) for _ in range(2))
    assert (x * y).to_group() == x.to_group() * y.to_group()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIZES), st.data())
def test_ranks_and_sandwiches_match_the_group_basis(nm, data):
    n, m = nm
    x, y = (data.draw(character_elements(n, m)) for _ in range(2))
    basis = left_ideal_basis(y)
    assert len(left_ideal_basis(x)) == left_ideal_dimension(x.to_group())
    assert len(basis) == left_ideal_dimension(y.to_group())
    assert sandwich_rank(x, basis) == sandwich_dimension(x.to_group(), y.to_group())


@pytest.mark.parametrize("n, m", [(1, 3), (2, 2), (3, 2), (2, 3), (4, 2)])
def test_identity_and_model_check(n, m):
    one = CharacterElement.one(n, m)
    assert one.to_group() == AlgebraElement.one(n, m)
    f = CharacterElement(n, m, {basis_keys(n, m)[-1]: Fraction(2, 3)})
    assert one * f == f == f * one
    check_model(n, m)
    check_model_by_products(n, m)


def test_integral_keeps_the_line():
    key_a, key_b = ((0, 1), (1, 0)), ((1, 1), (0, 1))
    assert integral({key_a: Fraction(1, 2), key_b: Fraction(-1, 3)}) == {key_a: 3, key_b: -2}
    assert integral({key_a: Fraction(4)}) == {key_a: 4}


def test_keys_are_validated():
    with pytest.raises(ValueError, match="not in Z_2"):
        CharacterElement(2, 2, {((0, 2), (0, 1)): 1})
    with pytest.raises(ValueError, match="not a permutation"):
        CharacterElement(2, 2, {((0, 1), (1, 1)): 1})
    assert CharacterElement(2, 2, {((0, 1), (1, 0)): 0}).is_zero()


def phi_reference(n, m, terms):
    """Phi written out: c F(lam, p) maps to c n^-m sum_t zeta^(2 lam . t) (t, p)."""
    acc = {}
    norm = Fraction(1, n**m)
    for (lam, p), c in terms.items():
        for t in product(range(n), repeat=m):
            z = zeta_power(2 * n, 2 * sum(a * b for a, b in zip(lam, t)))
            add_into(acc, {element_index(WreathElement(n, t, Perm(p))): z * c * norm})
    return acc


def field_coefficients(n):
    """Rationals, and rational multiples of the roots of unity in Q(zeta_2n)."""
    order = 2 * n
    cyclotomics = st.builds(
        lambda k, q: zeta_power(order, k) * CycNumber.from_rational(order, q),
        st.integers(0, order - 1),
        RATIONALS,
    )
    return st.one_of(RATIONALS, cyclotomics)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PHI_SIZES), st.data())
def test_the_change_of_basis_matches_its_definition(nm, data):
    n, m = nm
    x, y = (data.draw(character_elements(n, m, field_coefficients(n))) for _ in range(2))
    assert x.to_group().terms == phi_reference(n, m, x.terms)
    # one column cache shared by two elements, as check_model shares it
    columns: dict = {}
    for z in (x, y, x):
        assert character_combination(n, m, z.terms, columns).terms == phi_reference(n, m, z.terms)


@pytest.mark.parametrize("n, m", PHI_SIZES)
def test_y_is_its_sum_of_character_idempotents(n, m):
    one = AlgebraElement.one(n, m)
    for l in range(1, m):
        acc: dict = {}
        for lam in product(range(n), repeat=m):
            weight = zeta_power(2 * n, -lam[l - 1] * lam[l])
            add_into(acc, lambda_idempotent(n, m, lam).terms, weight)
        assert y_element(n, m, l).terms == acc
        assert y_element(n, m, l) * y_inverse_element(n, m, l) == one


def test_scalars_are_rational_or_of_the_model_order():
    tensor = to_characters(TensorElement.unit(2, 2))
    scaled = tensor.scale(zeta(4))
    assert scaled.terms == {key: c * zeta(4) for key, c in tensor.terms.items()}
    with pytest.raises(ValueError, match="order 6 != 4"):
        tensor.scale(zeta(6))
    key = basis_keys(2, 2)[-1]
    assert CharacterElement(2, 2, {key: zeta(4)}).terms == {key: zeta(4)}
    with pytest.raises(ValueError, match="order 8 != 4"):
        CharacterElement(2, 2, {key: zeta(8)})
    halved = CharacterElement(2, 2, {key: 1}).scale(Fraction(1, 2))
    assert type(halved.terms[key]) is Fraction and halved.terms[key] == Fraction(1, 2)


def _set_permute_character(monkeypatch, replacement):
    # the element product and the model's character moves read it
    for module in (character_basis, character_model):
        monkeypatch.setattr(module, "permute_character", replacement)


def _swapped_permute_character(monkeypatch, n, m):
    # the product rule reading lam o p^(-1) where it should read lam o p
    real = character_basis.permute_character
    _set_permute_character(monkeypatch, lambda lam, p: real(lam, Perm(p).inverse()))


def _unmoved_characters(monkeypatch, n, m):
    # permute_character ignoring the permutation: a composition law still holds
    _set_permute_character(monkeypatch, lambda lam, p: tuple(lam))


def _flipped_fourier_sign(monkeypatch, n, m):
    # n^-m sum_t zeta^(-2 lam . t) x^t is Lambda_(-lam)
    real = algebra.lambda_idempotent
    monkeypatch.setattr(
        algebra, "lambda_idempotent", lambda n, m, lam: real(n, m, tuple(-v % n for v in lam))
    )


def _one_lambda_off_by_a_root(monkeypatch, n, m):
    real = algebra.lambda_idempotent
    lam_star = (1,) + (0,) * (m - 1)
    monkeypatch.setattr(
        algebra,
        "lambda_idempotent",
        lambda n, m, lam: real(n, m, lam).scale(zeta(2 * n) if lam == lam_star else 1),
    )


def _repeated_lambda(monkeypatch, n, m):
    # Lambda_(1, 0, ...) replaced by Lambda_0: still idempotent, not orthogonal
    real = algebra.lambda_idempotent
    lam_star = (1,) + (0,) * (m - 1)
    monkeypatch.setattr(
        algebra,
        "lambda_idempotent",
        lambda n, m, lam: real(n, m, (0,) * m if lam == lam_star else lam),
    )


@pytest.mark.parametrize(
    "mutate, n, m, lemma",
    [
        (_swapped_permute_character, 2, 3, "the composition law"),
        (_swapped_permute_character, 3, 3, "the composition law"),
        (_unmoved_characters, 2, 2, "conjugation"),
        (_flipped_fourier_sign, 3, 2, "the character action"),
        (_flipped_fourier_sign, 4, 3, "the character action"),
        (_one_lambda_off_by_a_root, 3, 2, "factorisation"),
        (_one_lambda_off_by_a_root, 2, 3, "factorisation"),
        (_one_lambda_off_by_a_root, 3, 1, "the one-slot idempotents"),
        (_repeated_lambda, 3, 1, "the one-slot idempotents"),
        (_repeated_lambda, 2, 3, "factorisation"),
    ],
)
def test_a_broken_model_fails_its_lemma(monkeypatch, mutate, n, m, lemma):
    mutate(monkeypatch, n, m)
    message = f"does not model the group algebra at \\(n={n}, m={m}\\): {lemma}:"
    with pytest.raises(CheckFailedError, match=message):
        check_model(n, m)
    with pytest.raises(CheckFailedError, match="does not model"):
        check_model_by_products(n, m)


@pytest.mark.parametrize("mutate", [_swapped_permute_character, _flipped_fourier_sign])
def test_mutations_the_model_cannot_see_pass(monkeypatch, mutate):
    # at m = 2 every permutation is an involution, and at n = 2 -lam = lam
    mutate(monkeypatch, 2, 2)
    check_model(2, 2)
    check_model_by_products(2, 2)


def monomials(model):
    size = len(model.chars)
    entry = st.one_of(st.none(), st.integers(0, model.order - 1))
    exponents = st.lists(entry, min_size=size, max_size=size)
    return st.builds(model.monomial, st.sampled_from(symmetric_group(model.m)), exponents)


@pytest.mark.parametrize("n, m", [(1, 3), (3, 1), (2, 3), (3, 3), (4, 5)])
def test_moved_is_the_index_of_each_moved_character(n, m):
    model = MonomialModel(n, m)
    shared = {}
    for p in symmetric_group(m):
        act = model.moved(p)
        assert act == [twist_index(n, permute_character(lam, p)) for lam in model.chars]
        assert model.moved(p) is act
        # each index is one object, whichever permutation's map holds it
        assert all(shared.setdefault(b, b) is b for b in act)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2), (2, 3), (4, 2)]), st.data())
def test_monomial_tables_multiply_as_the_model(nm, data):
    model = MonomialModel(*nm)
    a, b = (data.draw(monomials(model)) for _ in range(2))
    product_ = a * b
    assert product_.exact() == a.exact() * b.exact()
    assert (product_ == a * b) and ((a == b) == (a.exact() == b.exact()))
    assert (a - b).terms == (a.exact() - b.exact()).to_group().terms


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (3, 3)])
def test_root_sums_of_tables_match_the_model(n, m):
    # the z_l^2 sum over x-monomial tables, and the same sum started at 1,
    # whose coefficients are off the roots of unity
    model = MonomialModel(n, m)
    for start in (0, 1):
        for l in range(1, m):
            before, after = (0,) * (l - 1), (0,) * (m - l - 1)
            pairs = [
                (-2 * i * j, model.x_monomial(before + (i, j) + after))
                for i in range(start, n)
                for j in range(start, n)
            ]
            table = pairs[0][1].root_sum(pairs, n)
            exact = pairs[0][1].exact().root_sum([(k, x.exact()) for k, x in pairs], n)
            assert table.exact() == exact
            assert bool(table.non_roots) == bool(start)
