"""The character basis F(lam, p) = Lambda_lam p against the group basis it models."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from kacpal.algebra import AlgebraElement, left_ideal_dimension, sandwich_dimension
from kacpal.character_basis import (
    CharacterElement,
    check_model,
    integral,
    left_ideal_basis,
    sandwich_rank,
    symmetric_group,
)

SIZES = [(2, 2), (3, 2), (2, 3)]


def basis_keys(n, m):
    return [(lam, p.images) for lam in product(range(n), repeat=m) for p in symmetric_group(m)]


def character_elements(n, m, max_size=4):
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
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
