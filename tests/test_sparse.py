"""The shared sparse-sum core against reference group laws.

Associativity and distributivity alone would pass a wrong key product that is
still associative, so each element type's product is compared with a
convolution built directly from the group elements.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclotomic_oracle import CycNumber, zeta, zeta_power
from group_basis_oracle import AlgebraElement, CharacterElement, add_into
from hopf_group_basis_oracle import TensorElement
from kacpal.wreath import Perm, element_at, element_index, group_order

GROUPS = [(3, 2), (2, 3)]
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def cyc_coefficients(n):
    order = 2 * n
    return st.builds(
        lambda k, q: zeta_power(order, k) * CycNumber.from_rational(order, q),
        st.integers(0, order - 1),
        small_fractions,
    )


def sparse_terms(keys, values):
    return st.dictionaries(keys, values, max_size=5)


def reference_product(a_terms, b_terms, key_product, zero):
    out = {}
    for i, a in a_terms.items():
        for j, b in b_terms.items():
            k = key_product(i, j)
            out[k] = out.get(k, zero) + a * b
    return {k: v for k, v in out.items() if v}


def group_product(n, m):
    return lambda i, j: element_index(element_at(n, m, i) * element_at(n, m, j))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GROUPS), st.data())
def test_algebra_product_matches_group_convolution(nm, data):
    n, m = nm
    indices = st.integers(0, group_order(n, m) - 1)
    a, b = (
        AlgebraElement(n, m, data.draw(sparse_terms(indices, cyc_coefficients(n))))
        for _ in range(2)
    )
    expected = reference_product(a.terms, b.terms, group_product(n, m), CycNumber.zero(2 * n))
    assert (a * b).terms == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GROUPS), st.data())
def test_tensor_product_matches_legwise_group_convolution(nm, data):
    n, m = nm
    indices = st.integers(0, group_order(n, m) - 1)
    pairs = st.tuples(indices, indices)
    a, b = (
        TensorElement(n, m, data.draw(sparse_terms(pairs, cyc_coefficients(n))))
        for _ in range(2)
    )
    g = group_product(n, m)

    def legwise(p, q):
        return (g(p[0], q[0]), g(p[1], q[1]))

    expected = reference_product(a.terms, b.terms, legwise, CycNumber.zero(2 * n))
    assert (a * b).terms == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_sym_product_matches_perm_composition(k, data):
    # Q[S_k] is the character model at (1, k): the key ((0,)*k, p) is p
    trivial = (0,) * k
    keys = st.permutations(range(k)).map(lambda images: (trivial, Perm(images)))
    a, b = (CharacterElement(1, k, data.draw(sparse_terms(keys, small_fractions))) for _ in range(2))

    def compose(left, right):
        p, q = left[1], right[1]
        return trivial, Perm(p[q[i]] for i in range(k))

    expected = reference_product(a.terms, b.terms, compose, Fraction(0))
    assert (a * b).terms == expected


def test_add_into_accumulates_in_place_and_drops_cancellations():
    acc = {0: Fraction(1), 1: Fraction(2)}
    same = add_into(acc, {1: Fraction(1), 2: Fraction(3)}, Fraction(-2))
    assert same is acc
    assert acc == {0: Fraction(1), 2: Fraction(-6)}
    add_into(acc, {0: Fraction(-1), 3: Fraction(0)})
    assert acc == {2: Fraction(-6)}


def test_powers_and_hashes_shared_by_every_element_type():
    s = CharacterElement(1, 3, {((0, 0, 0), Perm([1, 2, 0])): Fraction(1)})
    assert s**3 == CharacterElement.one(1, 3)
    t = TensorElement(2, 2, {(1, 2): CycNumber.one(4)})
    assert t**0 == TensorElement.unit(2, 2)
    assert t**2 == t * t
    assert len({t, t.scale(1), t - t, TensorElement.zero(2, 2)}) == 2


@pytest.mark.parametrize("exponent, products", [(1, 0), (2, 1), (4, 2), (5, 3), (6, 3), (7, 4)])
def test_powers_spend_no_product_on_the_identity(monkeypatch, exponent, products):
    element = AlgebraElement(2, 2, {1: CycNumber.one(4), 5: zeta_power(4, 1)})
    for x in (element, zeta(8) + 1):
        expected = x
        for _ in range(exponent - 1):
            expected = expected * x
        cls = type(x)
        real = cls.__mul__
        calls = []

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        with monkeypatch.context() as patch:
            patch.setattr(cls, "__mul__", counting)
            value = x**exponent
        assert value == expected
        assert len(calls) == products
