import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kacpal import cyclotomic
from kacpal.algebra import AlgebraElement
from kacpal.character_basis import CharacterElement
from kacpal.cyclotomic import (
    CycNumber,
    cyclotomic_polynomial,
    gauss_sum_check,
    zeta,
    zeta_power,
)
from kacpal.wreath import CheckFailedError
from test_cyclotomic_reference import euler_phi


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def test_cyclotomic_12_by_division():
    # oracle: x^12 - 1 divided by the product of the proper-divisor factors
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("order", range(1, 31))
def test_divisor_product_recovers_x_n_minus_1(order):
    prod = [1]
    for d in range(1, order + 1):
        if order % d == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (order - 1) + [1]
    assert prod == expected


@pytest.mark.parametrize("order", range(1, 31))
def test_degree_is_totient(order):
    assert len(cyclotomic_polynomial(order)) - 1 == euler_phi(order)


def test_zeta_power_examples():
    assert zeta_power(4, 0) == CycNumber.one(4)
    assert zeta_power(4, 2) == CycNumber.from_rational(4, -1)
    assert zeta_power(6, 3) == CycNumber.from_rational(6, -1)
    assert zeta_power(2, 1) == -1


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 8, 10, 12])
def test_zeta_power_matches_repeated_multiplication(order):
    z = zeta(order)
    acc = CycNumber.one(order)
    for k in range(2 * order):
        assert zeta_power(order, k) == acc, k
        acc = acc * z


@pytest.mark.parametrize("n", range(2, 7))
def test_zeta_is_primitive(n):
    order = 2 * n
    one = CycNumber.one(order)
    for k in range(4 * order + 1):
        assert (zeta_power(order, k) == one) == (k % order == 0)


def test_roots_of_unity_arithmetic():
    for order in (4, 6, 8, 12):
        z = zeta(order)
        assert z * zeta_power(order, order - 1) == CycNumber.one(order)
        for k in range(1, order):
            assert zeta_power(order, k).inverse() == zeta_power(order, order - k)
    assert zeta_power(4, 1) + zeta_power(4, 3) == CycNumber.zero(4)


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def cyc_numbers(draw, orders=(2, 4, 6, 8, 12)):
    order = draw(st.sampled_from(orders))
    deg = euler_phi(order)
    coeffs = draw(st.lists(small_fractions, min_size=deg, max_size=deg))
    return CycNumber(order, coeffs)


@st.composite
def cyc_triples(draw):
    order = draw(st.sampled_from((2, 4, 6, 8, 12)))
    deg = euler_phi(order)
    vals = []
    for _ in range(3):
        coeffs = draw(st.lists(small_fractions, min_size=deg, max_size=deg))
        vals.append(CycNumber(order, coeffs))
    return vals


@settings(max_examples=60, deadline=None)
@given(cyc_triples())
def test_field_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(cyc_numbers(orders=(2, 4, 6, 8, 10, 12)))
def test_inverse_cancels(a):
    if not a.is_zero():
        assert a * a.inverse() == CycNumber.one(a.order)
        # a rational over a field element, as the shared echelon normalises its pivots
        assert Fraction(1) / a == a.inverse()
        assert 3 / a == a.inverse() * 3


def test_inverse_checks_that_the_norm_is_rational(monkeypatch):
    # With the identity in place of the other conjugate of Q(zeta_4), the
    # "norm" of 1 + zeta is (1 + zeta)^2 = 2 zeta, which is not rational.
    monkeypatch.setattr(cyclotomic, "_galois_images", lambda order: (((1, 0), (0, 1)),))
    with pytest.raises(CheckFailedError, match="not rational"):
        (zeta(4) + 1).inverse()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero(4).inverse()


def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        zeta(4) + zeta(6)
    with pytest.raises(ValueError):
        zeta(4) * zeta(6)


def test_pow_negative_exponent():
    z = zeta(10)
    assert z**-3 == z.inverse() ** 3
    assert z**0 == CycNumber.one(10)


def test_gauss_sum_frozen_examples():
    assert gauss_sum_check(2, 0, 0) == CycNumber.from_rational(4, 2)
    # n = 3, a = 1, b = 2: the nine-term brute force collapses to 3 q^2
    q_sq = zeta_power(6, 4)
    assert gauss_sum_check(3, 1, 2) == q_sq * CycNumber.from_rational(6, 3)


@pytest.mark.parametrize("n", range(2, 7))
def test_gauss_sum_identity(n):
    order = 2 * n
    for a in range(n):
        for b in range(n):
            expected = zeta_power(order, 2 * a * b) * CycNumber.from_rational(order, n)
            assert gauss_sum_check(n, a, b) == expected


def test_gauss_sum_trivial_characters():
    for n in range(1, 7):
        assert gauss_sum_check(n, 0, 0) == CycNumber.from_rational(2 * n, n)


def test_canonical_form_idempotent():
    a = zeta_power(12, 7) + CycNumber.from_rational(12, Fraction(3, 7))
    again = CycNumber(a.order, a.coeffs)
    assert again == a
    assert CycNumber(12, a.coeffs[:2]).coeffs == a.coeffs[:2] + (Fraction(0),) * 2


@settings(max_examples=60, deadline=None)
@given(cyc_numbers())
def test_json_round_trip(a):
    assert CycNumber.from_json(a.to_json()) == a
    assert CycNumber.loads(a.dumps()) == a


def test_json_round_trip_after_arithmetic_with_big_values():
    a = (zeta(12) + CycNumber.from_rational(12, Fraction(10**30, 7))) ** 3
    b = a * a.inverse()
    assert CycNumber.loads(a.dumps()) == a
    assert b == CycNumber.one(12)


def test_rational_accessor():
    assert CycNumber.from_rational(6, Fraction(5, 3)).rational() == Fraction(5, 3)
    with pytest.raises(ValueError):
        zeta(6).rational()


def test_too_many_coefficients_rejected():
    with pytest.raises(ValueError):
        CycNumber(4, (1, 2, 3))


def test_hash_agrees_with_equality_on_rationals():
    assert CycNumber(4, [1]) == 1
    assert len({CycNumber(4, [1]), 1}) == 1
    half = CycNumber.from_rational(6, Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    assert {half: "x"}[Fraction(1, 2)] == "x"


MODULUS = sys.hash_info.modulus
# 30-digit values, and denominators that the hash modulus divides, where a
# Fraction hashes as sys.hash_info.inf with the numerator's sign
rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(),
    st.builds(
        Fraction,
        st.integers(-(10**30), 10**30),
        st.integers(1, 10**30),
    ),
    st.builds(
        Fraction,
        st.integers(-(10**30), 10**30).filter(lambda a: a % MODULUS),
        st.integers(1, 1000).map(lambda k: k * MODULUS),
    ),
)


@settings(max_examples=300, deadline=None)
@given(rationals, st.sampled_from((2, 4, 6, 8, 12)))
def test_a_rational_hashes_as_its_fraction(value, order):
    c = CycNumber.from_rational(order, value)
    assert hash(c) == hash(c.rational()) == hash(value)


def test_hash_of_rationals_at_the_edges():
    for value in (0, -1, -2, 10**30, -(10**30), Fraction(-3, 2 * MODULUS), Fraction(MODULUS, 7)):
        c = CycNumber.from_rational(4, value)
        assert hash(c) == hash(Fraction(value))
    assert hash(CycNumber.from_rational(4, Fraction(1, MODULUS))) == sys.hash_info.inf
    assert hash(CycNumber.from_rational(4, Fraction(-1, MODULUS))) == -sys.hash_info.inf


FLOAT_ENTRY_POINTS = {
    "CycNumber": lambda: CycNumber(4, [0.5]),
    "from_rational": lambda: CycNumber.from_rational(4, 0.25),
    "CycNumber product": lambda: zeta(4) * 0.5,
    "AlgebraElement": lambda: AlgebraElement(2, 2, {0: 0.1}),
    "AlgebraElement.scale": lambda: AlgebraElement.one(2, 2).scale(0.25),
    "CharacterElement": lambda: CharacterElement(2, 2, {((0, 1), (1, 0)): 0.1}),
    "CharacterElement.scale": lambda: CharacterElement.one(1, 3).scale(0.25),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_ENTRY_POINTS))
def test_floats_never_enter_the_exact_arithmetic(entry):
    # 0.1 as a Fraction is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError):
        FLOAT_ENTRY_POINTS[entry]()
