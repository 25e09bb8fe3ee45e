"""The integer layer kacpal.roots against CycNumber arithmetic: each pair it
returns is the canonical (num, den) of the value the field computes, and
each pair it writes is written as the field writes that value."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclotomic_oracle import CycNumber, _make, zeta_over, zeta_power
from group_basis_oracle import lambda_idempotent
from kacpal.character_model import characters
from kacpal.roots import (
    coefficient_json,
    coefficient_repr,
    cyclotomic_polynomial,
    lambda_coefficients,
    root_count_sum,
    root_exponent,
)

ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12]


def degree(order):
    return len(cyclotomic_polynomial(order)) - 1


@st.composite
def cyc_numbers(draw, order=None):
    order = draw(st.sampled_from(ORDERS)) if order is None else order
    coeff = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-20, max_value=20, max_denominator=30),
        st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
    )
    return CycNumber(order, draw(st.lists(coeff, min_size=degree(order), max_size=degree(order))))


def pair(c: CycNumber) -> tuple:
    return c.num, c.den


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_root_count_sum_is_the_field_sum(data):
    order = data.draw(st.sampled_from(ORDERS))
    counts = data.draw(st.lists(st.integers(-6, 6), max_size=order))
    den = data.draw(st.integers(1, 60))
    total = sum((c * zeta_power(order, k) for k, c in enumerate(counts)), CycNumber.zero(order))
    assert root_count_sum(order, tuple(counts), den) == pair(total / den)


@pytest.mark.parametrize("n, m", [(1, 2), (2, 1), (2, 3), (3, 2), (4, 2), (5, 1)])
def test_lambda_coefficients_are_lambda_idempotents(n, m):
    order = 2 * n
    for lam in characters(n, m):
        row = lambda_coefficients(n, m, lam)
        # zeta^(2 lam . t) / n^m by the field's own product
        expected = [
            zeta_power(order, 2 * sum(map(prod, zip(lam, t)))) * Fraction(1, n**m)
            for t in characters(n, m)
        ]
        assert row == [pair(c) for c in expected]
        assert [_make(order, *p) for p in row] == [
            lambda_idempotent(n, m, lam).terms[t] for t in range(len(row))
        ]


@settings(max_examples=200, deadline=None)
@given(cyc_numbers())
def test_coefficient_json_is_each_coefficient_in_lowest_terms(c):
    expected = [[str(f.numerator), str(f.denominator)] for f in c.coeffs]
    assert coefficient_json(c.order, c.num, c.den) == {"order": c.order, "coeffs": expected}
    assert c.to_json() == coefficient_json(c.order, c.num, c.den)


@settings(max_examples=300, deadline=None)
@given(cyc_numbers())
@example(CycNumber(1, [0]))
@example(CycNumber(2, [-3]))
@example(CycNumber(6, [Fraction(2, 9)]))
@example(CycNumber(12, [Fraction(1, 2), 0, Fraction(-10**30, 3)]))
def test_coefficient_repr_is_the_field_repr(c):
    # the oracle's repr goes through Fractions, the writer through one gcd
    assert coefficient_repr(c.order, c.num, c.den) == repr(c)


def root_exponent_by_search(c: CycNumber, den: int):
    """k with c = zeta^k / den, by comparing c with each one."""
    return next((k for k in range(c.order) if c == zeta_over(c.order, k, den)), None)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_root_exponent_finds_exactly_the_roots(data):
    order = data.draw(st.sampled_from(ORDERS))
    den = data.draw(st.integers(1, 12))
    # a root over den, or over another denominator
    k = data.draw(st.integers(-30, 30))
    root = zeta_over(order, k, data.draw(st.sampled_from([den, 2 * den])))
    c = data.draw(st.one_of(st.just(root), st.just(2 * root), cyc_numbers(order)))
    assert root_exponent(order, pair(c), den) == root_exponent_by_search(c, den)
