from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from kacpal.partitions import (
    Partition,
    SymFormalSum,
    Tableau,
    hook_length,
    horizontal_group,
    partition_count,
    partitions_of,
    row_consecutive_tableau,
    standard_tableaux,
    standard_tableaux_count,
    vertical_group,
    young_symmetrizer,
)
from kacpal.wreath import Perm


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition().size == 0


def test_partitions_of_small():
    assert [list(p) for p in partitions_of(0)] == [[]]
    assert [list(p) for p in partitions_of(3)] == [[3], [2, 1], [1, 1, 1]]
    assert [list(p) for p in partitions_of(4)] == [
        [4],
        [3, 1],
        [2, 2],
        [2, 1, 1],
        [1, 1, 1, 1],
    ]


@pytest.mark.parametrize("k", range(0, 13))
def test_partition_count_matches_enumeration(k):
    parts = partitions_of(k)
    assert len(set(parts)) == len(parts)
    assert all(p.size == k for p in parts)
    assert partition_count(k) == len(parts)


def test_partition_count_known_values():
    assert [partition_count(k) for k in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_conjugate():
    assert list(Partition((3, 2, 2)).conjugate()) == [3, 3, 1]
    assert Partition((4, 2)).conjugate() == Partition((2, 2, 1, 1))
    assert Partition().conjugate() == Partition()


def test_hook_length_values():
    mu = Partition((3, 2, 2))
    hooks = {(r, c): hook_length(mu, r, c) for r in range(3) for c in range(mu[r])}
    assert hooks == {
        (0, 0): 5,
        (0, 1): 4,
        (0, 2): 1,
        (1, 0): 3,
        (1, 1): 2,
        (2, 0): 2,
        (2, 1): 1,
    }
    assert standard_tableaux_count(mu) == factorial(7) // (5 * 4 * 1 * 3 * 2 * 2 * 1) == 21


def test_hook_length_outside_shape():
    with pytest.raises(ValueError):
        hook_length(Partition((2, 1)), 1, 1)
    with pytest.raises(ValueError):
        hook_length(Partition((2, 1)), 2, 0)


def test_standard_counts_small():
    assert standard_tableaux_count(Partition((5,))) == 1
    assert standard_tableaux_count(Partition((2, 1))) == 2
    assert standard_tableaux_count(Partition((1, 1, 1))) == 1


@pytest.mark.parametrize("k", range(0, 9))
def test_hook_formula_matches_brute_force(k):
    for mu in partitions_of(k):
        assert standard_tableaux_count(mu) == len(standard_tableaux(mu))


@pytest.mark.parametrize("k", range(1, 9))
def test_sum_of_squares_is_factorial(k):
    assert sum(standard_tableaux_count(mu) ** 2 for mu in partitions_of(k)) == factorial(k)


def test_row_consecutive_tableau():
    assert row_consecutive_tableau(Partition((3, 2, 2))).rows == ((1, 2, 3), (4, 5), (6, 7))
    assert row_consecutive_tableau(Partition((1, 1, 1))).rows == ((1,), (2,), (3,))
    assert row_consecutive_tableau(Partition((4,))).rows == ((1, 2, 3, 4),)
    for k in range(1, 7):
        for mu in partitions_of(k):
            assert row_consecutive_tableau(mu).is_standard()


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau([[1, 2], [2]])
    t = Tableau([[1, 3], [2]])
    assert t.is_standard()
    assert not Tableau([[2, 3], [1]]).is_standard()
    assert t.rows[0][1] == 3


def test_row_groups_single_row():
    t = row_consecutive_tableau(Partition((3,)))
    h = horizontal_group(t)
    v = vertical_group(t)
    assert len(h) == 6
    assert v == [Perm.identity(3)]


def test_groups_for_hook_shape():
    t = row_consecutive_tableau(Partition((2, 1)))
    assert set(horizontal_group(t)) == {Perm.identity(3), Perm([1, 0, 2])}
    assert set(vertical_group(t)) == {Perm.identity(3), Perm([2, 1, 0])}


def test_group_sizes_match_shape_factorials():
    mu = Partition((3, 2, 2))
    t = row_consecutive_tableau(mu)
    assert len(horizontal_group(t)) == 6 * 2 * 2
    assert len(vertical_group(t)) == 6 * 6 * 1


def test_symmetrizer_single_row_and_column():
    k = 4
    full = young_symmetrizer(row_consecutive_tableau(Partition((k,))))
    assert full.terms == {
        Perm.from_lehmer(k, r): Fraction(1, factorial(k)) for r in range(factorial(k))
    }
    sign = young_symmetrizer(row_consecutive_tableau(Partition((1,) * k)))
    assert sign.terms == {
        Perm.from_lehmer(k, r): Fraction(Perm.from_lehmer(k, r).sign(), factorial(k))
        for r in range(factorial(k))
    }


def test_symmetrizer_hook_expansion():
    t = row_consecutive_tableau(Partition((2, 1)))
    e = young_symmetrizer(t)
    swap01 = Perm([1, 0, 2])
    swap02 = Perm([2, 1, 0])
    expected = SymFormalSum(
        3,
        {
            Perm.identity(3): Fraction(1, 3),
            swap01: Fraction(1, 3),
            swap02: Fraction(-1, 3),
            swap01 * swap02: Fraction(-1, 3),
        },
    )
    assert e == expected


@pytest.mark.parametrize("k", range(1, 7))
def test_symmetrizer_idempotent(k):
    for mu in partitions_of(k):
        e = young_symmetrizer(row_consecutive_tableau(mu))
        assert e * e == e
        assert not e.is_zero()


def test_symmetrizer_idempotent_other_standard_tableaux():
    for t in standard_tableaux(Partition((3, 2))):
        e = young_symmetrizer(t)
        assert e * e == e


def test_symmetrizer_rejects_non_standard():
    with pytest.raises(ValueError):
        young_symmetrizer(Tableau([[2, 3], [1]]))


def test_formal_sum_algebra():
    one = SymFormalSum.identity(3)
    g = SymFormalSum(3, {Perm([1, 0, 2]): Fraction(1)})
    assert one * g == g
    assert (g + g).scale(Fraction(1, 2)) == g
    assert (g - g).is_zero()
    with pytest.raises(ValueError):
        g * SymFormalSum.identity(4)


@st.composite
def formal_sums(draw, m=4):
    size = draw(st.integers(1, 3))
    terms = {}
    for _ in range(size):
        rank = draw(st.integers(0, factorial(m) - 1))
        coeff = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        terms[Perm.from_lehmer(m, rank)] = coeff
    return SymFormalSum(m, terms)


@settings(max_examples=40, deadline=None)
@given(formal_sums(), formal_sums(), formal_sums())
def test_formal_sum_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
