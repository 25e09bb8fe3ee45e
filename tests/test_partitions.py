import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from group_basis_oracle import (
    CharacterElement,
    is_idempotent,
    rational,
    standard_tableaux,
    symmetric_group,
    symmetrizer_by_brute_force,
)
from kacpal import partitions
from kacpal.partitions import (
    Partition,
    hook_length,
    partition_counts,
    partitions_of,
    standard_tableaux_count,
    young_symmetrizer,
)
from kacpal.wreath import CheckFailedError, Perm


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
    assert partition_counts(k)[k] == len(parts)


def test_partition_count_known_values():
    assert partition_counts(9) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_partition_count_matches_the_product_formula():
    # the coefficients of prod_i 1/(1 - x^i), by the coin-change recurrence
    top = 400
    coeffs = [1] + [0] * top
    for part in range(1, top + 1):
        for k in range(part, top + 1):
            coeffs[k] += coeffs[k - part]
    assert partition_counts(top) == coeffs


def test_partition_count_is_not_recursive():
    # a recursion over k would pass the default recursion limit here
    counts = partition_counts(5000)
    assert counts[5000] > counts[4999] > 0
    assert counts[1000] == 24061467864032622473692149727991


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


def test_row_groups_single_row():
    # R = S_3 and C = {1}: every permutation, each with +1, over 1/3!
    terms, scale = young_symmetrizer(Partition((3,)))
    assert {p for _, p in terms} == set(symmetric_group(3))
    assert set(terms.values()) == {1} and scale == (1, 6)


def test_groups_for_hook_shape():
    # rows {0, 1} and {2}, columns {0, 2} and {1}: the support is R C
    rows = {Perm.identity(3), Perm([1, 0, 2])}
    columns = {Perm.identity(3), Perm([2, 1, 0])}
    e = rational(young_symmetrizer(Partition((2, 1))))
    assert {p: c for (_, p), c in e.items()} == {
        r * c: Fraction(c.sign(), 3) for r in rows for c in columns
    }


def test_group_sizes_match_shape_factorials():
    # R and C meet only in 1, so R C has |R| |C| distinct terms, none cancelling
    terms, _ = young_symmetrizer(Partition((3, 2, 2)))
    assert len(terms) == (6 * 2 * 2) * (6 * 6 * 1) == 864


def test_groups_that_meet_beyond_1_are_refused(monkeypatch):
    # a row group listed with each element twice: its products with C
    # collide, as they would for an R and a C that share a transposition
    monkeypatch.setattr(partitions, "permutations", lambda block: [tuple(block)] * 2)
    with pytest.raises(CheckFailedError, match=r"row and column groups of Partition\(\[2, 1\]\) meet"):
        young_symmetrizer(Partition((2, 1)))


def test_symmetrizer_single_row_and_column():
    k = 4
    trivial = (0,) * k
    full = rational(young_symmetrizer(Partition((k,))))
    assert full == {
        (trivial, Perm.from_lehmer(k, r)): Fraction(1, factorial(k)) for r in range(factorial(k))
    }
    sign = rational(young_symmetrizer(Partition((1,) * k)))
    assert sign == {
        (trivial, Perm.from_lehmer(k, r)): Fraction(Perm.from_lehmer(k, r).sign(), factorial(k))
        for r in range(factorial(k))
    }


def test_symmetrizer_hook_expansion():
    terms, scale = young_symmetrizer(Partition((2, 1)))
    swap01 = Perm([1, 0, 2])
    swap02 = Perm([2, 1, 0])
    trivial = (0, 0, 0)
    assert terms == {
        (trivial, Perm.identity(3)): 1,
        (trivial, swap01): 1,
        (trivial, swap02): -1,
        (trivial, swap01 * swap02): -1,
    }
    # integers over the scale f / k! = 2 / 3!, which no command reduces
    assert all(type(c) is int for c in terms.values())
    assert scale == (2, 6)


@pytest.mark.parametrize("k", range(1, 7))
def test_symmetrizer_idempotent(k):
    # e * e == e, squared exactly on integer numerators
    for mu in partitions_of(k):
        e = rational(young_symmetrizer(mu))
        assert is_idempotent(e)
        assert e


@pytest.mark.parametrize("k", range(1, 7))
def test_symmetrizer_is_the_oracle_product(k):
    # the row sum times the signed column sum, with R and C found among all
    # of S_k and multiplied by the oracle's own product rule
    for mu in partitions_of(k):
        assert rational(young_symmetrizer(mu)) == symmetrizer_by_brute_force(mu), mu


def test_formal_sum_algebra():
    # Q[S_3] as the character model at (1, 3)
    one = CharacterElement.one(1, 3)
    g = CharacterElement(1, 3, {((0, 0, 0), Perm([1, 0, 2])): Fraction(1)})
    assert one * g == g
    assert (g + g).scale(Fraction(1, 2)) == g
    assert (g - g).is_zero()
    with pytest.raises(ValueError):
        g * CharacterElement.one(1, 4)


@st.composite
def formal_sums(draw, m=4):
    size = draw(st.integers(1, 3))
    terms = {}
    for _ in range(size):
        rank = draw(st.integers(0, factorial(m) - 1))
        coeff = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        terms[(0,) * m, Perm.from_lehmer(m, rank)] = coeff
    return CharacterElement(1, m, terms)


@settings(max_examples=40, deadline=None)
@given(formal_sums(), formal_sums(), formal_sums())
def test_formal_sum_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_hook_invariant_survives_python_O():
    # the divisibility invariant is checked by code, so -O cannot strip it
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "from kacpal import partitions\n"
        "from kacpal.wreath import CheckFailedError\n"
        "partitions.hook_length = lambda mu, r, c: 5\n"
        "try:\n"
        "    partitions.standard_tableaux_count(partitions.Partition([2, 1]))\n"
        "except CheckFailedError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "raised"
