import json
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import group_basis_oracle as oracle
from group_basis_oracle import elements, mul_row
from kacpal import conjugacy
from kacpal.classifier import count_formula
from kacpal.cli import main
from kacpal.conjugacy import conjugacy_class_count
from kacpal.wreath import (
    CapExceededError,
    Perm,
    WreathElement,
    element_at,
    element_index,
    generator_a,
    generator_b,
    group_order,
    perm_index,
)

def identity(n, m):
    return WreathElement(n, (0,) * m, Perm.identity(m))


SMALL_GROUPS = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (5, 2), (1, 3)]


def test_perm_compose_convention():
    g = Perm([1, 2, 0])
    h = Perm([0, 2, 1])
    # (g * h)(i) = g(h(i))
    assert tuple(g * h) == tuple(g[h[i]] for i in range(3))


def test_perm_inverse_and_sign():
    g = Perm([2, 0, 3, 1])
    assert g * g.inverse() == Perm.identity(4)
    assert Perm.transposition(4, 1, 3).sign() == -1
    assert Perm.identity(4).sign() == 1
    assert Perm([1, 2, 0]).sign() == 1


def test_perm_lehmer_round_trip():
    for m in range(1, 6):
        ranks = set()
        for rank in range(factorial(m)):
            p = Perm.from_lehmer(m, rank)
            assert perm_index(p) == rank
            ranks.add(tuple(p))
        assert len(ranks) == factorial(m)


@pytest.mark.parametrize("m", range(1, 7))
def test_perm_index_numbers_permutations_in_order(m):
    ranks = [perm_index(p) for p in permutations(range(m))]
    assert ranks == list(range(factorial(m)))


def test_identity_multiplication():
    e = identity(2, 2)
    v = WreathElement(2, (1, 0), Perm.transposition(2, 0, 1))
    assert e * v == v
    assert v * e == v


def test_product_rule_twist_routing():
    a1 = WreathElement(2, (1, 0), Perm.identity(2))
    b1 = WreathElement(2, (0, 0), Perm.transposition(2, 0, 1))
    assert a1 * b1 == WreathElement(2, (1, 0), Perm.transposition(2, 0, 1))
    # the swap routes the twist to the other slot
    assert b1 * a1 == WreathElement(2, (0, 1), Perm.transposition(2, 0, 1))


def test_inverse_examples():
    e = identity(3, 2)
    assert e.inverse() == e
    twist = WreathElement(3, (2, 1), Perm.identity(2))
    assert twist.inverse() == WreathElement(3, (1, 2), Perm.identity(2))


def test_inverse_over_full_enumeration():
    e = identity(3, 3)
    for u in elements(3, 3):
        assert u * u.inverse() == e
        assert u.inverse() * u == e


@pytest.mark.parametrize("n,m", SMALL_GROUPS)
def test_presentation_relations(n, m):
    e = identity(n, m)
    a = {i: generator_a(n, m, i) for i in range(1, m + 1)}
    b = {l: generator_b(n, m, l) for l in range(1, m)}
    for i in a:
        acc = e
        for _ in range(n):
            acc = acc * a[i]
        assert acc == e
        for j in a:
            assert a[i] * a[j] == a[j] * a[i]
    for l in b:
        assert b[l] * b[l] == e
        for i in a:
            target = i
            if i == l:
                target = l + 1
            elif i == l + 1:
                target = l
            assert b[l] * a[i] == a[target] * b[l]
        for k in b:
            if abs(k - l) >= 2:
                assert b[l] * b[k] == b[k] * b[l]
    for l in range(1, m - 1):
        assert b[l] * b[l + 1] * b[l] == b[l + 1] * b[l] * b[l + 1]


def test_generator_index_validation():
    with pytest.raises(ValueError):
        generator_a(2, 3, 0)
    with pytest.raises(ValueError):
        generator_a(2, 3, 4)
    with pytest.raises(ValueError):
        generator_b(2, 3, 3)


def test_index_round_trip_2_3():
    seen = set()
    for u in elements(2, 3):
        ix = element_index(u)
        assert element_at(2, 3, ix) == u
        seen.add(ix)
    assert seen == set(range(48))
    assert element_index(identity(2, 3)) == 0


@pytest.mark.parametrize("n,m", SMALL_GROUPS)
def test_enumeration_size(n, m):
    assert len(elements(n, m)) == n**m * factorial(m) == group_order(n, m)


def test_index_out_of_range():
    with pytest.raises(ValueError):
        element_at(2, 2, 8)
    with pytest.raises(ValueError):
        element_at(2, 2, -1)


def test_parameter_mismatch():
    with pytest.raises(ValueError):
        identity(2, 2) * identity(3, 2)
    with pytest.raises(ValueError):
        identity(2, 2) * identity(2, 3)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_associativity(nm, data):
    n, m = nm
    order = group_order(n, m)
    ix = data.draw(st.tuples(*(st.integers(0, order - 1),) * 3))
    u, v, w = (element_at(n, m, i) for i in ix)
    assert (u * v) * w == u * (v * w)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_mul_index_matches_elementwise(nm, data):
    n, m = nm
    order = group_order(n, m)
    i = data.draw(st.integers(0, order - 1))
    j = data.draw(st.integers(0, order - 1))
    assert mul_row(n, m, i)[j] == element_index(element_at(n, m, i) * element_at(n, m, j))


def test_conjugacy_class_counts_frozen():
    assert conjugacy_class_count(2, 3) == 10
    assert conjugacy_class_count(1, 3) == 3
    assert conjugacy_class_count(2, 2) == 5
    # brute force gives 9, matching the counting formula (3 p(2) + 3 p(1)^2)
    assert conjugacy_class_count(3, 2) == 9


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
def test_conjugacy_count_matches_partition_formula(n, m):
    assert conjugacy_class_count(n, m) == count_formula(n, m)


# every (n, m) with |G| <= 2000 and m >= 3, and m <= 2 up to n = 12: the
# oracle conjugates by all of G, |G| products per class, so (31, 2) alone
# would take 15 s and m = 1 runs to n = 2000
ORBIT_SIZES = [
    (n, m)
    for m in range(1, 7)
    for n in range(1, 32)
    if group_order(n, m) <= 2000 and (m >= 3 or n <= 12)
]


@pytest.mark.parametrize("n,m", ORBIT_SIZES)
def test_generator_orbits_match_the_all_elements_sweep(n, m):
    assert conjugacy_class_count(n, m) == oracle.conjugacy_class_count(n, m)


def _left_out(real, which):
    # conjugation by the identity moves nothing: the generators for which
    # which(k) holds are left out of the sweep
    return lambda n, m, k: identity(n, m) if which(k) else real(n, m, k)


@pytest.mark.parametrize(
    "generator, which, classes",
    [("generator_b", lambda l: l == 1, 16), ("generator_a", lambda i: True, 14)],
    ids=["without_s_1", "without_every_x_i"],
)
def test_an_orbit_sweep_missing_generators_fails_the_check(
    monkeypatch, capsys, generator, which, classes
):
    # negative control: without s_1, or without every x_i, the orbits at
    # (2, 3) split the 10 classes into more pieces
    monkeypatch.setattr(conjugacy, generator, _left_out(getattr(conjugacy, generator), which))
    assert conjugacy_class_count(2, 3) == classes
    code = main(["count", "--n", "2", "--m", "3", "--checks", "conjugacy"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert out == (
        f"count = 10\nconjugacy classes = {classes}\n"
        "MISMATCH: counting formula disagrees with brute-force classes\n"
    )
    code = main(["table", "--n", "2", "--m", "3", "--checks", "conjugacy", "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    checks = json.loads(out)["checks"]
    assert (checks["conjugacy_count"], checks["conjugacy_classes"]) == ("fail", classes)


def test_conjugacy_cap():
    with pytest.raises(CapExceededError):
        conjugacy_class_count(2, 6, cap=10000)
