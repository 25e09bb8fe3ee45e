from fractions import Fraction

import pytest

from group_basis_oracle import idempotent_by_products, iota_embed
from kacpal.algebra import (
    AlgebraElement,
    lambda_idempotent,
    left_ideal_dimension,
    s_element,
    sandwich_dimension,
)
from kacpal import classifier
from kacpal.classifier import (
    LabelledPartition,
    count_formula,
    dimension_by_hooks,
    enumerate_labelled_partitions,
    idempotent_from_beta,
    irrep_dimension,
    irrep_table,
    lambda_from_beta,
)
from kacpal.partitions import (
    Partition,
    SymFormalSum,
    partition_count,
)
from kacpal.wreath import Perm, group_order, mul_row


def beta_of(n, m, spec):
    return LabelledPartition.parse(n, m, spec)


def test_enumeration_counts():
    assert len(enumerate_labelled_partitions(2, 3)) == 10
    assert len(enumerate_labelled_partitions(2, 2)) == 5
    for m in range(1, 6):
        assert len(enumerate_labelled_partitions(1, m)) == partition_count(m)


def test_enumeration_order_frozen_2_3():
    specs = [b.spec_string() for b in enumerate_labelled_partitions(2, 3)]
    assert specs == [
        "1:3",
        "1:2,1",
        "1:1,1,1",
        "0:1;1:2",
        "0:1;1:1,1",
        "0:2;1:1",
        "0:1,1;1:1",
        "0:3",
        "0:2,1",
        "0:1,1,1",
    ]


def test_enumeration_no_duplicates():
    betas = enumerate_labelled_partitions(3, 3)
    assert len(set(betas)) == len(betas) == count_formula(3, 3) == 22


def test_count_formula_values():
    assert count_formula(2, 3) == 10
    assert count_formula(2, 4) == 20
    assert count_formula(3, 2) == 9
    assert count_formula(1, 5) == 7


def test_lambda_from_beta_examples():
    assert lambda_from_beta(beta_of(2, 3, "0:2;1:1")) == (0, 0, 1)
    assert lambda_from_beta(beta_of(2, 3, "0:1;1:2")) == (0, 1, 1)
    assert lambda_from_beta(beta_of(2, 3, "1:3")) == (1, 1, 1)
    # the non-decreasing representative of the orbit of (1, 1, 0)
    assert tuple(sorted((1, 1, 0))) == lambda_from_beta(beta_of(2, 3, "0:1;1:2"))


def test_iota_embed_identity():
    beta = beta_of(2, 3, "0:2;1:1")
    assert iota_embed(beta, 0, SymFormalSum.identity(2)) == AlgebraElement.one(2, 3)


def test_iota_embed_offsets():
    swap = SymFormalSum(2, {Perm([1, 0]): Fraction(1)})
    assert iota_embed(beta_of(2, 3, "0:2;1:1"), 0, swap) == s_element(2, 3, 1)
    assert iota_embed(beta_of(2, 3, "0:1;1:2"), 1, swap) == s_element(2, 3, 2)


def test_iota_embed_wrong_size():
    with pytest.raises(ValueError):
        iota_embed(beta_of(2, 3, "0:2;1:1"), 0, SymFormalSum.identity(3))


def sym3_word(n, m):
    one = AlgebraElement.one(n, m)
    s1, s2 = s_element(n, m, 1), s_element(n, m, 2)
    return one + s1 + s2 + s1 * s2 + s2 * s1 + s1 * s2 * s1


def test_idempotent_full_symmetrizer_row():
    n, m = 2, 3
    e = idempotent_from_beta(beta_of(n, m, "0:3"))
    expected = (lambda_idempotent(n, m, (0, 0, 0)) * sym3_word(n, m)).scale(Fraction(1, 6))
    assert e == expected


def test_idempotent_hook_row_matches_table_form():
    n, m = 2, 3
    one = AlgebraElement.one(n, m)
    s1, s2 = s_element(n, m, 1), s_element(n, m, 2)
    e = idempotent_from_beta(beta_of(n, m, "0:2,1"))
    expected = (
        lambda_idempotent(n, m, (0, 0, 0)) * (one + s1) * (one - s1 * s2 * s1)
    ).scale(Fraction(1, 3))
    assert e == expected


def test_idempotent_sign_block_row():
    n, m = 2, 3
    one = AlgebraElement.one(n, m)
    s1 = s_element(n, m, 1)
    e = idempotent_from_beta(beta_of(n, m, "0:1,1;1:1"))
    expected = (lambda_idempotent(n, m, (0, 0, 1)) * (one - s1)).scale(Fraction(1, 2))
    assert e == expected


def test_embedded_vertical_term_equals_s_word():
    # the vertical transposition (1 3) of the hook tableau embeds to the
    # same basis element as the length-three word in adjacent swaps
    n, m = 2, 3
    beta = beta_of(n, m, "0:3")
    transposition = SymFormalSum(3, {Perm([2, 1, 0]): Fraction(1)})
    s1, s2 = s_element(n, m, 1), s_element(n, m, 2)
    assert iota_embed(beta, 0, transposition) == s1 * s2 * s1


def test_idempotents_are_idempotent():
    for n, m in [(2, 2), (3, 2), (2, 3)]:
        for beta in enumerate_labelled_partitions(n, m):
            e = idempotent_from_beta(beta)
            assert not e.is_zero()
            assert e * e == e


def test_factor_order_independence():
    beta = beta_of(3, 4, "0:2;1:1;2:1")
    reversed_product = idempotent_by_products(beta, labels=reversed(range(beta.n)))
    assert idempotent_from_beta(beta) == reversed_product


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_idempotent_matches_the_group_basis_product_chain(n, m):
    # idempotent_from_beta changes basis from the character basis; the
    # oracle multiplies lambda_idempotent by the embedded symmetrizers.
    for beta in enumerate_labelled_partitions(n, m):
        assert idempotent_from_beta(beta) == idempotent_by_products(beta), beta


def test_dimension_examples():
    assert irrep_dimension(beta_of(2, 3, "0:3")) == 1
    assert irrep_dimension(beta_of(2, 3, "0:2;1:1")) == 3
    big = beta_of(3, 10, "0:3,2,2;2:1,1,1")
    assert irrep_dimension(big) == 2520
    assert dimension_by_hooks(big) == 2520


def test_dimension_formula_matches_hooks():
    cases = [(2, me) for me in range(1, 6)] + [(3, me) for me in range(1, 5)]
    for n, m in cases:
        for beta in enumerate_labelled_partitions(n, m):
            assert irrep_dimension(beta) == dimension_by_hooks(beta)


def test_dimension_symmetric_under_label_permutation():
    a = beta_of(3, 4, "0:2,1;1:1")
    b = beta_of(3, 4, "1:1;2:2,1")
    c = beta_of(3, 4, "0:1;1:2,1")
    assert irrep_dimension(a) == irrep_dimension(b) == irrep_dimension(c)


def test_table_2_2():
    table = irrep_table(2, 2, check_idempotency=True, check_ranks=True)
    assert len(table.records) == 5
    dims = sorted(r.dim_formula for r in table.records)
    assert dims == [1, 1, 1, 1, 2]
    assert sum(d * d for d in dims) == 8
    assert table.checks["count_formula"] == "pass"
    assert table.checks["sum_dim_sq"] == "pass"
    assert table.checks["idempotency"] == "pass"
    assert table.checks["rank_agreement"] == "pass"


def test_table_3_2_with_conjugacy():
    table = irrep_table(3, 2, check_conjugacy=True)
    assert len(table.records) == 9
    assert table.checks["conjugacy_count"] == "pass"
    assert table.checks["conjugacy_classes"] == 9
    assert sum(r.dim_formula**2 for r in table.records) == group_order(3, 2)


def test_rank_dimension_for_each_idempotent_2_3():
    table = irrep_table(2, 3, check_ranks=True)
    for rec in table.records:
        assert rec.dim_rank == rec.dim_formula
        assert left_ideal_dimension(rec.idempotent) == rec.dim_formula


@pytest.mark.parametrize(
    "n,m,duplicate", [(2, 2, False), (3, 2, False), (2, 2, True)]
)
def test_orthogonality_verdict_matches_pairwise_sandwiches(monkeypatch, n, m, duplicate):
    # irrep_table reuses one left-ideal basis per record; the verdict must be
    # what the k^2 independent sandwich_dimension calls give.  The negative
    # control gives the second labelled partition the first one's idempotent.
    if duplicate:
        betas = enumerate_labelled_partitions(n, m)
        real = classifier.character_idempotent
        monkeypatch.setattr(
            classifier,
            "character_idempotent",
            lambda beta: real(betas[0] if beta == betas[1] else beta),
        )
    table = irrep_table(n, m, check_ranks=True, check_orthogonality=True)
    idempotents = [rec.idempotent for rec in table.records]
    matrix = [[sandwich_dimension(e, f) for f in idempotents] for e in idempotents]
    identity = [[int(i == j) for j in range(len(idempotents))] for i in range(len(idempotents))]
    assert table.checks["orthogonality"] == ("pass" if matrix == identity else "fail")
    assert table.checks["orthogonality"] == ("fail" if duplicate else "pass")
    for rec in table.records:
        assert rec.dim_rank == left_ideal_dimension(rec.idempotent)


def test_ideal_and_complement_dimensions_fill_the_algebra():
    n, m = 3, 2
    one = AlgebraElement.one(n, m)
    for beta in enumerate_labelled_partitions(n, m)[:4]:
        e = idempotent_from_beta(beta)
        assert (
            left_ideal_dimension(e) + left_ideal_dimension(one - e)
            == group_order(n, m)
        )


def test_spec_string_round_trip():
    beta = beta_of(3, 10, "0:3,2,2;2:1,1,1")
    assert beta.spec_string() == "0:3,2,2;2:1,1,1"
    assert LabelledPartition.parse(3, 10, beta.spec_string()) == beta
    assert beta.blocks[1] == Partition()


def test_parse_errors():
    with pytest.raises(ValueError):
        LabelledPartition.parse(2, 3, "0:4")  # wrong total
    with pytest.raises(ValueError):
        LabelledPartition.parse(2, 3, "2:3")  # label out of range
    with pytest.raises(ValueError):
        LabelledPartition.parse(2, 3, "0:2;0:1")  # duplicate label
    with pytest.raises(ValueError, match="given twice"):
        LabelledPartition.parse(2, 3, "0:;0:3")  # duplicate label, first block empty
    with pytest.raises(ValueError):
        LabelledPartition.parse(2, 3, "0-3")  # malformed
    with pytest.raises(ValueError):
        LabelledPartition.parse(2, 3, "0:2,1,0")  # zero part


def test_table_json_and_csv_shapes():
    table = irrep_table(2, 2)
    payload = table.to_json()
    assert payload["n"] == 2 and payload["m"] == 2
    assert len(payload["irreps"]) == 5
    assert "idempotent" not in payload["irreps"][0]
    verbose = table.to_json(include_idempotents=True)
    assert "idempotent" in verbose["irreps"][0]
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "beta_spec,lambda,dim_formula,dim_hook,dim_rank"
    assert len(lines) == 6


@pytest.mark.parametrize("n, m", [(4, 3), (2, 4)])
def test_table_passes_every_character_basis_check(n, m):
    table = irrep_table(
        n, m, check_idempotency=True, check_ranks=True, check_orthogonality=True
    )
    for name in ("idempotency", "rank_agreement", "orthogonality"):
        assert table.checks[name] == "pass", name
    assert all(rec.dim_rank == rec.dim_formula for rec in table.records)


@pytest.mark.parametrize("checks", [False, True])
def test_table_builds_no_group_product_rows(checks):
    mul_row.cache_clear()
    irrep_table(
        3, 3, check_idempotency=checks, check_ranks=checks, check_orthogonality=checks
    )
    assert mul_row.cache_info().currsize == 0
