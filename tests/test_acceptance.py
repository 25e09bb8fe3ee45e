"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; stated wall-clock budgets are asserted.
"""

import sys
import time
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from cyclotomic_oracle import CycNumber, gauss_sum_check, zeta_power
from group_basis_oracle import (
    AlgebraElement,
    lambda_idempotent,
    left_ideal_dimension,
    mul_row,
    s_element,
    sandwich_dimension,
    standard_tableaux,
    terms_to_group,
    y_element,
    y_inverse_element,
    z_element,
)
from hopf_group_basis_oracle import _delta_z
from kacpal import hopf
from kacpal.character_model import characters, check_model, is_idempotent
from kacpal.classifier import (
    count_formula,
    enumerate_labelled_partitions,
    irrep_table,
)
from kacpal.cli import main
from kacpal.hopf import cocommutativity_witness, hopf_axiom_report
from kacpal.partitions import (
    partitions_of,
    standard_tableaux_count,
    young_symmetrizer,
)
from kacpal.conjugacy import conjugacy_class_count
from kacpal.relations import verify_defining_relations
from kacpal.roots import root_count_sum
from kacpal.wreath import group_order

RELATION_PAIRS = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]
RANK_PAIRS = [(2, 2), (3, 2), (2, 3)]


def announce(number: int, message: str):
    print(f"\nACCEPTANCE {number}: PASS - {message}")


def worked_example_2_3():
    """The ten idempotent expressions of the worked 48-dimensional example,
    keyed by labelled-partition spec string.

    Rows with character (1,1,0) are stated with the non-decreasing orbit
    representative (0,1,1); that is the documented relabeling.
    """
    n, m = 2, 3
    one = AlgebraElement.one(n, m)
    s1, s2 = s_element(n, m, 1), s_element(n, m, 2)
    lam = lambda v: lambda_idempotent(n, m, v)
    sym = one + s1 + s2 + s1 * s2 + s2 * s1 + s1 * s2 * s1
    alt = one - s1 - s2 + s1 * s2 + s2 * s1 - s1 * s2 * s1
    rows = {
        "a": ("0:3", (lam((0, 0, 0)) * sym).scale(Fraction(1, 6)), 1),
        "b": (
            "0:2,1",
            (lam((0, 0, 0)) * (one + s1) * (one - s1 * s2 * s1)).scale(Fraction(1, 3)),
            2,
        ),
        "c": ("0:1,1,1", (lam((0, 0, 0)) * alt).scale(Fraction(1, 6)), 1),
        "g": ("0:2;1:1", (lam((0, 0, 1)) * (one + s1)).scale(Fraction(1, 2)), 3),
        "h": ("0:1,1;1:1", (lam((0, 0, 1)) * (one - s1)).scale(Fraction(1, 2)), 3),
        "d": ("1:3", (lam((1, 1, 1)) * sym).scale(Fraction(1, 6)), 1),
        "e": (
            "1:2,1",
            (lam((1, 1, 1)) * (one + s1) * (one - s1 * s2 * s1)).scale(Fraction(1, 3)),
            2,
        ),
        "f": ("1:1,1,1", (lam((1, 1, 1)) * alt).scale(Fraction(1, 6)), 1),
        "i": ("0:1;1:2", (lam((0, 1, 1)) * (one + s2)).scale(Fraction(1, 2)), 3),
        "j": ("0:1;1:1,1", (lam((0, 1, 1)) * (one - s2)).scale(Fraction(1, 2)), 3),
    }
    return rows


def test_criterion_1_golden_table(capsys):
    start = time.time()
    n, m = 2, 3

    table = irrep_table(n, m)
    assert len(table.records) == 10
    by_spec = {rec.beta.spec_string(): rec for rec in table.records}

    rows = worked_example_2_3()
    table_row_order = ["a", "b", "c", "g", "h", "d", "e", "f", "i", "j"]
    dims_in_table_order = []
    for key in table_row_order:
        spec, expression, dim = rows[key]
        rec = by_spec[spec]
        assert terms_to_group(n, m, rec.element) == expression, f"row ({key}) differs"
        assert rec.dim_formula == dim
        dims_in_table_order.append(rec.dim_formula)
    assert dims_in_table_order == [1, 2, 1, 3, 3, 1, 2, 1, 3, 3]
    assert sum(d * d for d in dims_in_table_order) == 48

    # documented relabeling evidence for rows (i), (j): the character
    # (1,1,0) printed there pairs with a symmetrizer on slots 2,3; the
    # literal combination is not idempotent, while the block-consistent
    # (1,1,0)-form (symmetrizer on slots 1,2) is, with the same dimension
    one = AlgebraElement.one(n, m)
    s1, s2 = s_element(n, m, 1), s_element(n, m, 2)
    literal = (lambda_idempotent(n, m, (1, 1, 0)) * (one + s2)).scale(Fraction(1, 2))
    assert literal * literal == literal.scale(Fraction(1, 2))
    assert left_ideal_dimension(literal) == 6
    consistent = (lambda_idempotent(n, m, (1, 1, 0)) * (one + s1)).scale(Fraction(1, 2))
    assert consistent * consistent == consistent
    assert left_ideal_dimension(consistent) == 3

    # the CLI emits the same ten rows
    code = main(["table", "--n", "2", "--m", "3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    dims_csv = sorted(int(line.rsplit(",", 3)[1]) for line in lines[1:])
    assert dims_csv == sorted(dims_in_table_order)

    elapsed = time.time() - start
    assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s"
    announce(1, f"golden 48-dimensional table reproduced exactly in {elapsed:.1f}s")


def test_criterion_2_relation_suite():
    start = time.time()
    for n, m in RELATION_PAIRS:
        report = verify_defining_relations(n, m)
        assert report["all_pass"], (n, m, report)
        for family in (
            "x_power",
            "x_commute",
            "zx",
            "z_commute",
            "z_braid",
            "z_square",
            "z_square_y",
            "z_lambda",
            "s_square",
            "s_commute",
            "s_braid",
            "sx",
            "y_order",
        ):
            assert report["relations"][family]["status"] == "pass", (n, m, family)
        # z_l^2 = y_l^(-2) asserted directly as well
        for l in range(1, m):
            assert z_element(n, m, l) ** 2 == y_inverse_element(n, m, l) ** 2
            assert y_element(n, m, l) * y_inverse_element(n, m, l) == AlgebraElement.one(n, m)
    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s"
    announce(2, f"all defining relations hold exactly for {RELATION_PAIRS} in {elapsed:.1f}s")


def test_criterion_2_relation_suite_at_4_4_and_2_6_within_5s():
    for (n, m), cap in (((4, 4), None), ((2, 6), 50000)):
        lambda_idempotent.cache_clear()
        start = time.time()
        report = verify_defining_relations(n, m, cap=cap)
        elapsed = time.time() - start
        assert report["all_pass"], (n, m, report)
        assert elapsed < 5, f"the relation suite at ({n}, {m}) took {elapsed:.1f}s"
    announce(2, "all defining relations hold exactly at (4, 4) and (2, 6), each within 5s")


def test_criterion_2_relation_suite_at_2000_1_within_1s():
    # the group-basis suite took 1.0 s here on a shared 2-core VM, Python 3.11
    start = time.time()
    report = verify_defining_relations(2000, 1)
    elapsed = time.time() - start
    assert report["all_pass"], report
    assert elapsed < 1, f"the relation suite at (2000, 1) took {elapsed:.1f}s"
    announce(2, f"all defining relations hold exactly at (2000, 1) in {elapsed:.2f}s")


def test_criterion_4_model_check_at_4_4_and_2_6_within_3s():
    for n, m in ((4, 4), (2, 6)):
        lambda_idempotent.cache_clear()
        start = time.time()
        check_model(n, m)
        elapsed = time.time() - start
        assert elapsed < 3, f"check_model({n}, {m}) took {elapsed:.1f}s"
    announce(4, "the character basis models the group algebra at (4, 4) and (2, 6), each within 3s")


def test_criterion_3_classification_counts():
    for n, m in RELATION_PAIRS:
        betas = enumerate_labelled_partitions(n, m)
        formula = count_formula(n, m)
        classes = conjugacy_class_count(n, m)
        assert len(betas) == formula == classes, (n, m)
        table = irrep_table(n, m)
        assert sum(rec.dim_formula**2 for rec in table.records) == group_order(n, m)
    announce(3, f"irrep count = partition formula = conjugacy classes for {RELATION_PAIRS}")


def test_criterion_3_conjugacy_classes_at_4_4_within_3s():
    # the classes as generator orbits, with every module cache of kacpal
    # cleared; conjugating each representative by all 6144 elements took
    # 10.5 s here on a shared 2-core VM, Python 3.11
    _clear_kacpal_caches()
    start = time.time()
    classes = conjugacy_class_count(4, 4)
    elapsed = time.time() - start
    assert classes == count_formula(4, 4) == 105
    assert elapsed < 3, f"the conjugacy classes at (4, 4) took {elapsed:.1f}s"
    announce(3, f"{classes} conjugacy classes at (4, 4) = the partition formula, in {elapsed:.1f}s")


def test_criterion_4_dimension_triple_agreement():
    start = time.time()
    for n, m in RANK_PAIRS:
        table = irrep_table(n, m, check_ranks=True)
        for rec in table.records:
            assert rec.dim_formula == rec.dim_hook == rec.dim_rank, rec.beta
        idempotents = [terms_to_group(n, m, rec.element) for rec in table.records]
        for i, e in enumerate(idempotents):
            for j, f in enumerate(idempotents):
                expected = 1 if i == j else 0
                assert sandwich_dimension(e, f) == expected, (n, m, i, j)
    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 4 took {elapsed:.1f}s"
    announce(
        4,
        f"formula = hooks = rank and primitivity/orthogonality for {RANK_PAIRS} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_4_every_classification_check_at_2_5_within_2s():
    # the ranks and sandwiches as traces of the squared idempotents; the
    # echelons they replaced took 3.2 s on a shared 2-core VM, Python 3.11
    _clear_kacpal_caches()
    start = time.time()
    table = irrep_table(
        2,
        5,
        check_idempotency=True,
        check_ranks=True,
        check_orthogonality=True,
        check_conjugacy=True,
        cap=group_order(2, 5),
    )
    elapsed = time.time() - start
    assert all(v == "pass" for k, v in table.checks.items() if k != "conjugacy_classes"), table.checks
    assert all(rec.dim_rank == rec.dim_formula for rec in table.records)
    assert elapsed < 2, f"every classification check at (2, 5) took {elapsed:.1f}s"
    announce(4, f"every classification check at (2, 5) in {elapsed:.1f}s")


def test_criterion_5_hopf_axioms():
    for n, m in RANK_PAIRS:
        report = hopf_axiom_report(n, m)
        assert report["axioms"]["coassociativity"] == "pass", (n, m)
        assert report["axioms"]["counit"] == "pass", (n, m)
        assert report["axioms"]["antipode"] == "pass", (n, m)
        assert report["axioms"]["delta_preserves_relations"] == "pass", (n, m)
        for l in range(1, m):
            entry = report["non_cocommutativity"][f"z_{l}"]
            assert entry["status"] == "noncocommutative", (n, m, l)
            assert not CycNumber.from_json(entry["witness"]["coefficient"]).is_zero()
        assert report["non_cocommutativity"]["x_generators"] == "symmetric"
    announce(5, f"coalgebra and antipode axioms verified for {RANK_PAIRS}")


def test_criterion_5_hopf_axioms_at_4_2_within_3s():
    start = time.time()
    report = hopf_axiom_report(4, 2)
    elapsed = time.time() - start
    assert report["all_pass"], report
    assert elapsed < 3, f"the Hopf report at (4, 2) took {elapsed:.1f}s"
    announce(5, f"every Hopf axiom on every basis element at (4, 2) in {elapsed:.1f}s")


def test_criterion_5_hopf_relation_check_at_4_3_within_4s():
    # the evaluation on dense tensors at (n, 2m) took 6.1 s here on a shared
    # 2-core VM, Python 3.11
    for cache in (_delta_z, z_element, y_inverse_element, s_element, mul_row):
        cache.cache_clear()
    for cache in (characters, root_count_sum):
        cache.cache_clear()
    start = time.time()
    failures = hopf._CharacterHopf(4, 3).relation_failures()
    elapsed = time.time() - start
    assert failures == []
    assert elapsed < 4, f"the Hopf relation check at (4, 3) took {elapsed:.1f}s"
    announce(5, f"delta preserves every defining relation at (4, 3) in {elapsed:.1f}s")


def _clear_kacpal_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("kacpal"):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_criterion_5_whole_hopf_report_at_4_3_within_2_5s():
    # every axiom, the relation check and the witnesses, with every module
    # cache of kacpal cleared; the dense change of basis of the generator
    # images took 4.1 s here on a shared 2-core VM, Python 3.11
    _clear_kacpal_caches()
    start = time.time()
    report = hopf_axiom_report(4, 3, cap=group_order(4, 3))
    elapsed = time.time() - start
    assert report["all_pass"], report
    assert elapsed < 2.5, f"the Hopf report at (4, 3) took {elapsed:.1f}s"
    announce(5, f"every Hopf axiom on every basis element at (4, 3) in {elapsed:.1f}s")


def test_criterion_5_whole_hopf_report_at_2_5_within_3s():
    # every axiom, the relation check and the witnesses at (2, 5), with every
    # module cache of kacpal cleared; building the generator images in the
    # group basis, changing them to the character basis and checking
    # multiplicativity on all pairs of permutations took 3.6 s here on a
    # shared 2-core VM, Python 3.11, against 1.4 s from the formulas on tables
    _clear_kacpal_caches()
    start = time.time()
    report = hopf_axiom_report(2, 5, cap=group_order(2, 5))
    elapsed = time.time() - start
    assert report["all_pass"], report
    assert elapsed < 3, f"the Hopf report at (2, 5) took {elapsed:.1f}s"
    announce(5, f"every Hopf axiom on every basis element at (2, 5) in {elapsed:.1f}s")


@pytest.mark.parametrize("n,m", [(5, 3), (3, 4)])
def test_criterion_5_whole_hopf_report_within_2_5s(n, m):
    # every axiom, the relation check and the witnesses, with every module
    # cache of kacpal cleared; multiplying delta(p) delta(s_l) again for
    # every pair after the walk, and the cocycle identity on every
    # permutation, took 2.5 s at (5, 3) and 2.4 s at (3, 4) on a shared
    # 2-core VM, Python 3.11, against 1.1 s and 0.7 s on the generators
    _clear_kacpal_caches()
    start = time.time()
    report = hopf_axiom_report(n, m, cap=group_order(n, m))
    elapsed = time.time() - start
    assert report["all_pass"], report
    assert elapsed < 2.5, f"the Hopf report at ({n}, {m}) took {elapsed:.1f}s"
    announce(5, f"every Hopf axiom on every basis element at ({n}, {m}) in {elapsed:.1f}s")


def test_criterion_5_whole_hopf_report_at_2_6_within_2s():
    # every axiom on the generators, the relation check and the witnesses at
    # (2, 6), with every module cache of kacpal cleared; the breadth-first walk
    # over S_6 and the counit and antipode loops over every permutation took
    # the report to 4.1 s here on a shared 2-core VM, Python 3.11
    _clear_kacpal_caches()
    start = time.time()
    report = hopf_axiom_report(2, 6, cap=group_order(2, 6))
    elapsed = time.time() - start
    assert report["all_pass"], report
    assert elapsed < 2, f"the Hopf report at (2, 6) took {elapsed:.1f}s"
    announce(5, f"every Hopf axiom at (2, 6), checked on the generators, in {elapsed:.1f}s")


def test_criterion_5_witness_at_2_6_within_1_5s():
    # the non-cocommutativity witness from the tables of the delta(z_l), with
    # every module cache of kacpal cleared; building each delta(z_l) in the
    # group basis and subtracting its flip took 5.7 s here on a shared 2-core
    # VM, Python 3.11
    _clear_kacpal_caches()
    start = time.time()
    out = cocommutativity_witness(2, 6, cap=50000)
    elapsed = time.time() - start
    assert out["z_1"]["witness"]["pair"] == [7680, 7681]
    assert all(out[f"z_{l}"]["status"] == "noncocommutative" for l in range(1, 6))
    assert out["x_generators"] == "symmetric"
    assert elapsed < 1.5, f"the witness at (2, 6) took {elapsed:.1f}s"
    announce(5, f"delta(z_l) is not cocommutative at (2, 6), witnessed in {elapsed:.1f}s")


def test_criterion_6_combinatorial_oracles():
    for k in range(0, 9):
        for mu in partitions_of(k):
            assert standard_tableaux_count(mu) == len(standard_tableaux(mu)), mu
        if k >= 1:
            assert sum(standard_tableaux_count(mu) ** 2 for mu in partitions_of(k)) == factorial(k)
    for k in range(1, 7):
        for mu in partitions_of(k):
            e = young_symmetrizer(mu)
            assert is_idempotent(e), mu  # e * e == e, on integer numerators
    announce(6, "hook counts vs brute force (k<=8) and symmetrizer idempotency (k<=6)")


def test_criterion_7_field_core():
    # primitivity of the root of unity
    for n in range(2, 7):
        order = 2 * n
        one = CycNumber.one(order)
        for k in range(4 * order + 1):
            assert (zeta_power(order, k) == one) == (k % order == 0)
    # orthogonality double sum
    for n in range(2, 7):
        order = 2 * n
        for a in range(n):
            for b in range(n):
                expected = zeta_power(order, 2 * a * b) * CycNumber.from_rational(order, n)
                assert gauss_sum_check(n, a, b) == expected
    # field axioms on a deterministic sample, with lossless JSON round trips
    import random

    rng = random.Random(1234)
    for order in (4, 6, 8, 10, 12):
        deg = len(zeta_power(order, 0).coeffs)
        sample = [
            CycNumber(
                order,
                [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(deg)],
            )
            for _ in range(6)
        ]
        for a, b, c in zip(sample, sample[1:], sample[2:]):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
        for a in sample:
            assert CycNumber.from_json(a.to_json()) == a
            if not a.is_zero():
                inv = a.inverse()
                assert a * inv == CycNumber.one(order)
                assert CycNumber.from_json(inv.to_json()) == inv
                assert CycNumber.from_json((a * a).to_json()) == a * a
    announce(7, "cyclotomic field suite exact; JSON serialization lossless")
