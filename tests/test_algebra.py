from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cyclotomic_oracle import CycNumber, zeta_power
import group_basis_oracle
from group_basis_oracle import (
    AlgebraElement,
    _echelon,
    _left_translates,
    _sparse_rank,
    basis_element,
    lambda_idempotent,
    left_ideal_dimension,
    mul_row,
    rational,
    relation_suite_by_group_basis,
    s_element,
    sandwich_dimension,
    x_element,
    x_monomial,
    y_element,
    y_inverse_element,
    terms_to_group,
    z_element,
    z_square_rhs,
)
from kacpal import relations
from kacpal.classifier import irrep_table
from kacpal.relations import presentation, relation_report, verify_defining_relations
from kacpal.wreath import (
    CapExceededError,
    Perm,
    WreathElement,
    element_index,
    generator_b,
    group_order,
    permute_character,
)


def one(n, m):
    return AlgebraElement.one(n, m)


def test_unit_laws():
    n, m = 2, 3
    z1 = z_element(n, m, 1)
    assert one(n, m) * z1 == z1
    assert z1 * one(n, m) == z1


def test_x_relations_explicit():
    n, m = 3, 2
    for i in (1, 2):
        assert x_element(n, m, i) ** n == one(n, m)
    assert x_element(n, m, 1) * x_element(n, m, 2) == x_element(n, m, 2) * x_element(n, m, 1)


def test_x_monomial_is_product_of_generators():
    n, m = 3, 3
    mono = x_monomial(n, m, (2, 0, 1))
    built = (x_element(n, m, 1) ** 2) * x_element(n, m, 3)
    assert mono == built


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3)])
def test_lambda_family_complete_orthogonal_idempotents(n, m):
    total = AlgebraElement.zero(n, m)
    lams = list(product(range(n), repeat=m))
    idems = {lam: lambda_idempotent(n, m, lam) for lam in lams}
    for lam, e in idems.items():
        assert e * e == e
        total = total + e
    assert total == one(n, m)
    for lam in lams:
        for mu in lams:
            if lam != mu:
                assert (idems[lam] * idems[mu]).is_zero()


def test_x_eigenvalue_on_lambda():
    n, m = 2, 2
    for lam in product(range(n), repeat=m):
        e = lambda_idempotent(n, m, lam)
        for i in (1, 2):
            scalar = zeta_power(2 * n, -2 * lam[i - 1])
            assert x_element(n, m, i) * e == e.scale(scalar)


def test_lambda_central_among_x_monomials():
    n, m = 3, 2
    e = lambda_idempotent(n, m, (1, 2))
    for exps in product(range(n), repeat=m):
        mono = x_monomial(n, m, exps)
        assert mono * e == e * mono


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_y_order_exactly_2n(n, m):
    for l in range(1, m):
        y = y_element(n, m, l)
        acc = one(n, m)
        for k in range(1, 2 * n + 1):
            acc = acc * y
            if k < 2 * n:
                assert acc != one(n, m)
        assert acc == one(n, m)


def test_y_inverse_is_inverse():
    n, m = 3, 2
    assert y_element(n, m, 1) * y_inverse_element(n, m, 1) == one(n, m)


def test_z_square_identities():
    n, m = 2, 3
    for l in (1, 2):
        z_sq = z_element(n, m, l) ** 2
        assert z_sq == y_inverse_element(n, m, l) ** 2
        assert z_sq == z_square_rhs(n, m, l)


def test_z_square_one_based_range_fails():
    # the same sum started at 1 instead of 0 does not give z^2
    n, m = 2, 2
    order = 2 * n
    acc = AlgebraElement.zero(n, m)
    norm = CycNumber.from_rational(order, Fraction(1, n))
    for i in range(1, n):
        for j in range(1, n):
            acc = acc + x_monomial(n, m, (i, j)).scale(zeta_power(order, -2 * i * j) * norm)
    assert acc != z_element(n, m, 1) ** 2


def test_z_intertwines_lambda():
    n, m = 2, 3
    for l in (1, 2):
        z = z_element(n, m, l)
        for lam in product(range(n), repeat=m):
            sigma_lam = list(lam)
            sigma_lam[l - 1], sigma_lam[l] = sigma_lam[l], sigma_lam[l - 1]
            lhs = z * lambda_idempotent(n, m, lam)
            rhs = lambda_idempotent(n, m, tuple(sigma_lam)) * z
            assert lhs == rhs


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
def test_defining_relations_all_pass(n, m):
    report = verify_defining_relations(n, m)
    assert report["all_pass"]
    for family, entry in report["relations"].items():
        assert entry["status"] == "pass", family
    assert any("0" in note for note in report["notes"])


def test_relation_suite_expected_families():
    report = verify_defining_relations(2, 2)
    assert set(report["relations"]) == {
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
        "s_from_y_z",
        "y_order",
    }


def test_relation_suite_cap():
    with pytest.raises(CapExceededError):
        verify_defining_relations(2, 6, cap=10000)


def test_perturbed_y_breaks_braid():
    # negative control: drop one character term from y_1, the braid fails
    n, m = 2, 3
    lam_star = (1, 1, 0)
    dropped = lambda_idempotent(n, m, lam_star).scale(
        zeta_power(2 * n, -lam_star[0] * lam_star[1])
    )
    s_tilde = (y_element(n, m, 1) - dropped) * z_element(n, m, 1)
    s2 = s_element(n, m, 2)
    assert s_tilde * s2 * s_tilde != s2 * s_tilde * s2


def test_perturbed_z_fails_presentation_with_counterexample():
    # negative control through the shared relation table: drop one character
    # term from y_1^(-1) in z_1; the first family that notices must name the
    # failing relation and the head term of its difference
    n, m = 2, 3
    lam_star = (1, 1, 0)
    dropped = lambda_idempotent(n, m, lam_star).scale(
        zeta_power(2 * n, lam_star[0] * lam_star[1])
    )
    zs = {l: z_element(n, m, l) for l in range(1, m)}
    zs[1] = (y_inverse_element(n, m, 1) - dropped) * s_element(n, m, 1)
    families = presentation(n, m, lambda e: x_monomial(n, m, e), zs)
    report = relation_report(families)
    assert list(report) == ["x_power", "x_commute", "zx", "z_commute", "z_braid", "z_square"]
    failing = [family for family, entry in report.items() if entry["status"] == "fail"]
    assert failing[0] == "z_braid"
    counterexample = report["z_braid"]["counterexample"]
    assert counterexample["relation"] == "z_1 z_2 z_1 = z_2 z_1 z_2"
    ((_, lhs, rhs),) = families["z_braid"]
    diff = lhs - rhs
    head = min(diff.terms)
    assert counterexample["difference_head"] == {"index": head, "coeff": diff.terms[head].to_json()}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_convolution_associativity(data):
    n, m = 2, 2
    order = group_order(n, m)

    def sparse():
        size = data.draw(st.integers(1, 3))
        terms = {}
        for _ in range(size):
            ix = data.draw(st.integers(0, order - 1))
            coeff = zeta_power(2 * n, data.draw(st.integers(0, 2 * n - 1)))
            num = data.draw(st.integers(-3, 3))
            terms[ix] = coeff * CycNumber.from_rational(2 * n, num)
        return AlgebraElement(n, m, terms)

    a, b, c = sparse(), sparse(), sparse()
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_parameter_mismatch():
    with pytest.raises(ValueError):
        one(2, 2) * one(2, 3)
    with pytest.raises(ValueError):
        one(2, 2) + one(3, 2)


def test_coefficient_order_validated():
    with pytest.raises(ValueError):
        AlgebraElement(2, 2, {0: CycNumber.one(6)})
    with pytest.raises(ValueError):
        AlgebraElement(2, 2, {99: CycNumber.one(4)})


def test_rational_coefficients_are_coerced():
    half = CycNumber.from_rational(4, Fraction(1, 2))
    assert AlgebraElement(2, 2, {3: Fraction(1, 2), 5: 0}).terms == {3: half}
    assert AlgebraElement(2, 2, {0: 1}) == one(2, 2)


def rows_as_vectors(rows):
    return [dict(enumerate(row)) for row in rows]


def test_matrix_rank_examples():
    order = 4
    eye = [
        [CycNumber.from_rational(order, 1 if i == j else 0) for j in range(3)]
        for i in range(3)
    ]
    assert _sparse_rank(rows_as_vectors(eye)) == 3
    zero = [[CycNumber.zero(order)] * 3 for _ in range(2)]
    assert _sparse_rank(rows_as_vectors(zero)) == 0
    # dependent columns
    dep = [
        [CycNumber.from_rational(order, 1), CycNumber.from_rational(order, 2)],
        [CycNumber.from_rational(order, 3), CycNumber.from_rational(order, 6)],
    ]
    assert _sparse_rank(rows_as_vectors(dep)) == 1


def test_echelon_over_ints_normalises_to_fractions():
    rows = _echelon([{0: 3, 1: 1}, {0: 6, 1: 2}, {1: 4, 2: 2}])
    assert rows == [{0: 1, 1: Fraction(1, 3)}, {1: 1, 2: Fraction(1, 2)}]
    assert all(isinstance(c, Fraction) for row in rows for c in row.values())


def test_permute_character_moves_entry_i_to_the_inverse_image():
    # perm = [1, 2, 0] is the 3-cycle 0 -> 1 -> 2 -> 0: entry j of the result
    # is lam[perm(j)], so entry i of lam lands in slot perm^(-1)(i).
    perm = Perm([1, 2, 0])
    lam = ("a", "b", "c")
    assert permute_character(lam, perm) == ("b", "c", "a")
    assert permute_character(lam, tuple(perm)) == ("b", "c", "a")
    for i in range(3):
        assert permute_character(lam, perm)[perm.inverse()[i]] == lam[i]
    # permuting by a then by b is permuting by a * b
    b = Perm([0, 2, 1])
    assert permute_character(permute_character(lam, perm), b) == permute_character(lam, perm * b)


def test_matrix_of_lambda_translates_has_rank_m_factorial():
    n, m = 2, 2
    e = lambda_idempotent(n, m, (0, 1))
    cols = []
    for g in range(group_order(n, m)):
        row = mul_row(n, m, g)
        cols.append({row[h]: c for h, c in e.terms.items()})
    assert _sparse_rank(cols) == 2


def test_left_ideal_dimension_whole_algebra():
    for n, m in [(2, 2), (3, 2)]:
        assert left_ideal_dimension(one(n, m)) == group_order(n, m)


def test_left_ideal_dimension_of_lambda():
    n, m = 2, 3
    for lam in [(0, 0, 0), (0, 0, 1), (1, 1, 1)]:
        assert left_ideal_dimension(lambda_idempotent(n, m, lam)) == 6


def test_left_ideal_complement():
    n, m = 2, 2
    e = lambda_idempotent(n, m, (0, 1))
    assert (
        left_ideal_dimension(e) + left_ideal_dimension(one(n, m) - e)
        == group_order(n, m)
    )


def test_sandwich_dimension_whole_algebra():
    n, m = 2, 2
    assert sandwich_dimension(one(n, m), one(n, m)) == group_order(n, m)


def test_x_and_lambda_supports_are_element_indices():
    n, m = 3, 3
    ident = Perm.identity(m)
    twists = list(product(range(n), repeat=m))
    support = {element_index(WreathElement(n, t, ident)) for t in twists}
    for t in twists:
        assert set(x_monomial(n, m, t).terms) == {element_index(WreathElement(n, t, ident))}
        assert set(lambda_idempotent(n, m, t).terms) == support


def test_rank_cap():
    # |G| = 3840 at (2, 5), above the default rank-check cap of wreath.CAPS
    with pytest.raises(CapExceededError):
        left_ideal_dimension(one(2, 5))
    with pytest.raises(CapExceededError):
        sandwich_dimension(one(2, 5), one(2, 5))
    with pytest.raises(CapExceededError):
        _left_translates(one(2, 5))  # before the first vector


def sandwich_by_group_columns(e, f):
    """Reference for sandwich_dimension: the rank of the |G| columns e * g * f."""
    n, m = e.n, e.m
    return _sparse_rank(
        (e * basis_element(n, m, g) * f).terms for g in range(group_order(n, m))
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2)]), st.data())
def test_sandwich_dimension_matches_group_columns(nm, data):
    n, m = nm
    order = 2 * n
    coeffs = st.builds(
        lambda k, q: zeta_power(order, k) * CycNumber.from_rational(order, q),
        st.integers(0, order - 1),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    indices = st.integers(0, group_order(n, m) - 1)
    e, f = (
        AlgebraElement(n, m, data.draw(st.dictionaries(indices, coeffs, max_size=4)))
        for _ in range(2)
    )
    assert sandwich_dimension(e, f) == sandwich_by_group_columns(e, f)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2)])
def test_sandwich_dimension_matches_group_columns_on_idempotents(n, m):
    idempotents = [terms_to_group(n, m, rational(r.element)) for r in irrep_table(n, m).records]
    for e in idempotents:
        for f in idempotents:
            assert sandwich_dimension(e, f) == sandwich_by_group_columns(e, f)


def test_relation_suite_needs_n_at_least_2():
    with pytest.raises(ValueError, match="n >= 2"):
        verify_defining_relations(1, 3)


RELATION_SIZES = [(2, 2), (2, 3), (3, 2), (4, 2), (3, 3), (2, 4)]


@pytest.mark.parametrize("n, m", RELATION_SIZES)
def test_relation_report_matches_the_group_basis_oracle(n, m):
    assert verify_defining_relations(n, m) == relation_suite_by_group_basis(n, m)


@pytest.fixture
def fresh_generators():
    """Clears the cached group-basis generators before and after a test that
    perturbs their definitions."""
    caches = (y_element, y_inverse_element, z_element)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _y_exponent_off_by_one(lam_star):
    real = relations.y_exponent
    return lambda lam, l: real(lam, l) + (l == 1 and lam == lam_star)


def _z_square_sum_from_1(n, m, l, mono):
    # the z_l^2 double sum with both indices started at 1
    before, after = (0,) * (l - 1), (0,) * (m - l - 1)
    pairs = [(-2 * i * j, mono(before + (i, j) + after)) for i in range(1, n) for j in range(1, n)]
    return pairs[0][1].root_sum(pairs, n)


@pytest.mark.parametrize("n, m", RELATION_SIZES)
@pytest.mark.parametrize(
    "name, perturbed",
    [
        ("y_exponent", lambda m: _y_exponent_off_by_one((1,) * m)),
        ("y_exponent", lambda m: _y_exponent_off_by_one((0,) * (m - 1) + (1,))),
        ("z_square_sum", lambda m: _z_square_sum_from_1),
    ],
    ids=["y_1-off-at-ones", "y_1-off-at-last-slot", "z_square-from-1"],
)
def test_perturbed_relation_reports_match_the_oracle(
    monkeypatch, fresh_generators, n, m, name, perturbed
):
    # the same broken definition reaches the exponent tables and the
    # group-basis elements: both reports fail alike, difference heads included
    monkeypatch.setattr(relations, name, perturbed(m))
    report = verify_defining_relations(n, m)
    assert not report["all_pass"]
    failing = [entry for entry in report["relations"].values() if entry["status"] == "fail"]
    assert "difference_head" in failing[0]["counterexample"]
    assert report == relation_suite_by_group_basis(n, m)


Z_SQUARE = "z_1^2 = (1/n) sum q^(-ij) x_1^i x_2^j"
Z_BRAID = "z_1 z_2 z_1 = z_2 z_1 z_2"


def _y_off_at_ones(m):
    return _y_exponent_off_by_one((1,) * m)


def _s_3_on_slots_1_and_4(n, m, l):
    # s_3 swapping slots 1 and 4, not 3 and 4: z_3 moves x_1 and x_4, so the
    # sides of z_commute and z_braid land on different permutations
    if l != 3:
        return generator_b(n, m, l)
    images = list(range(m))
    images[0], images[3] = 3, 0
    return WreathElement(n, (0,) * m, Perm(images))


@pytest.mark.parametrize(
    "n, m, name, perturbed, family, relation, index, coeffs",
    [
        (3, 2, "y_exponent", _y_off_at_ones(2), "z_square", Z_SQUARE, 0, [["2", "9"], ["-1", "9"]]),
        (
            *(4, 2, "y_exponent", _y_off_at_ones(2), "z_square", Z_SQUARE, 0),
            [["1", "16"], ["0", "1"], ["-1", "16"], ["0", "1"]],
        ),
        (2, 3, "y_exponent", _y_off_at_ones(3), "z_braid", Z_BRAID, 40, [["1", "8"], ["1", "8"]]),
        (3, 2, "z_square_sum", _z_square_sum_from_1, "z_square", Z_SQUARE, 0, [["1", "3"], ["0", "1"]]),
        (
            *(2, 4, "generator_b", _s_3_on_slots_1_and_4, "zx", "z_3 x_1 = x_1 z_3", 336),
            [["1", "4"], ["-1", "4"]],
        ),
    ],
    ids=["y-off-3-2", "y-off-4-2", "y-off-2-3", "z_square-from-1-3-2", "s_3-on-slots-1-4-2-4"],
)
def test_a_failing_relation_reports_its_difference_head(
    monkeypatch, fresh_generators, n, m, name, perturbed, family, relation, index, coeffs
):
    # the first failing family's counterexample, with the JSON of its
    # difference head's coefficient, as the report prints them
    monkeypatch.setattr(relations, name, perturbed)
    report = verify_defining_relations(n, m)
    first = next(f for f, entry in report["relations"].items() if entry["status"] == "fail")
    assert (first, report["relations"][first]) == (
        family,
        {
            "status": "fail",
            "counterexample": {
                "relation": relation,
                "difference_head": {"index": index, "coeff": {"order": 2 * n, "coeffs": coeffs}},
            },
        },
    )


def test_relations_on_two_permutations_report_as_the_oracle(monkeypatch, fresh_generators):
    # every family's head, those whose sides lie on two permutations
    # included, as the group-basis evaluation with the same s_3 finds it
    for module in (relations, group_basis_oracle):
        monkeypatch.setattr(module, "generator_b", _s_3_on_slots_1_and_4)
    s_element.cache_clear()
    try:
        report = verify_defining_relations(2, 4)
        assert report["relations"]["z_commute"]["status"] == "fail"
        assert report == relation_suite_by_group_basis(2, 4)
    finally:
        s_element.cache_clear()


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (4, 2)])
def test_lambda_idempotent_matches_the_product_formula(n, m):
    # each coefficient was zeta^(2 lam . t) times the rational n^-m
    order = 2 * n
    norm = CycNumber.from_rational(order, Fraction(1, n**m))
    for lam in product(range(n), repeat=m):
        expected = {}
        for t in product(range(n), repeat=m):
            dot = sum(a * b for a, b in zip(lam, t))
            index = element_index(WreathElement(n, t, Perm.identity(m)))
            expected[index] = zeta_power(order, 2 * dot) * norm
        assert lambda_idempotent.__wrapped__(n, m, lam).terms == expected


def test_element_json_round_trip():
    n, m = 2, 3
    e = z_element(n, m, 1) * lambda_idempotent(n, m, (0, 1, 0))
    data = e.to_json()
    assert AlgebraElement.from_json(data) == e
    indices = [item["index"] for item in data["terms"]]
    assert indices == sorted(indices)
