"""The mutation catalogue: every exact check of the package, named as the
README names it, with a mutation of the package that it must catch, run
through cli.main (DeMillo, Lipton and Sayward, IEEE Computer 11(4), 1978).

Each row of MUTATIONS gives the check, the mutation (a function of
monkeypatch that replaces one package attribute wherever it is read, the
test oracles included), an argv and the outcome: a str is the one line on
stderr of a run that exits 1 with an empty stdout; a dict is every verdict
of the JSON report (or, for text output, every "check name: fail" and
MISMATCH line) that does not pass, of a run that exits 1 with an empty
stderr, ANY standing for any failure; PASSES is a mutation that the check
must not see: exit 0 and no failing verdict.  A new check adds its failing
row here.  The conftest fixture clears every remembered result of the
package around each row.  The rows hold without asserts in the package: CI
runs this file under python -O too.
"""

import json
from typing import NamedTuple
from unittest.mock import ANY

import pytest

import group_basis_oracle
from cyclotomic_oracle import _make, zeta
from kacpal import character_model, classifier, conjugacy, hopf, partitions, relations, roots, wreath
from kacpal.character_model import Monomial
from kacpal.cli import main
from kacpal.classifier import LabelledPartition
from kacpal.roots import root_count_sum
from kacpal.wreath import Perm


def patch(module, name, wrap):
    """The mutation that replaces module.name by wrap(the real one)."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, wrap(getattr(module, name)))


# -- the mutations of check_model, shared with the differential tests ---------


def _set_permute_character(monkeypatch, replacement):
    # the package's product, the oracle's element product and the model's
    # character moves read it
    for module in (wreath, group_basis_oracle, character_model):
        monkeypatch.setattr(module, "permute_character", replacement)


def _swapped_permute_character(monkeypatch):
    # the product rule reading lam o p^(-1) where it should read lam o p
    real = wreath.permute_character
    _set_permute_character(monkeypatch, lambda lam, p: real(lam, Perm(p).inverse()))


def _unmoved_characters(monkeypatch):
    # permute_character ignoring the permutation: a composition law still holds
    _set_permute_character(monkeypatch, lambda lam, p: tuple(lam))


def _set_lambda_coefficients(monkeypatch, replacement):
    # check_model and character_combination, the change of basis that the
    # product oracle reads, both take the coefficient table of Lambda_lam
    # from their own modules, unremembered, so no element built from the
    # true table survives the replacement.  replacement(n, m, lam) gives
    # the coefficients as CycNumbers; both readers take their pairs.
    def pairs(n, m, lam):
        return [(c.num, c.den) for c in replacement(n, m, lam)]

    for module in (character_model, group_basis_oracle):
        monkeypatch.setattr(module, "lambda_coefficients", pairs)


def _true_coefficients(n, m, lam):
    """The coefficients of Lambda_lam as CycNumbers, from the true pairs."""
    return [_make(2 * n, *pair) for pair in roots.lambda_coefficients(n, m, lam)]


def _lam_star(m):
    return (1,) + (0,) * (m - 1)


def _flipped_fourier_sign(monkeypatch):
    # n^-m sum_t zeta^(-2 lam . t) x^t is Lambda_(-lam)
    _set_lambda_coefficients(
        monkeypatch, lambda n, m, lam: _true_coefficients(n, m, tuple(-v % n for v in lam))
    )


def _one_lambda_off_by_a_root(monkeypatch):
    _set_lambda_coefficients(
        monkeypatch,
        lambda n, m, lam: [
            c * (zeta(2 * n) if lam == _lam_star(m) else 1) for c in _true_coefficients(n, m, lam)
        ],
    )


def _one_coefficient_doubled(monkeypatch):
    # 2 n^-m zeta^k is not n^-m times a root of unity
    def doubled(n, m, lam):
        row = _true_coefficients(n, m, lam)
        return [2 * row[0], *row[1:]] if lam == _lam_star(m) else row

    _set_lambda_coefficients(monkeypatch, doubled)


def _repeated_lambda(monkeypatch):
    # Lambda_(1, 0, ...) replaced by Lambda_0: still idempotent, not orthogonal
    _set_lambda_coefficients(
        monkeypatch,
        lambda n, m, lam: _true_coefficients(n, m, (0,) * m if lam == _lam_star(m) else lam),
    )


# -- the mutations of the Hopf formulas, shared with test_hopf ----------------


def _bumped(table, k, r=1):
    """The exponent table with entry k times zeta^r."""
    entries = list(table.entries)
    entries[k] += r
    return table.model.monomial(table.perm, entries)


def _delta_s1_off(real, a, b):
    # the formula of delta(s_l), with one entry of the table of delta(s_1)
    # off by one in the model
    def perturbed(im, l, delta_z):
        d = real(im, l, delta_z)
        if l == 1 and isinstance(d, Monomial):
            return _bumped(d, a + len(im.chars) * b)
        return d

    return perturbed


def _delta_s1_coboundary(real, f):
    # the formula of delta(s_l), with omega_(s_1) plus the coboundary
    # (delta f)(a, b) = f(a) + f(b) - f(a + b): still a 2-cocycle
    def perturbed(im, l, delta_z):
        d = real(im, l, delta_z)
        if l == 1 and isinstance(d, Monomial):
            size = len(im.chars)
            entries = [
                e + f[k % size] + f[k // size] - f[im.plus[k % size][k // size]]
                for k, e in enumerate(d.entries)
            ]
            return d.model.monomial(d.perm, entries)
        return d

    return perturbed


def _antipode_s1_off(real):
    # the formula of S(s_l), with the entry of character 1 of S(s_1) off by one
    return lambda im, l: _bumped(real(im, l), 1) if l == 1 else real(im, l)


def _group_like_delta_z(real):
    # z_l (x) z_l: respects every relation except the twisted square of z_l
    return lambda im, l: im.tensor(im.z(l), im.z(l))


# -- the catalogue -------------------------------------------------------------


def _sides_with_no_coordinate(real):
    # the z_l^2 sum with one root of unity written as a coefficient off the
    # roots: a table unequal to that of z_l z_l but the same element, so the
    # difference has no head to report
    def rewritten(n, m, l, mono):
        table = real(n, m, l, mono)
        order, entries = table.model.order, list(table.entries)
        a = next(a for a, e in enumerate(entries) if e is not None)
        root = root_count_sum(order, tuple(int(k == entries[a]) for k in range(order)))
        entries[a] = None
        return Monomial(table.model, table.perm, tuple(entries), {a: root})

    return rewritten


def _idempotent_of(spec, replace):
    """The table's idempotent of the labelled partition spec replaced by
    replace(its idempotent, the real character_idempotent)."""
    def wrap(real):
        return lambda beta: replace(real(beta), real) if beta.spec_string() == spec else real(beta)

    return patch(classifier, "character_idempotent", wrap)


def _prefactor_1_as_x_1(real):
    # the z_l^2 sum with its term at i = j = 0 read at x_1 (x) 1
    return lambda n, m, l, mono: real(n, m, l, lambda e: mono(e if any(e) else (1,) + e[1:]))


def _counit_of_two(real):
    # eps(Lambda_0) = 2, every other eps(Lambda_lam) still 0: the exponents
    # of Lambda_0 that check_model reads are counted twice
    return lambda n, m: (real(n, m)[0] * 2, *real(n, m)[1:])


def _s_1_fixing_x_1(real):
    # s_1 x_1 = x_1 s_1 in place of s_1 x_1 = x_2 s_1
    return lambda l, i: i if (l, i) == (1, 1) else real(l, i)


def _negated_signs(real):
    # y = h v with every sign negated: -y
    return lambda mu: (tuple((p, -c) for p, c in real(mu)[0]), real(mu)[1])


def _without_s_square(real):
    return lambda g, one: {**real(g, one), "s_square": []}


def _dropped_s_1(real):
    # conjugation by s_1 replaced by conjugation by 1, the group index 0
    return lambda n, m, l: wreath.element_at(n, m, 0) if l == 1 else real(n, m, l)


def _fail(detail):
    return {"status": "fail", "detail": detail}


def _counterexample(relation):
    return {"status": "fail", "counterexample": {"relation": relation}}


def _model(n, m, lemma, detail):
    return f"the character basis does not model the group algebra at (n={n}, m={m}): {lemma}: {detail}"


COMPOSITION = "permute_character by [1, 0, 2] then s_2 is not by their product"


def _hopf_argv(n, m):
    return ("verify", "--n", str(n), "--m", str(m), "--checks", "hopf")


RELATIONS_3_2 = ("verify", "--n", "3", "--m", "2", "--checks", "relations")
TABLE_2_2 = ("table", "--n", "2", "--m", "2", "--format", "json", "--checks")
PASSES = "passes"


class Row(NamedTuple):
    check: str
    mutate: object
    argv: tuple
    outcome: object


MUTATIONS = {
    # the relation suite
    "y_1 off at lam = (1, 1)": Row(
        "the relation families",
        patch(relations, "y_exponent", lambda real: lambda lam, l: real(lam, l) + (lam == (1, 1))),
        RELATIONS_3_2,
        {"z_square": ANY, "y_order": _counterexample("y_1^3 = 1 with 3 < 6")},
    ),
    "y_l doubled": Row(
        "y_order",
        patch(relations, "y_exponent", lambda real: lambda lam, l: 2 * real(lam, l)),
        ("verify", "--n", "2", "--m", "2", "--checks", "relations"),
        {"z_square": ANY, "y_order": _counterexample("y_1^2 = 1 with 2 < 4")},
    ),
    "z_l^2 with a root written off the roots": Row(
        "a difference with no group-basis coordinate",
        patch(relations, "z_square_sum", _sides_with_no_coordinate),
        ("verify", "--n", "2", "--m", "2", "--checks", "relations"),
        "two exponent tables differ but in no group-basis coordinate",
    ),
    # the lemmas of check_model
    "lam o p^(-1) for lam o p, through the ranks": Row(
        "the composition law",
        _swapped_permute_character,
        ("table", "--n", "2", "--m", "3", "--checks", "ranks"),
        _model(2, 3, "the composition law", COMPOSITION),
    ),
    "lam o p^(-1) for lam o p, through the relations": Row(
        "the composition law",
        _swapped_permute_character,
        ("verify", "--n", "2", "--m", "3", "--checks", "relations"),
        _model(2, 3, "the composition law", COMPOSITION),
    ),
    "characters unmoved": Row(
        "conjugation",
        _unmoved_characters,
        ("verify", "--n", "2", "--m", "2", "--checks", "relations"),
        _model(2, 2, "conjugation", "s_1 Lambda_(1, 0) s_1 is not Lambda_(1, 0)"),
    ),
    "the Fourier sign flipped": Row(
        "the character action",
        _flipped_fourier_sign,
        RELATIONS_3_2,
        _model(3, 2, "the character action", "x Lambda_1 is not zeta^-2 Lambda_1"),
    ),
    "one Lambda off by a root": Row(
        "factorisation",
        _one_lambda_off_by_a_root,
        RELATIONS_3_2,
        _model(3, 2, "factorisation", "Lambda_(0, 1) is not the product of its one-slot idempotents"),
    ),
    "one Lambda off by a root at m = 1": Row(
        "the one-slot idempotents",
        _one_lambda_off_by_a_root,
        ("table", "--n", "3", "--m", "1", "--checks", "idempotency"),
        _model(
            3, 1, "the one-slot idempotents", "Lambda_1 is not n^-1 sum_j zeta^(j r) x^j with n r = 0 mod 2n"
        ),
    ),
    "one coefficient of Lambda doubled": Row(
        "the coefficients of Lambda",
        _one_coefficient_doubled,
        RELATIONS_3_2,
        _model(
            3, 2, "the coefficients of Lambda",
            "Lambda_(1, 0) has CycNumber(6, '2/9') at twist index 0, not n^-m times a root of unity",
        ),
    ),
    "x^t built as x^(-t)": Row(
        "the generator images",
        patch(
            character_model.MonomialModel, "x_monomial", lambda real: lambda self, t: real(self, [-v for v in t])
        ),
        RELATIONS_3_2,
        _model(3, 2, "the generator images", "Phi maps the image of x_1 elsewhere"),
    ),
    # the classification
    "the counting formula one too many": Row(
        "count_formula",
        patch(classifier, "count_formula", lambda real: lambda n, m: real(n, m) + 1),
        ("table", "--n", "2", "--m", "2", "--format", "json"),
        {"count_formula": "fail"},
    ),
    "the group order one too many": Row(
        "sum_dim_sq",
        patch(classifier, "group_order", lambda real: lambda n, m: real(n, m) + 1),
        ("table", "--n", "2", "--m", "2"),
        {"sum_dim_sq": "fail"},
    ),
    "hook dimensions one too many": Row(
        "the dimension formulas",
        patch(classifier, "dimension_by_hooks", lambda real: lambda beta: real(beta) + 1),
        ("verify", "--n", "2", "--m", "2", "--checks", "idempotency"),
        "dimension formulas disagree for LabelledPartition(2, [[], [2]]): 1 != 2",
    ),
    "every hook one longer, in the table": Row(
        "hook-length divisibility",
        patch(classifier, "hook_length", lambda real: lambda mu, r, c: real(mu, r, c) + 1),
        ("table", "--n", "1", "--m", "3"),
        "hook lengths of LabelledPartition(1, [[3]]) do not divide 3!",
    ),
    "every hook one longer, in the tableau count": Row(
        "hook-length divisibility",
        patch(partitions, "hook_length", lambda real: lambda mu, r, c: real(mu, r, c) + 1),
        ("table", "--n", "1", "--m", "3"),
        "hook lengths of Partition([3]) do not divide 3!",
    ),
    "the scale of 0:1,1 doubled": Row(
        "idempotency",
        _idempotent_of("0:1,1", lambda e, real: (e[0], (2 * e[1][0], e[1][1]))),
        (*TABLE_2_2, "idempotency"),
        {"idempotency": "fail"},
    ),
    "every class sum doubled": Row(
        "rank_agreement",
        patch(
            character_model, "stabiliser_classes", lambda real: lambda e: {k: 2 * d for k, d in real(e).items()}
        ),
        (*TABLE_2_2, "ranks"),
        {"rank_agreement": "fail"},
    ),
    "0:2 built as 0:1,1": Row(
        "orthogonality",
        _idempotent_of("0:2", lambda e, real: real(LabelledPartition.parse(2, 2, "0:1,1"))),
        (*TABLE_2_2, "idempotency,ranks,orthogonality"),
        {"orthogonality": "fail"},
    ),
    "the swap of 0:2 dropped": Row(
        "a trace that is not a rank",
        _idempotent_of("0:2", lambda e, real: ({((0, 0), (0, 1)): 1}, e[1])),
        (*TABLE_2_2, "orthogonality"),
        "the trace 2 * 1/4 of an idempotent is not a rank",
    ),
    "the terms of 0:2 on lam = (0, 1)": Row(
        "the stabiliser lemma of the trace ranks",
        _idempotent_of("0:2", lambda e, real: ({((0, 1), p): c for (_, p), c in e[0].items()}, e[1])),
        (*TABLE_2_2, "ranks"),
        "F([0, 1], [1, 0]) is not on one character fixed by its permutation: "
        "the stabiliser lemma of the trace ranks fails",
    ),
    "lambda rotated by one slot": Row(
        "the stabiliser lemma",
        patch(classifier, "lambda_from_beta", lambda real: lambda beta: real(beta)[1:] + real(beta)[:1]),
        ("table", "--n", "2", "--m", "4"),
        "the block permutations of 0:1;1:3 do not fix lambda = [1, 1, 1, 0]: "
        "the stabiliser lemma fails at [0, 1, 3, 2]",
    ),
    "both blocks of 0:2;1:2 on the slots 0, 1": Row(
        "disjoint blocks",
        patch(classifier, "embed_permutation", lambda real: lambda p, offset, m: real(p, 0, m)),
        ("idempotent", "--n", "2", "--m", "4", "--beta", "0:2;1:2"),
        "the blocks of 0:2;1:2 are not on disjoint slots: [1, 0, 2, 3] moves a slot outside 2..3",
    ),
    "the signs of the symmetrizer of [2] negated": Row(
        "von Neumann's lemma",
        patch(classifier, "block_terms", _negated_signs),
        ("table", "--n", "1", "--m", "2", "--checks", "idempotency"),
        "von Neumann's lemma fails for the symmetrizer of [2]: the coefficient of 1 is not 1",
    ),
    "a row group listed twice": Row(
        "R ∩ C = 1",
        patch(partitions, "permutations", lambda real: lambda block: [tuple(block)] * 2),
        ("table", "--n", "1", "--m", "3"),
        "the row and column groups of Partition([3]) meet beyond 1",
    ),
    "conjugation by s_1 left out of the table": Row(
        "conjugacy_count",
        patch(conjugacy, "generator_b", _dropped_s_1),
        (*TABLE_2_2, "conjugacy"),
        {"conjugacy_count": "fail"},
    ),
    "conjugation by s_1 left out of the count": Row(
        "count --checks conjugacy",
        patch(conjugacy, "generator_b", _dropped_s_1),
        ("count", "--n", "2", "--m", "2", "--checks", "conjugacy"),
        {"MISMATCH": "counting formula disagrees with brute-force classes"},
    ),
    # the Hopf report
    "omega_(s_1) off at (2, 1)": Row(
        "coassociativity",
        patch(hopf, "_delta_s_image", lambda real: _delta_s1_off(real, 2, 1)),
        _hopf_argv(3, 2),
        {
            "coassociativity": _fail(
                "(delta x id) delta and (id x delta) delta differ on F((0, 0), [1, 0]) at the term "
                "F((1, 0), [1, 0]) (x) F((1, 0), [1, 0]) (x) F((1, 0), [1, 0])"
            ),
            "antipode": ANY,
            "delta_multiplicative": ANY,
        },
    ),
    "eps(Lambda_0) = 2": Row(
        "counit",
        patch(hopf, "check_model", _counit_of_two),
        _hopf_argv(3, 2),
        {
            "counit": _fail("(eps x id) delta or (id x eps) delta is not the identity on F((0, 0), [0, 1])"),
            "antipode": ANY,
        },
    ),
    "S(s_1) off at character 1": Row(
        "antipode",
        patch(hopf, "_antipode_s_image", _antipode_s1_off),
        _hopf_argv(3, 2),
        {"antipode": _fail("m (S x id) delta or m (id x S) delta is not eps 1 on F((0, 0), [1, 0])")},
    ),
    "delta(z_l) group-like": Row(
        "delta_preserves_relations, delta_multiplicative and the non-cocommutativity witness",
        patch(hopf, "_delta_z_image", _group_like_delta_z),
        _hopf_argv(2, 2),
        {
            "z_1": {"status": "cocommutative"},
            "antipode": ANY,
            "delta_preserves_relations": _fail(["delta(z_1^2 = (1/n) sum q^(-ij) x_1^i x_2^j)"]),
            "delta_multiplicative": _fail("delta(s_1^2 = 1) fails, so delta is not an algebra map"),
        },
    ),
    "the prefactor's term 1 (x) 1 read as x_1 (x) 1": Row(
        "the prefactor of delta(z_l)",
        patch(hopf, "z_square_sum", _prefactor_1_as_x_1),
        _hopf_argv(3, 2),
        "the prefactor of delta(z_1) has the coefficient CycNumber(6, '2/3 + -1/3*z') in the character basis, "
        "which is not a power of zeta_6",
    ),
    "omega_(s_1) plus a coboundary": Row(
        "coassociativity",
        patch(hopf, "_delta_s_image", lambda real: _delta_s1_coboundary(real, [0, 1, 5, 5, 0, 4, 1, 2, 0])),
        _hopf_argv(3, 2),
        PASSES,
    ),
    "s_l^2 = 1 left out": Row(
        "the Coxeter lemma",
        patch(hopf, "coxeter", _without_s_square),
        _hopf_argv(2, 2),
        "the Coxeter relations do not present S_2: at level 2 of the induction, "
        "the enumeration did not close in 10 cosets",
    ),
    "s_1 x_1 = x_1 s_1": Row(
        "the wreath-order lemma",
        patch(relations, "_swap", _s_1_fixing_x_1),
        _hopf_argv(3, 2),
        "the wreath relations do not present Z_3 wr S_2, the enumeration closed at 3 cosets, not 9",
    ),
}


def _failures(out: str) -> dict:
    """Every verdict of the report out that does not pass, by its name."""
    if not out.startswith("{"):
        lines = (line.partition(": ") for line in out.splitlines())
        failed = ((key, value) for key, _, value in lines if value == "fail" or key == "MISMATCH")
        return {key.removeprefix("check "): value for key, value in failed}
    found, stack = {}, [json.loads(out)]
    while stack:
        for key, value in stack.pop().items():
            status = value.get("status") if isinstance(value, dict) else value
            if status in ("fail", "cocommutative"):
                found[key] = value
            elif isinstance(value, dict):
                stack.append(value)
    return found


@pytest.mark.parametrize("row", MUTATIONS)
def test_each_mutation_gives_its_outcome(monkeypatch, capsys, row):
    check, mutate, argv, outcome = MUTATIONS[row]
    mutate(monkeypatch)
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err, check
    if outcome is PASSES:
        assert (code, err, _failures(out)) == (0, "", {}), check
    elif isinstance(outcome, str):
        assert (code, out, err) == (1, "", outcome + "\n"), check
    else:
        assert (code, err) == (1, ""), check
        assert _failures(out) == outcome, check
