import ast
import errno
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from group_basis_oracle import (
    AlgebraElement,
    CharacterElement,
    idempotent_from_beta,
    integer_form,
    lambda_idempotent,
    s_element,
    standard_tableaux,
    symmetric_group,
    to_group,
)
from kacpal import character_model, classifier, cli, relations
from kacpal.cli import main
from kacpal.wreath import group_order


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv_2_3(capsys):
    code, out, _ = run(capsys, "table", "--n", "2", "--m", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta_spec,lambda,dim_formula,dim_hook,dim_rank"
    assert len(lines) == 11
    dims = [int(line.rsplit(",", 3)[1]) for line in lines[1:]]
    assert sorted(dims) == [1, 1, 1, 1, 2, 2, 3, 3, 3, 3]
    assert sum(d * d for d in dims) == 48


def test_table_text_degenerate_n_1(capsys):
    code, out, _ = run(capsys, "table", "--n", "1", "--m", "3")
    assert code == 0
    assert "count = 3" in out
    dims = [
        int(line.split()[-1])
        for line in out.splitlines()
        if line.startswith(("0:", "1:"))
    ]
    assert dims == [1, 2, 1]


# the text layout as the table command printed it before it moved into
# IrrepTable.to_text: a row with no rank ends in its blank rank column
TEXT_TABLES = {
    ("2", "2", None): [
        "irreducible representations for n=2, m=2",
        "beta                    lambda            dim  rank",
        "1:2                     (1,1)               1      ",
        "1:1,1                   (1,1)               1      ",
        "0:1;1:1                 (0,1)               2      ",
        "0:2                     (0,0)               1      ",
        "0:1,1                   (0,0)               1      ",
        "count = 5",
        "sum of squared dimensions = 8",
        "check count_formula: pass",
        "check sum_dim_sq: pass",
    ],
    ("3", "2", "ranks"): [
        "irreducible representations for n=3, m=2",
        "beta                    lambda            dim  rank",
        "2:2                     (2,2)               1     1",
        "2:1,1                   (2,2)               1     1",
        "1:1;2:1                 (1,2)               2     2",
        "1:2                     (1,1)               1     1",
        "1:1,1                   (1,1)               1     1",
        "0:1;2:1                 (0,2)               2     2",
        "0:1;1:1                 (0,1)               2     2",
        "0:2                     (0,0)               1     1",
        "0:1,1                   (0,0)               1     1",
        "count = 9",
        "sum of squared dimensions = 18",
        "check count_formula: pass",
        "check sum_dim_sq: pass",
        "check rank_agreement: pass",
    ],
    ("1", "3", "idempotency,ranks,orthogonality"): [
        "irreducible representations for n=1, m=3",
        "beta                    lambda            dim  rank",
        "0:3                     (0,0,0)             1     1",
        "0:2,1                   (0,0,0)             2     2",
        "0:1,1,1                 (0,0,0)             1     1",
        "count = 3",
        "sum of squared dimensions = 6",
        "check count_formula: pass",
        "check sum_dim_sq: pass",
        "check idempotency: pass",
        "check rank_agreement: pass",
        "check orthogonality: pass",
    ],
}


@pytest.mark.parametrize("n, m, checks", list(TEXT_TABLES))
def test_table_text_layout_is_unchanged(capsys, n, m, checks):
    expected = "\n".join(TEXT_TABLES[n, m, checks]) + "\n"
    argv = ["table", "--n", n, "--m", m] + ([] if checks is None else ["--checks", checks])
    assert run(capsys, *argv) == (0, expected, "")
    flags = {f"check_{c}": True for c in (checks or "").split(",") if c}
    assert classifier.irrep_table(int(n), int(m), **flags).to_text() == expected


def test_table_2_2_json(capsys):
    code, out, _ = run(capsys, "table", "--n", "2", "--m", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["irreps"]) == 5
    assert sum(rec["dimension"] ** 2 for rec in payload["irreps"]) == 8
    assert payload["checks"]["count_formula"] == "pass"


def test_table_with_checks_exit_zero(capsys):
    code, out, _ = run(
        capsys, "table", "--n", "2", "--m", "2", "--format", "json",
        "--checks", "idempotency,ranks,orthogonality,conjugacy",
    )
    assert code == 0
    payload = json.loads(out)
    for name in ("idempotency", "rank_agreement", "orthogonality", "conjugacy_count"):
        assert payload["checks"][name] == "pass"


def test_verify_default_checks(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--m", "3")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"]
    assert report["checks"]["relations"]["all_pass"]
    assert report["checks"]["classification"]["idempotency"] == "pass"


def test_verify_hopf(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--m", "2", "--checks", "hopf")
    assert code == 0
    report = json.loads(out)
    hopf = report["checks"]["hopf"]
    assert hopf["all_pass"]
    assert hopf["non_cocommutativity"]["z_1"]["status"] == "noncocommutative"


def test_verify_rank_cap_exceeded(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--m", "6", "--checks", "ranks")
    assert (code, out) == (2, "")
    assert err == (
        "group order 46080 exceeds rank-check cap 1000; "
        "disable checks: ranks,orthogonality or raise --cap-group-order\n"
    )


@pytest.mark.parametrize(
    "argv,tail",
    [
        (("table", "--n", "1", "--m", "2000"), "1^2000*2000! exceeds enumeration cap 10000; "
         "raise --cap-group-order\n"),
        (("verify", "--n", "2", "--m", "2000"), "2^2000*2000! exceeds relation-suite cap 10000; "
         "disable checks: relations or raise --cap-group-order\n"),
    ],
)
def test_cap_message_names_an_order_too_long_for_decimal(capsys, argv, tail):
    n, m = int(argv[2]), int(argv[4])
    try:
        tail = tail.replace(f"{n}^{m}*{m}!", str(group_order(n, m)))
    except ValueError:  # past the int-to-str digit limit of this interpreter
        pass
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "group order " + tail)


def test_caps_checked_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the relation suite ran before the rank cap was checked")

    # cmd_verify imports the suite from kacpal.relations when it runs it
    monkeypatch.setattr(relations, "verify_defining_relations", refuse)
    code, out, err = run(
        capsys, "verify", "--n", "2", "--m", "5", "--checks", "relations,ranks"
    )
    assert code == 2
    assert out == ""
    assert "ranks" in err


@pytest.mark.parametrize(
    "argv,named",
    [
        (("table", "--n", "2", "--m", "6"), "enumeration cap 10000"),
        (("idempotent", "--n", "2", "--m", "6", "--beta", "0:6"), "enumeration cap 10000"),
        (("verify", "--n", "2", "--m", "6", "--checks", "idempotency"), "idempotency"),
        (("table", "--n", "2", "--m", "6", "--checks", "conjugacy"), "conjugacy"),
    ],
)
def test_enumeration_paths_are_capped(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "46080" in err
    assert named in err


def test_verify_explicit_empty_checks_rejected(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--m", "2", "--checks", ",")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_table_explicit_empty_checks_means_no_extra_checks(capsys):
    code, out, _ = run(capsys, "table", "--n", "2", "--m", "2", "--checks", ",")
    assert code == 0
    assert "check count_formula: pass" in out
    assert "idempotency" not in out


def test_rank_disagreement_is_a_failed_check(capsys, monkeypatch):
    # a trace one short gives every rank one too few
    real = character_model.left_ideal_rank
    monkeypatch.setattr(
        character_model, "left_ideal_rank", lambda classes, scale, m: real(classes, scale, m) - 1
    )
    code, out, err = run(capsys, "table", "--n", "2", "--m", "2", "--checks", "ranks")
    assert code == 1
    assert "check rank_agreement: fail" in out
    assert err == ""


def _replace_idempotent(monkeypatch, spec, replace):
    """The table builds replace(beta, e) for the labelled partition spec,
    whose idempotent is e, and every other idempotent as before."""
    real = classifier.character_idempotent

    def patched(beta):
        e = real(beta)
        return replace(beta, e) if beta.spec_string() == spec else e

    monkeypatch.setattr(classifier, "character_idempotent", patched)


def _plus(e, other):
    """e + other for integer forms (terms, (num, den)): the terms added over
    a shared scale, else over the product of the denominators."""
    (terms, (num, den)), (more, (other_num, other_den)) = e, other
    if (num, den) != (other_num, other_den):
        terms = {key: c * num * other_den for key, c in terms.items()}
        more = {key: c * other_num * den for key, c in more.items()}
        num, den = 1, den * other_den
    total = dict(terms)
    for key, c in more.items():
        total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c}, (num, den)


def _table_checks(capsys, checks):
    code, out, err = run(
        capsys, "table", "--n", "2", "--m", "2", "--checks", checks, "--format", "json"
    )
    assert err == ""
    return code, json.loads(out)


def test_lambda_alone_on_a_block_of_size_2_fails_the_rank(capsys, monkeypatch):
    # F(lam, 1) is idempotent, but A F(lam, 1) has dimension m! = 2, not 1.
    # It is written over the scale 1 / 2 of the block (2), as the table
    # reads an idempotent's verdict from its scale and its blocks
    _replace_idempotent(
        monkeypatch, "0:2", lambda beta, e: ({((0, 0), (0, 1)): 2}, (1, 2))
    )
    code, payload = _table_checks(capsys, "idempotency,ranks")
    assert code == 1
    assert payload["checks"]["idempotency"] == "pass"
    assert payload["checks"]["rank_agreement"] == "fail"
    by_spec = {r["beta"]: r["dim_rank"] for r in payload["irreps"]}
    assert (by_spec["0:2"], by_spec["0:1,1"]) == (2, 1)


def test_a_sum_of_two_orthogonal_idempotents_fails_orthogonality(capsys, monkeypatch):
    # e_(0:2) + e_(0:1,1) is an idempotent of rank 2 that meets e_(0:1,1)
    other = classifier.character_idempotent(classifier.LabelledPartition.parse(2, 2, "0:1,1"))
    _replace_idempotent(monkeypatch, "0:2", lambda beta, e: _plus(e, other))
    code, payload = _table_checks(capsys, "idempotency,orthogonality")
    assert code == 1
    assert payload["checks"]["idempotency"] == "pass"
    assert payload["checks"]["orthogonality"] == "fail"


def test_a_perturbed_idempotent_fails_every_check_that_squares(capsys, monkeypatch):
    # a third of F(lam, 1) added: not idempotent, so no trace is a rank
    _replace_idempotent(
        monkeypatch, "0:1;1:1", lambda beta, e: _plus(e, ({((0, 1), (0, 1)): 1}, (1, 3)))
    )
    code, payload = _table_checks(capsys, "idempotency,ranks,orthogonality")
    assert code == 1
    checks = payload["checks"]
    assert (checks["idempotency"], checks["rank_agreement"], checks["orthogonality"]) == (
        "fail",
        "fail",
        "fail",
    )
    by_spec = {r["beta"]: r["dim_rank"] for r in payload["irreps"]}
    assert by_spec.pop("0:1;1:1") is None
    assert all(isinstance(rank, int) for rank in by_spec.values())


@pytest.mark.parametrize("checks", ["ranks", "orthogonality"])
def test_a_term_off_the_stabiliser_exits_1(capsys, monkeypatch, checks):
    # the transposition moves lam = (0, 1), so the traces do not hold
    _replace_idempotent(
        monkeypatch, "0:1;1:1", lambda beta, e: _plus(e, ({((0, 1), (1, 0)): 1}, (1, 1)))
    )
    code, out, err = run(capsys, "table", "--n", "2", "--m", "2", "--checks", checks)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "the stabiliser lemma of the trace ranks fails" in err


def test_verify_checks_the_model_once(capsys):
    # relations, idempotency and hopf all rest on check_model; a process
    # runs its lemmas once per (n, m)
    code, _, _ = run(capsys, "verify", "--n", "2", "--m", "2", "--checks", "relations,idempotency,hopf")
    assert code == 0
    info = character_model.check_model.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("mutation", ["block one slot off", "lambda reversed"])
def test_stabiliser_lemma_failure_exits_1(capsys, monkeypatch, mutation):
    # The model's product keeps F(lam, s) F(lam, t) only when s fixes lam, so
    # a block permutation that moves lam would be dropped without a word; at
    # (2, 3) the block (2) of 0:2;1:1 placed on the slots 1, 2 and the
    # reversed lam (1, 1, 0) of 0:1;1:2 each move it.  The default table runs
    # no idempotency check, so only the lemma's own check can see them.
    if mutation == "block one slot off":
        real = classifier.embed_permutation
        monkeypatch.setattr(
            classifier, "embed_permutation", lambda p, offset, m: real(p, min(offset + 1, m - len(p)), m)
        )
    else:
        real = classifier.lambda_from_beta
        monkeypatch.setattr(classifier, "lambda_from_beta", lambda beta: real(beta)[::-1])
    code, out, err = run(capsys, "table", "--n", "2", "--m", "3")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "the stabiliser lemma fails" in err


def _sign_flipped(mu, terms, scale):
    # the sign of the transposition (0 1) in the row group
    swap = (0, (1, 0, 2))
    key = next(key for key in terms if (0, tuple(key[1])) == swap)
    return {**terms, key: -terms[key]}, scale


def _prefactor_off_by_one(mu, terms, scale):
    return terms, (scale[0] + 1, scale[1])


def _another_column_group(mu, terms, scale):
    # h v with v the signed sum of the column group of another standard
    # tableau than the row-consecutive one, multiplied by the oracle's
    # keyed product: nothing checks that R and C meet in 1
    k = mu.size
    rows = [range(sum(mu[:r]), sum(mu[:r + 1])) for r in range(len(mu))]
    other = standard_tableaux(mu)[-1]
    columns = [{row[c] - 1 for row in other if c < len(row)} for c in range(mu[0])]
    trivial = (0,) * k

    def keeping(blocks):
        return [p for p in symmetric_group(k) if all({p[i] for i in b} == set(b) for b in blocks)]

    h = CharacterElement(1, k, {(trivial, p): 1 for p in keeping(rows)})
    v = CharacterElement(1, k, {(trivial, p): p.sign() for p in keeping(columns)})
    return {key: int(c) for key, c in (h * v).terms.items()}, scale


# mutation of the symmetrizer of a shape -> (the shape, the run, what stderr
# names, or None when the table reports the failed check).  Each run exits 1.
SYMMETRIZER_MUTATIONS = {
    "one sign of y flipped": (
        _sign_flipped, (2, 1), ("table", "--n", "1", "--m", "3", "--checks", "idempotency"),
        "von Neumann's lemma fails for the symmetrizer of [2, 1]",
    ),
    "the prefactor off by one": (
        _prefactor_off_by_one, (2, 1), ("table", "--n", "2", "--m", "3", "--checks", "idempotency"), None,
    ),
    "another tableau's columns at (2,1)": (
        _another_column_group, (2, 1), ("table", "--n", "1", "--m", "3", "--checks", "idempotency"),
        "von Neumann's lemma fails for the symmetrizer of [2, 1]",
    ),
    "another tableau's columns at (3,2)": (
        _another_column_group, (3, 2), ("verify", "--n", "1", "--m", "5", "--checks", "ranks"),
        "von Neumann's lemma fails for the symmetrizer of [3, 2]",
    ),
}


@pytest.mark.parametrize("mutation", sorted(SYMMETRIZER_MUTATIONS))
def test_a_mutated_symmetrizer_exits_1(capsys, monkeypatch, mutation):
    # the idempotency of every record rests on its blocks' symmetrizers:
    # each mutation fails von Neumann's lemma or the identity coefficient
    mutate, shape, argv, named = SYMMETRIZER_MUTATIONS[mutation]
    real = classifier.young_symmetrizer

    def mutated(mu):
        terms, scale = real(mu)
        return mutate(mu, terms, scale) if mu == shape else (terms, scale)

    monkeypatch.setattr(classifier, "young_symmetrizer", mutated)
    code, out, err = run(capsys, *argv)
    assert code == 1
    if named is None:
        assert "check idempotency: fail" in out and err == ""
    else:
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert named in err


def test_cap_override_allows_more(capsys):
    # order 96 exceeds the tensor cap of 100? no: raise the rank cap instead
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--m", "2", "--checks", "ranks",
        "--cap-group-order", "8",
    )
    assert code == 0


def test_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("KACPAL_CAP", "4")
    code, _, err = run(capsys, "verify", "--n", "2", "--m", "2", "--checks", "relations")
    assert code == 2
    assert "cap 4" in err


def test_env_cap_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("KACPAL_CAP", "many")
    code, _, err = run(capsys, "count", "--n", "2", "--m", "2")
    assert code == 2


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "2", "--m", "2"),
        ("table", "--n", "2", "--m", "2"),
        ("verify", "--n", "2", "--m", "2", "--checks", "hopf"),
        ("idempotent", "--n", "2", "--m", "2", "--beta", "0:2"),
    ],
)
def test_a_cap_below_1_is_bad_input(capsys, monkeypatch, argv, cap):
    # before any work, for every command, from either source
    monkeypatch.setattr(cli, "COMMANDS", {name: (None, *rest) for name, (_, *rest) in cli.COMMANDS.items()})
    code, out, err = run(capsys, *argv, "--cap-group-order", cap)
    assert (code, out, err) == (2, "", f"--cap-group-order must be at least 1, got {cap}\n")
    monkeypatch.setenv("KACPAL_CAP", cap)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"KACPAL_CAP must be at least 1, got {cap}\n")
    # the option wins over the environment, as for any cap
    monkeypatch.setenv("KACPAL_CAP", "many")
    code, out, err = run(capsys, *argv, "--cap-group-order", cap)
    assert err == f"--cap-group-order must be at least 1, got {cap}\n"


def test_count_basic(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--m", "3")
    assert code == 0
    assert out.strip() == "count = 10"


def test_count_2_4(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--m", "4")
    assert code == 0
    assert out.strip() == "count = 20"


def test_count_degenerate(capsys):
    code, out, _ = run(capsys, "count", "--n", "1", "--m", "5")
    assert code == 0
    assert out.strip() == "count = 7"


def test_count_at_large_m(capsys):
    code, out, err = run(capsys, "count", "--n", "1", "--m", "1000")
    assert (code, out, err) == (0, "count = 24061467864032622473692149727991\n", "")
    code, out, _ = run(capsys, "count", "--n", "30", "--m", "30")
    assert (code, out) == (0, "count = 349988092393850120947\n")


def _decimal(value):
    """The decimal of value in chunks of 100 digits, so that no conversion
    meets the interpreter's int-to-str digit limit."""
    chunks = []
    while value >= 10**100:
        value, low = divmod(value, 10**100)
        chunks.append(f"{low:0100d}")
    return str(value) + "".join(reversed(chunks))


def test_count_prints_every_digit(capsys):
    n, m = 10**30, 200
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "count", "--n", str(n), "--m", str(m))
    expected = _decimal(classifier.count_formula(n, m))
    assert len(expected) == 5626
    assert (code, out, err) == (0, f"count = {expected}\n", "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_count_with_conjugacy(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--m", "3", "--checks", "conjugacy")
    assert code == 0
    assert "count = 10" in out
    assert "conjugacy classes = 10" in out


def test_idempotent_matches_table_row(capsys):
    code, out, _ = run(
        capsys, "idempotent", "--n", "2", "--m", "3", "--beta", "0:3", "--expanded"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["lambda"] == [0, 0, 0]
    element = AlgebraElement.from_json(payload["element"])
    n, m = 2, 3
    one = AlgebraElement.one(n, m)
    s1, s2 = s_element(n, m, 1), s_element(n, m, 2)
    expected = (
        lambda_idempotent(n, m, (0, 0, 0))
        * (one + s1 + s2 + s1 * s2 + s2 * s1 + s1 * s2 * s1)
    ).scale(Fraction(1, 6))
    assert element == expected


def test_idempotent_compact_by_default(capsys):
    code, out, _ = run(capsys, "idempotent", "--n", "2", "--m", "3", "--beta", "0:2;1:1")
    assert code == 0
    payload = json.loads(out)
    assert "element" not in payload
    assert payload["num_terms"] == 16


def test_idempotent_sign_block_row(capsys):
    code, out, _ = run(
        capsys, "idempotent", "--n", "2", "--m", "3", "--beta", "0:1,1;1:1", "--expanded"
    )
    assert code == 0
    payload = json.loads(out)
    n, m = 2, 3
    one = AlgebraElement.one(n, m)
    expected = (
        lambda_idempotent(n, m, (0, 0, 1)) * (one - s_element(n, m, 1))
    ).scale(Fraction(1, 2))
    assert AlgebraElement.from_json(payload["element"]) == expected
    assert payload["dimension"] == 3


@pytest.mark.parametrize("n,m,spec", [(2, 3, "0:1,1;1:1"), (3, 2, "0:1;2:1"), (4, 2, "3:2")])
def test_expanded_idempotent_streams_the_whole_payload_bytes(tmp_path, capsys, n, m, spec):
    argv = ["idempotent", "--n", str(n), "--m", str(m), "--beta", spec, "--expanded"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    beta = classifier.LabelledPartition.parse(n, m, spec)
    assert payload["element"] == idempotent_from_beta(beta).to_json()
    assert out == json.dumps(payload, indent=2) + "\n"
    target = tmp_path / "e.json"
    assert run(capsys, *argv, "--out", str(target))[:2] == (0, "")
    assert target.read_text() == out


@st.composite
def one_character_elements(draw):
    """A rational element of the character basis at n in 1..5 whose terms
    lie on one character, as a classification idempotent's do, with
    coefficients of few or many digits, some negative.  The coefficients
    share one or two numerators over several denominators, so that equal
    numerators need not mean equal values."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    lam = tuple(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    digits = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30)).filter(bool)
    numerators = draw(st.lists(digits, min_size=1, max_size=2))
    value = st.builds(
        Fraction,
        st.sampled_from(numerators),
        st.one_of(st.integers(1, 4), st.integers(1, 10**12)),
    )
    perms = draw(st.sets(st.sampled_from(symmetric_group(m)), min_size=1))
    return CharacterElement(n, m, {(lam, p): draw(value) for p in perms})


@settings(max_examples=150, deadline=None)
@given(one_character_elements())
def test_expanded_json_is_the_one_shot_dump(e):
    payload = {"beta": "x", "num_terms": len(e.terms) * e.n**e.m}
    image = to_group(e)
    assert len(image.terms) == payload["num_terms"]
    text = "".join(cli._expanded_json(payload, e.n, e.m, integer_form(e.terms)))
    assert text == json.dumps(payload | {"element": image.to_json()}, indent=2) + "\n"


@pytest.mark.parametrize("n, m", [(1, 4), (2, 3), (3, 2), (4, 2), (2, 4), (3, 3), (5, 2)])
def test_idempotent_writes_the_group_basis_image(capsys, n, m):
    # every idempotent against the oracle's change of basis: the compact
    # payload's num_terms and the expanded element
    for beta in classifier.enumerate_labelled_partitions(n, m):
        spec = beta.spec_string()
        e = idempotent_from_beta(beta)
        payload = {
            "beta": spec,
            "blocks": beta.to_json(),
            "lambda": list(classifier.lambda_from_beta(beta)),
            "dimension": classifier.irrep_dimension(beta),
            "num_terms": len(e.terms),
        }
        argv = ["idempotent", "--n", str(n), "--m", str(m), "--beta", spec]
        assert run(capsys, *argv) == (0, json.dumps(payload, indent=2) + "\n", "")
        expanded = json.dumps(payload | {"element": e.to_json()}, indent=2) + "\n"
        assert run(capsys, *argv, "--expanded") == (0, expanded, ""), spec


def test_idempotent_wrong_total(capsys):
    code, _, err = run(capsys, "idempotent", "--n", "2", "--m", "3", "--beta", "0:4")
    assert code == 2
    assert "expected 3" in err


def test_idempotent_malformed_beta(capsys):
    code, _, err = run(capsys, "idempotent", "--n", "2", "--m", "3", "--beta", "nope")
    assert code == 2
    # an empty part between commas is malformed; "label:" is an empty block
    for spec in ("0:2,,", "0:,2", "x:2", "0:a"):
        code, out, err = run(capsys, "idempotent", "--n", "2", "--m", "2", "--beta", spec)
        assert (code, out) == (2, "")
        assert err == f"malformed labelled-partition entry: {spec!r}\n"
    code, out, err = run(capsys, "idempotent", "--n", "2", "--m", "2", "--beta", "0:2;1:")
    assert (code, err) == (0, "")
    assert json.loads(out)["beta"] == "0:2"


def test_unknown_check_rejected(capsys):
    code, _, err = run(capsys, "verify", "--n", "2", "--m", "2", "--checks", "sorcery")
    assert code == 2
    assert "unknown check" in err


@pytest.mark.parametrize(
    "argv, check",
    [
        (("table", "--n", "2", "--m", "2", "--checks", "hopf,relations"), "'hopf'"),
        (("count", "--n", "2", "--m", "2", "--checks", "ranks"), "'ranks'"),
    ],
)
def test_checks_the_command_does_not_run_are_rejected(capsys, argv, check):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert check in err and argv[0] in err


@pytest.mark.parametrize("checks", [(), ("--checks", "hopf")])
def test_verify_at_n_1_needs_n_2(capsys, checks):
    code, out, err = run(capsys, "verify", "--n", "1", "--m", "3", *checks)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "needs n >= 2" in err


def test_hopf_at_m_1_needs_m_2(capsys):
    # At m = 1 there is no z_l, so no non-cocommutativity witness exists.
    code, out, err = run(capsys, "verify", "--n", "2", "--m", "1", "--checks", "hopf")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "needs m >= 2" in err


def test_table_checks_at_n_1_run_in_the_rational_field(capsys):
    code, out, _ = run(
        capsys, "table", "--n", "1", "--m", "3", "--checks", "ranks,orthogonality,idempotency"
    )
    assert code == 0
    for check in ("idempotency", "rank_agreement", "orthogonality"):
        assert f"check {check}: pass" in out


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("tables", "--n", "2", "--m", "2"),
        ("table", "--n", "2", "--m", "2", "--colour", "red"),
        ("table", "--n", "x", "--m", "2"),
        ("table", "--n", "2", "--m", "2", "--format", "xml"),
        ("table", "--n", "2"),
        ("idempotent", "--n", "2", "--m", "2"),
        # an option is named in full: no prefix stands for it
        ("table", "--n", "2", "--m", "2", "--form", "csv"),
    ],
    ids=[
        "no-command",
        "unknown-command",
        "unknown-option",
        "not-an-integer",
        "unknown-format",
        "missing-m",
        "missing-beta",
        "prefix",
    ],
)
def test_a_usage_error_is_one_line_and_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.endswith("\n"), err


def test_an_option_takes_its_value_after_an_equals_sign_and_the_last_one_wins(capsys):
    expected = run(capsys, "table", "--n", "2", "--m", "2", "--format", "csv")
    assert expected[0] == 0
    assert run(capsys, "table", "--n=2", "--m=2", "--format=csv") == expected
    repeated = ("table", "--n", "3", "--format", "json", "--m", "2", "--n=2", "--format", "csv")
    assert run(capsys, *repeated) == expected


def test_help_names_the_commands_and_the_options_of_a_command(capsys):
    # kacpal.usage, loaded by -h and --help alone, writes it
    code, out, err = run(capsys, "-h")
    assert (code, err) == (0, "")
    for command in ("table", "verify", "idempotent", "count"):
        assert f"\n  {command} " in out
    code, out, err = run(capsys, "table", "--help")
    assert (code, err) == (0, "")
    for option in ("--n", "--m", "--cap-group-order", "--out", "--format", "--checks"):
        assert f"\n  {option} " in out
    assert "--beta" not in out


def test_invalid_parameters(capsys):
    code, _, err = run(capsys, "count", "--n", "0", "--m", "3")
    assert code == 2


def test_output_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--n", "2", "--m", "3", "--format", "json")
    _, second, _ = run(capsys, "table", "--n", "2", "--m", "3", "--format", "json")
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "table", "--n", "2", "--m", "2", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("beta_spec,")


def test_duplicate_label_rejected_even_when_first_block_empty(capsys):
    code, _, err = run(capsys, "idempotent", "--n", "2", "--m", "3", "--beta", "0:;0:3")
    assert code == 2
    assert "given twice" in err


def test_out_unwritable_exits_2_without_traceback(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "count", "--n", "2", "--m", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not target.exists()


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_closed_pipe_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        code = main(["idempotent", "--n", "2", "--m", "2", "--beta", "0:2", "--expanded"])
        # what is still buffered goes to devnull
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "pipe" in err and "Traceback" not in err


SRC = str(Path(__file__).resolve().parents[1] / "src")
# the environment of a fresh interpreter, with this checkout's kacpal first
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
}


def test_a_reader_that_closes_the_pipe_gets_no_traceback():
    # About 1 MB of output, far past a pipe's buffer, so the reader's close
    # meets writes still to come and the buffer flushed at exit.
    argv = ["idempotent", "--n", "2", "--m", "5", "--beta", "1:5", "--expanded"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "kacpal", *argv],
        env=CHILD_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert len(err.strip().splitlines()) == 1
    assert "pipe" in err and "Traceback" not in err


def test_a_reader_gone_before_the_final_flush_gets_exit_2():
    # Buffered, the small table waits in stdout until run() flushes it, and
    # the pipe's read end is closed before the child starts.
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "kacpal", "table", "--n", "3", "--m", "3", "--format", "csv"],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == b"cannot write the output: the reader closed the pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--n", "2", "--m", "2"),
        ("count", "--n", "2", "--m", "2"),
        ("verify", "--n", "2", "--m", "2"),
        ("idempotent", "--n", "2", "--m", "2", "--beta", "0:2", "--expanded"),
        # about 100 KB, past stdout's buffer, so the write fails inside main
        ("idempotent", "--n", "2", "--m", "4", "--beta", "0:4", "--expanded"),
        ("--help",),
        ("table", "--help"),
    ],
)
def test_a_full_device_gets_exit_2(argv):
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "kacpal", *argv],
            env=CHILD_ENV,
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        # a stderr on the full device too cannot take the message, and
        # changes nothing else
        silent = subprocess.run(
            [sys.executable, "-m", "kacpal", *argv], env=CHILD_ENV, stdout=full, stderr=full, timeout=120
        )
    assert done.returncode == 2
    assert done.stderr == "cannot write the output: No space left on device\n"
    assert silent.returncode == 2


class CountingStdout(io.StringIO):
    """A stdout that counts the pieces it is handed."""

    pieces = 0

    def write(self, text):
        self.pieces += 1
        return super().write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def test_the_expanded_idempotent_is_written_in_64_kib_pieces(monkeypatch):
    # about 1 MB in 3840 terms, which were once handed over one at a time
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["idempotent", "--n", "2", "--m", "5", "--beta", "1:5", "--expanded"]) == 0
    text = stdout.getvalue()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert stdout.pieces <= math.ceil(len(text.encode()) / 65536) + 1


def test_a_profiler_still_reports_at_exit():
    # run() ends the process without the interpreter's teardown only when no
    # profiler or tracer waits to write its report at exit
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "kacpal", "count", "--n", "1", "--m", "1"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("count = 1\n")
    assert "function calls" in done.stdout and "Ordered by" in done.stdout


def test_main_in_process_returns_its_code():
    script = (
        "from kacpal.cli import main\n"
        "codes = [main(['count', '--n', '1', '--m', '1']), main(['count', '--n', '0', '--m', '1'])]\n"
        "print('returned', codes)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "count = 1\nreturned [0, 2]\n"
    assert done.stderr == "need --n >= 1 and --m >= 1\n"


def modules_loaded_by(tmp_path, *argvs) -> set:
    """sys.modules after the CLI calls, one after another in a fresh
    interpreter, each of which must pass; json is imported only to report
    them.  What a call writes to stdout, the help, is dropped."""
    script = (
        "import contextlib, io, sys\n"
        "from kacpal.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main([*argv, '--out', {str(tmp_path / 'out')!r}]) for argv in {argvs!r}]\n"
        "loaded = list(sys.modules)\n"
        "import json\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV, timeout=120
    )
    assert done.returncode == 0, done.stderr
    codes, modules = json.loads(done.stdout)
    assert codes == [0] * len(argvs)
    return set(modules)


def test_each_command_imports_only_what_it_runs(tmp_path):
    # no command builds a group-basis element: a check that passes on
    # exponent tables reads sums of roots as the integer pairs of kacpal.roots
    elements = {"kacpal.algebra"}
    hopf = modules_loaded_by(tmp_path, ("verify", "--n", "2", "--m", "2", "--checks", "hopf"))
    assert "kacpal.hopf" in hopf
    assert not {"kacpal.classifier", "kacpal.partitions", "csv"} & hopf
    suite = modules_loaded_by(tmp_path, ("verify", "--n", "2", "--m", "2", "--checks", "relations"))
    assert {"kacpal.relations", "kacpal.roots"} <= suite
    assert not {"kacpal.hopf", "kacpal.classifier", "kacpal.partitions", "csv", *elements} & suite
    count = modules_loaded_by(tmp_path, ("count", "--n", "3", "--m", "4"))
    assert not {
        "kacpal.algebra",
        "kacpal.classifier",
        "kacpal.conjugacy",
        "kacpal.roots",
        "csv",
        "json",
        "fractions",
        "decimal",
        "kacpal.usage",
    } & count
    # the relation table, the exponent-table model and the ranks are loaded
    # only by the checks that run them, and json only where JSON is written;
    # the idempotents are built in integer form, with no model, and the CSV
    # is written without the csv module
    checks_only = {"kacpal.relations", "kacpal.character_model", "kacpal.conjugacy", "kacpal.hopf"}
    no_field = {"fractions", "decimal"}
    table = modules_loaded_by(
        tmp_path,
        ("table", "--n", "2", "--m", "2"),
        ("table", "--n", "3", "--m", "4", "--format", "csv"),
    )
    assert "kacpal.classifier" in table
    assert not {"kacpal.roots", "json", "csv", "kacpal.usage", *no_field, *elements, *checks_only} & table
    # idempotent writes its group-basis coordinates as the integer pairs of
    # kacpal.roots: no group-basis element
    for extra in ((), ("--expanded",)):
        idempotent = modules_loaded_by(
            tmp_path, ("idempotent", "--n", "2", "--m", "5", "--beta", "1:5", *extra)
        )
        assert {"kacpal.classifier", "json"} <= idempotent
        assert not {*no_field, *elements, *checks_only} & idempotent
    assert "kacpal.roots" in idempotent
    ranks = modules_loaded_by(
        tmp_path,
        ("table", "--n", "2", "--m", "2", "--checks", "ranks,orthogonality,idempotency"),
        ("table", "--n", "2", "--m", "3", "--checks", "ranks", "--format", "csv"),
    )
    assert {"kacpal.character_model", "kacpal.roots"} <= ranks
    assert not {"kacpal.relations", *no_field, *elements} & ranks
    assert "kacpal.relations" in suite and "kacpal.relations" in hopf
    # checks that pass on exponent tables build no element and load no
    # fractions (nor decimal, which it brings)
    hopf = modules_loaded_by(tmp_path, ("verify", "--n", "3", "--m", "2", "--checks", "hopf"))
    assert {"kacpal.hopf", "kacpal.character_model", "kacpal.roots"} <= hopf
    assert not {
        "kacpal.classifier",
        "kacpal.partitions",
        "fractions",
        "decimal",
        *elements,
    } & hopf
    suite = modules_loaded_by(tmp_path, ("verify", "--n", "2", "--m", "4", "--checks", "relations"))
    assert {"kacpal.relations", "kacpal.roots"} <= suite
    unused = {"kacpal.classifier", "fractions"}
    assert not {*unused, *elements} & suite
    # the default checks, the relation suite and the idempotency of each
    # block shape
    default = modules_loaded_by(tmp_path, ("verify", "--n", "3", "--m", "3"))
    assert {"kacpal.relations", "kacpal.classifier", "kacpal.roots"} <= default
    assert not {*no_field, *elements} & default


# One passing run of each command, each check and each table format, and
# of the help; the help goes to stdout whatever --out says.
PASSING_RUNS = (
    ("count", "--n", "2", "--m", "2", "--checks", "conjugacy"),
    ("table", "--n", "2", "--m", "2", "--checks", "idempotency,ranks,orthogonality,conjugacy"),
    ("table", "--n", "2", "--m", "2", "--checks", "idempotency", "--format", "csv"),
    ("table", "--n", "2", "--m", "2", "--checks", "ranks", "--format", "json"),
    ("verify", "--n", "2", "--m", "2", "--checks", "relations,idempotency,ranks,orthogonality,hopf"),
    ("idempotent", "--n", "2", "--m", "2", "--beta", "0:2"),
    ("idempotent", "--n", "2", "--m", "2", "--beta", "0:2", "--expanded"),
    ("--help",),
    ("table", "-h"),
)

# The functions of the package that no passing run calls, each with the
# test that drives it: failure paths, the process entry, the reprs, and the
# witness that the acceptance criteria gate.
CALLED_BY_TESTS_ONLY = {
    "character_model.Monomial.is_zero": "test_character_basis.py::test_root_sums_that_cancel_have_no_coefficient",
    "character_model.MonomialModel.fail": "test_character_basis.py::test_a_broken_model_fails_its_lemma",
    "hopf._CharacterHopf.name": "test_hopf.py::test_perturbed_cocycle_fails",
    "hopf._CharacterHopf.relation_failures": "test_hopf.py::test_relation_check_on_tables_matches_the_dense_oracle",
    "roots.coefficient_repr": "test_roots.py::test_coefficient_repr_is_the_field_repr",
    "cli.run": "test_cli.py::test_a_reader_gone_before_the_final_flush_gets_exit_2",
    "cli._stdout_failed": "test_cli.py::test_closed_pipe_exits_2_without_traceback",
    "cli._warn": "test_cli.py::test_idempotent_malformed_beta",
    "cli._observed": "test_cli.py::test_a_profiler_still_reports_at_exit",
    "classifier.LabelledPartition.__repr__": "test_values.py::test_a_value_repr_names_its_type_and_fields",
    "partitions.Partition.__repr__": "test_values.py::test_a_value_repr_names_its_type_and_fields",
    "wreath.Perm.__repr__": "test_values.py::test_a_value_repr_names_its_type_and_fields",
    "wreath.WreathElement.__repr__": "test_values.py::test_a_value_repr_names_its_type_and_fields",
    "hopf.cocommutativity_witness": "test_acceptance.py::test_criterion_5_witness_at_2_6_within_1_5s",
}


def package_modules() -> dict:
    """The path of each module of the package but __init__ and __main__."""
    paths = {path.stem: path for path in (Path(SRC) / "kacpal").glob("*.py")}
    return {name: path for name, path in paths.items() if name not in ("__init__", "__main__")}


def test_every_package_module_serves_a_command(tmp_path):
    # one passing run of each command and each check loads, between them,
    # every module of the package: none is kept for the tests alone
    loaded = modules_loaded_by(tmp_path, *PASSING_RUNS)
    package = {f"kacpal.{name}" for name in package_modules()}
    assert {name for name in loaded if name.startswith("kacpal.")} == package


def defined_functions() -> dict:
    """module.qualname of every function and method that a module of the
    package defines at its top level or in a top-level class, keyed by
    (module, the first line of its code: its first decorator or its def); a
    nested function runs with the function that defines it."""
    names = {}

    def add(module, node, qualname):
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        names[module, first] = f"{module}.{qualname}"

    for module, path in package_modules().items():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                add(module, node, node.name)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        add(module, item, f"{node.name}.{item.name}")
    return names


def code_called_by(tmp_path, *argvs) -> set:
    """(module, first line) of the code of every function of the package
    called by the CLI calls, one after another under a profile hook in a
    fresh interpreter, each of which must pass.  What a call writes to
    stdout, the help, is dropped."""
    script = (
        "import contextlib, io, os, sys\n"
        f"package = os.path.realpath(os.path.join({SRC!r}, 'kacpal')) + os.sep\n"
        "called = set()\n"
        "def hook(frame, event, arg):\n"
        "    code = frame.f_code\n"
        "    if event == 'call' and os.path.realpath(code.co_filename).startswith(package):\n"
        "        called.add((os.path.basename(code.co_filename)[:-3], code.co_firstlineno))\n"
        "sys.setprofile(hook)\n"
        "from kacpal.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main([*argv, '--out', {str(tmp_path / 'out')!r}]) for argv in {argvs!r}]\n"
        "sys.setprofile(None)\n"
        "import json\n"
        "print(json.dumps([codes, sorted(called)]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV, timeout=300
    )
    assert done.returncode == 0, done.stderr
    codes, called = json.loads(done.stdout)
    assert codes == [0] * len(argvs)
    return {tuple(code) for code in called}


def test_every_package_function_serves_a_command_or_a_named_test(tmp_path):
    # each function of the package is called by a passing run, or is on the
    # list above with the test that drives it: none is kept for tests alone
    defined = defined_functions()
    called = code_called_by(tmp_path, *PASSING_RUNS)
    assert {name for code, name in defined.items() if code not in called} == set(
        CALLED_BY_TESTS_ONLY
    )
    tests = Path(__file__).resolve().parent
    for test in set(CALLED_BY_TESTS_ONLY.values()):
        filename, name = test.split("::")
        assert f"def {name}(" in (tests / filename).read_text(), test


# Each failing run in a fresh interpreter: the setup that breaks one check,
# its command line, and the message it must exit 1 with (None for a relation,
# which is reported in the JSON instead).
FAILING_RUNS = {
    "relation": (
        "from kacpal import relations\n"
        "real = relations.y_exponent\n"
        "relations.y_exponent = lambda lam, l: real(lam, l) + (lam == (1, 1))\n",
        ("verify", "--n", "3", "--m", "2", "--checks", "relations"),
        None,
    ),
    # the prefactor of delta(z_1) with its first coefficient 2 zeta^(k + 1)
    "hopf-prefactor": (
        "from kacpal import hopf\n"
        "from kacpal.character_model import Monomial\n"
        "from kacpal.roots import _x_power\n"
        "real = hopf.z_square_sum\n"
        "def doubled(n, m, l, mono):\n"
        "    prefactor = real(n, m, l, mono)\n"
        "    if not isinstance(prefactor, Monomial):\n"
        "        return prefactor\n"
        "    entries, order = prefactor.entries, prefactor.model.order\n"
        "    pair = (tuple(2 * c for c in _x_power(order, (entries[0] + 1) % order)), 1)\n"
        "    return Monomial(prefactor.model, prefactor.perm, (None, *entries[1:]), {0: pair})\n"
        "hopf.z_square_sum = doubled\n",
        ("verify", "--n", "3", "--m", "2", "--checks", "hopf"),
        "the prefactor of delta(z_1) has the coefficient CycNumber(6, '2*z') in the character "
        "basis, which is not a power of zeta_6\n",
    ),
    # the first coefficient of Lambda_(1, 0), 2 n^-m: no root of unity over n^m
    "lambda-coefficient": (
        "from kacpal import character_model\n"
        "real = character_model.lambda_coefficients\n"
        "def doubled(n, m, lam):\n"
        "    (num, den), *rest = real(n, m, lam)\n"
        "    first = (tuple(2 * c for c in num), den) if lam == (1, 0) else (num, den)\n"
        "    return [first, *rest]\n"
        "character_model.lambda_coefficients = doubled\n",
        ("verify", "--n", "3", "--m", "2", "--checks", "relations"),
        "the character basis does not model the group algebra at (n=3, m=2): the coefficients "
        "of Lambda: Lambda_(1, 0) has CycNumber(6, '2/9') at twist index 0, not n^-m times a "
        "root of unity\n",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILING_RUNS))
def test_a_failing_check_loads_no_element_and_no_field(tmp_path, case):
    # a failing relation's group-basis head is read from the two exponent
    # tables as an integer pair, and a failed model or Hopf check writes its
    # coefficient from its pair: a failure builds no element and no Fraction
    setup, argv, message = FAILING_RUNS[case]
    out = tmp_path / "out"
    script = (
        "import contextlib, io, sys\n"
        f"{setup}"
        "from kacpal.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    code = main([*{argv!r}, '--out', {str(out)!r}])\n"
        "loaded = list(sys.modules)\n"
        "import json\n"
        "print(json.dumps([code, err.getvalue(), loaded]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV, timeout=120
    )
    assert done.returncode == 0, done.stderr
    code, err, loaded = json.loads(done.stdout)
    assert code == 1
    if message is None:
        z_square = json.loads(out.read_text())["checks"]["relations"]["relations"]["z_square"]
        assert z_square["counterexample"]["difference_head"]["index"] == 0
    else:
        assert err == message
    assert {"kacpal.relations", "kacpal.roots"} <= set(loaded)
    assert not {"kacpal.classifier", "fractions", "decimal"} & set(loaded)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "setup, argv, code",
    [
        ("", ("table", "--n", "2", "--m", "0"), 2),
        ("", ("verify", "--n", "2", "--m", "9", "--checks", "hopf"), 2),
        ("", ("idempotent", "--n", "2", "--m", "2", "--beta", "0:x"), 2),
        ("", ("verify", "--n", "3", "--m", "2", "--checks", "hopf"), 0),
        (FAILING_RUNS["hopf-prefactor"][0], ("verify", "--n", "3", "--m", "2", "--checks", "hopf"), 1),
    ],
    ids=["bad-input", "cap", "bad-beta", "pass", "failed-check"],
)
def test_an_unwritable_stderr_keeps_the_exit_code(setup, argv, code):
    # the one-line message that cannot be written is dropped: bad input, a
    # cap and a failed output still exit 2, a failed check 1 and a pass 0
    script = f"import sys\n{setup}from kacpal.cli import run\nsys.argv = ['kacpal', *{argv!r}]\nrun()\n"
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-c", script], env=CHILD_ENV, stdout=subprocess.DEVNULL, stderr=full, timeout=120
        )
    assert done.returncode == code


def test_no_command_imports_dataclasses_or_inspect(tmp_path):
    # dataclasses brings inspect, ast, dis and tokenize with it, and then
    # compiles a method per field: milliseconds on every start.
    loaded = modules_loaded_by(
        tmp_path,
        ("table", "--n", "2", "--m", "2"),
        ("count", "--n", "2", "--m", "2"),
        ("verify", "--n", "2", "--m", "2"),
        ("idempotent", "--n", "2", "--m", "2", "--beta", "0:2", "--expanded"),
    )
    assert "kacpal.classifier" in loaded
    # argparse brings gettext and locale, and builds its parsers on every
    # call; no module needs postponed annotations, so none loads __future__
    assert not {"dataclasses", "inspect", "argparse", "gettext", "locale", "__future__"} & loaded


def test_every_exported_name_resolves():
    import kacpal

    for name in kacpal.__all__:
        value = getattr(kacpal, name)
        module = kacpal._MODULE_OF[name]
        assert value is getattr(sys.modules[f"kacpal.{module}"], name), name
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        kacpal.nonexistent
