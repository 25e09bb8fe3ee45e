import json
from fractions import Fraction

import pytest

from kacpal.algebra import AlgebraElement, lambda_idempotent, s_element
from kacpal import character_basis, classifier, cli
from kacpal.cli import main
from kacpal.wreath import CheckFailedError, Perm


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
    code, _, err = run(capsys, "verify", "--n", "2", "--m", "6", "--checks", "ranks")
    assert code == 2
    assert "46080" in err
    assert "ranks" in err


def test_caps_checked_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the relation suite ran before the rank cap was checked")

    monkeypatch.setattr(cli, "verify_defining_relations", refuse)
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
    # a left-ideal basis one row short gives every rank one too few
    real = classifier.left_ideal_basis
    monkeypatch.setattr(classifier, "left_ideal_basis", lambda e: real(e)[:-1])
    code, out, err = run(capsys, "table", "--n", "2", "--m", "2", "--checks", "ranks")
    assert code == 1
    assert "check rank_agreement: fail" in out
    assert err == ""


def test_model_failure_exits_1(capsys, monkeypatch):
    # The product rule reading lam o p^(-1) where it should read lam o p: the
    # two agree on involutions, so only a 3-cycle (m >= 3) tells them apart.
    real = character_basis.permute_character
    monkeypatch.setattr(
        character_basis, "permute_character", lambda lam, p: real(lam, Perm(p).inverse())
    )
    character_basis.check_model(2, 2)
    with pytest.raises(CheckFailedError, match="does not model"):
        character_basis.check_model(2, 3)
    code, out, err = run(capsys, "table", "--n", "2", "--m", "3", "--checks", "ranks")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "does not model the group algebra" in err


def test_hook_disagreement_exits_1(capsys, monkeypatch):
    real = classifier.dimension_by_hooks
    monkeypatch.setattr(classifier, "dimension_by_hooks", lambda beta: real(beta) + 1)
    code, out, err = run(capsys, "verify", "--n", "2", "--m", "2", "--checks", "idempotency")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "disagree" in err
    assert "Traceback" not in err


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
    assert payload["element"] == classifier.idempotent_from_beta(beta).to_json()
    assert out == json.dumps(payload, indent=2) + "\n"
    target = tmp_path / "e.json"
    assert run(capsys, *argv, "--out", str(target))[:2] == (0, "")
    assert target.read_text() == out


def test_expanded_json_of_an_empty_element():
    payload = {"beta": "x", "num_terms": 0}
    empty = AlgebraElement(2, 2, {})
    text = "".join(cli._expanded_json(payload, empty))
    assert text == json.dumps({**payload, "element": empty.to_json()}, indent=2) + "\n"


def test_idempotent_wrong_total(capsys):
    code, _, err = run(capsys, "idempotent", "--n", "2", "--m", "3", "--beta", "0:4")
    assert code == 2
    assert "expected 3" in err


def test_idempotent_malformed_beta(capsys):
    code, _, err = run(capsys, "idempotent", "--n", "2", "--m", "3", "--beta", "nope")
    assert code == 2


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
