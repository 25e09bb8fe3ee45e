import json
from fractions import Fraction

import pytest

from kacpal.algebra import AlgebraElement, lambda_idempotent, s_element
from kacpal.cli import main


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
