import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kacpal.algebra import AlgebraElement, lambda_idempotent, s_element
from kacpal import algebra, character_basis, character_model, classifier, cli
from kacpal.cli import main
from kacpal.cyclotomic import CycNumber
from kacpal.wreath import CheckFailedError, Perm, group_order


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
    code, out, err = run(capsys, "verify", "--n", "2", "--m", "6", "--checks", "ranks")
    assert (code, out) == (2, "")
    assert err == (
        "group order 46080 exceeds rank-check cap 2000; "
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

    # cmd_verify imports the suite from kacpal.algebra when it runs it
    monkeypatch.setattr(algebra, "verify_defining_relations", refuse)
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
    real = character_model.left_ideal_basis
    monkeypatch.setattr(character_model, "left_ideal_basis", lambda e: real(e)[:-1])
    code, out, err = run(capsys, "table", "--n", "2", "--m", "2", "--checks", "ranks")
    assert code == 1
    assert "check rank_agreement: fail" in out
    assert err == ""


def test_model_failure_exits_1(capsys, monkeypatch):
    # The product rule reading lam o p^(-1) where it should read lam o p: the
    # two agree on involutions, so only a 3-cycle (m >= 3) tells them apart.
    real = character_basis.permute_character
    for module in (character_basis, character_model):
        monkeypatch.setattr(module, "permute_character", lambda lam, p: real(lam, Perm(p).inverse()))
    character_model.check_model(2, 2)
    with pytest.raises(CheckFailedError, match="does not model"):
        character_model.check_model(2, 3)
    code, out, err = run(capsys, "table", "--n", "2", "--m", "3", "--checks", "ranks")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "does not model the group algebra" in err
    # the relation suite rests on the same model check
    code, out, err = run(capsys, "verify", "--n", "2", "--m", "3", "--checks", "relations")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "does not model the group algebra at (n=2, m=3): the composition law" in err


def test_verify_checks_the_model_once(capsys):
    # relations, idempotency and hopf all rest on check_model; a process
    # runs its lemmas once per (n, m)
    code, _, _ = run(capsys, "verify", "--n", "2", "--m", "2", "--checks", "relations,idempotency,hopf")
    assert code == 0
    info = character_model.check_model.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_hook_disagreement_exits_1(capsys, monkeypatch):
    real = classifier.dimension_by_hooks
    monkeypatch.setattr(classifier, "dimension_by_hooks", lambda beta: real(beta) + 1)
    code, out, err = run(capsys, "verify", "--n", "2", "--m", "2", "--checks", "idempotency")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "disagree" in err
    assert "Traceback" not in err


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


@st.composite
def algebra_elements(draw):
    """An element at n in 1..5 whose coefficients take a few values, some
    negative, of many digits, or irrational (n >= 2), or the empty element.
    The values share one or two numerator vectors over several
    denominators, so that equal numerators need not mean equal values."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    degree = len(CycNumber.one(2 * n).num)
    digits = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))
    vectors = draw(st.lists(st.lists(digits, min_size=1, max_size=degree), min_size=1, max_size=2))
    value = st.builds(
        lambda nums, den: CycNumber(2 * n, [Fraction(a, den) for a in nums]),
        st.sampled_from(vectors),
        st.one_of(st.integers(1, 4), st.integers(1, 10**12)),
    )
    pool = draw(st.lists(value, min_size=1, max_size=5))
    indices = draw(st.sets(st.integers(0, group_order(n, m) - 1), max_size=30))
    return AlgebraElement(n, m, {ix: draw(st.sampled_from(pool)) for ix in indices})


@settings(max_examples=150, deadline=None)
@given(algebra_elements())
def test_expanded_json_is_the_one_shot_dump(e):
    payload = {"beta": "x", "num_terms": len(e.terms)}
    text = "".join(cli._expanded_json(payload, e))
    assert text == json.dumps(payload | {"element": e.to_json()}, indent=2) + "\n"


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
    them."""
    script = (
        "import sys\n"
        "from kacpal.cli import main\n"
        f"codes = [main([*argv, '--out', {str(tmp_path / 'out')!r}]) for argv in {argvs!r}]\n"
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
    hopf = modules_loaded_by(tmp_path, ("verify", "--n", "2", "--m", "2", "--checks", "hopf"))
    assert "kacpal.hopf" in hopf
    assert not {"kacpal.classifier", "kacpal.partitions", "csv"} & hopf
    relations = modules_loaded_by(
        tmp_path, ("verify", "--n", "2", "--m", "2", "--checks", "relations")
    )
    assert "kacpal.algebra" in relations
    assert not {"kacpal.hopf", "kacpal.classifier", "kacpal.partitions", "csv"} & relations
    count = modules_loaded_by(tmp_path, ("count", "--n", "3", "--m", "4"))
    assert not {
        "kacpal.algebra",
        "kacpal.character_basis",
        "kacpal.classifier",
        "kacpal.conjugacy",
        "kacpal.cyclotomic",
        "kacpal.sparse",
        "csv",
        "json",
    } & count
    # the relation table, the exponent-table model and the ranks are loaded
    # only by the checks that run them, the field only where a value leaves
    # Q, and json only where JSON is written
    checks_only = {"kacpal.relations", "kacpal.character_model", "kacpal.conjugacy"}
    table = modules_loaded_by(
        tmp_path,
        ("table", "--n", "2", "--m", "2"),
        ("table", "--n", "3", "--m", "4", "--format", "csv"),
    )
    assert {"kacpal.classifier", "csv"} <= table
    assert not {"kacpal.algebra", "kacpal.cyclotomic", "json", *checks_only} & table
    expanded = modules_loaded_by(
        tmp_path, ("idempotent", "--n", "2", "--m", "5", "--beta", "1:5", "--expanded")
    )
    assert {"kacpal.classifier", "kacpal.cyclotomic", "json"} <= expanded
    assert not checks_only & expanded
    ranks = modules_loaded_by(tmp_path, ("table", "--n", "2", "--m", "2", "--checks", "ranks"))
    assert "kacpal.character_model" in ranks
    assert "kacpal.relations" not in ranks
    assert "kacpal.relations" in relations and "kacpal.relations" in hopf


def test_no_command_imports_dataclasses_or_inspect(tmp_path):
    # dataclasses brings inspect, ast, dis and tokenize with it, and then
    # compiles a method per field: milliseconds on every start.
    loaded = modules_loaded_by(
        tmp_path,
        ("table", "--n", "2", "--m", "2"),
        ("verify", "--n", "2", "--m", "2"),
        ("idempotent", "--n", "2", "--m", "2", "--beta", "0:2", "--expanded"),
    )
    assert "kacpal.classifier" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_every_exported_name_resolves():
    import kacpal

    for name in kacpal.__all__:
        value = getattr(kacpal, name)
        module = kacpal._MODULE_OF[name]
        assert value is getattr(sys.modules[f"kacpal.{module}"], name), name
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        kacpal.nonexistent
