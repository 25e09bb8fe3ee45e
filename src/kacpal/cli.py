"""Command-line front end: tables, verification suites, idempotents, counts.

Each handler imports the modules it runs when it runs, so a call loads only
what its command and checks need.  `table` and `idempotent` load neither
the relation table (kacpal.relations) nor the exponent-table model and its
ranks (kacpal.character_model): `idempotent --expanded` writes the
group-basis coordinates of an idempotent built in the character basis as
the integer pairs of kacpal.roots.  The checks on exponent tables (`verify`
with its default checks, `--checks hopf` and the classification checks)
read sums of roots as those pairs, and a failed check names a coefficient
from its pair; `--checks hopf` also leaves out the classifier and
fractions, and `--checks relations` the Hopf module, the classifier and
fractions, whether a check passes or fails: a failing relation's
counterexample is read from its exponent tables.  A classification
idempotent is a plain map {(lam, sigma): c}, built and squared by
wreath.character_product, so `table` without checks loads no model either.
`count` loads neither the classifier nor fractions; only the conjugacy
check loads kacpal.conjugacy, and only the commands that write JSON load
json.  With no byte code cached, compiling the modules a call loads is a
large part of its time.

main(argv) is the in-process API: it returns the exit code.  run() is the
process entry of the kacpal script and of python -m kacpal.  It flushes
stdout and stderr itself and then ends the process with os._exit, which
skips the interpreter's teardown, unless a tracer, a profiler or a
monitoring tool is attached, whose report is written at exit.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import suppress

from .wreath import CapExceededError, CheckFailedError, check_cap

KNOWN_CHECKS = ("relations", "idempotency", "ranks", "orthogonality", "hopf", "conjugacy")
TABLE_CHECKS = ("idempotency", "ranks", "orthogonality", "conjugacy")
DEFAULT_VERIFY_CHECKS = ("relations", "idempotency")

# Every check, and every command whose own cost grows with |G|, against
# (its cap's name in wreath.CAPS, checks to disable instead).
CAPS = {
    "relations": ("relation-suite", "relations"),
    "idempotency": ("enumeration", "idempotency"),
    "ranks": ("rank-check", "ranks,orthogonality"),
    "orthogonality": ("rank-check", "ranks,orthogonality"),
    "hopf": ("tensor-square", "hopf"),
    "conjugacy": ("conjugacy", "conjugacy"),
    "table": ("enumeration", None),
    "idempotent": ("enumeration", None),
}


def _parse_checks(text: str | None, command: str) -> tuple[str, ...]:
    if text is None:
        return DEFAULT_VERIFY_CHECKS if command == "verify" else ()
    checks = tuple(c.strip() for c in text.split(",") if c.strip())
    runs = COMMANDS[command][1]
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise ValueError(f"unknown check {c!r}; known: {', '.join(KNOWN_CHECKS)}")
        if c not in runs:
            raise ValueError(f"{command} does not run the {c!r} check; it runs: {', '.join(runs)}")
    if command == "verify" and not checks:
        raise ValueError(f"verify --checks needs at least one of: {', '.join(KNOWN_CHECKS)}")
    return checks


def _check_caps(args, names):
    """Refuse the run, before any work, if one of the named checks or
    commands exceeds its cap."""
    for name in names:
        if name not in CAPS:
            continue
        what, disable = CAPS[name]
        try:
            check_cap(args.n, args.m, what, args.cap)
        except CapExceededError as exc:
            hint = f"disable checks: {disable} or raise" if disable else "raise"
            raise CapExceededError(f"{exc}; {hint} --cap-group-order") from None


def _emit(args, text: str | Iterable[str]):
    """Write the output, given whole or as pieces written as they come."""
    pieces = (text,) if isinstance(text, str) else text
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.writelines(pieces)


def _json(value) -> str:
    """The JSON document of value with the command's layout; json is loaded
    only by the commands that write it."""
    import json

    return json.dumps(value, indent=2) + "\n"


def _expanded_json(payload: dict, n: int, m: int, e: dict) -> Iterator[str]:
    """``json.dumps(payload | {"element": Phi(e).to_json()}, indent=2) + "\\n"``
    in pieces, one term at a time, so that the peak memory of an expanded
    idempotent does not grow with its number of terms.

    e is a classification idempotent at (n, m) in the character basis, the
    map {(lam, sigma): c}: every term c F(lam, sigma) lies on its one lam,
    and Phi maps it to c Lambda_lam sigma, whose coordinate at index
    perm_index(sigma) n^m + t is c zeta^(2 lam . t) / n^m, the pair t of
    roots.lambda_coefficients times the rational c.  Each coefficient of
    Lambda_lam and each c is nonzero, and the sigma differ, so no two terms
    share an index and nothing cancels.  A term sits three levels deep and
    its coefficient four.  The coefficients share one order, so (den, num)
    is each one's value and fixes its JSON: each distinct value is encoded
    once.
    """
    import json

    from .roots import coefficient_json, lambda_coefficients, reduced
    from .wreath import perm_index

    order, size = 2 * n, n**m
    shell = json.dumps({**payload, "element": {"n": n, "m": m, "terms": []}}, indent=2)
    head, tail = shell.rsplit('"terms": []', 1)
    encode = json.JSONEncoder(indent=2).encode
    pairs = lambda_coefficients(n, m, next(iter(e))[0])
    texts: dict = {}
    yield head + '"terms": ['
    sep = ""
    for base, c in sorted((perm_index(sigma) * size, c) for (_, sigma), c in e.items()):
        a, b = c.numerator, c.denominator
        for index, (num, den) in enumerate(pairs, base):
            num, den = reduced(tuple([a * x for x in num]), den * b)
            text = texts.get((den, num))
            if text is None:
                # its strings hold no newlines
                text = encode(coefficient_json(order, num, den)).replace("\n", "\n        ")
                texts[den, num] = text
            yield f'{sep}\n      {{\n        "index": {index},\n        "coeff": {text}\n      }}'
            sep = ","
    yield "\n    ]" + tail + "\n"


def _irrep_table(args):
    from .classifier import irrep_table

    checks = args.checks
    return irrep_table(
        args.n,
        args.m,
        check_idempotency="idempotency" in checks,
        check_ranks="ranks" in checks,
        check_orthogonality="orthogonality" in checks,
        check_conjugacy="conjugacy" in checks,
        cap=args.cap,
    )


def cmd_table(args) -> int:
    table = _irrep_table(args)

    if args.format == "csv":
        _emit(args, table.to_csv())
    elif args.format == "json":
        _emit(args, _json(table.to_json()))
    else:
        _emit(args, table.to_text())

    failed = [k for k, v in table.checks.items() if v == "fail"]
    return 1 if failed else 0


def cmd_verify(args) -> int:
    checks = args.checks
    parts: dict = {}
    if "relations" in checks:
        from .relations import verify_defining_relations

        parts["relations"] = verify_defining_relations(args.n, args.m, cap=args.cap)
    if "hopf" in checks:
        from .hopf import hopf_axiom_report

        parts["hopf"] = hopf_axiom_report(args.n, args.m, cap=args.cap)
    if any(c in TABLE_CHECKS for c in checks):
        parts["classification"] = _irrep_table(args).checks

    ok = all(parts[k]["all_pass"] for k in ("relations", "hopf") if k in parts) and all(
        v != "fail" for v in parts.get("classification", {}).values()
    )
    report = {"n": args.n, "m": args.m, "checks": parts, "all_pass": ok}
    _emit(args, _json(report))
    return 0 if ok else 1


def cmd_idempotent(args) -> int:
    from .classifier import (
        LabelledPartition,
        character_idempotent,
        irrep_dimension,
        lambda_from_beta,
    )

    beta = LabelledPartition.parse(args.n, args.m, args.beta or "")
    e = character_idempotent(beta)
    payload = {
        "beta": beta.spec_string(),
        "blocks": beta.to_json(),
        "lambda": list(lambda_from_beta(beta)),
        "dimension": irrep_dimension(beta),
        # each term spreads over the n^m coordinates of its Lambda_lam
        "num_terms": len(e) * args.n**args.m,
    }
    if args.expanded:
        _emit(args, _expanded_json(payload, args.n, args.m, e))
    else:
        _emit(args, _json(payload))
    return 0


def _decimal(value: int) -> str:
    """The exact decimal of value, past the interpreter's int-to-str digit
    limit too, which is lifted for this one conversion only."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_count(args) -> int:
    from .partitions import count_formula

    formula = count_formula(args.n, args.m)
    lines = [f"count = {_decimal(formula)}"]
    code = 0
    if "conjugacy" in args.checks:
        from .conjugacy import conjugacy_class_count

        classes = conjugacy_class_count(args.n, args.m, cap=args.cap)
        lines.append(f"conjugacy classes = {classes}")
        if classes != formula:
            lines.append("MISMATCH: counting formula disagrees with brute-force classes")
            code = 1
    _emit(args, "\n".join(lines) + "\n")
    return code


# command -> (handler, the checks it runs; --checks accepts no others).  A
# handler takes the parsed arguments, with the parsed checks and the cap in
# force (--cap-group-order, else KACPAL_CAP, else None for the defaults) set.
COMMANDS = {
    "table": (cmd_table, TABLE_CHECKS),
    "verify": (cmd_verify, KNOWN_CHECKS),
    "idempotent": (cmd_idempotent, ()),
    "count": (cmd_count, ("conjugacy",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kacpal",
        description=(
            "Exact classification and verification for the group algebras of "
            "generalised symmetric groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True, help="twist order (>= 1)")
        p.add_argument("--m", type=int, required=True, help="number of slots (>= 1)")
        p.add_argument("--cap-group-order", type=int, default=None)
        p.add_argument("--out", default=None, help="write output to this path")

    p_table = sub.add_parser("table", help="emit the table of irreducibles")
    common(p_table)
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.add_argument("--checks", default=None, help="comma list of extra checks")

    p_verify = sub.add_parser("verify", help="run verification suites, emit a JSON report")
    common(p_verify)
    p_verify.add_argument("--checks", default=None, help="comma list (default: relations,idempotency)")

    p_idem = sub.add_parser("idempotent", help="emit the idempotent of one labelled partition")
    common(p_idem)
    p_idem.add_argument("--beta", required=True, help="spec string like '0:3,2,2;2:1,1,1'")
    p_idem.add_argument("--expanded", action="store_true", help="include the group-basis expansion")

    p_count = sub.add_parser("count", help="count the irreducibles")
    common(p_count)
    p_count.add_argument("--checks", default=None, help="comma list; 'conjugacy' cross-checks")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    args.cap, source = args.cap_group_order, "--cap-group-order"
    if args.cap is None and os.environ.get("KACPAL_CAP"):
        source = "KACPAL_CAP"
        try:
            args.cap = int(os.environ["KACPAL_CAP"])
        except ValueError:
            _warn("KACPAL_CAP must be an integer")
            return 2
    if args.cap is not None and args.cap < 1:
        # every group order is at least 1, so such a cap would refuse every capped run
        _warn(f"{source} must be at least 1, got {args.cap}")
        return 2

    if args.n < 1 or args.m < 1:
        _warn("need --n >= 1 and --m >= 1")
        return 2

    handler = COMMANDS[args.command][0]
    try:
        args.checks = _parse_checks(getattr(args, "checks", None), args.command)
        _check_caps(args, args.checks + (args.command,))
        return handler(args)
    except (CapExceededError, ValueError) as exc:
        _warn(str(exc))
        return 2
    except CheckFailedError as exc:
        _warn(str(exc))
        return 1
    except OSError as exc:
        return _stdout_failed(exc)


def _stdout_failed(exc: OSError) -> int:
    """Writing stdout failed: the reader closed the pipe, or the device
    refused the write.  Pointing stdout at devnull lets any later flush drop
    what is still buffered without a word."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    reason = "the reader closed the pipe" if isinstance(exc, BrokenPipeError) else exc.strerror
    _warn(f"cannot write the output: {reason}")
    return 2


def _warn(message: str) -> None:
    """Write the one-line message to stderr.  A stderr that cannot take it
    changes nothing: the run still exits with its own code."""
    with suppress(OSError):
        print(message, file=sys.stderr)


def _observed() -> bool:
    """Whether a tracer, a profiler or a monitoring tool (Python 3.12+) is
    attached, which reports at interpreter exit."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(i) for i in range(6))


def run() -> None:
    """The process entry of ``kacpal`` and ``python -m kacpal``: main() on
    the command line, then stdout and stderr flushed, and the process ended
    with main's exit code without the interpreter's teardown.

    A write to stdout that fails at that flush gets main's exit for a
    failed write.  With a tracer or profiler attached the process exits
    normally, so that it still writes its report at exit.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse on a usage error or --help
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _stdout_failed(exc)
    with suppress(OSError):
        sys.stderr.flush()
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
