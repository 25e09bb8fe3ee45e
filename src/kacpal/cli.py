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
idempotent is held in integer form and never multiplied, so no command
loads fractions.  `count` loads no classifier; only the conjugacy check
loads kacpal.conjugacy, only the commands that write JSON load json, and
only -h or --help loads kacpal.usage, the help.  With no byte code cached,
compiling the modules a call loads is a large part of its time.

The command line is parsed from COMMANDS, the one description of each
command: its handler, its help line, the checks it runs and its own
options.  No call loads argparse, which with the gettext and locale it
brings and the parsers it builds takes about half of what the package
adds to a bare interpreter on a short call.  An option takes its value as
--opt value or --opt=value, the last one given wins, and an option is
named in full: no prefix stands for it.  -h or --help, alone or after a
command, writes the help built from that table.  A usage error is one
line on stderr and exit 2, as for any other bad input.  Every output
reaches stdout or the --out file in writes of at most WRITE_SIZE
characters.

main(argv) is the in-process API: it returns the exit code and never ends
the process.  run() is the process entry of the kacpal script and of
python -m kacpal.  It flushes stdout and stderr itself and then ends the
process with os._exit, which skips the interpreter's teardown, unless a
tracer, a profiler or a monitoring tool is attached, whose report is
written at exit.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import suppress
from types import SimpleNamespace

from .wreath import CapExceededError, CheckFailedError, check_cap

KNOWN_CHECKS = ("relations", "idempotency", "ranks", "orthogonality", "hopf", "conjugacy")
TABLE_CHECKS = ("idempotency", "ranks", "orthogonality", "conjugacy")
DEFAULT_VERIFY_CHECKS = ("relations", "idempotency")

# The most characters handed to stdout or the --out file at once: an output
# given in pieces is joined into writes of this size, so that it costs a
# write per 64 KiB, not one per piece, and its memory stays bounded.
WRITE_SIZE = 1 << 16

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
    runs = COMMANDS[command][2]
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


def _emit(out: str | None, text: str | Iterable[str]):
    """Write the output, given whole or as pieces written as they come, to
    the file out, else to stdout."""
    pieces = _writes((text,) if isinstance(text, str) else text)
    if out:
        try:
            with open(out, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from exc
    else:
        sys.stdout.writelines(pieces)


def _writes(pieces: Iterable[str]) -> Iterator[str]:
    """The pieces joined and cut into writes of WRITE_SIZE characters, and a
    last one of the rest."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= WRITE_SIZE:
            text = "".join(batch)
            end = size - size % WRITE_SIZE
            for start in range(0, end, WRITE_SIZE):
                yield text[start : start + WRITE_SIZE]
            batch, size = [text[end:]], size - end
    if size:
        yield "".join(batch)


def _json(value) -> str:
    """The JSON document of value with the command's layout; json is loaded
    only by the commands that write it."""
    import json

    return json.dumps(value, indent=2) + "\n"


def _expanded_json(payload: dict, n: int, m: int, e: tuple) -> Iterator[str]:
    """``json.dumps(payload | {"element": Phi(e).to_json()}, indent=2) + "\\n"``
    in pieces, one permutation block at a time, so that the peak memory of
    an expanded idempotent does not grow with its number of blocks.

    e is a classification idempotent at (n, m) in the character basis, in
    integer form (terms, (num, den)): every term c F(lam, sigma) lies on its
    one lam, and Phi maps it to c' Lambda_lam sigma, c' = c num / den, whose
    coordinate at index perm_index(sigma) n^m + t is the pair t of
    roots.lambda_coefficients times c': the block of sigma.  Each
    coefficient of Lambda_lam and each c is nonzero, and the sigma differ,
    so nothing cancels.  A term sits three levels deep and its coefficient
    four.  The coefficients share one order, so a reduced pair fixes its
    JSON: each distinct value is encoded once, and each distinct c has its
    n^m texts built once.
    """
    import json

    from .roots import coefficient_json, lambda_coefficients, reduced
    from .wreath import perm_index

    order, size = 2 * n, n**m
    shell = json.dumps({**payload, "element": {"n": n, "m": m, "terms": []}}, indent=2)
    head, tail = shell.rsplit('"terms": []', 1)
    encode = json.JSONEncoder(indent=2).encode
    terms, (scale, scale_den) = e
    pairs = lambda_coefficients(n, m, next(iter(terms))[0])
    values: dict = {}  # (num, den) -> its JSON
    blocks: dict = {}  # c -> the JSON of its n^m coefficients
    yield head + '"terms": ['
    sep = ""
    for base, c in sorted((perm_index(sigma) * size, c) for (_, sigma), c in terms.items()):
        texts = blocks.get(c)
        if texts is None:
            a = c * scale
            texts = blocks[c] = []
            for num, den in pairs:
                value = reduced(tuple([a * x for x in num]), den * scale_den)
                text = values.get(value)
                if text is None:
                    # its strings hold no newlines
                    text = values[value] = encode(coefficient_json(order, *value)).replace("\n", "\n        ")
                texts.append(text)
        yield sep + ",".join(
            f'\n      {{\n        "index": {index},\n        "coeff": {text}\n      }}'
            for index, text in enumerate(texts, base)
        )
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
        _emit(args.out, table.to_csv())
    elif args.format == "json":
        _emit(args.out, _json(table.to_json()))
    else:
        _emit(args.out, table.to_text())

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
    _emit(args.out, _json(report))
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
        "num_terms": len(e[0]) * args.n**args.m,
    }
    if args.expanded:
        _emit(args.out, _expanded_json(payload, args.n, args.m, e))
    else:
        _emit(args.out, _json(payload))
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
    _emit(args.out, "\n".join(lines) + "\n")
    return code


# option -> (its kind, its help line), for the options of every command.  A
# kind is int for an integer, a tuple for one of its values (the first is
# the default), None for a flag, which takes no value, or the name of a
# text value in the help.
COMMON_OPTIONS = {
    "--n": (int, "twist order (>= 1)"),
    "--m": (int, "number of slots (>= 1)"),
    "--cap-group-order": (int, "cap on the group order of every capped check (default: KACPAL_CAP)"),
    "--out": ("PATH", "write output to this path"),
}
REQUIRED = ("--n", "--m", "--beta")
HELP = ("-h", "--help")

# command -> (handler, help line, the checks it runs, its own options as in
# COMMON_OPTIONS); --checks accepts no other checks.  A handler takes the
# parsed arguments, with the parsed checks and the cap in force
# (--cap-group-order, else KACPAL_CAP, else None for the defaults) set.
COMMANDS = {
    "table": (
        cmd_table,
        "emit the table of irreducibles",
        TABLE_CHECKS,
        {
            "--format": (("text", "json", "csv"), "output format (default: text)"),
            "--checks": ("LIST", "comma list of extra checks"),
        },
    ),
    "verify": (
        cmd_verify,
        "run verification suites, emit a JSON report",
        KNOWN_CHECKS,
        {"--checks": ("LIST", "comma list (default: relations,idempotency)")},
    ),
    "idempotent": (
        cmd_idempotent,
        "emit the idempotent of one labelled partition",
        (),
        {
            "--beta": ("SPEC", "spec string like '0:3,2,2;2:1,1,1'"),
            "--expanded": (None, "include the group-basis expansion"),
        },
    ),
    "count": (
        cmd_count,
        "count the irreducibles",
        ("conjugacy",),
        {"--checks": ("LIST", "comma list; 'conjugacy' cross-checks")},
    ),
}


def _parse_args(argv: list[str]) -> tuple:
    """(command, its arguments) from the command line, each option's value
    under its name without the dashes and with _ for -; or (command, None),
    command None before one, when it asks for help.  A usage error raises
    ValueError."""
    command = argv[0] if argv else None
    if command in HELP:
        return None, None
    if command not in COMMANDS:
        what = "missing command" if command is None else f"unknown command {command!r}"
        raise ValueError(f"{what}; choose from: {', '.join(COMMANDS)}")
    options = {**COMMON_OPTIONS, **COMMANDS[command][3]}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in HELP:
            return command, None
        name, has_value, value = token.partition("=")
        if name not in options:
            raise ValueError(f"unrecognised argument {token!r}; {command} takes: {', '.join(options)}")
        kind = options[name][0]
        if kind is None:
            if has_value:
                raise ValueError(f"{name} takes no value")
            given[name] = True
            continue
        if not has_value:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"{name} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{name} needs an integer, got {value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"{name} must be one of {', '.join(kind)}, got {value!r}")
        given[name] = value
    missing = [name for name in REQUIRED if name in options and name not in given]
    if missing:
        raise ValueError(f"{command} needs {' and '.join(missing)}")
    args = SimpleNamespace()
    for name, (kind, _) in options.items():
        default = kind[0] if isinstance(kind, tuple) else (False if kind is None else None)
        setattr(args, name[2:].replace("-", "_"), given.get(name, default))
    return command, args


def main(argv=None) -> int:
    try:
        command, args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            from .usage import usage

            _emit(None, usage(command))
            return 0

        args.cap, source = args.cap_group_order, "--cap-group-order"
        if args.cap is None and os.environ.get("KACPAL_CAP"):
            source = "KACPAL_CAP"
            try:
                args.cap = int(os.environ["KACPAL_CAP"])
            except ValueError:
                raise ValueError("KACPAL_CAP must be an integer") from None
        if args.cap is not None and args.cap < 1:
            # every group order is at least 1, so such a cap would refuse every capped run
            raise ValueError(f"{source} must be at least 1, got {args.cap}")
        if args.n < 1 or args.m < 1:
            raise ValueError("need --n >= 1 and --m >= 1")

        args.checks = _parse_checks(getattr(args, "checks", None), command)
        _check_caps(args, args.checks + (command,))
        return COMMANDS[command][0](args)
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
    code = main()
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
