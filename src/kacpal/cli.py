"""Command-line front end: tables, verification suites, idempotents, counts."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .algebra import (
    DEFAULT_RANK_CAP,
    DEFAULT_RELATION_CAP,
    verify_defining_relations,
)
from .classifier import (
    LabelledPartition,
    count_formula,
    idempotent_from_beta,
    irrep_dimension,
    irrep_table,
    lambda_from_beta,
)
from .hopf import DEFAULT_TENSOR_CAP, hopf_axiom_report
from .wreath import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    CheckFailedError,
    check_cap,
    conjugacy_class_count,
)

KNOWN_CHECKS = ("relations", "idempotency", "ranks", "orthogonality", "hopf", "conjugacy")
TABLE_CHECKS = ("idempotency", "ranks", "orthogonality", "conjugacy")
DEFAULT_VERIFY_CHECKS = ("relations", "idempotency")

# Every check, and every command whose own cost grows with |G|, against
# (default cap on the group order, cap name, checks to disable instead).
CAPS = {
    "relations": (DEFAULT_RELATION_CAP, "relation-suite", "relations"),
    "idempotency": (DEFAULT_ENUMERATION_CAP, "enumeration", "idempotency"),
    "ranks": (DEFAULT_RANK_CAP, "rank-check", "ranks,orthogonality"),
    "orthogonality": (DEFAULT_RANK_CAP, "rank-check", "ranks,orthogonality"),
    "hopf": (DEFAULT_TENSOR_CAP, "tensor-square", "hopf"),
    "conjugacy": (DEFAULT_ENUMERATION_CAP, "conjugacy", "conjugacy"),
    "table": (DEFAULT_ENUMERATION_CAP, "enumeration", None),
    "idempotent": (DEFAULT_ENUMERATION_CAP, "enumeration", None),
}


@dataclass
class RunConfig:
    n: int
    m: int
    format: str = "text"
    checks: tuple[str, ...] = ()
    cap_group_order: int | None = None
    out: str | None = None
    beta: str | None = None
    expanded: bool = False

    def cap(self, default: int) -> int:
        return self.cap_group_order if self.cap_group_order is not None else default


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


def _check_caps(config: RunConfig, names):
    """Refuse the run, before any work, if one of the named checks or
    commands exceeds its cap."""
    for name in names:
        if name not in CAPS:
            continue
        default, what, disable = CAPS[name]
        try:
            check_cap(config.n, config.m, config.cap(default), what)
        except CapExceededError as exc:
            hint = f"disable checks: {disable} or raise" if disable else "raise"
            raise CapExceededError(f"{exc}; {hint} --cap-group-order") from None


def _emit(config: RunConfig, text: str):
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {config.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _irrep_table(config: RunConfig):
    checks = config.checks
    return irrep_table(
        config.n,
        config.m,
        check_idempotency="idempotency" in checks,
        check_ranks="ranks" in checks,
        check_orthogonality="orthogonality" in checks,
        check_conjugacy="conjugacy" in checks,
        rank_cap=config.cap(DEFAULT_RANK_CAP),
        conjugacy_cap=config.cap(DEFAULT_ENUMERATION_CAP),
    )


def cmd_table(config: RunConfig) -> int:
    table = _irrep_table(config)

    if config.format == "csv":
        _emit(config, table.to_csv())
    elif config.format == "json":
        _emit(config, json.dumps(table.to_json(), indent=2) + "\n")
    else:
        lines = [f"irreducible representations for n={config.n}, m={config.m}"]
        lines.append(f"{'beta':<24}{'lambda':<16}{'dim':>5}{'rank':>6}")
        for rec in table.records:
            lam = "(" + ",".join(str(v) for v in rec.lam) + ")"
            rank_text = "" if rec.dim_rank is None else str(rec.dim_rank)
            lines.append(
                f"{rec.beta.spec_string():<24}{lam:<16}{rec.dim_formula:>5}{rank_text:>6}"
            )
        lines.append(f"count = {len(table.records)}")
        lines.append(f"sum of squared dimensions = {sum(r.dim_formula ** 2 for r in table.records)}")
        for name, value in table.checks.items():
            lines.append(f"check {name}: {value}")
        _emit(config, "\n".join(lines) + "\n")

    failed = [k for k, v in table.checks.items() if v == "fail"]
    return 1 if failed else 0


def cmd_verify(config: RunConfig) -> int:
    checks = config.checks
    parts: dict = {}
    if "relations" in checks:
        parts["relations"] = verify_defining_relations(
            config.n, config.m, cap=config.cap(DEFAULT_RELATION_CAP)
        )
    if "hopf" in checks:
        parts["hopf"] = hopf_axiom_report(config.n, config.m, cap=config.cap(DEFAULT_TENSOR_CAP))
    if any(c in TABLE_CHECKS for c in checks):
        parts["classification"] = _irrep_table(config).checks

    ok = all(parts[k]["all_pass"] for k in ("relations", "hopf") if k in parts) and all(
        v != "fail" for v in parts.get("classification", {}).values()
    )
    report = {"n": config.n, "m": config.m, "checks": parts, "all_pass": ok}
    _emit(config, json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


def cmd_idempotent(config: RunConfig) -> int:
    beta = LabelledPartition.parse(config.n, config.m, config.beta or "")
    e = idempotent_from_beta(beta)
    payload = {
        "beta": beta.spec_string(),
        "blocks": beta.to_json(),
        "lambda": list(lambda_from_beta(beta)),
        "dimension": irrep_dimension(beta),
        "num_terms": len(e.terms),
    }
    if config.expanded:
        payload["element"] = e.to_json()
    _emit(config, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_count(config: RunConfig) -> int:
    formula = count_formula(config.n, config.m)
    lines = [f"count = {formula}"]
    code = 0
    if "conjugacy" in config.checks:
        classes = conjugacy_class_count(
            config.n, config.m, cap=config.cap(DEFAULT_ENUMERATION_CAP)
        )
        lines.append(f"conjugacy classes = {classes}")
        if classes != formula:
            lines.append("MISMATCH: counting formula disagrees with brute-force classes")
            code = 1
    _emit(config, "\n".join(lines) + "\n")
    return code


# command -> (handler, the checks it runs; --checks accepts no others)
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

    cap = args.cap_group_order
    if cap is None and os.environ.get("KACPAL_CAP"):
        try:
            cap = int(os.environ["KACPAL_CAP"])
        except ValueError:
            print("KACPAL_CAP must be an integer", file=sys.stderr)
            return 2

    if args.n < 1 or args.m < 1:
        print("need --n >= 1 and --m >= 1", file=sys.stderr)
        return 2

    handler = COMMANDS[args.command][0]
    try:
        config = RunConfig(
            n=args.n,
            m=args.m,
            format=getattr(args, "format", "text"),
            checks=_parse_checks(getattr(args, "checks", None), args.command),
            cap_group_order=cap,
            out=args.out,
            beta=getattr(args, "beta", None),
            expanded=getattr(args, "expanded", False),
        )
        _check_caps(config, config.checks + (args.command,))
        return handler(config)
    except (CapExceededError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except CheckFailedError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
