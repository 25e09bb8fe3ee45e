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
from .wreath import CapExceededError, conjugacy_class_count, group_order

KNOWN_CHECKS = ("relations", "idempotency", "ranks", "orthogonality", "hopf", "conjugacy")
DEFAULT_VERIFY_CHECKS = ("relations", "idempotency")
DEFAULT_CONJUGACY_CAP = 10000


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


def _parse_checks(text: str | None, default: tuple[str, ...]) -> tuple[str, ...]:
    if text is None:
        return default
    checks = tuple(c.strip() for c in text.split(",") if c.strip())
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise ValueError(f"unknown check {c!r}; known: {', '.join(KNOWN_CHECKS)}")
    return checks


def _emit(config: RunConfig, text: str):
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {config.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _require_cap(order: int, cap: int, what: str, disable: str):
    if order > cap:
        raise CapExceededError(
            f"group order {order} exceeds {what} cap {cap}; "
            f"disable checks: {disable} or raise --cap-group-order"
        )


def cmd_table(config: RunConfig) -> int:
    checks = config.checks
    order = group_order(config.n, config.m)
    if "ranks" in checks or "orthogonality" in checks:
        _require_cap(order, config.cap(DEFAULT_RANK_CAP), "rank-check", "ranks,orthogonality")
    if "conjugacy" in checks:
        _require_cap(order, config.cap(DEFAULT_CONJUGACY_CAP), "conjugacy", "conjugacy")

    table = irrep_table(
        config.n,
        config.m,
        check_idempotency="idempotency" in checks,
        check_ranks="ranks" in checks,
        check_orthogonality="orthogonality" in checks,
        check_conjugacy="conjugacy" in checks,
        rank_cap=config.cap(DEFAULT_RANK_CAP),
        conjugacy_cap=config.cap(DEFAULT_CONJUGACY_CAP),
    )

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
    checks = config.checks or DEFAULT_VERIFY_CHECKS
    order = group_order(config.n, config.m)
    report: dict = {"n": config.n, "m": config.m, "checks": {}}

    if "relations" in checks:
        _require_cap(order, config.cap(DEFAULT_RELATION_CAP), "relation-suite", "relations")
        report["checks"]["relations"] = verify_defining_relations(
            config.n, config.m, cap=config.cap(DEFAULT_RELATION_CAP)
        )
    if "ranks" in checks or "orthogonality" in checks:
        _require_cap(order, config.cap(DEFAULT_RANK_CAP), "rank-check", "ranks,orthogonality")
    if "hopf" in checks:
        _require_cap(order, config.cap(DEFAULT_TENSOR_CAP), "tensor-square", "hopf")
        report["checks"]["hopf"] = hopf_axiom_report(
            config.n, config.m, cap=config.cap(DEFAULT_TENSOR_CAP)
        )
    if "conjugacy" in checks:
        _require_cap(order, config.cap(DEFAULT_CONJUGACY_CAP), "conjugacy", "conjugacy")

    table_checks = [c for c in ("idempotency", "ranks", "orthogonality", "conjugacy") if c in checks]
    if table_checks:
        table = irrep_table(
            config.n,
            config.m,
            check_idempotency="idempotency" in checks,
            check_ranks="ranks" in checks,
            check_orthogonality="orthogonality" in checks,
            check_conjugacy="conjugacy" in checks,
            rank_cap=config.cap(DEFAULT_RANK_CAP),
            conjugacy_cap=config.cap(DEFAULT_CONJUGACY_CAP),
        )
        report["checks"]["classification"] = table.checks

    ok = True
    rel = report["checks"].get("relations")
    if rel is not None and not rel["all_pass"]:
        ok = False
    hopf_part = report["checks"].get("hopf")
    if hopf_part is not None and not hopf_part["all_pass"]:
        ok = False
    cls = report["checks"].get("classification")
    if cls is not None and any(v == "fail" for v in cls.values()):
        ok = False

    report["all_pass"] = ok
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
        order = group_order(config.n, config.m)
        _require_cap(order, config.cap(DEFAULT_CONJUGACY_CAP), "conjugacy", "conjugacy")
        classes = conjugacy_class_count(
            config.n, config.m, cap=config.cap(DEFAULT_CONJUGACY_CAP)
        )
        lines.append(f"conjugacy classes = {classes}")
        if classes != formula:
            lines.append("MISMATCH: counting formula disagrees with brute-force classes")
            code = 1
    _emit(config, "\n".join(lines) + "\n")
    return code


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

    try:
        checks = _parse_checks(getattr(args, "checks", None), ())
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    config = RunConfig(
        n=args.n,
        m=args.m,
        format=getattr(args, "format", "text"),
        checks=checks,
        cap_group_order=cap,
        out=args.out,
        beta=getattr(args, "beta", None),
        expanded=getattr(args, "expanded", False),
    )

    try:
        if args.command == "table":
            return cmd_table(config)
        if args.command == "verify":
            if getattr(args, "checks", None) is None:
                config.checks = DEFAULT_VERIFY_CHECKS
            return cmd_verify(config)
        if args.command == "idempotent":
            return cmd_idempotent(config)
        if args.command == "count":
            return cmd_count(config)
    except CapExceededError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
