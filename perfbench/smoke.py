#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on the tiny (2,2) grid.

Run from the root of a kacpal checkout:

    python3 perfbench/smoke.py

It runs ``run.py --workload smoke`` in a child process, as any caller does, once
untraced and twice traced, and checks that every metric named in
BENCHMARK.json is printed with its unit, that the recorded spans nest (each
child inside its parent, within one command) with every self time >= 0, and
that the work counts repeat exactly between the two traced runs. Exits 0
when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

SEED = 7
EXACT_SUFFIXES = (".calls", ".rows_built", ".term_pairs", ".vectors", ".pivots", ".table_entries",
                  ".bytes", ".entries")


def bench_run(trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "smoke", "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise SystemExit(f"smoke: run.py exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = run.load_json(run.OUT_DIR / f"smoke-seed{SEED}-trace{trace}.json")
    return result, record


def check_result(result: dict, declared: list[dict], problems: list[str]) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"outputs failed the gate: {result['failed']} of {result['attempted']}")
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {metric['name']} missing or without unit {metric['unit']}: {got}")


def check_spans(record: dict, problems: list[str]) -> None:
    spans = {s["id"]: s for s in record["spans"]}
    child_time = dict.fromkeys(spans, 0.0)
    for s in spans.values():
        if s["end"] < s["start"]:
            problems.append(f"span {s['name']} ends before it starts")
        if s["parent"] is None:
            continue
        parent = spans.get(s["parent"])
        if parent is None:
            problems.append(f"span {s['name']} has an unknown parent")
        elif parent["command"] != s["command"] or not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            problems.append(f"span {s['name']} is not inside its parent {parent['name']}")
        else:
            child_time[parent["id"]] += s["end"] - s["start"]
    for span_id, covered in child_time.items():
        s = spans[span_id]
        if s["end"] - s["start"] - covered < -1e-9:
            problems.append(f"span {s['name']} has negative self time")
    for p in record["passes"]:
        for name, stats in p["per_name"].items():
            if stats["self_s"] < -1e-9:
                problems.append(f"{name} has negative self time {stats['self_s']}")
    if not spans:
        problems.append("no spans recorded")


def main() -> int:
    bench = run.load_json(run.ROOT / "BENCHMARK.json")
    problems: list[str] = []

    result, _ = bench_run(0)
    check_result(result, bench["end_to_end"], problems)

    first, record = bench_run(1)
    check_result(first, bench["per_layer"], problems)
    check_spans(record, problems)
    second, _ = bench_run(1)
    for name, value in first["metrics"].items():
        if name.endswith(EXACT_SUFFIXES) and second["metrics"][name]["value"] != value["value"]:
            problems.append(f"count {name} differs between traced runs: "
                            f"{value['value']} vs {second['metrics'][name]['value']}")

    for problem in problems:
        print("smoke: " + problem, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
