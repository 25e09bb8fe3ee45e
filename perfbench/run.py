#!/usr/bin/env python3
"""Benchmark of the kacpal CLI on fixed workloads.

Run from the root of a kacpal checkout (the benchmark measures the code under
``./src``, never an installed copy):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` runs each command of the workload as ``python -m kacpal ...``
in a fresh child process, one at a time, from this single parent process: a
closed loop with one client. Every invocation therefore starts with cold
module caches, as a user's does. It repeats whole passes over the workload
(in an order shuffled by the seed), at least two and then as many as end
near ``--seconds``, and reports per-command medians summed over the
workload, plus ``setup_s``, the median wall time of repeated no-work
invocations. Times are scaled to a machine on which ``reference.py`` takes
``nominal_cpu_s`` of CPU time (``spec.json``), using the reference runs
around each sample, because the speed of a shared machine drifts.

``--trace 1`` runs the same commands in this process through
``kacpal.cli.main(argv)`` with every module cache cleared before each
command, once plainly and once with the layer wrappers of ``tracing.py``
installed, and reports the per-layer metrics and the tracing overhead.

Every command's output passes a correctness gate (exit code, no traceback,
``all_pass``, table checks, and the stdout digest recorded in
``golden.json``). The last line of standard output is the JSON result; the
line before it is the environment stamp. The full record (per-command
timings, per-pass metrics, and in traced runs the spans) is written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"
# Hard limit for one invocation of this script, below the 180 s it is allowed.
RUN_LIMIT_S = 165.0


# -- inputs ---------------------------------------------------------------------


def load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def command_texts(workload: dict, rng: random.Random) -> list[str]:
    """The workload's commands; the seed picks beta where the command has one."""
    texts = []
    for text in workload["commands"]:
        if "{beta}" in text:
            text = text.replace("{beta}", rng.choice(workload["beta"]))
        texts.append(text)
    return texts


def every_command(spec: dict) -> list[str]:
    """Every command any seed can generate, for recording golden digests."""
    texts = [spec["setup"]["command"]]
    for workload in [*spec["workloads"].values(), spec["smoke"], spec["extra_golden"]]:
        for text in workload["commands"]:
            if "{beta}" in text:
                texts += [text.replace("{beta}", beta) for beta in workload["beta"]]
            else:
                texts.append(text)
    return list(dict.fromkeys(texts))


def group_order_of(text: str) -> int:
    argv = text.split()
    n = int(argv[argv.index("--n") + 1])
    m = int(argv[argv.index("--m") + 1])
    return n**m * math.factorial(m)


# -- correctness gate -------------------------------------------------------------


def _table_check_failures(text: str, stdout: bytes) -> list[str]:
    if "--format json" in text:
        checks = json.loads(stdout)["checks"]
        # non-string values are counts (conjugacy_classes), not verdicts
        return [k for k, v in checks.items() if isinstance(v, str) and v != "pass"]
    bad = []
    for line in stdout.decode().splitlines():
        if line.startswith("check "):
            name, _, verdict = line[len("check "):].partition(": ")
            if verdict != "pass":
                bad.append(name)
    return bad


def output_failure(text: str, returncode: int, stdout: bytes, stderr: bytes, golden: dict) -> str | None:
    """Why a command's output is wrong, or None when it passes the gate."""
    if returncode != 0:
        return f"exit code {returncode}"
    if b"Traceback (most recent call last)" in stderr:
        return "traceback on stderr"
    try:
        if text.startswith("verify ") and json.loads(stdout).get("all_pass") is not True:
            return "verify report lacks \"all_pass\": true"
        if text.startswith("table "):
            bad = _table_check_failures(text, stdout)
            if bad:
                return "table checks not passed: " + ", ".join(bad)
    except (ValueError, KeyError, AttributeError) as exc:
        return f"unparsable output: {exc}"
    expected = golden.get(text)
    if expected is None:
        return "no golden digest recorded for this command"
    if hashlib.sha256(stdout).hexdigest() != expected:
        return "stdout digest differs from the golden digest"
    return None


# -- environment stamp --------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kacpal").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def env_stamp(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


# -- untraced run: fresh child processes ---------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KACPAL_CAP", None)  # the workloads run with the default caps
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> dict:
    """One invocation in a fresh process, timed and reaped with wait4."""
    OUT_DIR.mkdir(exist_ok=True)
    out_path, err_path = OUT_DIR / "child.stdout", OUT_DIR / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "stdout": stdout,
        "stderr": stderr,
    }


def kacpal_argv(text: str) -> list[str]:
    return [sys.executable, "-m", "kacpal", *text.split()]


def another_pass(elapsed: float, seconds: float, pass_times: list[float]) -> bool:
    """Whether to start another pass: at least two passes, so that every
    command has two samples, then as many as end near ``seconds``; never
    past RUN_LIMIT_S."""
    pass_s = statistics.median(pass_times)
    finish = elapsed + pass_s
    if finish >= RUN_LIMIT_S:
        return False
    return len(pass_times) < 2 or finish <= seconds + pass_s / 2


def run_untraced(spec, workload, seed, seconds, golden, record) -> dict:
    rng = random.Random(seed)
    texts = command_texts(workload, rng)
    env = child_env()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    runs = record["commands"] = []
    refs = record["reference_cpu_s"] = []

    def invoke(text: str) -> dict:
        res = run_child(kacpal_argv(text), env, deadline)
        res["command"] = text
        res["failure"] = output_failure(text, res["returncode"], res.pop("stdout"), res.pop("stderr"), golden)
        runs.append(res)
        return res

    def reference() -> None:
        res = run_child([sys.executable, str(BENCH_DIR / "reference.py")], env, deadline)
        if res["returncode"] != 0:
            raise SystemExit(f"perfbench: the reference task failed:\n{res['stderr'].decode()}")
        refs.append(res["cpu_s"])

    setup = spec["setup"]
    reference()
    invoke(setup["command"])  # warm the byte-code cache; not timed
    setup_walls = [invoke(setup["command"])["wall_s"] for _ in range(setup["repeats"])]
    reference()

    samples = []  # (command, wall_s, cpu_s, maxrss_kb), each followed by a reference run
    pass_times = record["pass_s"] = []
    while True:
        order = texts[:]
        rng.shuffle(order)
        t0 = time.monotonic()
        for text in order:
            res = invoke(text)
            samples.append((text, res["wall_s"], res["cpu_s"], res["maxrss_kb"]))
            reference()
        pass_times.append(time.monotonic() - t0)
        if not another_pass(time.monotonic() - start, seconds, pass_times):
            break

    # The shared machine's speed drifts by a quarter over minutes and by
    # more within a run. Each timed sample is therefore scaled to a machine
    # on which the reference task takes its nominal CPU time, using the
    # reference runs just before and after it; per-command medians over the
    # passes then keep one slow spell from moving a whole pass.
    nominal = spec["reference"]["nominal_cpu_s"]
    speed = [2 * nominal / (before + after) for before, after in zip(refs, refs[1:])]
    walls, cpus, rss = {}, {}, {}
    for (text, wall, cpu, maxrss), factor in zip(samples, speed[1:]):
        walls.setdefault(text, []).append(wall * factor)
        cpus.setdefault(text, []).append(cpu * factor)
        rss.setdefault(text, []).append(maxrss)
    raw_walls, raw_cpus = {}, {}
    for text, wall, cpu, _ in samples:
        raw_walls.setdefault(text, []).append(wall)
        raw_cpus.setdefault(text, []).append(cpu)
    record["raw"] = {
        "wall_s": sum(statistics.median(v) for v in raw_walls.values()),
        "cpu_s": sum(statistics.median(v) for v in raw_cpus.values()),
        "setup_s": statistics.median(setup_walls),
        "reference_cpu_s": statistics.fmean(refs),
    }
    return {
        "wall_s": sum(statistics.median(v) for v in walls.values()),
        "cpu_s": sum(statistics.median(v) for v in cpus.values()),
        "peak_rss_mb": max(statistics.median(v) for v in rss.values()) / 1024,
        "setup_s": record["raw"]["setup_s"] * speed[0],
    }


# -- traced run: in-process through kacpal.cli.main ------------------------------------


def call_main(main, argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, reported like a child's traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


def layer_metrics(tracer, counts: dict, command_s: float, untraced_s: float) -> dict:
    stats = tracer.stats

    def calls(name):
        return stats[name][0]

    def self_s(name):
        return stats[name][2]

    mul_calls = calls("cyclotomic.mul")
    vectors = tracer.counts["algebra.rank.vectors"]
    field_self = tracer.self_s("cyclotomic")
    return {
        "cyclotomic.mul.calls": mul_calls,
        "cyclotomic.mul.self_s": self_s("cyclotomic.mul"),
        "cyclotomic.mul.us_per_call": 1e6 * self_s("cyclotomic.mul") / mul_calls if mul_calls else 0.0,
        "cyclotomic.add.calls": calls("cyclotomic.add"),
        "cyclotomic.add.self_s": self_s("cyclotomic.add"),
        "cyclotomic.inverse.calls": calls("cyclotomic.inverse"),
        "cyclotomic.inverse.self_s": self_s("cyclotomic.inverse"),
        "cyclotomic.self_share": field_self / command_s,
        "wreath.mul_row.rows_built": counts["rows_built"],
        "wreath.table_entries": counts["table_entries"],
        "wreath.mul_row.self_s": self_s("wreath.mul_row"),
        "wreath.mul_row.self_share": self_s("wreath.mul_row") / command_s,
        "wreath.mul_index.calls": calls("wreath.mul_index"),
        "partitions.young_symmetrizer.calls": calls("partitions.young_symmetrizer"),
        "partitions.self_s": tracer.self_s("partitions"),
        "algebra.product.calls": calls("algebra.product"),
        "algebra.product.term_pairs": tracer.counts["algebra.product.term_pairs"],
        "algebra.product.self_s": self_s("algebra.product"),
        "algebra.rank.calls": calls("algebra.rank"),
        "algebra.rank.vectors": vectors,
        "algebra.rank.pivots": tracer.counts["algebra.rank.pivots"],
        "algebra.rank.useful_ratio": tracer.counts["algebra.rank.pivots"] / vectors if vectors else 0.0,
        "algebra.rank.self_s": self_s("algebra.rank"),
        "algebra.relations.self_s": self_s("algebra.relations"),
        "classifier.idempotent_from_beta.calls": calls("classifier.idempotent_from_beta"),
        "classifier.idempotent_from_beta.s": stats["classifier.idempotent_from_beta"][1],
        "classifier.irrep_table.self_s": self_s("classifier.irrep_table"),
        "hopf.delta.calls": calls("hopf.delta"),
        "hopf.antipode.calls": calls("hopf.antipode"),
        "hopf.tensor_product.calls": calls("hopf.tensor_product"),
        "hopf.tensor_product.term_pairs": tracer.counts["hopf.tensor_product.term_pairs"],
        "hopf.tensor_product.self_s": self_s("hopf.tensor_product"),
        "hopf.axiom_report.self_s": self_s("hopf.axiom_report"),
        "cli.command.s": command_s,
        "cli.output.bytes": counts["output_bytes"],
        "cli.serialize.s": stats["cli.serialize"][1],
        "cache.entries": counts["cache_entries"],
        "trace.overhead_s": command_s - untraced_s,
    }


def run_traced(workload, seed, seconds, golden, record) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    modules = tracing.load_modules()
    loaded_from = Path(modules["cli"].__file__).resolve()
    if ROOT / "src" not in loaded_from.parents:
        raise SystemExit(f"perfbench: kacpal imported from {loaded_from}, not from ./src")
    caches = tracing.module_caches(modules)
    mul_row = getattr(modules.get("wreath"), "mul_row", None)
    main = modules["cli"].main

    rng = random.Random(seed)
    texts = command_texts(workload, rng)
    start = time.monotonic()
    runs = record["commands"] = []
    passes = record["passes"] = []
    spans = record["spans"] = []
    pass_times = record["pass_s"] = []
    command_id = 0

    def check(text, code, stdout, stderr, mode, wall):
        failure = output_failure(text, code, stdout, stderr, golden)
        runs.append({"command": text, "mode": mode, "returncode": code, "wall_s": wall, "failure": failure})

    def plain(text: str) -> float:
        tracing.clear_caches(caches)
        t0 = time.perf_counter()
        code, stdout, stderr = call_main(main, text.split())
        wall = time.perf_counter() - t0
        check(text, code, stdout, stderr, "untraced", wall)
        return wall

    def traced(text: str, tracer, traced_main, counts: dict) -> list[str]:
        tracing.clear_caches(caches)
        instrumentation = tracing.Instrumentation(modules, tracer)
        missing = instrumentation.install()
        try:
            t0 = time.perf_counter()
            code, stdout, stderr = call_main(traced_main, text.split())
            wall = time.perf_counter() - t0
        finally:
            instrumentation.uninstall()
        check(text, code, stdout, stderr, "traced", wall)
        rows = mul_row.cache_info().misses if mul_row is not None else 0
        counts["rows_built"] += rows
        counts["table_entries"] += rows * group_order_of(text)
        counts["output_bytes"] += len(stdout)
        counts["cache_entries"] = max(counts["cache_entries"], tracing.cache_entries(caches))
        return missing

    while True:
        order = texts[:]
        rng.shuffle(order)
        tracer = tracing.Tracer()
        traced_main = tracer.wrap("cli.command", main, True)
        counts = {"rows_built": 0, "table_entries": 0, "output_bytes": 0, "cache_entries": 0}
        untraced_s = 0.0
        t_pass = time.monotonic()
        for text in order:
            command_id += 1
            tracer.command_id = command_id
            # The second run of a command finds the allocator warm; alternate
            # which run goes first so that trace.overhead_s does not absorb it.
            if len(passes) % 2:
                missing = traced(text, tracer, traced_main, counts)
                untraced_s += plain(text)
            else:
                untraced_s += plain(text)
                missing = traced(text, tracer, traced_main, counts)
        command_s = tracer.stats["cli.command"][1]
        metrics = layer_metrics(tracer, counts, command_s, untraced_s)
        passes.append({"order": order, "metrics": metrics, "missing_targets": missing,
                       "per_name": {k: {"calls": s[0], "total_s": s[1], "self_s": s[2]} for k, s in tracer.stats.items()}})
        spans += tracer.span_dicts()
        pass_times.append(time.monotonic() - t_pass)
        if not another_pass(time.monotonic() - start, seconds, pass_times):
            break
    # Counts repeat exactly across passes; keep them whole numbers.
    return {
        key: (statistics.median_low if isinstance(passes[0]["metrics"][key], int) else statistics.median)(
            [p["metrics"][key] for p in passes])
        for key in passes[0]["metrics"]
    }


# -- entry point ---------------------------------------------------------------------


def run_workload(bench, spec, name, seed, seconds, trace, golden) -> dict:
    record = {"workload": name, "trace": trace, "env": env_stamp(seed)}
    record["env"]["loadavg_before"] = os.getloadavg()
    workload = spec["smoke"] if name == "smoke" else spec["workloads"][name]
    if trace:
        values = run_traced(workload, seed, seconds, golden, record)
    else:
        values = run_untraced(spec, workload, seed, seconds, golden, record)
    record["env"]["loadavg_after"] = os.getloadavg()
    declared = bench["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record["metrics"] = metrics
    failures = [c for c in record["commands"] if c["failure"]]
    record["attempted"], record["failed"] = len(record["commands"]), len(failures)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh)
    for c in failures:
        print(f"perfbench: FAILED {c['command']!r}: {c['failure']}", file=sys.stderr)
    return record


class Terminated(BaseException):
    """SIGTERM, raised where this process waits so that a running child is
    killed and reaped before this process exits."""


def _terminate(signum, frame):
    raise Terminated()


def main(argv=None) -> int:
    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "kacpal" / "cli.py").is_file() or not bench_path.is_file():
        print("perfbench: run from the root of a kacpal checkout (needs ./src/kacpal and ./BENCHMARK.json)",
              file=sys.stderr)
        return 2
    bench = load_json(bench_path)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="kacpal CLI benchmark")
    # "smoke" is the tiny (2,2) grid of smoke.py; "all" runs every workload in turn.
    parser.add_argument("--workload", required=True, choices=names + ["all", "smoke"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_json(BENCH_DIR / "spec.json")
    golden = load_json(BENCH_DIR / "golden.json")
    selected = names if args.workload == "all" else [args.workload]
    total_attempted = total_failed = 0
    combined = {}
    for name in selected:
        record = run_workload(bench, spec, name, args.seed, args.seconds, args.trace, golden)
        total_attempted += record["attempted"]
        total_failed += record["failed"]
        shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in record["metrics"].items())
        raw = "".join(f"  raw {k}={v:.6g} s" for k, v in record.get("raw", {}).items())
        print(f"perfbench: {name}: {shown}{raw}  fail_frac={record['failed'] / record['attempted']:.3g} "
              f"({record['failed']}/{record['attempted']})", file=sys.stderr)
        print(json.dumps({"env": record["env"]}))
        if len(selected) == 1:
            combined = record["metrics"]
        else:
            combined.update({f"{name}.{k}": v for k, v in record["metrics"].items()})
    print(json.dumps({
        "correct": total_failed == 0,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
