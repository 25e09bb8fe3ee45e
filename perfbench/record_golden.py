#!/usr/bin/env python3
"""Record the golden stdout digest of every command the benchmark can run.

Run from the root of a kacpal checkout whose output is known to be right:

    python3 perfbench/record_golden.py

Each command (every workload command, every beta the seed can pick, the
smoke grid and the set-up command) runs once in a fresh process and must
pass the benchmark's correctness gate apart from the digest itself. The
digests go to perfbench/golden.json. Re-record only in a change that says
the CLI output changed on purpose.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import run


def main() -> int:
    spec = run.load_json(run.BENCH_DIR / "spec.json")
    env = run.child_env()
    golden = {}
    for text in run.every_command(spec):
        res = run.run_child(run.kacpal_argv(text), env, time.monotonic() + 600)
        digest = hashlib.sha256(res["stdout"]).hexdigest()
        failure = run.output_failure(text, res["returncode"], res["stdout"], res["stderr"], {text: digest})
        print(f"{res['wall_s']:8.3f} s  {len(res['stdout']):8d} B  {text}", file=sys.stderr)
        if failure:
            print(f"record_golden: {text!r} fails the gate: {failure}", file=sys.stderr)
            return 1
        golden[text] = digest
    with open(run.BENCH_DIR / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
