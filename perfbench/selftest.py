#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (runs in well under a minute
after the driver is built).

    python3 perfbench/selftest.py

Checks, on shrunk populations of both workloads:
  * metric names and units in the results match BENCHMARK.json;
  * the traced replay ends in the same state as the untraced pass;
  * a different seed changes the end state hash;
  * a wrong pinned hash is reported as a failure (and the right one is not);
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exit status 0 when every check passes.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

FAILURES = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def bench(workload, seed, trace, pin=None):
    """Runs run.py in-process at tiny scale; returns (detail, result)."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--tiny"]
    if pin is not None:
        argv += ["--pin", pin]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    if code != 0 or len(lines) < 2:
        raise RuntimeError(f"run.py {' '.join(argv)} exited {code}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def units_match(result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    return got == {m["name"]: m["unit"] for m in declared}


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists exactly the workloads run.py defines")

    for workload in run.WORKLOADS:
        detail, result = bench(workload, 7, 0)
        check(result["correct"] and result["failed"] == 0,
              f"{workload}: untraced tiny run passes its correctness gate")
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"{workload}: result line has exactly the contract keys")
        check(units_match(result, spec["end_to_end"]),
              f"{workload}: end-to-end names and units match BENCHMARK.json")
        hash7 = detail["samples"]["state_hash"]

        other, _ = bench(workload, 8, 0)
        check(other["samples"]["state_hash"] != hash7,
              f"{workload}: a different seed changes the end state hash")

        traced_detail, traced_result = bench(workload, 7, 1)
        check(traced_result["correct"],
              f"{workload}: traced replay matches the untraced end state")
        check(traced_detail["samples"]["state_hash"] == hash7,
              f"{workload}: traced run's reference pass reproduces the hash")
        check(units_match(traced_result, spec["per_layer"]),
              f"{workload}: per-layer names and units match BENCHMARK.json")
        spans = Path(traced_detail["samples"]["spans"][0])
        check(spans.is_file() and spans.stat().st_size > 0,
              f"{workload}: span file written")

        _, wrong = bench(workload, 7, 0, pin="0" * 64)
        check(not wrong["correct"] and wrong["failed"] > 0,
              f"{workload}: a wrong pinned hash is reported as a failure")
        _, right = bench(workload, 7, 0, pin=hash7)
        check(right["correct"], f"{workload}: the right pinned hash passes")

    # Bare directory: only BENCHMARK.json and perfbench/ (no engine sources).
    bare = run.build_dir() / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    for workload in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180, check=False)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"bare directory, {workload}: exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
