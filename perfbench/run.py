#!/usr/bin/env python3
"""Repository benchmark: FileInsurer workloads through fi::Session.

    python3 perfbench/run.py --workload churn_1m --seed 42 --seconds 60 --trace 0

Run from the root of a checkout. The first call builds the driver
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; later calls reuse the build.

--trace 0 runs the workload untraced, pass after pass (a fresh process
each): at least two passes, and more while another pass of the mean length
so far still ends within --seconds. It reports the end-to-end metrics as
medians over the passes. --trace 1 runs the traced replay
(perfbench/driver/traced.cpp) the same way, at least once, and reports the
per-layer metrics; the spans go to <build>/traces/.

Every pass is checked (see check_pass / check_repeats); the last stdout
line is one JSON object {correct, attempted, failed, metrics}, preceded by
one JSON line with the host fingerprint and the raw samples. Without the
engine sources next to this directory the script exits 2 before printing
a result.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# The pinned end state hash of each workload at its default seed.
GOLDEN_FILE = "tests/golden/state_hashes.txt"
PIN_FILE = "perfbench/pinned_hashes.txt"

# setups_per_pass and end_ops_per_pass repeat the short timed operations
# (opening the session; state_hash() and fork() on the end state) inside
# each pass, so a run holds enough samples of them: a churn_1m opening
# takes ~0.03 s, a retrieval_net hash ~0.7 s and fork ~1.2 s, while a
# churn_1m hash and fork take ~3 s and ~7 s once.
WORKLOADS = {
    "churn_1m": {
        "config": "configs/churn_1m.cfg",
        "default_seed": 42,
        "pin": (GOLDEN_FILE, "churn_1m"),
        "setups_per_pass": 30,
        "end_ops_per_pass": 1,
        # Shrunk population for the self-test (perfbench/selftest.py).
        "tiny": ["sectors=2000", "phase.0.adds_per_cycle=2500"],
    },
    "retrieval_net": {
        "config": "perfbench/workloads/retrieval_net.cfg",
        "default_seed": 42,
        "pin": (PIN_FILE, "retrieval_net"),
        "setups_per_pass": 1,
        "end_ops_per_pass": 3,
        "tiny": ["sectors=400", "initial_files=2000",
                 "traffic.requests_per_cycle=4000", "traffic.cache_blocks=40",
                 "adversary.0.requests_per_epoch=2000"],
    },
}

MIN_PASSES = 2
# Every driver process must end this long after the build, so that a hung
# pass still leaves the script time to exit within 180 s.
DEADLINE_S = 170
_deadline = None


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


def declared_units(kind):
    """name -> unit of the `kind` ("end_to_end" or "per_layer") metrics,
    as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---- Build -----------------------------------------------------------------

def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    path = Path(configured) if configured else Path(".bench_build")
    return path if path.is_absolute() else ROOT / path


def build_driver():
    if not (ROOT / "src" / "api" / "session.h").is_file():
        raise BenchError(f"engine sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"])
    run_logged(["cmake", "--build", str(out), "-j", jobs,
                "--target", "perfbench_driver"])
    binary = out / "perfbench_driver"
    if not binary.is_file():
        raise BenchError("build produced no perfbench_driver")
    return binary


def run_logged(cmd):
    # Build chatter goes to stderr: stdout carries only results.
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise BenchError(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def run_driver(binary, args):
    timeout = max(1.0, _deadline - time.monotonic())
    proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                          stderr=sys.stderr, cwd=ROOT, timeout=timeout,
                          check=False, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"driver {args[0]} exited {proc.returncode}")
    return json.loads(lines[-1])


# ---- Host fingerprint ------------------------------------------------------

def cgroup_cpu_max():
    v2 = Path("/sys/fs/cgroup/cpu.max")
    if v2.is_file():
        return v2.read_text().strip()
    quota = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota.is_file() and period.is_file():
        return f"{quota.read_text().strip()} {period.read_text().strip()}"
    return "unavailable"


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    return proc.stdout.strip() or None


def source_sha256():
    """Digest of the engine and benchmark sources (a checkout without git
    still identifies the code it measured)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".cfg", ".py",
                                                  ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def cmake_cache_value(key):
    cache = build_dir() / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def host_fingerprint(binary):
    nproc = len(os.sched_getaffinity(0))
    compiler = cmake_cache_value("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             check=False).stdout.splitlines()
    return {
        "nproc": nproc,
        "cgroup_cpu_max": cgroup_cpu_max(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "compiler": version[0] if version else compiler,
        "build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
        "machine": platform.machine(),
        "calibration": run_driver(binary, ["calibrate", "--threads",
                                           str(nproc)]),
    }


# ---- Correctness -----------------------------------------------------------

def pinned_hash(workload):
    path, name = WORKLOADS[workload]["pin"]
    for line in (ROOT / path).read_text().splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == name:
            return parts[1]
    raise BenchError(f"no pinned hash for {name} in {path}")


def check_pass(p, problems):
    """Checks one untraced pass; appends what failed to `problems`."""
    if not p["rent_conserved"]:
        problems.append("rent not conserved")
    if not p["hash_stable"]:
        problems.append("state_hash() differed between calls on one state")
    if not p["fork_ok"]:
        problems.append("fork did not resume at the parent's epoch")
    t = p["traffic"]
    if t:
        disposed = (t["enqueued"] + t["dropped"] + t["starved"] +
                    t["lookup_failures"])
        if disposed != t["requests_attempted"] - t["rate_limited"]:
            problems.append("traffic dispositions do not sum to "
                            "attempted - rate_limited")
        gang = list(range(t["honest_streams"], t["streams"]))
        if t["flagged_stream_ids"] != gang:
            problems.append(f"defense flagged {t['flagged_stream_ids']}, "
                            f"expected exactly the gang {gang}")


def outcome(p):
    """The simulated outcome that every repeat of a seed must reproduce."""
    return {k: p[k] for k in ("state_hash", "epochs", "requests", "stats",
                              "traffic")}


def check_repeats(outcomes, record_path, problems):
    first = outcomes[0]
    if any(o != first for o in outcomes[1:]):
        problems.append("repeats of the same seed disagree")
    # Earlier invocations of this build with the same seed must agree too.
    if record_path.is_file():
        if json.loads(record_path.read_text()) != first:
            problems.append("outcome differs from an earlier run of this "
                            "seed with the same build")
    elif not problems:
        record_path.parent.mkdir(parents=True, exist_ok=True)
        record_path.write_text(json.dumps(first, sort_keys=True))


# ---- Modes -----------------------------------------------------------------

def fits_another(start, done, seconds, minimum):
    """True while fewer than `minimum` repetitions ran, or another one of
    the mean length so far still ends within `seconds` of `start`."""
    elapsed = time.monotonic() - start
    return done < minimum or elapsed + elapsed / done <= seconds


def driver_args(workload, seed, tiny):
    spec = WORKLOADS[workload]
    args = ["--config", spec["config"], "--set", f"seed={seed}"]
    for kv in spec["tiny"] if tiny else []:
        args += ["--set", kv]
    return args


def untraced(binary, workload, seed, seconds, tiny, pin):
    spec = WORKLOADS[workload]
    args = driver_args(workload, seed, tiny)
    passes = []
    start = time.monotonic()
    while not passes or fits_another(start, len(passes), seconds, MIN_PASSES):
        passes.append(run_driver(binary, [
            "pass", *args, "--setups", str(spec["setups_per_pass"]),
            "--end-ops", str(spec["end_ops_per_pass"])]))
    problems = []
    failed = 0
    for p in passes:
        before = len(problems)
        check_pass(p, problems)
        if pin is not None and p["state_hash"] != pin:
            problems.append(f"end state hash {p['state_hash']} != pinned {pin}")
        failed += len(problems) > before
    # Keyed by everything that fixes the outcome: build, config, overrides.
    key = hashlib.sha256(binary.read_bytes())
    key.update((ROOT / spec["config"]).read_bytes())
    key.update(" ".join(args).encode())
    record = (build_dir() / "outcomes" /
              f"{workload}-{seed}-{key.hexdigest()[:16]}.json")
    repeat_problems = []
    check_repeats([outcome(p) for p in passes], record, repeat_problems)
    if repeat_problems:
        failed = len(passes)
        problems += repeat_problems

    med = statistics.median
    metrics = {
        "setup_s": med([s for p in passes for s in p["setup_s"]]),
        "run_s": med([p["run_s"] for p in passes]),
        "epoch_p50_s": med([e for p in passes for e in p["epoch_s"]]),
        "requests_per_s": med([p["requests"] / p["run_s"] for p in passes]),
        "state_hash_s": med([s for p in passes for s in p["state_hash_s"]]),
        "fork_s": med([s for p in passes for s in p["fork_s"]]),
        "rss_mb": med([p["rss_mb"] for p in passes]),
    }
    samples = {
        "passes": len(passes),
        "setup_s": [p["setup_s"] for p in passes],
        "run_s": [p["run_s"] for p in passes],
        "state_hash_s": [p["state_hash_s"] for p in passes],
        "fork_s": [p["fork_s"] for p in passes],
        "rss_mb": [p["rss_mb"] for p in passes],
        "epochs": passes[0]["epochs"],
        "requests": passes[0]["requests"],
        "state_hash": passes[0]["state_hash"],
    }
    return metrics, len(passes), failed, problems, samples


def traced(binary, workload, seed, seconds, tiny, pin):
    """Untraced reference pass and traced replay, each in its own process
    (neither starts on a heap the other warmed), compared end state to end
    state; a replay that differs has its spans discarded."""
    args = driver_args(workload, seed, tiny)
    spans_dir = build_dir() / "traces"
    spans_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    problems = []
    failed = 0
    start = time.monotonic()
    while not runs or fits_another(start, len(runs), seconds, 1):
        spans = spans_dir / f"{workload}-{seed}-{len(runs)}.spans.jsonl"
        ref = run_driver(binary, ["pass", *args, "--fingerprint"])
        r = run_driver(binary, ["trace", *args, "--spans", str(spans)])
        r["per_layer"]["trace.overhead_ratio"] = (r["per_layer"]["trace.run_s"]
                                                  / ref["run_s"])
        runs.append((r, spans))
        before = len(problems)
        check_pass(ref, problems)
        if pin is not None and ref["state_hash"] != pin:
            problems.append("end state hash differs from the pinned one")
        if not r["rent_conserved"]:
            problems.append("rent not conserved in the traced replay")
        mismatch = [k for k in ("fingerprint", "stats", "traffic")
                    if r[k] != ref[k]]
        if mismatch:
            spans.unlink(missing_ok=True)
            problems.append("traced end state differs from the untraced one "
                            f"({', '.join(mismatch)}); trace discarded")
        elif not r["spans_written"]:
            problems.append("could not write the span file")
        failed += len(problems) > before
        state_hash = ref["state_hash"]
    metrics = {name: statistics.median(r["per_layer"][name] for r, _ in runs)
               for name in declared_units("per_layer")}
    samples = {"runs": len(runs), "spans": [str(s) for _, s in runs],
               "state_hash": state_hash,
               "fingerprint": runs[0][0]["fingerprint"]}
    return metrics, len(runs), failed, problems, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-test hooks (perfbench/selftest.py): shrunk populations, and an
    # explicit pinned hash checked at any seed.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    global _deadline
    try:
        spec = WORKLOADS[args.workload]
        if not (ROOT / spec["config"]).is_file():
            raise BenchError(f"workload config {spec['config']} not found")
        binary = build_driver()
        _deadline = time.monotonic() + DEADLINE_S
        host = host_fingerprint(binary)
        pin = args.pin
        if pin is None and not args.tiny and args.seed == spec["default_seed"]:
            pin = pinned_hash(args.workload)
        mode = traced if args.trace else untraced
        metrics, attempted, failed, problems, samples = mode(
            binary, args.workload, args.seed, args.seconds, args.tiny, pin)
        # Every declared metric, in declared order; one the driver did not
        # produce is a KeyError.
        units = declared_units("per_layer" if args.trace else "end_to_end")
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    for problem in problems:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "tiny": args.tiny, "host": host,
              "samples": samples, "problems": problems}
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed if failed or not problems else attempted,
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
