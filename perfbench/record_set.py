#!/usr/bin/env python3
"""Records one run set: the benchmark on every workload at each given
seed, plus one traced run per workload, summarized into one JSON line
appended to perfbench/trajectory.jsonl.

    python3 perfbench/record_set.py --label <name> --seeds 42 1 2 3 4 5 6 7 8 9

Run from the repository root (the same place run.py runs from). Each
end-to-end metric gets its median, quartiles and spread — the distance
between the quartiles (statistics.quantiles, n=4) as a share of the
median — over the seeds; the spread is what BENCHMARK.json's bound is
compared against. The traced run (first seed) contributes the per-layer
numbers. Prints the summary line and exits 1 if any run was incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    """Returns run.py's (detail, result) lines and its wall seconds."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run.py {workload} seed {seed} trace {trace} "
                           f"exited {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1]), time.monotonic() - start


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    entry = {"label": args.label, "run_seconds": seconds,
             "seeds": args.seeds, "workloads": {}}
    all_correct = True
    for w in bench["workloads"]:
        name = w["name"]
        values, units, correct, host, walls = {}, {}, 0, None, []
        for seed in args.seeds:
            detail, result, wall = run_once(name, seed, seconds, 0)
            walls.append(wall)
            host = host or detail["host"]
            correct += bool(result["correct"])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            print(f"{name} seed {seed}: correct={result['correct']}",
                  file=sys.stderr)
        detail, traced, traced_wall = run_once(name, args.seeds[0], seconds, 1)
        correct_traced = bool(traced["correct"])
        all_correct &= correct == len(args.seeds) and correct_traced
        entry.setdefault("host", host)
        entry["workloads"][name] = {
            "correct_runs": correct,
            "runs": len(args.seeds),
            "run_wall_s": walls,
            "end_to_end": {
                metric: {"unit": units[metric], "bound": bounds[metric],
                         **summarize(v)}
                for metric, v in values.items()},
            "traced": {"seed": args.seeds[0], "correct": correct_traced,
                       "run_wall_s": traced_wall,
                       "per_layer": {k: m["value"]
                                     for k, m in traced["metrics"].items()}},
        }
    line = json.dumps(entry, sort_keys=True)
    with open(BENCH_DIR / "trajectory.jsonl", "a", encoding="utf-8") as out:
        out.write(line + "\n")
    print(line)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
