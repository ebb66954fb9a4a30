#!/usr/bin/env python3
"""Steadiness report: runs every workload k times and summarizes each metric.

    python3 perfbench/steadiness.py --runs 10 [--sets 2] [--workloads a,b]

Each round runs every workload once with a fresh seed, alternating the
workload order between rounds. For every workload and metric it prints the
median, the quartiles (Python's statistics.quantiles, n=4), the spread
(inter-quartile distance over the median) and the max/min ratio, and flags
an end-to-end metric whose spread exceeds its bound in BENCHMARK.json.

With --sets 2 it runs the whole round twice (seeds continue) and also
flags a metric whose second median is worse than the first by more than
its bound: the check two independent sets of runs must pass.

Run it from the root of a checkout; it calls perfbench/run.py, which
builds on first use.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["_stdout"] = lines
    return result, wall


def result_lines(result):
    return result.get("_stdout", [])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    ratio = max(values) / min(values) if min(values) > 0 else float("inf")
    return q1, q2, q3, spread, ratio


def run_set(workloads, runs, seed0, seconds, diagnostics, log):
    """{workload: {metric: [values]}} plus per-run walls."""
    values = {w: {} for w in workloads}
    walls = {w: [] for w in workloads}
    seed = seed0
    for r in range(runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            result, wall = run_once(w, seed, seconds)
            seed += 1
            walls[w].append(wall)
            if not result["correct"]:
                problems = [l for l in result_lines(result)
                            if l.startswith("PROBLEM")]
                log(f"  INCORRECT {w} seed {seed - 1}: " + "; ".join(problems))
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            if diagnostics:
                for line in result_lines(result):
                    if line.startswith("diag "):
                        fields = line.split()
                        values[w].setdefault(fields[1], []).append(
                            float(fields[2]))
            log(f"  round {r + 1}/{runs} {w} seed {seed - 1}: {wall:.1f} s, "
                f"{result['attempted']} calls, {result['failed']} failed")
    return values, walls, seed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=[1, 2])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--diagnostics", action="store_true",
                        help="also summarize the printed diagnostics")
    args = parser.parse_args()

    spec = load_spec()
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    log = lambda msg: print(msg, flush=True)

    log("note: the first run after the host has been idle was 20-60% "
        "slower on setup_s when this benchmark was designed; treat an "
        "outlying first setup_s with suspicion.")
    sets = []
    seed = args.seed
    for s in range(args.sets):
        log(f"set {s + 1}: {args.runs} rounds of {', '.join(workloads)}")
        values, walls, seed = run_set(workloads, args.runs, seed, seconds,
                                      args.diagnostics, log)
        sets.append(values)
        for w in workloads:
            log(f"  {w}: median run wall {statistics.median(walls[w]):.1f} s")

    flagged = 0
    for w in workloads:
        log(f"\n{w}")
        log(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} "
            f"{'spread':>7} {'max/min':>7}  bound")
        for name in sets[0][w]:
            if min(sets[0][w][name]) == max(sets[0][w][name]) == 0:
                continue
            q1, med, q3, spread, ratio = summarize(sets[0][w][name])
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  SPREAD ABOVE BOUND"
            elif bound is not None and spread > bound / 3:
                flag = "  spread above bound/3"
            if len(sets) == 2 and bound is not None:
                _, med2, _, spread2, _ = summarize(sets[1][w][name])
                worse = ((med2 - med) / med if better[name] == "lower"
                         else (med - med2) / med)
                flag += f"  set2 {med2:.6g} ({worse:+.1%}, spread {spread2:.1%})"
                if spread2 > bound:
                    flag += " SET2 SPREAD ABOVE BOUND"
                if worse > bound:
                    flag += " SECOND SET WORSE THAN BOUND"
            if "ABOVE" in flag or "WORSE" in flag:
                flagged += 1
            log(f"  {name:<36} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                f"{spread:>7.1%} {ratio:>7.3f}  "
                f"{'' if bound is None else bound}{flag}")
    log(f"\n{flagged} metric(s) outside their bounds")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
