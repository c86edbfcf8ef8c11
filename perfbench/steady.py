#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command in BENCHMARK.json once per seed on each chosen workload and
prints, for every metric, the median and quartiles over the runs made, the
spread (interquartile distance over the median) against the metric's bound,
and the host canary beside them, so a drift in timings can be told apart
from a drift of the host.

    python3 perfbench/steady.py --workload intermittent --seeds 1-5
    python3 perfbench/steady.py --workload all --seeds 1-10 --seconds 20
    python3 perfbench/steady.py --workload serve --seeds 7 --repeat 2

With --repeat N each seed runs N times, and the run's exact facts (failure
counts, checksums, simulated latencies, per-layer counts) must repeat bit for
bit. Every run's result is appended to perfbench/out/runs.jsonl.

Run it from the root of the repository.
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

# Facts that must repeat exactly across runs of one seed.
EXACT_INFO = {
    "fail_ratio", "adopted_iteration", "final_accuracy",
    "final_density", "device_latency_s", "jobs_per_cycle", "outcome_checksum",
    "requests", "admitted", "degraded", "replay_matches",
}
EXACT_UNITS = {"count", "ratio", "s"}
# Per-layer values that are timings or depend on the host, never exact.
HOST_DEPENDENT = {
    "host.canary_ms", "trace.overhead_ms", "trace.spans", "core.step_coverage",
    "tensor.par_parallel_share",
}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        if line.startswith("info "):
            info = json.loads(line[len("info "):])
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "result": result, "info": info}


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def exact_facts(run):
    facts = {k: v for k, v in run["info"].items() if k in EXACT_INFO}
    facts["attempted_failed"] = (run["result"]["failed"], run["result"]["correct"])
    if run["trace"]:
        for name, m in run["result"]["metrics"].items():
            if m["unit"] in EXACT_UNITS and name not in HOST_DEPENDENT:
                facts[name] = m["value"]
    return facts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True,
                    help="workload name, or 'all' (repeatable)")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=None,
                    help="defaults to run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    workloads = [w["name"] for w in bench["workloads"]] if "all" in args.workload else args.workload
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = open(os.path.join(HERE, "out", "runs.jsonl"), "a")
    ok = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            reps = [run_once(bench, workload, seed, seconds, args.trace) for _ in range(args.repeat)]
            for r in reps:
                log.write(json.dumps(r) + "\n")
                log.flush()
                if not r["result"]["correct"]:
                    print(f"{workload} seed {seed}: outputs not correct")
                    ok = False
            first = exact_facts(reps[0])
            for r in reps[1:]:
                again = exact_facts(r)
                diff = {k: (first.get(k), again.get(k)) for k in set(first) | set(again)
                        if first.get(k) != again.get(k)}
                if diff:
                    print(f"{workload} seed {seed}: exact facts differ across runs: {diff}")
                    ok = False
            runs.extend(reps)
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in reps[-1]["result"]["metrics"].items()
                if args.trace == 0) + f" (run {reps[-1]['wall_s']:.1f} s)", flush=True)

        canary = [r["info"].get("canary_ms", 0.0) for r in runs]
        cq1, cmed, cq3 = quartiles(canary)
        print(f"\n{workload}: {len(runs)} runs, seconds {seconds}, trace {args.trace}")
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}"
              f"   canary median {cmed:.3f} ms [q1 {cq1:.3f}, q3 {cq3:.3f}]")
        for name in [m["name"] for m in declared]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  above bound/3"
            print(f"  {name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f}"
                  f" {bound if bound is not None else '':>6}{flag}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
