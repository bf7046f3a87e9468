#!/usr/bin/env python3
"""Steadiness check: runs one workload N times with different seeds and
prints, for every metric, the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload kv-steal --runs 10
    python3 perfbench/steady.py --workload all --runs 5 --trace 1

Run it from the repository root. Quartiles are Python's
statistics.quantiles(values, n=4). A spread at or below a third of the
bound reads "steady", at or below the bound "within", above it "WIDE".
Exits 1 when a run fails, reports an incorrect output, or a bounded
spread (setup_s excepted) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1]), wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0 + i")
    parser.add_argument("--seconds", type=int, help="defaults to run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]] if opts.workload == "all" else [opts.workload]

    ok = True
    for workload in workloads:
        values, shares, walls = {}, set(), []
        for i in range(opts.runs):
            result, wall = run_once(bench["command"], workload, opts.seed0 + i, seconds, opts.trace)
            walls.append(wall)
            ok &= result["correct"]
            shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"{workload} seed {opts.seed0 + i}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} wall={wall:.1f}s",
                  flush=True)
        print(f"\n{workload}: {opts.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed shares {sorted(shares, key=str)}")
        print(f"{'metric':<28}{'unit':>8}{'median':>16}{'q1':>16}{'q3':>16}{'spread':>9}{'bound':>7}")
        for name, (unit, vs) in sorted(values.items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread <= bound / 3 else "within" if spread <= bound else "WIDE"
                if verdict == "WIDE" and name != "setup_s":
                    ok = False
            print(f"{name:<28}{unit:>8}{med:>16.6g}{q1:>16.6g}{q3:>16.6g}{spread:>9.3f}"
                  f"{'' if bound is None else bound:>7} {verdict}")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
