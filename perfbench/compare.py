#!/usr/bin/env python3
"""Run two sets of benchmark runs of one commit and say whether they agree.

For each workload in BENCHMARK.json, each of the two sets runs the
benchmark command `--runs` times, with seeds `--seed-base`,
`--seed-base + 1`, ...; both sets use the same seeds, so counts and
quality must match between them and the timings differ only by run noise.
For every end-to-end metric it prints each set's median, first and third
quartile, and the spread (interquartile range over median). The sets agree
when, for every metric,

* the spread of each set is within the metric's bound (`setup_s` is
  exempt: its median must still agree),
* the two medians differ by no more than the bound, as a share of the
  first,

when `llm_calls` and `quality` are identical at each seed in both sets,
and when the share of failed operations is exactly the same in both sets.
Exits 0 when they agree, 1 when they do not.

Usage, from the root of the repository:

    python3 perfbench/compare.py [--runs 10] [--workloads a,b]
                                 [--seconds S] [--seed-base 1000]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Metrics that must repeat exactly at a fixed seed.
EXACT = ("llm_calls", "quality")


def run_once(command, workload, seed, seconds, trace=0):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return result, elapsed


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    command = spec["command"]
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]

    # Build once up front so that no timed run pays for compilation.
    run_once(command, workloads[0], args.seed_base, 1)

    agree = True
    for workload in workloads:
        sets = []
        for s in range(2):
            results = []
            for i in range(args.runs):
                seed = args.seed_base + i
                result, elapsed = run_once(command, workload, seed, seconds)
                results.append(result)
                print(f"  {workload} set {s + 1} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
            sets.append(results)

        print(f"\n== {workload}")
        print(f"{'metric':<18}" + "".join(
            f"{'set ' + str(s + 1) + ' q1/median/q3':>40}{'spread':>9}" for s in range(2)
        ) + f"{'bound':>8}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row, verdict = f"{name:<18}", "ok"
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                row += f"{q1:>13.6g}{med:>13.6g}{q3:>14.6g}{spread:>9.4f}"
                if name != "setup_s" and spread > bound:
                    verdict = "SPREAD"
                elif name != "setup_s" and spread > bound / 3 and verdict == "ok":
                    verdict = "ok (spread > bound/3)"
            first, second = medians
            if first and abs(second - first) / abs(first) > bound:
                verdict = "MEDIAN"
            if verdict in ("SPREAD", "MEDIAN"):
                agree = False
            print(f"{row}{bound:>8}  {verdict}")
        for name in EXACT:
            pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                     for a, b in zip(*sets)]
            differ = [args.seed_base + i for i, (a, b) in enumerate(pairs) if a != b]
            print(f"{name} identical at every seed: "
                  + (f"DIFFER at seeds {differ}" if differ else "ok"))
            agree &= not differ
        shares = [
            (sum(r["failed"] for r in results), sum(r["attempted"] for r in results))
            for results in sets
        ]
        f0, a0 = shares[0]
        same_share = all(f * a0 == f0 * a for f, a in shares)
        print(f"failed/attempted per set: {shares}  {'ok' if same_share else 'DIFFER'}")
        agree &= same_share

    print("\nthe two sets " + ("agree" if agree else "DO NOT agree"))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
