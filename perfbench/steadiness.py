#!/usr/bin/env python3
"""Two sets of benchmark runs of one commit, compared metric by metric.

    python3 perfbench/steadiness.py --workload shb-peaks --runs 10
    python3 perfbench/steadiness.py --workload all --runs 10 --first-seed 100

Run from the repository root.  Each run is ``perfbench/run.py`` in a new
process with its own seed (set 1 uses the seeds from --first-seed on, set
2 the next --runs seeds) and the run length from BENCHMARK.json.  For
every end-to-end metric and workload it prints each set's median and
quartiles, the spread (quartile distance over the median) and whether the
sets agree: both spreads within the metric's bound (setup_s exempt) and
the second median no worse than the first by more than the bound.  The
failed share must be identical in the two sets.  Exit code 0 when all agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    all_ok = True
    for workload in workloads:
        sets = []
        for s in range(2):
            first = args.first_seed + s * args.runs
            results = []
            for seed in range(first, first + args.runs):
                results.append(one_run(workload, seed, bench["run_seconds"]))
                print(f"# {workload} set {s + 1} seed {seed}: {json.dumps(results[-1])}", flush=True)
            sets.append(results)
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        wrong = [sum(not r["correct"] for r in rs) for rs in sets]
        ok = shares[0] == shares[1] and not any(wrong)
        print(f"{workload}: failed share {shares[0]:.4g} / {shares[1]:.4g}, runs not correct {wrong[0]} / {wrong[1]}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in rs]) for rs in sets]
            spreads = [(q3 - q1) / med for med, q1, q3 in stats]
            change = (stats[1][0] - stats[0][0]) / stats[0][0]
            worse = change if metric["better"] == "lower" else -change
            agree = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= agree
            print(
                f"  {name:18s} median {stats[0][0]:.6g} / {stats[1][0]:.6g} "
                f"quartiles [{stats[0][1]:.6g}, {stats[0][2]:.6g}] / [{stats[1][1]:.6g}, {stats[1][2]:.6g}] "
                f"spread {spreads[0]:.3f} / {spreads[1]:.3f} change {change:+.3f} "
                f"bound {bound} {'agree' if agree else 'DISAGREE'}"
                f"{'' if max(spreads) <= bound / 3 else ' (spread above bound/3)'}"
            )
        all_ok &= ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
