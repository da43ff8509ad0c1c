#!/usr/bin/env python3
"""Repeat-run spread of the benchmark's end-to-end metrics.

Runs every workload of BENCHMARK.json ten times, seeds 1..10, with the
command and run_seconds it declares, and prints, per metric, the median and
the quartile spread (Q3 - Q1, from statistics.quantiles(values, n=4)) as a
share of the median, next to the metric's bound. Run it from the repository
root:

    python3 perfbench/spread.py --save set1.json
    python3 perfbench/spread.py --save set2.json --compare set1.json

A set is accepted when every metric's spread is within its bound, except
setup_s's: the benchmark contract gates setup_s only on its median, and
ingest's set-up, a few tenths of a second, has spread past the largest
bound a metric may take (EVIDENCE.md). Its spread is still printed.
--compare checks a second set against a saved first one as well: every
metric's median, setup_s's too, may be worse by at most its bound, and
every seed's simulated statistics ("perfbench: stat" lines) must repeat
exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    stats = [l for l in lines if l.startswith("perfbench: stat ")]
    return json.loads(lines[-1]), stats


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--save", help="write this set's values and statistics to a JSON file")
    ap.add_argument("--compare", help="a saved first set to check this one against")
    args = ap.parse_args()
    command, seconds = bench["command"], bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    first = json.load(open(args.compare)) if args.compare else None

    saved, worst, ok = {}, 0.0, True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in metrics}
        stats = {}
        for seed in range(1, RUNS + 1):
            res, stat_lines = run_once(command, workload, seed, seconds)
            if not res["correct"] or res["failed"]:
                print(f"{workload} seed {seed}: incorrect result {res}")
                ok = False
            for name in metrics:
                values[name].append(res["metrics"][name]["value"])
            stats[str(seed)] = stat_lines
        saved[workload] = {"values": values, "stats": stats}
        print(f"\n{workload}: {RUNS} runs of {seconds} s, seeds 1..{RUNS}")
        head = "| metric | median | spread (IQR/median) | bound | spread/bound |"
        if first:
            head += " first-set median | change |"
        print(head)
        print("|" + "---|" * (head.count("|") - 1))
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            bound = metrics[name]["bound"]
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bound)
                ok &= spread <= bound
            row = f"| {name} | {med:.6g} | {spread:.4f} | {bound} | {spread / bound:.2f} |"
            if first:
                med1 = statistics.median(first[workload]["values"][name])
                change = (med - med1) / med1
                worse = -change if metrics[name]["better"] == "higher" else change
                ok &= worse <= bound
                row += f" {med1:.6g} | {change:+.4f} |"
            print(row)
        if first:
            same = first[workload]["stats"] == stats
            ok &= same
            print(f"\nsimulated statistics identical to the first set for every seed: {same}")
    print(f"\nworst spread/bound, setup_s excluded: {worst:.2f}")
    if args.save:
        json.dump(saved, open(args.save, "w"), indent=1)
    print("accepted" if ok else "NOT accepted")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
