#!/usr/bin/env python3
"""Steadiness report: runs each workload with several seeds and prints,
per metric, the median, the quartiles and their spread as a share of the
median, next to the bound BENCHMARK.json fixes, plus the sample count
behind the latency percentiles.

    python3 perfbench/steadiness.py [--workloads search-l1,daemon-lint]
        [--seeds 1-10] [--seconds S] [--trace 0|1] [--set NAME]
    python3 perfbench/steadiness.py --compare NAME1 NAME2

Run it from the root of a padx checkout. --seconds defaults to the
run_seconds of BENCHMARK.json. Raw results land in
.bench_out/steadiness-<set>-<workload>.json (set "last" by default).
--compare reads two saved sets and prints, per workload and end-to-end
metric, how far the second set's median is from the first's, against the
metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def set_path(name, workload):
    return os.path.join(OUT, f"steadiness-{name}-{workload}.json")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        sys.exit(f"run failed: {' '.join(cmd)}\n{out.stderr[-2000:]}")
    info = {}
    for line in lines:
        if line.startswith("info "):
            info = json.loads(line[5:])
    return json.loads(lines[-1]), info


def medians(runs):
    names = runs[0]["result"]["metrics"]
    return {n: statistics.median(r["result"]["metrics"][n]["value"]
                                 for r in runs) for n in names}


def compare(spec, first, second):
    """Prints the change of each median from set `first` to `second`."""
    worse_is = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    print(f"{'workload':<14}{'metric':<14}{first:>12}{second:>12}"
          f"{'worse by':>10}{'bound':>8}")
    for w in (w["name"] for w in spec["workloads"]):
        with open(set_path(first, w)) as f:
            a = medians(json.load(f))
        with open(set_path(second, w)) as f:
            b = medians(json.load(f))
        for name, bound in bounds.items():
            change = (b[name] - a[name]) / a[name]
            worse = change if worse_is[name] == "lower" else -change
            worst = max(worst, worse / bound)
            print(f"{w:<14}{name:<14}{a[name]:>12.6g}{b[name]:>12.6g}"
                  f"{worse:>10.3f}{bound:>8}")
    print(f"worst (worse by) / bound: {worst:.2f}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--set", default="last")
    ap.add_argument("--compare", nargs=2, metavar="SET")
    args = ap.parse_args()
    if args.compare:
        compare(spec, *args.compare)
        return
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    os.makedirs(OUT, exist_ok=True)

    worst = worst_no_setup = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result, info = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "result": result, "info": info})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} passes={info.get('passes')} "
                  f"latency_samples={info.get('latency_samples')}",
                  flush=True)
        with open(set_path(args.set, workload), "w") as f:
            json.dump(runs, f, indent=1)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"{'metric':<32}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            if bound:
                worst = max(worst, spread / bound)
                if name != "setup_s":
                    worst_no_setup = max(worst_no_setup, spread / bound)
            print(f"{name:<32}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{bound if bound else '':>8}")
        for key in ("latency_samples", "samples_beyond_p99", "cost_vs_pad"):
            vals = [r["info"][key] for r in runs if key in r["info"]]
            if vals:
                print(f"{key}: {', '.join(vals)}")
        print()
    print(f"worst spread / bound: {worst:.2f} "
          f"(without setup_s: {worst_no_setup:.2f})")


if __name__ == "__main__":
    main()
