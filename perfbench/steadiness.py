#!/usr/bin/env python3
"""Steadiness runner for the end-to-end benchmark.

Repeats every workload over consecutive seeds, alternating the workload
order from one seed to the next, and reports for each end-to-end metric its
median and interquartile spread (q3 - q1, as a share of the median) against
the bound BENCHMARK.json fixes. With --sets 2 it repeats the whole sweep and
also compares the two sets' medians, which is the agreement check a
benchmark must pass to be trusted.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--first-seed 1]
                                    [--workloads city_ingest,reid_paths]
                                    [--seconds S]

Exits with status 1 if any run failed or any figure is out of bounds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        return None
    result = json.loads(lines[-1])
    # The host-speed gauge's reading, shown beside each run for context.
    for line in lines:
        if line.startswith("host reference kernel: median "):
            result["host_ms"] = float(line.split()[4])
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def sweep(workloads, seeds, seconds, failures):
    """Returns {workload: {metric: [values]}} over all seeds."""
    results = {w: {} for w in workloads}
    for i, seed in enumerate(seeds):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, seed, seconds)
            if r is None or not r["correct"] or r["failed"] != 0:
                failures.append(f"{w} seed {seed}: run failed or incorrect")
                continue
            for name, m in r["metrics"].items():
                results[w].setdefault(name, []).append(m["value"])
            print(f"  seed {seed:>6} {w:<13} "
                  f"host_ms={r.get('host_ms', 0):.1f} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                flush=True)
    return results


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    failures, problems = [], []
    sets = []
    for s in range(args.sets):
        print(f"set {s + 1}: seeds {seeds[0]}..{seeds[-1]}", flush=True)
        sets.append(sweep(workloads, seeds, args.seconds, failures))

    print(f"\n{'workload':<13} {'metric':<18} {'median':>12} "
          f"{'spread':>8} {'bound':>6}  {'set2 vs set1':>12}  flag")
    for w in workloads:
        for name, m in metrics.items():
            values = sets[0][w].get(name, [])
            if len(values) < 4:
                problems.append(f"{w}/{name}: too few values")
                continue
            med = statistics.median(values)
            # The widest spread of any set counts.
            spr = max(spread(st[w][name]) for st in sets
                      if len(st[w].get(name, [])) >= 4)
            bound = m["bound"]
            flag = ""
            if name != "setup_s" and spr > bound:
                flag = "SPREAD>BOUND"
            elif spr > bound / 3:
                flag = "spread>bound/3"
            drift = ""
            if len(sets) == 2 and len(sets[1][w].get(name, [])) >= 4:
                med2 = statistics.median(sets[1][w][name])
                worse = (med2 - med) / med
                if m["better"] == "higher":
                    worse = -worse
                drift = f"{worse:+.4f}"
                if worse > bound:
                    flag += " SET2_WORSE"
            if "SPREAD>BOUND" in flag or "SET2_WORSE" in flag:
                problems.append(f"{w}/{name}: {flag.strip()}")
            print(f"{w:<13} {name:<18} {med:>12.6g} {spr:>8.4f} "
                  f"{bound:>6.3f}  {drift:>12}  {flag}")
    for line in failures + problems:
        print("PROBLEM:", line)
    return 1 if failures or problems else 0


if __name__ == "__main__":
    sys.exit(main())
