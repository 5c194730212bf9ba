#!/usr/bin/env python3
"""Compares two sets of bench_e2e results against the BENCHMARK.json bounds.

    python3 bench/e2e/compare_runs.py BASE_DIR NEW_DIR [--benchmark FILE]

Each directory is searched recursively for result.json files (run.py
writes one per run under .bench_build/bench/e2e/results/). For every
(metric, workload) the script prints each side's median and quartiles
(statistics.quantiles, n=4) and a verdict:

  worse       the new median is worse than the base median by more than
              the metric's bound
  unresolved  a side's quartile spread, as a share of its median, exceeds
              the bound, and not every new run beats every base run
  ok          otherwise

Per-layer metrics (traced runs) have no bound; they get medians only.
Results whose `host` blocks differ are refused (exit 2): numbers from
different machines do not compare. Exit 1 when any metric is worse.
Stdlib only.
"""
import argparse
import json
import os
import statistics
import sys


def load(directory):
    results = []
    for d, _, files in os.walk(directory):
        if "result.json" in files:
            with open(os.path.join(d, "result.json")) as f:
                results.append(json.load(f))
    return results


def summary(values):
    """(q1, median, q3); statistics.quantiles needs two values or more."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(here)), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    sides = {"base": load(args.base), "new": load(args.new)}
    for name, results in sides.items():
        if not results:
            print("no result.json under the %s directory" % name)
            return 2
    hosts = {json.dumps(r["host"], sort_keys=True)
             for rs in sides.values() for r in rs}
    if len(hosts) > 1:
        print("refusing to compare: results come from different hosts:")
        for h in sorted(hosts):
            print("  " + h)
        return 2

    # values[(workload, metric)][side] -> list of run values
    values = {}
    for side, results in sides.items():
        for r in results:
            if not r["correct"]:
                print("note: %s run %s (seed %s) failed its checks" % (
                    side, r["inputs"]["workload"], r["inputs"]["seed"]))
            for metric, v in r["metrics"].items():
                if metric in specs:
                    key = (r["inputs"]["workload"], metric)
                    values.setdefault(key, {}).setdefault(side, []).append(
                        v["value"])

    worse = 0
    print("%-16s %-34s %-28s %-28s %8s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change", "verdict"))
    for (workload, metric), by_side in sorted(values.items()):
        if "base" not in by_side or "new" not in by_side:
            continue
        spec = specs[metric]
        b, n = by_side["base"], by_side["new"]
        bq1, bmed, bq3 = summary(b)
        nq1, nmed, nq3 = summary(n)
        change = (nmed - bmed) / bmed if bmed else 0.0
        verdict = ""
        if "bound" in spec:
            bound = spec["bound"]
            lower = spec["better"] == "lower"
            loss = change if lower else -change
            spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                         (nq3 - nq1) / nmed if nmed else 0.0)
            all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
            if loss > bound:
                verdict = "worse"
                worse += 1
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
        base = "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3)
        new = "%.4g [%.4g, %.4g]" % (nmed, nq1, nq3)
        print("%-16s %-34s %-28s %-28s %+7.1f%%  %s" % (
            workload, metric, base, new, 100 * change, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
