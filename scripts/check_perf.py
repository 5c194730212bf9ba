#!/usr/bin/env python3
"""Gate DSE inference latency against a committed baseline.

Stdlib-only. Reads a telemetry run report (obs::report_json, the file the
obs_report_emit ctest fixture writes) and a baseline JSON with the shape

  {"histograms": {"dse.predict_chunk_ms": {"p50_ms": <float>}, ...},
   "gauges": {"dse.sweep_configs_per_sec": {"value": <float>}}}

(bench/BASELINE_perf.json — a pruned copy of a known-good report). For each
baseline histogram present in the report, the report's p50 must not exceed
`ratio` times the baseline p50. Histograms named in the baseline but absent
from the report fail: the instrumented path fell out of the pipeline.
Baseline gauges are throughput floors: the report's value must be at least
baseline / ratio (the inverse band — gauges here are rates, not latencies).

The 2x default absorbs container/CI jitter while still catching the
regressions that matter (an accidental tape fallback in the DSE loop is
>5x). Exit 0 = within budget, 1 = regression, 2 = usage/IO error.

Usage:
  check_perf.py REPORT.json BASELINE.json [--ratio 2.0]
Refresh the baseline from a current report:
  check_perf.py REPORT.json BASELINE.json --update
"""

import argparse
import json
import sys

GATED_HISTOGRAMS = [
    "dse.predict_chunk_ms",
    "dse.featurize_chunk_ms",
    "dse.frontier_keep_ms",
]
# Rates gated as floors (report >= baseline / ratio).
GATED_GAUGES = ["dse.sweep_configs_per_sec"]


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_perf: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report")
    ap.add_argument("baseline")
    ap.add_argument("--ratio", type=float, default=2.0,
                    help="max allowed report_p50 / baseline_p50 (default 2)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite BASELINE from REPORT instead of checking")
    args = ap.parse_args()

    report = load(args.report)
    histograms = report.get("histograms", {})
    gauges = report.get("gauges", {})

    if args.update:
        baseline = {"histograms": {}, "gauges": {}}
        for name in GATED_HISTOGRAMS:
            if name not in histograms:
                print(f"check_perf: report has no histogram {name}",
                      file=sys.stderr)
                sys.exit(2)
            h = histograms[name]
            baseline["histograms"][name] = {
                "p50_ms": h["p50_ms"], "count": h["count"],
            }
        for name in GATED_GAUGES:
            if name not in gauges:
                print(f"check_perf: report has no gauge {name}",
                      file=sys.stderr)
                sys.exit(2)
            baseline["gauges"][name] = {"value": gauges[name]}
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"check_perf: wrote baseline {args.baseline}")
        sys.exit(0)

    base = load(args.baseline).get("histograms", {})
    if not base:
        print("check_perf: baseline has no histograms", file=sys.stderr)
        sys.exit(2)

    failed = False
    for name, ref in base.items():
        if name not in histograms:
            print(f"check_perf: FAIL: report is missing histogram {name}",
                  file=sys.stderr)
            failed = True
            continue
        got = histograms[name].get("p50_ms", 0.0)
        want = ref.get("p50_ms", 0.0)
        if want <= 0:
            print(f"check_perf: baseline p50 for {name} is {want}; skipping")
            continue
        ratio = got / want
        status = "OK" if ratio <= args.ratio else "FAIL"
        print(f"check_perf: {status}: {name} p50 {got:.3f} ms vs baseline "
              f"{want:.3f} ms ({ratio:.2f}x, budget {args.ratio:.1f}x)")
        if ratio > args.ratio:
            failed = True

    for name, ref in load(args.baseline).get("gauges", {}).items():
        want = ref.get("value", 0.0)
        if want <= 0:
            print(f"check_perf: baseline value for {name} is {want}; skipping")
            continue
        if name not in gauges:
            print(f"check_perf: FAIL: report is missing gauge {name}",
                  file=sys.stderr)
            failed = True
            continue
        got = gauges[name]
        floor = want / args.ratio
        status = "OK" if got >= floor else "FAIL"
        print(f"check_perf: {status}: {name} {got:.1f} vs baseline "
              f"{want:.1f} (floor {floor:.1f} at {args.ratio:.1f}x band)")
        if got < floor:
            failed = True
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
