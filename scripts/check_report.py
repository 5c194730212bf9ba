#!/usr/bin/env python3
"""Validate a GNN-DSE telemetry run report (schema_version 2).

Stdlib-only. Checks the JSON structure emitted by obs::report_json()
(docs/observability.md), then asserts the required stage spans, counters,
and gauges are present. Exit code 0 = valid, 1 = invalid, 2 = usage/IO
error.

Usage:
  check_report.py REPORT.json
      [--require-span pipeline/train ...]   (slash-separated path, repeatable)
      [--require-span-anywhere NAME ...]    (any depth, repeatable)
      [--require-counter NAME ...]          (repeatable)
      [--require-gauge NAME ...]            (repeatable)
      [--require-histogram NAME ...]        (repeatable, count must be > 0)
      [--no-defaults]  only check the schema plus explicit requirements

Default requirements (the standing pipeline stages):
  spans:        pipeline/train, pipeline/dse.search, pipeline/hls.evaluate_top
  spans (any):  oracle.lookup, oracle.sim
  counters:     dse.configs_explored, hlssim.evaluations, oracle.misses,
                gnn.template_misses, gnn.fastpath_forwards
  gauges:       parallel.pool_size, parallel.queue_depth
  histograms:   dse.predict_chunk_ms
"""

import argparse
import json
import sys

DEFAULT_SPANS = [
    "pipeline/train",
    "pipeline/dse.search",
    "pipeline/hls.evaluate_top",
]
# Oracle decorator coverage: the cache probe and the simulator span must
# appear somewhere in the tree (their depth depends on how many decorators
# the oracle stack composed and on which thread's chunk they ran).
DEFAULT_SPANS_ANYWHERE = [
    "oracle.lookup",
    "oracle.sim",
]
DEFAULT_COUNTERS = [
    "dse.configs_explored",
    "hlssim.evaluations",
    # Every evaluation flows through oracle::CachingEvaluator; a pipeline
    # run always evaluates at least one uncached design.
    "oracle.misses",
    # The inference fast path: each kernel's graph template is built at
    # least once, and every DSE chunk prediction runs the tape-free
    # forward. Their absence means the fast path silently fell out of the
    # pipeline.
    "gnn.template_misses",
    "gnn.fastpath_forwards",
]
# Gauges are presence-only (a queue that drained back to 0 is healthy).
# Both are registered when the global pool is constructed, so they must
# exist in any run that touched parallel_for — at every thread count.
DEFAULT_GAUGES = [
    "parallel.pool_size",
    "parallel.queue_depth",
    # Published by the SIMD dispatch layer (src/util/cpu.cpp) as soon as the
    # level resolves — any run that executed a dispatched kernel has it.
    "tensor.simd_level",
]

# The sweep engine observes every scored chunk's predict time; its
# absence means the DSE loop ran outside the engine entirely.
DEFAULT_HISTOGRAMS = [
    "dse.predict_chunk_ms",
]

HISTOGRAM_KEYS = ("count", "sum_ms", "min_ms", "max_ms", "p50_ms", "p95_ms",
                  "buckets")


def fail(msg):
    print(f"check_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_span(span, where):
    if not isinstance(span, dict):
        fail(f"{where}: span is not an object")
    if not isinstance(span.get("name"), str) or not span["name"]:
        fail(f"{where}: span has no name")
    for key in ("start_ms", "duration_ms"):
        if not isinstance(span.get(key), (int, float)):
            fail(f"{where}/{span.get('name')}: missing numeric {key}")
    # v2: every span carries the trace-local id of its recording thread.
    if not isinstance(span.get("tid"), int) or span["tid"] < 0:
        fail(f"{where}/{span['name']}: missing non-negative integer tid")
    if span.get("open"):
        fail(f"{where}/{span['name']}: span was never closed")
    counters = span.get("counters", {})
    if not isinstance(counters, dict):
        fail(f"{where}/{span['name']}: counters is not an object")
    for k, v in counters.items():
        if not isinstance(v, (int, float)):
            fail(f"{where}/{span['name']}: counter {k} is not numeric")
    children = span.get("children")
    if not isinstance(children, list):
        fail(f"{where}/{span['name']}: missing children array")
    for child in children:
        check_span(child, f"{where}/{span['name']}")


def find_span(roots, path):
    """Walks a slash-separated span path; children may repeat (any match)."""
    parts = path.split("/")
    level = roots
    found = None
    for part in parts:
        found = None
        for span in level:
            if span.get("name") == part:
                found = span
                break
        if found is None:
            return None
        level = found.get("children", [])
    return found


def iter_spans(spans):
    for s in spans:
        yield s
        yield from iter_spans(s.get("children", []))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report")
    ap.add_argument("--require-span", action="append", default=[])
    ap.add_argument("--require-span-anywhere", action="append", default=[])
    ap.add_argument("--require-counter", action="append", default=[])
    ap.add_argument("--require-gauge", action="append", default=[])
    ap.add_argument("--require-histogram", action="append", default=[])
    ap.add_argument("--no-defaults", action="store_true")
    args = ap.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_report: cannot read {args.report}: {e}",
              file=sys.stderr)
        sys.exit(2)

    # --- schema -----------------------------------------------------------
    if doc.get("schema_version") != 2:
        fail(f"schema_version is {doc.get('schema_version')!r}, expected 2")
    if not isinstance(doc.get("tool"), str) or not doc["tool"]:
        fail("missing tool name")
    if not isinstance(doc.get("elapsed_seconds"), (int, float)):
        fail("missing numeric elapsed_seconds")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(f"missing {section} object")
    for name, v in doc["counters"].items():
        if not isinstance(v, int):
            fail(f"counter {name} is not an integer")
    for name, v in doc["gauges"].items():
        if not isinstance(v, (int, float)):
            fail(f"gauge {name} is not numeric")
    for name, h in doc["histograms"].items():
        for key in HISTOGRAM_KEYS:
            if key not in h:
                fail(f"histogram {name} missing {key}")
        total = sum(b["count"] for b in h["buckets"])
        if total != h["count"]:
            fail(f"histogram {name}: bucket counts sum to {total}, "
                 f"count says {h['count']}")
    if not isinstance(doc.get("spans"), list):
        fail("missing spans array")
    for span in doc["spans"]:
        check_span(span, "")

    # --- required stages --------------------------------------------------
    spans = list(args.require_span)
    anywhere = list(args.require_span_anywhere)
    counters = list(args.require_counter)
    gauges = list(args.require_gauge)
    req_histograms = list(args.require_histogram)
    if not args.no_defaults:
        spans += DEFAULT_SPANS
        anywhere += DEFAULT_SPANS_ANYWHERE
        counters += DEFAULT_COUNTERS
        gauges += DEFAULT_GAUGES
        req_histograms += DEFAULT_HISTOGRAMS
    for path in spans:
        if find_span(doc["spans"], path) is None:
            fail(f"required span missing: {path}")
    seen_names = {s.get("name") for s in iter_spans(doc["spans"])}
    for name in anywhere:
        if name not in seen_names:
            fail(f"required span missing (any depth): {name}")
    for name in counters:
        if name not in doc["counters"]:
            fail(f"required counter missing: {name}")
        if doc["counters"][name] <= 0:
            fail(f"required counter {name} is {doc['counters'][name]}, "
                 "expected > 0")
    for name in gauges:
        if name not in doc["gauges"]:
            fail(f"required gauge missing: {name}")
    for name in req_histograms:
        if name not in doc["histograms"]:
            fail(f"required histogram missing: {name}")
        elif doc["histograms"][name]["count"] <= 0:
            fail(f"required histogram {name} has no observations")

    n_spans = sum(1 for _ in iter_spans(doc["spans"]))
    print(f"check_report: OK: {args.report} ({doc['tool']}, "
          f"{len(doc['counters'])} counters, {n_spans} spans)")
    sys.exit(0)


if __name__ == "__main__":
    main()
