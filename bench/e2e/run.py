#!/usr/bin/env python3
"""Builds the repository with the end-to-end benchmark, prepares the pinned
model bundle, and runs one workload of bench_e2e.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The build goes to .bench_build at the repository root (CMake, Release; the
benchmark joins the repository's build through inject.cmake). The bundle
is trained once per build directory (`bench_e2e prepare`). Each run writes
result.json, and in traced runs the program report, Chrome traces and
layers.md, to .bench_build/bench/e2e/results/<run>/. The last line of
standard output is the run's JSON result. Stdlib only.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print("bench/e2e/run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds bench_e2e and the gnndse CLI."""
    log_path = os.path.join(BUILD, "bench_build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_INCLUDE=" +
                      os.path.join(HERE, "inject.cmake")])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "gnndse", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; see " + log_path)


def source_id():
    """Digest of the sources being measured (the checkout has no git)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench/e2e"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def run(cmd, timeout):
    """Runs cmd in its own process group, so a timeout also stops the serve
    daemon it may have started."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("bench_e2e timed out after %d s" % timeout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing from %s; run from a full checkout" %
                 (need, ROOT), 2)
    build()
    binary = os.path.join(BUILD, "bench", "e2e", "bench_e2e")
    cache = os.path.join(BUILD, "bench", "e2e", "cache")
    os.environ.setdefault("GNNDSE_LOG_LEVEL", "warn")
    prep = subprocess.run([binary, "prepare", "--cache", cache],
                          stdout=subprocess.PIPE, text=True)
    sys.stderr.write(prep.stdout)
    if prep.returncode != 0:
        fail("bench_e2e prepare failed")

    out = os.path.join(BUILD, "bench", "e2e", "results", "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    sys.exit(run([binary, "run", "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--cache", cache, "--out", out,
                  "--gnndse", os.path.join(BUILD, "src", "cli", "gnndse"),
                  "--benchmark", os.path.join(ROOT, "BENCHMARK.json"),
                  "--source-id", source_id()], RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
