#!/usr/bin/env bash
# ThreadSanitizer pass over the parallel-execution layer: configures a
# -DGNNDSE_TSAN=ON build in build-tsan/, builds the thread-safety suites
# (test_parallel, test_obs, test_oracle, test_fastpath, test_simd,
# test_serve, test_sweep), and runs them via `ctest -L tsan`. test_sweep
# covers the sweep engine (the three model heads predicting concurrently
# on the pool, sweeps under concurrent featurize() and template-cache
# traffic). test_obs includes the live-telemetry races: concurrent
# Histogram::observe vs *_snapshot(), heartbeat-sampler start/stop under
# metric hammering, and cross-thread span-context adoption.
#
# Usage: scripts/check_tsan.sh [build-dir]     (default: build-tsan)
# Exits 0 with a notice when the toolchain has no usable TSan runtime
# (e.g. minimal containers), so CI can call it unconditionally.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

# Probe for a working TSan runtime before paying for a full configure.
probe_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir"' EXIT
cat > "$probe_dir/probe.cpp" <<'EOF'
#include <thread>
int main() {
  int x = 0;
  std::thread t([&] { x = 1; });
  t.join();
  return x - 1;
}
EOF
CXX_BIN="${CXX:-c++}"
if ! "$CXX_BIN" -fsanitize=thread -o "$probe_dir/probe" "$probe_dir/probe.cpp" \
    2>/dev/null || ! "$probe_dir/probe" 2>/dev/null; then
  echo "check_tsan: no usable ThreadSanitizer runtime on this toolchain; skipping."
  exit 0
fi

cmake -B "$BUILD_DIR" -S . -DGNNDSE_TSAN=ON
cmake --build "$BUILD_DIR" --target test_parallel test_obs test_oracle test_fastpath test_simd test_serve test_sweep -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L tsan --output-on-failure -j "$(nproc)"
