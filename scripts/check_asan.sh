#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer pass over the suites that
# exercise raw-pointer kernels and parsers: configures a -DGNNDSE_ASAN=ON
# build in build-asan/, builds test_tensor, test_simd, test_fastpath,
# test_sweep and test_serve, and runs each binary. The SIMD matmul bodies
# read 8x8 blocks of A and multi-row tiles with row and k tails, the fused
# graph ops index rows through edge lists, and the serve parser walks
# untrusted lines: out-of-bounds reads there are what ASan catches. UBSan
# is fatal (-fno-sanitize-recover=undefined), and libstdc++ checks
# container indexing (-D_GLIBCXX_ASSERTIONS).
#
# Usage: scripts/check_asan.sh [build-dir]     (default: build-asan)
# Exits 0 with a notice when the toolchain has no usable ASan/UBSan
# runtime (e.g. minimal containers), so CI can call it unconditionally.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
TESTS=(test_tensor test_simd test_fastpath test_sweep test_serve)

# Probe for working runtimes before paying for a full configure.
probe_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir"' EXIT
cat > "$probe_dir/probe.cpp" <<'EOF'
#include <vector>
int main() {
  std::vector<int> v(4, 1);
  return v[3] - 1;
}
EOF
CXX_BIN="${CXX:-c++}"
if ! "$CXX_BIN" -fsanitize=address,undefined -o "$probe_dir/probe" \
    "$probe_dir/probe.cpp" 2>/dev/null || ! "$probe_dir/probe" 2>/dev/null; then
  echo "check_asan: no usable AddressSanitizer/UBSan runtime on this toolchain; skipping."
  exit 0
fi

cmake -B "$BUILD_DIR" -S . -DGNNDSE_ASAN=ON
cmake --build "$BUILD_DIR" --target "${TESTS[@]}" -j "$(nproc)"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
status=0
for t in "${TESTS[@]}"; do
  echo "check_asan: $t"
  "$BUILD_DIR/tests/$t" || status=1
done
exit "$status"
