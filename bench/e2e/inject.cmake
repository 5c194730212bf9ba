# Adds the benchmark to the repository's own build without any of the
# repository's build files naming it. run.py configures with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# so CMake includes it right after the top-level project() call; including
# CMakeLists.txt here is deferred to the end of the top-level
# CMakeLists.txt, when the gnndse_* targets and compile flags exist.
include_guard(GLOBAL)
set(BENCH_E2E_LISTS "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")
cmake_language(DEFER CALL include "${BENCH_E2E_LISTS}")
