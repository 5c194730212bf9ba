// The benchmark kernels used in the paper's evaluation (§5.1, Tables 1 & 3),
// re-expressed in the kernel IR.
//
// Training set (MachSuite + Polybench): aes, atax, gemm-blocked,
// gemm-ncubed, mvt, spmv-crs, spmv-ellpack, stencil, nw.
// Unseen set (Polybench, §5.4): bicg, doitgen, gesummv, 2mm.
//
// Each definition follows the loop structure, problem size, operation mix
// and dependence pattern of the benchmark source, and exposes the same
// number of pragma sites the paper reports (aes 3, atax 5, gemm-blocked 9,
// gemm-ncubed 7, mvt 8, spmv-crs 3, spmv-ellpack 3, stencil 7, nw 6;
// bicg 5, doitgen 6, gesummv 4, 2mm 14).
#pragma once

#include <string>
#include <vector>

#include "kir/kernel.hpp"

namespace gnndse::kernels {

/// Names of the nine kernels in the training database (Table 1 order).
const std::vector<std::string>& training_kernel_names();

/// Names of the four unseen kernels (Table 3 order).
const std::vector<std::string>& unseen_kernel_names();

/// All training kernels, in Table 1 order.
std::vector<kir::Kernel> make_training_kernels();

/// All unseen kernels, in Table 3 order.
std::vector<kir::Kernel> make_unseen_kernels();

namespace detail {

/// One compiled-in kernel constructor; the tables below seed
/// Registry::global() (kernels/registry.hpp), which owns all lookups.
struct NamedFactory {
  const char* name;
  kir::Kernel (*make)();
};

/// The 13 DAC'22 kernels (9 training then 4 unseen, table order).
const std::vector<NamedFactory>& builtin_factories();

}  // namespace detail

}  // namespace gnndse::kernels
