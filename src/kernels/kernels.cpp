#include "kernels/kernels.hpp"

#include <stdexcept>

#include "kernels/registry.hpp"

namespace gnndse::kernels {
namespace {

using kir::AccessKind;
using kir::ArrayAccess;
using kir::Kernel;
using kir::KernelBuilder;
using kir::OpMix;
using kir::candidate_factors;

// Floating-point accumulation latency (cycles) — the recurrence chain of a
// `sum += a*b` statement; limits II when the carrying loop is pipelined.
constexpr int kFpAddLat = 4;
// Integer max/compare chain latency for DP recurrences (nw).
constexpr int kDpChainLat = 6;
// AES round-function latency (sbox lookup + xor chain).
constexpr int kAesRoundLat = 6;

ArrayAccess read_seq(int arr, int loop) {
  return ArrayAccess{arr, false, AccessKind::kSequential, loop};
}
ArrayAccess read_strided(int arr, int loop) {
  return ArrayAccess{arr, false, AccessKind::kStrided, loop};
}
ArrayAccess read_ind(int arr, int loop) {
  return ArrayAccess{arr, false, AccessKind::kIndirect, loop};
}
ArrayAccess read_bcast(int arr) {
  return ArrayAccess{arr, false, AccessKind::kBroadcast, -1};
}
ArrayAccess write_seq(int arr, int loop) {
  return ArrayAccess{arr, true, AccessKind::kSequential, loop};
}
// ---------------------------------------------------------------------------
// MachSuite kernels.
// ---------------------------------------------------------------------------

// aes256 encryption of one block: 10 sequential rounds over a 16-byte
// state; each round does sbox substitution (table lookup), shift-rows and
// mix-columns (GF(2^8) xor/shift arithmetic). 3 pragma sites.
Kernel make_aes() {
  KernelBuilder b("aes");
  const int key = b.add_array("key", 32, true, 8);
  const int buf = b.add_array("buf", 16, true, 8);
  const int sbox = b.add_array("sbox", 256, false, 8);

  const int rounds = b.begin_loop("rounds", 10);
  const int bytes = b.begin_loop("bytes", 16, rounds);

  const int sub =
      b.add_stmt(bytes, "sub_shift",
                 OpMix{.adds = 1, .logic = 3},
                 {read_seq(buf, bytes), read_ind(sbox, bytes),
                  read_seq(key, bytes)});
  // State feeds the next round: carried on the rounds loop. A cipher round
  // is not an associative reduction — rounds cannot be parallelized.
  b.set_recurrence(sub, rounds, 1, kAesRoundLat, /*associative=*/false);
  b.add_stmt(bytes, "mix_columns",
             OpMix{.adds = 2, .logic = 6},
             {read_seq(buf, bytes), write_seq(buf, bytes)});

  auto& lr = b.loop(rounds);
  lr.can_pipeline = true;
  auto& lb = b.loop(bytes);
  lb.can_pipeline = true;
  lb.can_parallel = true;
  lb.parallel_options = candidate_factors(16, 16);
  return b.build();
}

// atax: y = A^T (A x). Two accumulation phases over a 410x390 matrix.
// 5 pragma sites.
Kernel make_atax() {
  KernelBuilder b("atax");
  const int a = b.add_array("A", 410 * 390);
  const int x = b.add_array("x", 390);
  const int y = b.add_array("y", 390);
  const int tmp = b.add_array("tmp", 410, /*off_chip=*/false);

  const int i1 = b.begin_loop("i1", 410);
  const int j1 = b.begin_loop("j1", 390, i1);
  const int acc1 = b.add_stmt(j1, "tmp_acc", OpMix{.adds = 1, .muls = 1},
                              {read_seq(a, j1), read_seq(x, j1)});
  b.set_recurrence(acc1, j1, 1, kFpAddLat);
  b.add_stmt(i1, "tmp_store", OpMix{.adds = 0}, {write_seq(tmp, i1)});

  const int i2 = b.begin_loop("i2", 410);
  const int j2 = b.begin_loop("j2", 390, i2);
  const int acc2 = b.add_stmt(
      j2, "y_acc", OpMix{.adds = 1, .muls = 1},
      {read_seq(a, j2), read_bcast(tmp), read_seq(y, j2), write_seq(y, j2)});
  // y[j] accumulates across the *outer* i2 loop.
  b.set_recurrence(acc2, i2, 1, kFpAddLat);

  auto& li1 = b.loop(i1);
  li1.can_pipeline = true;
  li1.can_parallel = true;
  li1.parallel_options = candidate_factors(410);
  auto& lj1 = b.loop(j1);
  lj1.can_pipeline = true;
  auto& li2 = b.loop(i2);
  li2.can_pipeline = true;
  li2.can_parallel = true;
  li2.parallel_options = candidate_factors(410);
  return b.build();
}

// gemm-blocked (MachSuite bbgemm): 64x64 matrix multiply in 8x8 blocks;
// loop order jj, kk, i, k, j. 9 pragma sites.
Kernel make_gemm_blocked() {
  KernelBuilder b("gemm-blocked");
  const int m1 = b.add_array("m1", 64 * 64);
  const int m2 = b.add_array("m2", 64 * 64);
  const int prod = b.add_array("prod", 64 * 64);

  const int jj = b.begin_loop("jj", 8);
  const int kk = b.begin_loop("kk", 8, jj);
  const int i = b.begin_loop("i", 64, kk);
  const int k = b.begin_loop("k", 8, i);
  const int j = b.begin_loop("j", 8, k);

  b.add_stmt(k, "load_m1", OpMix{.adds = 1}, {read_strided(m1, k)});
  const int mac = b.add_stmt(
      j, "mac", OpMix{.adds = 1, .muls = 1},
      {read_seq(m2, j), read_seq(prod, j), write_seq(prod, j)});
  // prod[i][jj+j] accumulates across the k loop.
  b.set_recurrence(mac, k, 1, kFpAddLat);

  auto& ljj = b.loop(jj);
  ljj.can_pipeline = true;
  ljj.can_tile = true;
  ljj.tile_options = candidate_factors(8, 8);
  auto& lkk = b.loop(kk);
  lkk.can_pipeline = true;
  lkk.can_tile = true;
  lkk.tile_options = candidate_factors(8, 8);
  auto& li = b.loop(i);
  li.can_pipeline = true;
  li.can_parallel = true;
  li.parallel_options = candidate_factors(64, 32);
  auto& lk = b.loop(k);
  lk.can_pipeline = true;
  auto& lj = b.loop(j);
  lj.can_pipeline = true;
  lj.can_parallel = true;
  lj.parallel_options = candidate_factors(8, 8);
  return b.build();
}

// gemm-ncubed: classic triple loop, 64^3. 7 pragma sites.
Kernel make_gemm_ncubed() {
  KernelBuilder b("gemm-ncubed");
  const int m1 = b.add_array("m1", 64 * 64);
  const int m2 = b.add_array("m2", 64 * 64);
  const int prod = b.add_array("prod", 64 * 64);

  const int i = b.begin_loop("i", 64);
  const int j = b.begin_loop("j", 64, i);
  const int k = b.begin_loop("k", 64, j);
  const int mac = b.add_stmt(k, "mac", OpMix{.adds = 1, .muls = 1},
                             {read_seq(m1, k), read_strided(m2, k)});
  b.set_recurrence(mac, k, 1, kFpAddLat);
  b.add_stmt(j, "store", OpMix{}, {write_seq(prod, j)});

  auto& li = b.loop(i);
  li.can_pipeline = true;
  li.can_parallel = true;
  li.parallel_options = candidate_factors(64, 32);
  li.can_tile = true;
  li.tile_options = candidate_factors(64, 8, /*powers_of_two_only=*/true);
  auto& lj = b.loop(j);
  lj.can_pipeline = true;
  lj.can_parallel = true;
  lj.parallel_options = candidate_factors(64, 32);
  auto& lk = b.loop(k);
  lk.can_pipeline = true;
  lk.can_parallel = true;
  lk.parallel_options = candidate_factors(64, 16);
  return b.build();
}

// mvt: x1 = x1 + A y1; x2 = x2 + A^T y2 over a 400x400 matrix.
// 8 pragma sites — the largest training design space (Table 1).
Kernel make_mvt() {
  KernelBuilder b("mvt");
  const int a = b.add_array("A", 400 * 400);
  const int x1 = b.add_array("x1", 400);
  const int x2 = b.add_array("x2", 400);
  const int y1 = b.add_array("y1", 400);
  const int y2 = b.add_array("y2", 400);

  const int i1 = b.begin_loop("i1", 400);
  const int j1 = b.begin_loop("j1", 400, i1);
  const int acc1 = b.add_stmt(j1, "x1_acc", OpMix{.adds = 1, .muls = 1},
                              {read_seq(a, j1), read_seq(y1, j1)});
  b.set_recurrence(acc1, j1, 1, kFpAddLat);
  b.add_stmt(i1, "x1_store", OpMix{}, {write_seq(x1, i1)});

  const int i2 = b.begin_loop("i2", 400);
  const int j2 = b.begin_loop("j2", 400, i2);
  const int acc2 = b.add_stmt(j2, "x2_acc", OpMix{.adds = 1, .muls = 1},
                              {read_strided(a, j2), read_seq(y2, j2)});
  b.set_recurrence(acc2, j2, 1, kFpAddLat);
  b.add_stmt(i2, "x2_store", OpMix{}, {write_seq(x2, i2)});

  for (int loop : {i1, j1, i2, j2}) {
    auto& l = b.loop(loop);
    l.can_pipeline = true;
    l.can_parallel = true;
    l.parallel_options = candidate_factors(400);
  }
  return b.build();
}

// spmv-crs (MachSuite): compressed-row sparse matrix-vector product,
// 494 rows, indirect column accesses. 3 pragma sites.
Kernel make_spmv_crs() {
  KernelBuilder b("spmv-crs");
  const int val = b.add_array("val", 1666);
  const int cols = b.add_array("cols", 1666);
  const int rowd = b.add_array("rowDelimiters", 495);
  const int vec = b.add_array("vec", 494);
  const int out = b.add_array("out", 494);

  const int i = b.begin_loop("rows", 494);
  // Inner trip varies per row; the average nnz/row of the MachSuite input.
  const int j = b.begin_loop("nnz", 4, i);
  b.add_stmt(i, "row_bounds", OpMix{.adds = 1},
             {read_seq(rowd, i)});
  const int acc = b.add_stmt(
      j, "spmv_acc", OpMix{.adds = 1, .muls = 1},
      {read_seq(val, j), read_seq(cols, j), read_ind(vec, j)});
  b.set_recurrence(acc, j, 1, kFpAddLat);
  b.add_stmt(i, "out_store", OpMix{}, {write_seq(out, i)});

  auto& li = b.loop(i);
  li.can_pipeline = true;
  li.can_parallel = true;
  li.parallel_options = candidate_factors(494);
  auto& lj = b.loop(j);
  lj.can_pipeline = true;
  return b.build();
}

// spmv-ellpack (MachSuite): ELLPACK format, 494 rows x 10 slots.
// 3 pragma sites.
Kernel make_spmv_ellpack() {
  KernelBuilder b("spmv-ellpack");
  const int nzval = b.add_array("nzval", 494 * 10);
  const int cols = b.add_array("cols", 494 * 10);
  const int vec = b.add_array("vec", 494);
  const int out = b.add_array("out", 494);

  const int i = b.begin_loop("rows", 494);
  const int j = b.begin_loop("slots", 10, i);
  const int acc = b.add_stmt(
      j, "ell_acc", OpMix{.adds = 1, .muls = 1},
      {read_seq(nzval, j), read_seq(cols, j), read_ind(vec, j)});
  b.set_recurrence(acc, j, 1, kFpAddLat);
  b.add_stmt(i, "out_store", OpMix{}, {write_seq(out, i)});

  auto& li = b.loop(i);
  li.can_pipeline = true;
  li.can_parallel = true;
  li.parallel_options = candidate_factors(494);
  auto& lj = b.loop(j);
  lj.can_pipeline = true;
  return b.build();
}

// stencil (MachSuite stencil2d): 3x3 convolution over a 128x64 grid.
// 7 pragma sites.
Kernel make_stencil() {
  KernelBuilder b("stencil");
  const int orig = b.add_array("orig", 128 * 64);
  const int sol = b.add_array("sol", 128 * 64);
  const int filt = b.add_array("filter", 9, /*off_chip=*/false);

  const int r = b.begin_loop("r", 126);
  const int c = b.begin_loop("c", 62, r);
  const int k1 = b.begin_loop("k1", 3, c);
  const int k2 = b.begin_loop("k2", 3, k1);
  const int mac =
      b.add_stmt(k2, "conv_mac", OpMix{.adds = 1, .muls = 1},
                 {read_strided(orig, k2), read_bcast(filt)});
  b.set_recurrence(mac, k2, 1, kFpAddLat);
  b.add_stmt(c, "sol_store", OpMix{}, {write_seq(sol, c)});

  auto& lr = b.loop(r);
  lr.can_pipeline = true;
  lr.can_parallel = true;
  lr.parallel_options = candidate_factors(126);
  lr.can_tile = true;
  lr.tile_options = candidate_factors(126, 8);
  auto& lc = b.loop(c);
  lc.can_pipeline = true;
  lc.can_parallel = true;
  lc.parallel_options = candidate_factors(62);
  auto& lk1 = b.loop(k1);
  lk1.can_parallel = true;
  lk1.parallel_options = candidate_factors(3, 3);
  auto& lk2 = b.loop(k2);
  lk2.can_parallel = true;
  lk2.parallel_options = candidate_factors(3, 3);
  return b.build();
}

// nw (MachSuite): Needleman-Wunsch sequence alignment, 128x128 dynamic
// programming with both row- and column-carried dependences. 6 pragma
// sites; most aggressive configurations fail to synthesize (Table 1 shows
// the lowest valid ratio of the suite).
Kernel make_nw() {
  KernelBuilder b("nw");
  const int seqa = b.add_array("seqA", 128, true, 8);
  const int seqb = b.add_array("seqB", 128, true, 8);
  const int m = b.add_array("M", 129 * 129, /*off_chip=*/false);
  const int ptr = b.add_array("ptr", 128 * 128, true, 8);

  const int i = b.begin_loop("i", 128);
  const int j = b.begin_loop("j", 128, i);
  const int score = b.add_stmt(
      j, "dp_cell",
      OpMix{.adds = 3, .cmps = 3},
      {read_seq(seqa, j), read_bcast(seqb), read_seq(m, j), write_seq(m, j),
       write_seq(ptr, j)});
  // M[i][j] depends on M[i][j-1] (distance 1 on j) and on M[i-1][*]
  // (distance 1 on i); the j-carried chain is the tight one. Neither is
  // associative — parallelizing either loop breaks the wavefront.
  b.set_recurrence(score, j, 1, kDpChainLat, /*associative=*/false);
  const int row_dep = b.add_stmt(i, "row_carry", OpMix{.adds = 1},
                                 {read_seq(m, i)});
  b.set_recurrence(row_dep, i, 1, kDpChainLat, /*associative=*/false);

  for (int loop : {i, j}) {
    auto& l = b.loop(loop);
    l.can_pipeline = true;
    l.can_parallel = true;
    l.parallel_options = candidate_factors(128, 64, true);
    l.can_tile = true;
    l.tile_options = candidate_factors(128, 8, true);
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Unseen Polybench kernels (§5.4, Table 3).
// ---------------------------------------------------------------------------

// bicg: s = A^T r, q = A p in one sweep over a 410x390 matrix.
// 5 pragma sites.
Kernel make_bicg() {
  KernelBuilder b("bicg");
  const int a = b.add_array("A", 410 * 390);
  const int r = b.add_array("r", 410);
  const int p = b.add_array("p", 390);
  const int s = b.add_array("s", 390);
  const int q = b.add_array("q", 410);

  const int i = b.begin_loop("i", 410);
  const int j = b.begin_loop("j", 390, i);
  const int s_acc = b.add_stmt(
      j, "s_acc", OpMix{.adds = 1, .muls = 1},
      {read_bcast(r), read_seq(a, j), read_seq(s, j), write_seq(s, j)});
  b.set_recurrence(s_acc, i, 1, kFpAddLat);  // s[j] accumulates across i
  const int q_acc = b.add_stmt(j, "q_acc", OpMix{.adds = 1, .muls = 1},
                               {read_seq(a, j), read_seq(p, j)});
  b.set_recurrence(q_acc, j, 1, kFpAddLat);  // q[i] accumulates across j
  b.add_stmt(i, "q_store", OpMix{}, {write_seq(q, i)});

  auto& li = b.loop(i);
  li.can_pipeline = true;
  li.can_parallel = true;
  li.parallel_options = candidate_factors(410);
  li.can_tile = true;
  li.tile_options = candidate_factors(410, 10);
  auto& lj = b.loop(j);
  lj.can_pipeline = true;
  lj.can_parallel = true;
  lj.parallel_options = candidate_factors(390);
  return b.build();
}

// doitgen: multiresolution sum, A[r][q][*] <- A[r][q][*] x C4.
// 6 pragma sites, tiny design space (Table 3: the 16-minute case).
Kernel make_doitgen() {
  KernelBuilder b("doitgen");
  const int a = b.add_array("A", 10 * 8 * 30);
  const int c4 = b.add_array("C4", 30 * 30);
  const int sum = b.add_array("sum", 30, /*off_chip=*/false);

  const int r = b.begin_loop("r", 10);
  const int q = b.begin_loop("q", 8, r);
  const int p = b.begin_loop("p", 30, q);
  const int s = b.begin_loop("s", 30, p);
  const int mac = b.add_stmt(s, "sum_acc", OpMix{.adds = 1, .muls = 1},
                             {read_seq(a, s), read_strided(c4, s)});
  b.set_recurrence(mac, s, 1, kFpAddLat);
  b.add_stmt(p, "writeback", OpMix{}, {write_seq(a, p), read_bcast(sum)});

  auto& lr = b.loop(r);
  lr.can_pipeline = true;
  auto& lq = b.loop(q);
  lq.can_pipeline = true;
  auto& lp = b.loop(p);
  lp.can_pipeline = true;
  lp.can_parallel = true;
  lp.parallel_options = candidate_factors(30, 6);
  auto& ls = b.loop(s);
  ls.can_pipeline = true;
  ls.can_parallel = true;
  ls.parallel_options = candidate_factors(30, 6);
  return b.build();
}

// gesummv: y = alpha A x + beta B x over 250x250 matrices.
// 4 pragma sites.
Kernel make_gesummv() {
  KernelBuilder b("gesummv");
  const int a = b.add_array("A", 250 * 250);
  const int bm = b.add_array("B", 250 * 250);
  const int x = b.add_array("x", 250);
  const int y = b.add_array("y", 250);
  const int tmp = b.add_array("tmp", 250, /*off_chip=*/false);

  const int i = b.begin_loop("i", 250);
  const int j = b.begin_loop("j", 250, i);
  const int acc_a = b.add_stmt(j, "tmp_acc", OpMix{.adds = 1, .muls = 1},
                               {read_seq(a, j), read_seq(x, j)});
  b.set_recurrence(acc_a, j, 1, kFpAddLat);
  const int acc_b = b.add_stmt(j, "y_acc", OpMix{.adds = 1, .muls = 1},
                               {read_seq(bm, j), read_seq(x, j)});
  b.set_recurrence(acc_b, j, 1, kFpAddLat);
  b.add_stmt(i, "combine", OpMix{.adds = 1, .muls = 2},
             {write_seq(y, i), read_bcast(tmp)});

  auto& li = b.loop(i);
  li.can_pipeline = true;
  li.can_parallel = true;
  li.parallel_options = candidate_factors(250);
  auto& lj = b.loop(j);
  lj.can_pipeline = true;
  lj.can_parallel = true;
  lj.parallel_options = candidate_factors(250);
  return b.build();
}

// 2mm: D = alpha A B C + beta D — two chained matrix multiplies.
// 14 pragma sites; ~10^8-scale design space (Table 3: heuristic search
// under a one-hour limit).
Kernel make_2mm() {
  KernelBuilder b("2mm");
  const int a = b.add_array("A", 160 * 200);
  const int bm = b.add_array("B", 200 * 180);
  const int c = b.add_array("C", 180 * 220);
  const int d = b.add_array("D", 160 * 220);
  const int tmp = b.add_array("tmp", 160 * 180, /*off_chip=*/false);

  // tmp = alpha * A * B
  const int i1 = b.begin_loop("i1", 160);
  const int j1 = b.begin_loop("j1", 180, i1);
  const int k1 = b.begin_loop("k1", 200, j1);
  const int mac1 = b.add_stmt(k1, "mac1", OpMix{.adds = 1, .muls = 1},
                              {read_seq(a, k1), read_strided(bm, k1)});
  b.set_recurrence(mac1, k1, 1, kFpAddLat);
  b.add_stmt(j1, "tmp_store", OpMix{.muls = 1}, {write_seq(tmp, j1)});

  // D = tmp * C + beta * D
  const int i2 = b.begin_loop("i2", 160);
  const int j2 = b.begin_loop("j2", 220, i2);
  const int k2 = b.begin_loop("k2", 180, j2);
  const int mac2 = b.add_stmt(k2, "mac2", OpMix{.adds = 1, .muls = 1},
                              {read_bcast(tmp), read_strided(c, k2)});
  b.set_recurrence(mac2, k2, 1, kFpAddLat);
  b.add_stmt(j2, "d_store", OpMix{.adds = 1, .muls = 1},
             {read_seq(d, j2), write_seq(d, j2)});

  for (int loop : {i1, i2}) {
    auto& l = b.loop(loop);
    l.can_pipeline = true;
    l.can_parallel = true;
    l.parallel_options = candidate_factors(160);
    l.can_tile = true;
    l.tile_options = candidate_factors(160, 8, true);
  }
  for (int loop : {j1, j2}) {
    auto& l = b.loop(loop);
    l.can_pipeline = true;
    l.can_parallel = true;
    l.parallel_options = candidate_factors(b.loop(loop).trip_count);
    l.can_tile = true;
    l.tile_options = candidate_factors(b.loop(loop).trip_count, 8, true);
  }
  for (int loop : {k1, k2}) {
    auto& l = b.loop(loop);
    l.can_pipeline = true;
  }
  return b.build();
}

}  // namespace

const std::vector<std::string>& training_kernel_names() {
  static const std::vector<std::string> names{
      "aes",      "atax",         "gemm-blocked", "gemm-ncubed", "mvt",
      "spmv-crs", "spmv-ellpack", "stencil",      "nw"};
  return names;
}

const std::vector<std::string>& unseen_kernel_names() {
  static const std::vector<std::string> names{"bicg", "doitgen", "gesummv",
                                              "2mm"};
  return names;
}

namespace detail {

const std::vector<NamedFactory>& builtin_factories() {
  static const std::vector<NamedFactory> factories{
      {"aes", make_aes},
      {"atax", make_atax},
      {"gemm-blocked", make_gemm_blocked},
      {"gemm-ncubed", make_gemm_ncubed},
      {"mvt", make_mvt},
      {"spmv-crs", make_spmv_crs},
      {"spmv-ellpack", make_spmv_ellpack},
      {"stencil", make_stencil},
      {"nw", make_nw},
      {"bicg", make_bicg},
      {"doitgen", make_doitgen},
      {"gesummv", make_gesummv},
      {"2mm", make_2mm},
  };
  return factories;
}

}  // namespace detail

std::vector<kir::Kernel> make_training_kernels() {
  const Registry& reg = Registry::global();
  std::vector<kir::Kernel> out;
  for (const auto& n : training_kernel_names()) out.push_back(reg.get(n));
  return out;
}

std::vector<kir::Kernel> make_unseen_kernels() {
  const Registry& reg = Registry::global();
  std::vector<kir::Kernel> out;
  for (const auto& n : unseen_kernel_names()) out.push_back(reg.get(n));
  return out;
}

}  // namespace gnndse::kernels
