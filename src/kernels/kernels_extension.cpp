// Extension kernel set — the paper's stated future work (§6) is to expand
// GNN-DSE to more domains. These six kernels widen the training domain mix
// beyond the DAC'22 evaluation: rank-1/rank-k linear algebra (gemver,
// syrk, trmm), time-iterated stencils (jacobi-2d, fdtd-2d) and an
// irregular molecular-dynamics kernel with an indirect neighbor list
// (md-knn, MachSuite).
#include "kernels/kernels_extension.hpp"

namespace gnndse::kernels {
namespace {

using kir::AccessKind;
using kir::ArrayAccess;
using kir::Kernel;
using kir::KernelBuilder;
using kir::OpMix;
using kir::candidate_factors;

constexpr int kFpAddLat = 4;

ArrayAccess rd_seq(int arr, int loop) {
  return ArrayAccess{arr, false, AccessKind::kSequential, loop};
}
ArrayAccess rd_str(int arr, int loop) {
  return ArrayAccess{arr, false, AccessKind::kStrided, loop};
}
ArrayAccess rd_ind(int arr, int loop) {
  return ArrayAccess{arr, false, AccessKind::kIndirect, loop};
}
ArrayAccess rd_bc(int arr) {
  return ArrayAccess{arr, false, AccessKind::kBroadcast, -1};
}
ArrayAccess wr_seq(int arr, int loop) {
  return ArrayAccess{arr, true, AccessKind::kSequential, loop};
}

// gemver (Polybench): A += u1 v1^T + u2 v2^T; x = beta A^T y + z; w = alpha A x.
// Three phases over a 250x250 matrix. 9 pragma sites.
Kernel make_gemver() {
  KernelBuilder b("gemver");
  const int a = b.add_array("A", 250 * 250);
  const int u1 = b.add_array("u1", 250);
  const int v1 = b.add_array("v1", 250);
  const int x = b.add_array("x", 250);
  const int y = b.add_array("y", 250);
  const int w = b.add_array("w", 250);

  const int i1 = b.begin_loop("i1", 250);
  const int j1 = b.begin_loop("j1", 250, i1);
  b.add_stmt(j1, "rank1", OpMix{.adds = 2, .muls = 2},
             {rd_seq(a, j1), rd_bc(u1), rd_seq(v1, j1), wr_seq(a, j1)});

  const int i2 = b.begin_loop("i2", 250);
  const int j2 = b.begin_loop("j2", 250, i2);
  const int xacc = b.add_stmt(j2, "x_acc", OpMix{.adds = 1, .muls = 2},
                              {rd_str(a, j2), rd_seq(y, j2)});
  b.set_recurrence(xacc, j2, 1, kFpAddLat);
  b.add_stmt(i2, "x_store", OpMix{.adds = 1}, {wr_seq(x, i2)});

  const int i3 = b.begin_loop("i3", 250);
  const int j3 = b.begin_loop("j3", 250, i3);
  const int wacc = b.add_stmt(j3, "w_acc", OpMix{.adds = 1, .muls = 2},
                              {rd_seq(a, j3), rd_bc(x)});
  b.set_recurrence(wacc, j3, 1, kFpAddLat);
  b.add_stmt(i3, "w_store", OpMix{}, {wr_seq(w, i3)});

  for (int loop : {i1, i2, i3}) {
    auto& l = b.loop(loop);
    l.can_pipeline = true;
    l.can_parallel = true;
    l.parallel_options = candidate_factors(250);
  }
  for (int loop : {j1, j2}) {
    auto& l = b.loop(loop);
    l.can_pipeline = true;
  }
  b.loop(j1).can_parallel = true;
  b.loop(j1).parallel_options = candidate_factors(250, 32);
  return b.build();
}

// jacobi-2d (Polybench): 5-point stencil iterated over time on a 90x90
// grid; the time loop is strictly sequential. 6 pragma sites.
Kernel make_jacobi2d() {
  KernelBuilder b("jacobi-2d");
  const int a = b.add_array("A", 90 * 90);
  const int bb = b.add_array("B", 90 * 90);

  const int t = b.begin_loop("t", 20);
  const int i = b.begin_loop("i", 88, t);
  const int j = b.begin_loop("j", 88, i);
  const int st = b.add_stmt(j, "jacobi", OpMix{.adds = 4, .muls = 1},
                            {rd_str(a, j), wr_seq(bb, j)});
  // B of step t feeds A of step t+1: the t loop is sequential.
  b.set_recurrence(st, t, 1, 8, /*associative=*/false);

  auto& lt = b.loop(t);
  lt.can_pipeline = true;
  auto& li = b.loop(i);
  li.can_pipeline = true;
  li.can_parallel = true;
  li.parallel_options = candidate_factors(88);
  li.can_tile = true;
  li.tile_options = candidate_factors(88, 8, true);
  auto& lj = b.loop(j);
  lj.can_pipeline = true;
  lj.can_parallel = true;
  lj.parallel_options = candidate_factors(88, 16);
  return b.build();
}

// fdtd-2d (Polybench): three coupled field updates per timestep on a
// 60x80 grid. 9 pragma sites.
Kernel make_fdtd2d() {
  KernelBuilder b("fdtd-2d");
  const int ex = b.add_array("ex", 60 * 80);
  const int ey = b.add_array("ey", 60 * 80);
  const int hz = b.add_array("hz", 60 * 80);

  const int t = b.begin_loop("t", 15);

  const int i1 = b.begin_loop("i_ey", 59, t);
  const int j1 = b.begin_loop("j_ey", 80, i1);
  const int s1 = b.add_stmt(j1, "ey_upd", OpMix{.adds = 2, .muls = 1},
                            {rd_seq(ey, j1), rd_str(hz, j1), wr_seq(ey, j1)});
  b.set_recurrence(s1, t, 1, 8, /*associative=*/false);

  const int i2 = b.begin_loop("i_ex", 60, t);
  const int j2 = b.begin_loop("j_ex", 79, i2);
  b.add_stmt(j2, "ex_upd", OpMix{.adds = 2, .muls = 1},
             {rd_seq(ex, j2), rd_seq(hz, j2), wr_seq(ex, j2)});

  const int i3 = b.begin_loop("i_hz", 59, t);
  const int j3 = b.begin_loop("j_hz", 79, i3);
  b.add_stmt(j3, "hz_upd", OpMix{.adds = 4, .muls = 1},
             {rd_seq(ex, j3), rd_seq(ey, j3), wr_seq(hz, j3)});

  auto& lt = b.loop(t);
  lt.can_pipeline = true;
  for (int loop : {i1, i2, i3}) {
    auto& l = b.loop(loop);
    l.can_pipeline = true;
    l.can_parallel = true;
    l.parallel_options = candidate_factors(b.loop(loop).trip_count, 16);
  }
  for (int loop : {j1, j2}) {
    auto& l = b.loop(loop);
    l.can_pipeline = true;
  }
  return b.build();
}

// trmm (Polybench): triangular matrix multiply B = alpha A B; the inner
// reduction runs over half the matrix on average (modeled with a reduced
// trip count). 5 pragma sites.
Kernel make_trmm() {
  KernelBuilder b("trmm");
  const int a = b.add_array("A", 120 * 120);
  const int bm = b.add_array("B", 120 * 130);

  const int i = b.begin_loop("i", 120);
  const int j = b.begin_loop("j", 130, i);
  const int k = b.begin_loop("k", 60, j);  // triangular: N/2 average
  const int mac = b.add_stmt(k, "mac", OpMix{.adds = 1, .muls = 1},
                             {rd_str(a, k), rd_str(bm, k)});
  b.set_recurrence(mac, k, 1, kFpAddLat);
  b.add_stmt(j, "scale_store", OpMix{.adds = 1, .muls = 1},
             {rd_seq(bm, j), wr_seq(bm, j)});

  auto& li = b.loop(i);
  li.can_pipeline = true;
  li.can_parallel = true;
  li.parallel_options = candidate_factors(120);
  auto& lj = b.loop(j);
  lj.can_pipeline = true;
  lj.can_parallel = true;
  lj.parallel_options = candidate_factors(130, 16);
  auto& lk = b.loop(k);
  lk.can_pipeline = true;
  return b.build();
}

// syrk (Polybench): C = alpha A A^T + beta C over 80x100. 6 pragma sites.
Kernel make_syrk() {
  KernelBuilder b("syrk");
  const int a = b.add_array("A", 80 * 100);
  const int c = b.add_array("C", 80 * 80);

  const int i = b.begin_loop("i", 80);
  const int j = b.begin_loop("j", 80, i);
  const int k = b.begin_loop("k", 100, j);
  const int mac = b.add_stmt(k, "mac", OpMix{.adds = 1, .muls = 1},
                             {rd_seq(a, k), rd_str(a, k)});
  b.set_recurrence(mac, k, 1, kFpAddLat);
  b.add_stmt(j, "c_upd", OpMix{.adds = 1, .muls = 2},
             {rd_seq(c, j), wr_seq(c, j)});

  auto& li = b.loop(i);
  li.can_pipeline = true;
  li.can_parallel = true;
  li.parallel_options = candidate_factors(80);
  li.can_tile = true;
  li.tile_options = candidate_factors(80, 8, true);
  auto& lj = b.loop(j);
  lj.can_pipeline = true;
  lj.can_parallel = true;
  lj.parallel_options = candidate_factors(80, 16);
  auto& lk = b.loop(k);
  lk.can_pipeline = true;
  return b.build();
}

// md-knn (MachSuite): Lennard-Jones force over a k-nearest-neighbor list —
// indirect position gathers and a heavy arithmetic body with a divide.
// 3 pragma sites.
Kernel make_md_knn() {
  KernelBuilder b("md-knn");
  const int pos = b.add_array("position", 256 * 3);
  const int nl = b.add_array("NL", 256 * 16);
  const int force = b.add_array("force", 256 * 3);

  const int i = b.begin_loop("atoms", 256);
  const int j = b.begin_loop("neighbors", 16, i);
  const int body = b.add_stmt(
      j, "lj_force",
      OpMix{.adds = 6, .muls = 9, .divs = 1},
      {rd_seq(nl, j), rd_ind(pos, j), rd_bc(pos)});
  b.set_recurrence(body, j, 1, kFpAddLat);
  b.add_stmt(i, "force_store", OpMix{}, {wr_seq(force, i)});

  auto& li = b.loop(i);
  li.can_pipeline = true;
  li.can_parallel = true;
  li.parallel_options = candidate_factors(256, 64);
  auto& lj = b.loop(j);
  lj.can_pipeline = true;
  return b.build();
}

}  // namespace

namespace detail {

const std::vector<NamedFactory>& extension_factories() {
  static const std::vector<NamedFactory> factories{
      {"gemver", make_gemver},   {"jacobi-2d", make_jacobi2d},
      {"fdtd-2d", make_fdtd2d}, {"trmm", make_trmm},
      {"syrk", make_syrk},       {"md-knn", make_md_knn},
  };
  return factories;
}

}  // namespace detail

}  // namespace gnndse::kernels
