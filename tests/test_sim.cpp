// Tests for the simulated devices and multi-device random sampling:
// Device clock semantics, numerical agreement of multi-device runs with
// the single-device algorithm, scaling behaviour of the modeled clocks
// (Figure 15's shape).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <thread>
#include <vector>

#include "data/test_matrices.hpp"
#include "la/blas3.hpp"
#include "rsvd/rsvd.hpp"
#include "sim/multi_gpu.hpp"
#include "test_util.hpp"

namespace randla::sim {
namespace {

using testing::ortho_defect;
using testing::random_matrix;
using testing::rel_diff;

TEST(Device, ClockChargesAccumulate) {
  Device d(0, model::DeviceSpec{});
  d.charge(0.5);
  d.charge(0.25);
  EXPECT_DOUBLE_EQ(d.modeled_time(), 0.75);
  d.advance_to(0.6);  // behind: no-op
  EXPECT_DOUBLE_EQ(d.modeled_time(), 0.75);
  d.advance_to(1.5);
  EXPECT_DOUBLE_EQ(d.modeled_time(), 1.5);
}

TEST(MultiDeviceContext, RowDistributionCoversMatrix) {
  MultiDeviceContext ctx(3);
  auto a = random_matrix<double>(10, 4, 301);
  auto rb = ctx.distribute_rows(a.view());
  ASSERT_EQ(rb.block.size(), 3u);
  EXPECT_EQ(rb.offset.front(), 0);
  EXPECT_EQ(rb.offset.back(), 10);
  // 10 = 4 + 3 + 3.
  EXPECT_EQ(rb.block[0].rows(), 4);
  EXPECT_EQ(rb.block[1].rows(), 3);
  EXPECT_EQ(rb.block[2].rows(), 3);
  for (int i = 0; i < 3; ++i)
    for (index_t r = 0; r < rb.block[static_cast<std::size_t>(i)].rows(); ++r)
      for (index_t j = 0; j < 4; ++j)
        EXPECT_EQ(rb.block[static_cast<std::size_t>(i)](r, j),
                  a(rb.offset[static_cast<std::size_t>(i)] + r, j));
}

TEST(MultiDeviceContext, ZeroDevicesThrows) {
  EXPECT_THROW(MultiDeviceContext(0), std::invalid_argument);
}

std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// Devices are clocks, not executors: every device's share of a step runs
// on the caller's thread, so a context starts no threads of its own.
TEST(MultiDeviceContext, StartsNoThreads) {
  // Let threads joined by earlier tests finish exiting before counting.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::size_t before = live_threads();
  MultiDeviceContext ctx(4);
  EXPECT_EQ(ctx.num_devices(), 4);
  EXPECT_EQ(live_threads(), before);
}

TEST(MultiCholQr, OrthonormalizesDistributedColumns) {
  MultiDeviceContext ctx(3);
  const index_t m = 90, k = 8;
  auto a = random_matrix<double>(m, k, 302);
  auto rb = ctx.distribute_rows(a.view());
  Matrix<double> rbar(k, k);
  auto times = ctx.multi_cholqr_columns(rb.block, &rbar);
  EXPECT_GT(times.device, 0.0);
  EXPECT_GT(times.comms, 0.0);
  // Reassemble Q and verify.
  Matrix<double> q(m, k);
  for (int i = 0; i < 3; ++i)
    q.view()
        .rows_range(rb.offset[static_cast<std::size_t>(i)],
                    rb.offset[static_cast<std::size_t>(i) + 1])
        .copy_from(ConstMatrixView<double>(
            rb.block[static_cast<std::size_t>(i)].view()));
  EXPECT_LT(ortho_defect<double>(q.view()), 1e-10);
  // Q·R̄ reconstructs A.
  Matrix<double> rec(m, k);
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, q.view(), rbar.view(),
                     0.0, rec.view());
  EXPECT_LT(rel_diff<double>(rec.view(), a.view()), 1e-11);
}

TEST(MultiCholQr, FallsBackOnRankDeficientInput) {
  MultiDeviceContext ctx(2);
  const index_t m = 40, k = 3;
  Matrix<double> a(m, k);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) = double(i + 1) * double(j + 1);
  auto rb = ctx.distribute_rows(a.view());
  ctx.multi_cholqr_columns(rb.block);
  Matrix<double> q(m, k);
  for (int i = 0; i < 2; ++i)
    q.view()
        .rows_range(rb.offset[static_cast<std::size_t>(i)],
                    rb.offset[static_cast<std::size_t>(i) + 1])
        .copy_from(ConstMatrixView<double>(
            rb.block[static_cast<std::size_t>(i)].view()));
  // Fallback produces orthonormal columns even for the degenerate input.
  Matrix<double> g(k, k);
  blas::gemm<double>(Op::Trans, Op::NoTrans, 1.0, q.view(), q.view(), 0.0,
                     g.view());
  EXPECT_NEAR(g(0, 0), 1.0, 1e-10);
}

class MultiDeviceAgreement : public ::testing::TestWithParam<int> {};

TEST_P(MultiDeviceAgreement, MatchesSingleDeviceRun) {
  // The multi-device run must compute the same factorization as the
  // single-device driver (same Ω by counter-based PRNG; host reductions
  // reorder floating-point sums, so agreement is to ~1e-9, not bitwise).
  const int ng = GetParam();
  const index_t m = 120, n = 60, k = 8, p = 4;
  auto tm = data::exponent_matrix<double>(m, n, 44);

  rsvd::FixedRankOptions opts;
  opts.k = k;
  opts.p = p;
  opts.q = 1;
  auto single = rsvd::fixed_rank(tm.a.view(), opts);

  MultiDeviceContext ctx(ng);
  auto multi = ctx.fixed_rank(tm.a.view(), opts);

  EXPECT_EQ(single.perm, multi.result.perm) << "pivot sequence diverged";
  EXPECT_LT(rel_diff<double>(multi.result.q.view(), single.q.view()), 1e-8);
  EXPECT_LT(rel_diff<double>(multi.result.r.view(), single.r.view()), 1e-8);
  // And it must be a valid approximation in its own right: the exponent
  // spectrum has σ₉/σ₀ ≈ 0.16, so a rank-8 error near 0.2 is optimal.
  const double err = rsvd::approximation_error(tm.a.view(), multi.result);
  EXPECT_LT(err, 0.5);
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MultiDeviceAgreement,
                         ::testing::Values(1, 2, 3, 4));

TEST(MultiDevice, Q0PathAgreesToo) {
  const index_t m = 80, n = 40, k = 6, p = 4;
  auto a = random_matrix<double>(m, n, 303);
  rsvd::FixedRankOptions opts;
  opts.k = k;
  opts.p = p;
  opts.q = 0;
  auto single = rsvd::fixed_rank(a.view(), opts);
  MultiDeviceContext ctx(3);
  auto multi = ctx.fixed_rank(a.view(), opts);
  EXPECT_EQ(single.perm, multi.result.perm);
  EXPECT_LT(rel_diff<double>(multi.result.q.view(), single.q.view()), 1e-9);
}

TEST(MultiDevice, FftSamplingRejected) {
  MultiDeviceContext ctx(2);
  auto a = random_matrix<double>(40, 20, 304);
  rsvd::FixedRankOptions opts;
  opts.k = 4;
  opts.p = 2;
  opts.sampling = rsvd::SamplingKind::FFT;
  EXPECT_THROW(ctx.fixed_rank(a.view(), opts), std::invalid_argument);
}

TEST(MultiDevice, ModeledTimeShrinksWithMoreDevices) {
  // Fig. 15's strong scaling: the modeled total must decrease with ng
  // (with the paper's dimensions the speedup is superlinear thanks to
  // the tall-aspect GEMM penalty easing; here we only require monotone
  // improvement).
  const index_t m = 3000, n = 300, k = 54, p = 10;
  auto a = random_matrix<double>(m, n, 305);
  rsvd::FixedRankOptions opts;
  opts.k = k;
  opts.p = p;
  opts.q = 1;
  double prev = 1e30;
  for (int ng = 1; ng <= 3; ++ng) {
    MultiDeviceContext ctx(ng);
    auto r = ctx.fixed_rank(a.view(), opts);
    EXPECT_LT(r.modeled.sampling + r.modeled.gemm_iter, prev)
        << "GEMM phases must scale with ng=" << ng;
    prev = r.modeled.sampling + r.modeled.gemm_iter;
    EXPECT_GT(r.modeled.comms, 0.0);
  }
}

TEST(MultiDevice, CommsGrowWithDeviceCount) {
  const index_t m = 900, n = 120, k = 10, p = 6;
  auto a = random_matrix<double>(m, n, 306);
  rsvd::FixedRankOptions opts;
  opts.k = k;
  opts.p = p;
  opts.q = 1;
  MultiDeviceContext c1(1), c3(3);
  auto r1 = c1.fixed_rank(a.view(), opts);
  auto r3 = c3.fixed_rank(a.view(), opts);
  EXPECT_GT(r3.modeled.comms, r1.modeled.comms);
}

TEST(MultiDevice, PhaseClocksPopulated) {
  const index_t m = 200, n = 80, k = 8, p = 4;
  auto a = random_matrix<double>(m, n, 307);
  rsvd::FixedRankOptions opts;
  opts.k = k;
  opts.p = p;
  opts.q = 2;
  MultiDeviceContext ctx(2);
  auto r = ctx.fixed_rank(a.view(), opts);
  EXPECT_GT(r.modeled.prng, 0.0);
  EXPECT_GT(r.modeled.sampling, 0.0);
  EXPECT_GT(r.modeled.gemm_iter, 0.0);
  EXPECT_GT(r.modeled.orth_iter, 0.0);
  EXPECT_GT(r.modeled.qrcp, 0.0);
  EXPECT_GT(r.modeled.qr, 0.0);
  EXPECT_GT(r.modeled.comms, 0.0);
  EXPECT_NEAR(r.modeled_total, r.modeled.total(), 1e-12);
  // Device virtual clocks ended aligned (barrier at every phase).
  EXPECT_NEAR(ctx.device(0).modeled_time(), ctx.device(1).modeled_time(),
              1e-12);
}

}  // namespace
}  // namespace randla::sim
