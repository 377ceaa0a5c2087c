// Unit tests for Householder kernels and QR (larfg/larf/larft/larfb,
// geqrf/orgqr/ormqr).
#include <gtest/gtest.h>

#include <cmath>

#include "la/blas3.hpp"
#include "la/householder.hpp"
#include "la/parallel.hpp"
#include "test_util.hpp"

namespace randla::lapack {
namespace {

using testing::ortho_defect;
using testing::random_matrix;
using testing::rel_diff;

TEST(Larfg, AnnihilatesTail) {
  // H·[alpha; x] = [beta; 0] with |beta| = ‖[alpha; x]‖.
  double alpha = 3.0;
  std::vector<double> x = {4.0};
  const double tau = larfg<double>(2, alpha, x.data(), 1);
  EXPECT_NEAR(std::abs(alpha), 5.0, 1e-14);
  EXPECT_GT(tau, 0.0);
  // Verify via explicit application to the original vector.
  // v = [1; x], H y = y − τ v (vᵀ y), y = [3; 4].
  const double vty = 3.0 + x[0] * 4.0;
  EXPECT_NEAR(3.0 - tau * vty, alpha, 1e-14);
  EXPECT_NEAR(4.0 - tau * x[0] * vty, 0.0, 1e-14);
}

TEST(Larfg, ZeroTailGivesZeroTau) {
  double alpha = 2.5;
  std::vector<double> x = {0.0, 0.0};
  EXPECT_EQ(larfg<double>(3, alpha, x.data(), 1), 0.0);
  EXPECT_EQ(alpha, 2.5);
}

TEST(Larfg, LengthOneGivesZeroTau) {
  double alpha = -1.0;
  EXPECT_EQ(larfg<double>(1, alpha, nullptr, 1), 0.0);
}

TEST(Larf, ReflectorIsInvolution) {
  // Applying H twice must restore C (H² = I for any Householder H).
  const index_t m = 10, n = 6;
  auto c0 = random_matrix<double>(m, n, 31);
  auto c = Matrix<double>::copy_of(c0.view());
  std::vector<double> v(m);
  v[0] = 1.0;
  for (index_t i = 1; i < m; ++i) v[i] = 0.3 * std::sin(double(i));
  double vtv = 0;
  for (double vi : v) vtv += vi * vi;
  const double tau = 2.0 / vtv;  // makes H exactly orthogonal
  larf<double>(Side::Left, m, v.data(), 1, tau, c.view());
  EXPECT_GT(rel_diff<double>(c.view(), c0.view()), 0.01);  // actually changed
  larf<double>(Side::Left, m, v.data(), 1, tau, c.view());
  EXPECT_LT(rel_diff<double>(c.view(), c0.view()), 1e-13);
}

TEST(Larf, RightSideMatchesTransposedLeft) {
  const index_t m = 7, n = 9;
  auto c = random_matrix<double>(m, n, 32);
  auto ct = transposed<double>(c.view());
  std::vector<double> v(n);
  v[0] = 1.0;
  for (index_t i = 1; i < n; ++i) v[i] = std::cos(double(i));
  const double tau = 0.7;
  larf<double>(Side::Right, n, v.data(), 1, tau, c.view());
  larf<double>(Side::Left, n, v.data(), 1, tau, ct.view());
  auto ctt = transposed<double>(ct.view());
  EXPECT_LT(rel_diff<double>(c.view(), ctt.view()), 1e-13);
}

class GeqrfShapes
    : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(GeqrfShapes, QROrthonormalAndReconstructs) {
  auto [m, n] = GetParam();
  auto a0 = random_matrix<double>(m, n, 33);
  auto a = Matrix<double>::copy_of(a0.view());
  std::vector<double> tau;
  geqrf<double>(a.view(), tau);

  const index_t k = std::min(m, n);
  // Extract R (k×n upper trapezoid).
  Matrix<double> r(k, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = a(i, j);
  // Q: m×k explicit.
  orgqr<double>(a.view(), tau, k);
  auto q = a.block(0, 0, m, k);

  EXPECT_LT(ortho_defect<double>(ConstMatrixView<double>(q)), 1e-13);
  Matrix<double> rec(m, n);
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, ConstMatrixView<double>(q),
                     r.view(), 0.0, rec.view());
  EXPECT_LT(rel_diff<double>(rec.view(), a0.view()), 1e-13);
}

// Includes: single column, blocked path (n > 32), wide (m < n), square,
// and the orgqr block edges: exactly one block (k = 32), one column past
// it (k = 33) and an exact multiple of the block size (k = 96).
INSTANTIATE_TEST_SUITE_P(
    Shapes, GeqrfShapes,
    ::testing::Values(std::make_pair<index_t, index_t>(10, 1),
                      std::make_pair<index_t, index_t>(1, 1),
                      std::make_pair<index_t, index_t>(20, 20),
                      std::make_pair<index_t, index_t>(50, 33),
                      std::make_pair<index_t, index_t>(100, 40),
                      std::make_pair<index_t, index_t>(200, 65),
                      std::make_pair<index_t, index_t>(12, 30),
                      std::make_pair<index_t, index_t>(100, 32),
                      std::make_pair<index_t, index_t>(120, 33),
                      std::make_pair<index_t, index_t>(300, 96)));

TEST(Geqrf, RDiagonalNonNegativeSignConvention) {
  // LAPACK convention: R diagonal entries can be negative; verify
  // magnitude equals column norms progression for a simple case.
  Matrix<double> a(3, 1, {3, 0, 4});
  std::vector<double> tau;
  geqrf<double>(a.view(), tau);
  EXPECT_NEAR(std::abs(a(0, 0)), 5.0, 1e-14);
}

TEST(Orgqr, PartialColumns) {
  const index_t m = 40, n = 20, k = 7;
  auto a = random_matrix<double>(m, n, 34);
  std::vector<double> tau;
  geqrf<double>(a.view(), tau);
  orgqr<double>(a.view(), tau, k);
  EXPECT_LT(ortho_defect<double>(ConstMatrixView<double>(a.block(0, 0, m, k))),
            1e-13);
}

// Q's leading columns do not depend on how many trailing reflectors are
// accumulated: Q from k = 50 must equal the first 50 columns of Q from
// k = 120. A block whose rows above it were not cleared would differ.
TEST(Orgqr, PartialMatchesLeadingColumnsOfFullQ) {
  const index_t m = 400, n = 120, kp = 50;
  auto a = random_matrix<double>(m, n, 41);
  std::vector<double> tau;
  geqrf<double>(a.view(), tau);
  auto full = Matrix<double>::copy_of(a.view());
  orgqr<double>(full.view(), tau, n);
  orgqr<double>(a.view(), tau, kp);
  EXPECT_LT(rel_diff<double>(a.block(0, 0, m, kp), full.block(0, 0, m, kp)),
            1e-13);
}

TEST(OrmqrLeft, TransThenNoTransRoundTrips) {
  const index_t m = 30, n = 12, nrhs = 5;
  auto a = random_matrix<double>(m, n, 35);
  std::vector<double> tau;
  geqrf<double>(a.view(), tau);
  auto c0 = random_matrix<double>(m, nrhs, 36);
  auto c = Matrix<double>::copy_of(c0.view());
  ormqr_left<double>(Op::Trans, a.view(), tau, c.view());
  EXPECT_GT(rel_diff<double>(c.view(), c0.view()), 1e-3);
  ormqr_left<double>(Op::NoTrans, a.view(), tau, c.view());
  EXPECT_LT(rel_diff<double>(c.view(), c0.view()), 1e-13);
}

TEST(OrmqrLeft, QtAEqualsR) {
  const index_t m = 25, n = 10;
  auto a0 = random_matrix<double>(m, n, 37);
  auto a = Matrix<double>::copy_of(a0.view());
  std::vector<double> tau;
  geqrf<double>(a.view(), tau);
  auto c = Matrix<double>::copy_of(a0.view());
  ormqr_left<double>(Op::Trans, a.view(), tau, c.view());
  // c must now equal R (upper triangular in top block, ~0 below).
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i <= j; ++i) EXPECT_NEAR(c(i, j), a(i, j), 1e-12);
    for (index_t i = j + 1; i < m; ++i) EXPECT_NEAR(c(i, j), 0.0, 1e-12);
  }
}

TEST(QrExplicit, ProducesQandR) {
  const index_t m = 60, n = 24;
  auto a0 = random_matrix<double>(m, n, 38);
  auto a = Matrix<double>::copy_of(a0.view());
  Matrix<double> r(n, n);
  qr_explicit<double>(a.view(), r.view());
  EXPECT_LT(ortho_defect<double>(ConstMatrixView<double>(a.view())), 1e-13);
  Matrix<double> rec(m, n);
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), r.view(), 0.0,
                     rec.view());
  EXPECT_LT(rel_diff<double>(rec.view(), a0.view()), 1e-13);
  // R strictly lower part is zero.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < n; ++i) EXPECT_EQ(r(i, j), 0.0);
}

TEST(Larfb, MatchesSequentialLarfApplication) {
  const index_t m = 30, k = 6, n = 8;
  auto panel0 = random_matrix<double>(m, k, 39);
  auto panel = Matrix<double>::copy_of(panel0.view());
  std::vector<double> tau;
  geqrf<double>(panel.view(), tau);

  Matrix<double> t(k, k);
  larft<double>(panel.view(), tau.data(), t.view());

  auto c0 = random_matrix<double>(m, n, 40);
  auto c_blocked = Matrix<double>::copy_of(c0.view());
  larfb_left<double>(Op::Trans, panel.view(), t.view(), c_blocked.view());

  auto c_seq = Matrix<double>::copy_of(c0.view());
  ormqr_left<double>(Op::Trans, panel.view(), tau, c_seq.view());

  EXPECT_LT(rel_diff<double>(c_blocked.view(), c_seq.view()), 1e-12);
}

// Served Q must be deterministic: the blocked orgqr's larfb gemm splits
// across the pool at 2000×96, and the result must not depend on how.
TEST(ThreadInvariance, OrgqrBitwiseIdenticalAcrossWorkerCounts) {
  const index_t m = 2000, n = 96;
  auto a = random_matrix<double>(m, n, 42);
  set_blas_num_threads(1);
  std::vector<double> tau;
  geqrf<double>(a.view(), tau);
  auto q1 = Matrix<double>::copy_of(a.view());
  orgqr<double>(q1.view(), tau, n);
  for (index_t threads : {2, 4}) {
    set_blas_num_threads(threads);
    auto qt = Matrix<double>::copy_of(a.view());
    const auto splits = pool_stats().split_batches;
    orgqr<double>(qt.view(), tau, n);
    EXPECT_GT(pool_stats().split_batches, splits) << "threads=" << threads;
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i)
        ASSERT_EQ(q1(i, j), qt(i, j)) << "threads=" << threads;
  }
  set_blas_num_threads(1);
}

}  // namespace
}  // namespace randla::lapack
