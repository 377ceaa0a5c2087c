// Tests for the paper's §11 extension features: TSQR (CA-QR),
// tournament-pivoting CAQP3, and the threaded BLAS-3 path.
#include <gtest/gtest.h>

#include <cmath>

#include "la/blas3.hpp"
#include "la/householder.hpp"
#include "la/parallel.hpp"
#include "la/svd_jacobi.hpp"
#include "ortho/tsqr.hpp"
#include "qrcp/caqp3.hpp"
#include "test_util.hpp"

namespace randla {
namespace {

using testing::ortho_defect;
using testing::random_low_rank;
using testing::random_matrix;
using testing::rel_diff;

// ------------------------------------------------------------- TSQR

class TsqrShapes
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {};

TEST_P(TsqrShapes, OrthonormalAndReconstructs) {
  auto [m, n, leaf] = GetParam();
  auto a0 = random_matrix<double>(m, n, 401);
  auto a = Matrix<double>::copy_of(a0.view());
  Matrix<double> r(n, n);
  ortho::tsqr<double>(a.view(), r.view(), leaf);
  EXPECT_LT(ortho_defect<double>(a.view()), 1e-13);
  Matrix<double> rec(m, n);
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), r.view(), 0.0,
                     rec.view());
  EXPECT_LT(rel_diff<double>(rec.view(), a0.view()), 1e-13);
  // R upper triangular.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < n; ++i) EXPECT_NEAR(r(i, j), 0.0, 1e-14);
}

INSTANTIATE_TEST_SUITE_P(
    TreesAndLeaves, TsqrShapes,
    ::testing::Values(std::make_tuple<index_t, index_t, index_t>(64, 8, 16),
                      std::make_tuple<index_t, index_t, index_t>(200, 16, 0),
                      std::make_tuple<index_t, index_t, index_t>(333, 10, 25),
                      std::make_tuple<index_t, index_t, index_t>(1024, 32, 64),
                      std::make_tuple<index_t, index_t, index_t>(40, 20, 0)));

TEST(Tsqr, SingleLeafMatchesHouseholder) {
  // With a leaf covering all rows, TSQR degenerates to plain QR.
  const index_t m = 50, n = 12;
  auto a0 = random_matrix<double>(m, n, 402);
  auto a_tsqr = Matrix<double>::copy_of(a0.view());
  auto a_hh = Matrix<double>::copy_of(a0.view());
  Matrix<double> r_tsqr(n, n), r_hh(n, n);
  ortho::tsqr<double>(a_tsqr.view(), r_tsqr.view(), m);
  lapack::qr_explicit<double>(a_hh.view(), r_hh.view());
  EXPECT_LT(rel_diff<double>(a_tsqr.view(), a_hh.view()), 1e-14);
}

TEST(Tsqr, StableOnIllConditionedColumns) {
  // Graded columns that defeat single-pass CholQR are fine for TSQR.
  const index_t m = 400, n = 10;
  auto a = random_matrix<double>(m, n, 403);
  for (index_t j = 0; j < n; ++j) {
    const double s = std::pow(10.0, -1.2 * double(j));
    for (index_t i = 0; i < m; ++i) a(i, j) *= s;
  }
  auto a_chol = Matrix<double>::copy_of(a.view());
  ortho::tsqr<double>(a.view());
  EXPECT_LT(ortho_defect<double>(a.view()), 1e-12);
  ortho::orthonormalize_columns<double>(ortho::Scheme::CholQR, a_chol.view());
  // TSQR must be at least as orthogonal as single-pass CholQR here.
  EXPECT_LE(ortho_defect<double>(a.view()),
            ortho_defect<double>(a_chol.view()) + 1e-13);
}

TEST(Tsqr, WideInputThrows) {
  Matrix<double> a(4, 9);
  EXPECT_THROW(ortho::tsqr<double>(a.view()), std::invalid_argument);
}

TEST(TsqrRows, RowOrthonormalizes) {
  const index_t l = 12, n = 150;
  auto b = random_matrix<double>(l, n, 404);
  ortho::tsqr_rows<double>(b.view(), 0);
  Matrix<double> g(l, l);
  blas::gemm<double>(Op::NoTrans, Op::Trans, 1.0, b.view(), b.view(), 0.0,
                     g.view());
  for (index_t j = 0; j < l; ++j)
    for (index_t i = 0; i < l; ++i)
      EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

// ------------------------------------------------------------- CAQP3

TEST(Caqp3, FullFactorizationReconstructs) {
  const index_t m = 80, n = 50;
  auto a0 = random_matrix<double>(m, n, 405);
  auto a = Matrix<double>::copy_of(a0.view());
  Permutation jpvt;
  std::vector<double> tau;
  const index_t k = std::min(m, n);
  ASSERT_EQ(qrcp::caqp3<double>(a.view(), jpvt, tau, k, nullptr, 16), k);
  ASSERT_TRUE(is_valid_permutation(jpvt));

  Matrix<double> r(k, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = a(i, j);
  lapack::orgqr<double>(a.view(), tau, k);
  EXPECT_LT(ortho_defect<double>(ConstMatrixView<double>(a.block(0, 0, m, k))),
            1e-12);
  Matrix<double> rec(m, n);
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0,
                     ConstMatrixView<double>(a.block(0, 0, m, k)), r.view(),
                     0.0, rec.view());
  Matrix<double> ap(m, n);
  apply_column_permutation<double>(a0.view(), jpvt, ap.view());
  EXPECT_LT(rel_diff<double>(rec.view(), ap.view()), 1e-12);
}

TEST(Caqp3, RankRevealsLowRank) {
  const index_t m = 90, n = 60, rank = 7;
  auto a = random_low_rank<double>(m, n, rank, 406);
  Permutation jpvt;
  std::vector<double> tau;
  qrcp::caqp3<double>(a.view(), jpvt, tau, 24, nullptr, 8);
  EXPECT_LT(std::abs(a(rank, rank)), 1e-8 * std::abs(a(0, 0)));
  EXPECT_GT(std::abs(a(rank - 1, rank - 1)), 1e-6 * std::abs(a(0, 0)));
}

TEST(Caqp3, TruncatedErrorComparableToQp3) {
  // Tournament pivoting must reveal rank about as well as QP3: the
  // truncated residuals should agree within a small factor.
  const index_t m = 70, n = 50, k = 10;
  auto a0 = random_matrix<double>(m, n, 407);
  // Graded scales make pivoting matter.
  for (index_t j = 0; j < n; ++j) {
    const double s = std::pow(10.0, -double((j * 13) % n) / 12.0);
    for (index_t i = 0; i < m; ++i) a0(i, j) *= s;
  }

  auto residual = [&](bool ca) {
    auto a = Matrix<double>::copy_of(a0.view());
    Permutation jpvt;
    std::vector<double> tau;
    if (ca)
      qrcp::caqp3<double>(a.view(), jpvt, tau, k, nullptr, 4);
    else
      qrcp::geqp3<double>(a.view(), jpvt, tau, k);
    Matrix<double> r(k, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = a(i, j);
    lapack::orgqr<double>(a.view(), tau, k);
    Matrix<double> rec(m, n);
    blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0,
                       ConstMatrixView<double>(a.block(0, 0, m, k)), r.view(),
                       0.0, rec.view());
    Matrix<double> ap(m, n);
    apply_column_permutation<double>(a0.view(), jpvt, ap.view());
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) ap(i, j) -= rec(i, j);
    return norm_fro<double>(ap.view());
  };
  const double e_ca = residual(true);
  const double e_qp3 = residual(false);
  EXPECT_LT(e_ca, 3.0 * e_qp3 + 1e-14);
}

TEST(Caqp3, StatsReportPanels) {
  auto a = random_matrix<double>(60, 40, 408);
  Permutation jpvt;
  std::vector<double> tau;
  qrcp::QrcpStats stats;
  qrcp::caqp3<double>(a.view(), jpvt, tau, 32, &stats, 8);
  EXPECT_EQ(stats.panels, 4);
  EXPECT_EQ(stats.columns_factored, 32);
  EXPECT_GT(stats.flops_blas3, 0.0);
  // No norm downdating ⇒ no recomputes ever.
  EXPECT_EQ(stats.norm_recomputes, 0);
}

TEST(Caqp3, BlockSizeOneDegeneratesToColumnPivoting) {
  // With b = 1 each tournament picks the single largest trailing column
  // — the same pivot geqp2 would choose.
  const index_t m = 40, n = 25, k = 8;
  auto a0 = random_matrix<double>(m, n, 409);
  for (index_t j = 0; j < n; ++j) {
    const double s = std::pow(1.4, double((j * 11) % n));
    for (index_t i = 0; i < m; ++i) a0(i, j) *= s;
  }
  auto a_ca = Matrix<double>::copy_of(a0.view());
  auto a_qp = Matrix<double>::copy_of(a0.view());
  Permutation p_ca, p_qp;
  std::vector<double> t_ca, t_qp;
  qrcp::caqp3<double>(a_ca.view(), p_ca, t_ca, k, nullptr, 1);
  qrcp::geqp2<double>(a_qp.view(), p_qp, t_qp, k);
  for (index_t j = 0; j < k; ++j)
    EXPECT_EQ(p_ca[static_cast<std::size_t>(j)],
              p_qp[static_cast<std::size_t>(j)])
        << "pivot " << j;
}

// ----------------------------------------------------- threaded BLAS-3

TEST(ParallelGemm, MatchesSerialResult) {
  const index_t m = 64, n = 3000, k = 40;  // n > 2·NC engages the split
  auto a = random_matrix<double>(m, k, 410);
  auto b = random_matrix<double>(k, n, 411);
  Matrix<double> c_serial(m, n), c_par(m, n);

  const index_t saved = blas_num_threads();
  set_blas_num_threads(1);
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), b.view(), 0.0,
                     c_serial.view());
  set_blas_num_threads(4);
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), b.view(), 0.0,
                     c_par.view());
  set_blas_num_threads(saved);

  // Identical partitioned arithmetic ⇒ bitwise equality.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) EXPECT_EQ(c_serial(i, j), c_par(i, j));
}

TEST(ParallelGemm, TransposedOperandSlicing) {
  const index_t m = 32, n = 2500, k = 20;
  auto a = random_matrix<double>(k, m, 412);   // used transposed
  auto b = random_matrix<double>(n, k, 413);   // used transposed
  Matrix<double> c1(m, n), c4(m, n);
  const index_t saved = blas_num_threads();
  set_blas_num_threads(1);
  blas::gemm<double>(Op::Trans, Op::Trans, 1.0, a.view(), b.view(), 0.0,
                     c1.view());
  set_blas_num_threads(3);
  blas::gemm<double>(Op::Trans, Op::Trans, 1.0, a.view(), b.view(), 0.0,
                     c4.view());
  set_blas_num_threads(saved);
  EXPECT_LT(rel_diff<double>(c4.view(), c1.view()), 1e-15);
}

TEST(ParallelRanges, CoversExactlyOnce) {
  const index_t saved = blas_num_threads();
  set_blas_num_threads(4);
  std::vector<std::atomic<int>> hits(97);
  parallel_ranges(97, 10, [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  set_blas_num_threads(saved);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRanges, EmptyAndSerialPaths) {
  int calls = 0;
  parallel_ranges(0, 1, [&](index_t, index_t) { calls++; });
  EXPECT_EQ(calls, 0);
  const index_t saved = blas_num_threads();
  set_blas_num_threads(1);
  parallel_ranges(100, 1, [&](index_t b, index_t e) {
    calls++;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 100);
  });
  set_blas_num_threads(saved);
  EXPECT_EQ(calls, 1);
}

TEST(ThreadKnob, ClampsToOne) {
  const index_t saved = blas_num_threads();
  set_blas_num_threads(0);
  EXPECT_EQ(blas_num_threads(), 1);
  set_blas_num_threads(-5);
  EXPECT_EQ(blas_num_threads(), 1);
  set_blas_num_threads(saved);
}

}  // namespace
}  // namespace randla
