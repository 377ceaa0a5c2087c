// Unit tests for the orthogonalization schemes (CholQR/CGS/MGS/HHQR,
// row and column variants, BOrth).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "la/blas3.hpp"
#include "la/parallel.hpp"
#include "ortho/ortho.hpp"
#include "rng/gaussian.hpp"
#include "test_util.hpp"

namespace randla::ortho {
namespace {

using testing::digest;
using testing::ortho_defect;
using testing::random_matrix;
using testing::rel_diff;

// Row-orthonormality defect ‖BBᵀ − I‖_max.
template <class Real>
Real row_ortho_defect(ConstMatrixView<Real> b) {
  Matrix<Real> g(b.rows(), b.rows());
  blas::gemm(Op::NoTrans, Op::Trans, Real(1), b, b, Real(0), g.view());
  Real worst = 0;
  for (index_t j = 0; j < g.cols(); ++j)
    for (index_t i = 0; i < g.rows(); ++i)
      worst = std::max(worst,
                       std::abs(g(i, j) - (i == j ? Real(1) : Real(0))));
  return worst;
}

class ColumnSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(ColumnSchemes, OrthonormalizesAndReconstructs) {
  const Scheme scheme = GetParam();
  const index_t m = 120, n = 24;
  auto a0 = random_matrix<double>(m, n, 81);
  auto a = Matrix<double>::copy_of(a0.view());
  Matrix<double> r(n, n);
  auto rep = orthonormalize_columns<double>(scheme, a.view(), r.view());
  ASSERT_TRUE(rep.ok);
  EXPECT_FALSE(rep.fallback_used);
  EXPECT_LT(ortho_defect<double>(a.view()), 1e-10) << scheme_name(scheme);
  // Q·R reconstructs the input.
  Matrix<double> rec(m, n);
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), r.view(), 0.0,
                     rec.view());
  EXPECT_LT(rel_diff<double>(rec.view(), a0.view()), 1e-11) << scheme_name(scheme);
  // R upper triangular with positive-ish diagonal structure.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < n; ++i)
      EXPECT_NEAR(r(i, j), 0.0, 1e-12) << scheme_name(scheme);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ColumnSchemes,
                         ::testing::Values(Scheme::CholQR, Scheme::CholQR2,
                                           Scheme::CGS, Scheme::MGS,
                                           Scheme::HHQR),
                         [](const auto& info) {
                           return scheme_name(info.param);
                         });

class RowSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(RowSchemes, RowOrthonormalizes) {
  const Scheme scheme = GetParam();
  const index_t l = 16, n = 90;
  auto b = random_matrix<double>(l, n, 82);
  auto rep = orthonormalize_rows<double>(scheme, b.view());
  ASSERT_TRUE(rep.ok);
  EXPECT_LT(row_ortho_defect<double>(b.view()), 1e-10) << scheme_name(scheme);
}

TEST_P(RowSchemes, PreservesRowSpace) {
  const Scheme scheme = GetParam();
  const index_t l = 8, n = 40;
  auto b0 = random_matrix<double>(l, n, 83);
  auto b = Matrix<double>::copy_of(b0.view());
  orthonormalize_rows<double>(scheme, b.view());
  // Every original row must be exactly representable in the new row
  // basis: b0 = (b0·bᵀ)·b.
  Matrix<double> coeff(l, l);
  blas::gemm<double>(Op::NoTrans, Op::Trans, 1.0, b0.view(), b.view(), 0.0,
                     coeff.view());
  Matrix<double> rec(l, n);
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, coeff.view(), b.view(),
                     0.0, rec.view());
  EXPECT_LT(rel_diff<double>(rec.view(), b0.view()), 1e-10) << scheme_name(scheme);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, RowSchemes,
                         ::testing::Values(Scheme::CholQR, Scheme::CholQR2,
                                           Scheme::CGS, Scheme::MGS,
                                           Scheme::HHQR),
                         [](const auto& info) {
                           return scheme_name(info.param);
                         });

TEST(CholQR, FallsBackOnRankDeficiency) {
  // Rank-1 matrix: the Gram matrix is singular, Cholesky must fail and
  // the HHQR fallback engage (paper §4's stability mitigation).
  const index_t m = 30, n = 4;
  Matrix<double> a(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) = double(i + 1) * double(j + 1);
  auto rep = orthonormalize_columns<double>(Scheme::CholQR, a.view());
  EXPECT_TRUE(rep.cholesky_failed);
  EXPECT_TRUE(rep.fallback_used);
  EXPECT_TRUE(rep.ok);
}

TEST(CholQR2, BeatsSingleCholQROnIllConditioned) {
  // Columns with widely varying scales: CholQR loses orthogonality like
  // κ², the second pass restores it.
  const index_t m = 200, n = 10;
  auto a = random_matrix<double>(m, n, 84);
  for (index_t j = 0; j < n; ++j) {
    const double scale = std::pow(10.0, -double(j) * 0.7);
    for (index_t i = 0; i < m; ++i) a(i, j) *= scale;
  }
  auto a1 = Matrix<double>::copy_of(a.view());
  auto a2 = Matrix<double>::copy_of(a.view());
  orthonormalize_columns<double>(Scheme::CholQR, a1.view());
  orthonormalize_columns<double>(Scheme::CholQR2, a2.view());
  const double d1 = ortho_defect<double>(a1.view());
  const double d2 = ortho_defect<double>(a2.view());
  EXPECT_LT(d2, 1e-12);
  EXPECT_LT(d2, d1);
}

// CholQR2's Q at a tall shape that takes the chunked Gram and the
// blocked right-side solve, pinned at 1 and 4 threads. The bits belong
// to the AVX2-FMA kernels; the portable build rounds differently.
TEST(CholQR2, GoldenDigestTall) {
  if (std::string(blas::kernel_arch()).rfind("avx2", 0) != 0)
    GTEST_SKIP() << "digest pinned for the avx2-fma kernels";
  const auto a0 = rng::gaussian_matrix<double>(3000, 50, 20151115);
  const index_t prev_threads = blas_num_threads();
  for (index_t threads : {1, 4}) {
    set_blas_num_threads(threads);
    auto q = Matrix<double>::copy_of(a0.view());
    orthonormalize_columns<double>(Scheme::CholQR2, q.view());
    EXPECT_EQ(digest(q), 0xf7d9df79109c7c26ull) << "threads=" << threads;
    EXPECT_LT(ortho_defect<double>(q.view()), 1e-14);
  }
  set_blas_num_threads(prev_threads);
}

TEST(OrthColumns, WideInputThrows) {
  Matrix<double> a(3, 5);
  EXPECT_THROW(orthonormalize_columns<double>(Scheme::CholQR, a.view()),
               std::invalid_argument);
}

TEST(OrthRows, TallInputThrows) {
  Matrix<double> b(5, 3);
  EXPECT_THROW(orthonormalize_rows<double>(Scheme::CholQR, b.view()),
               std::invalid_argument);
}

TEST(OrthColumns, BadRShapeThrows) {
  Matrix<double> a(10, 3), r(2, 2);
  EXPECT_THROW(
      orthonormalize_columns<double>(Scheme::CholQR, a.view(), r.view()),
      std::invalid_argument);
}

TEST(BlockOrthRows, OrthogonalizesAgainstPrevious) {
  const index_t lp = 6, lb = 4, n = 50;
  auto prev = random_matrix<double>(lp, n, 85);
  orthonormalize_rows<double>(Scheme::HHQR, prev.view());
  auto b = random_matrix<double>(lb, n, 86);
  block_orth_rows<double>(prev.view(), b.view(), 2);
  // B·prevᵀ ≈ 0.
  Matrix<double> cross(lb, lp);
  blas::gemm<double>(Op::NoTrans, Op::Trans, 1.0, b.view(), prev.view(), 0.0,
                     cross.view());
  EXPECT_LT(norm_max<double>(cross.view()), 1e-12);
}

TEST(BlockOrthRows, EmptyPreviousIsNoop) {
  auto b = random_matrix<double>(3, 20, 87);
  auto b0 = Matrix<double>::copy_of(b.view());
  Matrix<double> empty(0, 20);
  block_orth_rows<double>(empty.view(), b.view());
  EXPECT_LT(rel_diff<double>(b.view(), b0.view()), 1e-15);
}

TEST(BlockOrthColumns, OrthogonalizesAgainstPrevious) {
  const index_t m = 60, kp = 5, kb = 3;
  auto prev = random_matrix<double>(m, kp, 88);
  orthonormalize_columns<double>(Scheme::HHQR, prev.view());
  auto b = random_matrix<double>(m, kb, 89);
  block_orth_columns<double>(prev.view(), b.view(), 2);
  Matrix<double> cross(kp, kb);
  blas::gemm<double>(Op::Trans, Op::NoTrans, 1.0, prev.view(), b.view(), 0.0,
                     cross.view());
  EXPECT_LT(norm_max<double>(cross.view()), 1e-12);
}

TEST(BlockOrthRows, SinglePassLeavesResidualOnNastyInput) {
  // Rows nearly parallel to prev: one CGS pass leaves O(ε·κ) residual,
  // the second pass cleans it — justifying the paper's "one full
  // reorthogonalization" setting.
  const index_t lp = 4, lb = 2, n = 64;
  auto prev = random_matrix<double>(lp, n, 90);
  orthonormalize_rows<double>(Scheme::HHQR, prev.view());
  Matrix<double> b(lb, n);
  // b = prev rows + tiny noise.
  for (index_t j = 0; j < n; ++j) {
    b(0, j) = prev(0, j) + 1e-9 * std::sin(double(j));
    b(1, j) = prev(1, j) + 1e-9 * std::cos(double(j));
  }
  auto b1 = Matrix<double>::copy_of(b.view());
  auto b2 = Matrix<double>::copy_of(b.view());
  block_orth_rows<double>(prev.view(), b1.view(), 1);
  block_orth_rows<double>(prev.view(), b2.view(), 2);

  auto cross_norm = [&](const Matrix<double>& x) {
    Matrix<double> cross(lb, lp);
    blas::gemm<double>(Op::NoTrans, Op::Trans, 1.0, x.view(), prev.view(), 0.0,
                       cross.view());
    // Normalize by the (tiny) row norms so the comparison is relative.
    return norm_max<double>(cross.view()) /
           std::max(1e-300, double(norm_fro<double>(x.view())));
  };
  EXPECT_LE(cross_norm(b2), cross_norm(b1) + 1e-18);
}

TEST(SchemeFlops, OrderingMatchesBlasLevels) {
  // CholQR charges ~2mn², CGS/MGS 2mn², HHQR ~4mn²: sanity-check the
  // accounting used by the performance model.
  const index_t m = 10000, n = 64;
  EXPECT_NEAR(scheme_flops(Scheme::CGS, m, n),
              scheme_flops(Scheme::MGS, m, n), 1.0);
  EXPECT_GT(scheme_flops(Scheme::HHQR, m, n),
            1.5 * scheme_flops(Scheme::CGS, m, n));
  EXPECT_LT(scheme_flops(Scheme::CholQR, m, n),
            1.5 * scheme_flops(Scheme::CGS, m, n));
}

}  // namespace
}  // namespace randla::ortho
