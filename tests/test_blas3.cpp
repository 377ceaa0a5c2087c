// Unit tests for BLAS-3 kernels: the blocked GEMM against a reference
// triple loop over shapes that exercise every packing edge case, plus
// syrk (both its triangle-block and summation-chunk paths) and trsm /
// trmm in all orientations.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "la/blas3.hpp"
#include "test_util.hpp"

namespace randla::blas {
namespace {

using testing::random_matrix;
using testing::reference_gemm;
using testing::rel_diff;

// ---------------------------------------------------------------- GEMM

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {};

TEST_P(GemmShapes, MatchesReferenceAllOps) {
  auto [m, n, k] = GetParam();
  for (Op opa : {Op::NoTrans, Op::Trans}) {
    for (Op opb : {Op::NoTrans, Op::Trans}) {
      auto a = (opa == Op::NoTrans) ? random_matrix<double>(m, k, 1)
                                    : random_matrix<double>(k, m, 1);
      auto b = (opb == Op::NoTrans) ? random_matrix<double>(k, n, 2)
                                    : random_matrix<double>(n, k, 2);
      Matrix<double> c(m, n);
      gemm<double>(opa, opb, 1.0, a.view(), b.view(), 0.0, c.view());
      auto ref = reference_gemm<double>(opa, opb, 1.0, a.view(), b.view());
      EXPECT_LT(rel_diff<double>(c.view(), ref.view()), 1e-13)
          << "m=" << m << " n=" << n << " k=" << k
          << " opa=" << int(opa) << " opb=" << int(opb);
    }
  }
}

// Shapes chosen to hit: sub-tile, exact-tile, multi-block, and ragged
// edges of the MR=4 / NR=8 / MC=128 / KC=256 / NC=1024 blocking.
INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(4, 8, 16), std::make_tuple(5, 9, 17),
                      std::make_tuple(64, 64, 64), std::make_tuple(129, 7, 257),
                      std::make_tuple(130, 33, 70), std::make_tuple(37, 129, 41),
                      std::make_tuple(128, 8, 256)));

TEST(Gemm, AlphaBetaComposition) {
  auto a = random_matrix<double>(20, 15, 3);
  auto b = random_matrix<double>(15, 10, 4);
  auto c0 = random_matrix<double>(20, 10, 5);
  auto c = Matrix<double>::copy_of(c0.view());
  gemm<double>(Op::NoTrans, Op::NoTrans, 2.0, a.view(), b.view(), -0.5,
               c.view());
  auto ab = reference_gemm<double>(Op::NoTrans, Op::NoTrans, 2.0, a.view(),
                                   b.view());
  for (index_t j = 0; j < 10; ++j)
    for (index_t i = 0; i < 20; ++i)
      EXPECT_NEAR(c(i, j), ab(i, j) - 0.5 * c0(i, j), 1e-12);
}

TEST(Gemm, BetaOneAccumulates) {
  auto a = random_matrix<double>(8, 8, 6);
  Matrix<double> c(8, 8);
  c.view().set_identity();
  gemm<double>(Op::NoTrans, Op::NoTrans, 0.0, a.view(), a.view(), 1.0,
               c.view());
  EXPECT_DOUBLE_EQ(c(0, 0), 1.0);  // alpha=0 leaves beta·C
  EXPECT_DOUBLE_EQ(c(1, 0), 0.0);
}

TEST(Gemm, StridedViewsOperands) {
  // Operate on interior blocks of larger matrices (ld > rows).
  auto big_a = random_matrix<double>(30, 30, 7);
  auto big_b = random_matrix<double>(30, 30, 8);
  Matrix<double> big_c(30, 30);
  auto a = big_a.block(2, 3, 9, 7);
  auto b = big_b.block(1, 1, 7, 11);
  auto c = big_c.block(5, 5, 9, 11);
  gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a, b, 0.0, c);
  auto ref = reference_gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a, b);
  EXPECT_LT(rel_diff<double>(ConstMatrixView<double>(c), ref.view()), 1e-13);
  // Untouched surroundings.
  EXPECT_DOUBLE_EQ(big_c(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(big_c(4, 5), 0.0);
}

TEST(Gemm, EmptyDimensionsNoop) {
  Matrix<double> a(0, 5), b(5, 0), c(0, 0);
  gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), b.view(), 0.0,
               c.view());
  SUCCEED();
}

// ---------------------------------------------------------------- SYRK

// k runs up to and past the tall path's 1024-long summation chunk
// (1025 is a full chunk plus a one-element one); n = 150 is beyond the
// tall path and takes the triangle blocks at every k.
class SyrkCase
    : public ::testing::TestWithParam<std::tuple<Uplo, Op, index_t, index_t>> {};

TEST_P(SyrkCase, MatchesGemmOnTriangle) {
  auto [uplo, op, n, k] = GetParam();
  auto a = (op == Op::NoTrans) ? random_matrix<double>(n, k, 9)
                               : random_matrix<double>(k, n, 9);
  const auto c0 = random_matrix<double>(n, n, 16);
  auto c = Matrix<double>::copy_of(c0.view());
  syrk<double>(uplo, op, 0.5, a.view(), -0.75, c.view());
  auto ref = reference_gemm<double>(op, transpose(op), 0.5, a.view(), a.view());
  const double tol = 1e-14 * double(k + 64);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const bool in_tri = (uplo == Uplo::Upper) ? (i <= j) : (i >= j);
      if (in_tri)
        ASSERT_NEAR(c(i, j), ref(i, j) - 0.75 * c0(i, j), tol) << i << "," << j;
      else
        ASSERT_EQ(c(i, j), c0(i, j)) << "triangle leak at " << i << "," << j;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Orientations, SyrkCase,
    ::testing::Combine(::testing::Values(Uplo::Upper, Uplo::Lower),
                       ::testing::Values(Op::NoTrans, Op::Trans),
                       ::testing::Values<index_t>(5, 96, 150),
                       ::testing::Values<index_t>(7, 64, 1023, 1024, 1025,
                                                  5000)));

TEST(Syrk, BetaAccumulation) {
  auto a = random_matrix<double>(6, 4, 10);
  Matrix<double> c(6, 6);
  c.view().set_identity();
  syrk<double>(Uplo::Upper, Op::NoTrans, 1.0, a.view(), 2.0, c.view());
  auto ref = reference_gemm<double>(Op::NoTrans, Op::Trans, 1.0, a.view(),
                                    a.view());
  EXPECT_NEAR(c(0, 0), ref(0, 0) + 2.0, 1e-12);
  EXPECT_NEAR(c(0, 1), ref(0, 1), 1e-12);
}

TEST(Symmetrize, MirrorsTriangle) {
  Matrix<double> c(3, 3, {1, 2, 3, 0, 4, 5, 0, 0, 6});  // upper stored
  symmetrize<double>(Uplo::Upper, c.view());
  EXPECT_DOUBLE_EQ(c(1, 0), 2);
  EXPECT_DOUBLE_EQ(c(2, 0), 3);
  EXPECT_DOUBLE_EQ(c(2, 1), 5);
}

// ---------------------------------------------------------------- TRSM

class TrsmCase
    : public ::testing::TestWithParam<std::tuple<Side, Uplo, Op, Diag>> {};

TEST_P(TrsmCase, SolveInvertsMultiply) {
  auto [side, uplo, op, diag] = GetParam();
  const index_t m = 37;   // > blocking nb would be nice; nb=64, also test big below
  const index_t n = 23;
  const index_t dim = (side == Side::Left) ? m : n;

  // Build a well-conditioned triangular T.
  Matrix<double> t(dim, dim);
  for (index_t j = 0; j < dim; ++j)
    for (index_t i = 0; i < dim; ++i) {
      const bool in_tri = (uplo == Uplo::Upper) ? (i <= j) : (i >= j);
      if (!in_tri) continue;
      t(i, j) = (i == j) ? 3.0 + 0.05 * double(i)
                         : 0.4 / double(1 + std::abs(double(i - j)));
    }

  auto x = random_matrix<double>(m, n, 11);
  auto b = Matrix<double>::copy_of(x.view());
  // b = op(T)·x or x·op(T) using trmm (tested independently below).
  trmm<double>(side, uplo, op, diag, 1.0, t.view(), b.view());
  trsm<double>(side, uplo, op, diag, 1.0, t.view(), b.view());
  EXPECT_LT(rel_diff<double>(b.view(), x.view()), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrientations, TrsmCase,
    ::testing::Combine(::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Upper, Uplo::Lower),
                       ::testing::Values(Op::NoTrans, Op::Trans),
                       ::testing::Values(Diag::NonUnit, Diag::Unit)));

// Every Side×Uplo×Op×Diag against a naive dense reference, at triangle
// sizes around the 16-wide diagonal blocks and past one L2 panel of B
// (700 right-hand sides), with α ≠ 1. Unit-diagonal triangles store a
// junk diagonal that must be ignored.
class TriangularDense
    : public ::testing::TestWithParam<std::tuple<Side, Uplo, Op, Diag>> {};

TEST_P(TriangularDense, TrsmAndTrmmMatchNaiveReference) {
  auto [side, uplo, op, diag] = GetParam();
  const index_t len = 700;
  const double alpha = 0.7;
  for (index_t dim : {1, 15, 16, 17, 50, 130}) {
    const index_t m = (side == Side::Left) ? dim : len;
    const index_t n = (side == Side::Left) ? len : dim;
    Matrix<double> t = random_matrix<double>(dim, dim, 17);
    Matrix<double> opt(dim, dim);  // dense op(T), the triangle only
    for (index_t j = 0; j < dim; ++j)
      for (index_t i = 0; i < dim; ++i) {
        const bool in_tri = (uplo == Uplo::Upper) ? (i <= j) : (i >= j);
        if (i == j) {
          t(i, j) = (diag == Diag::Unit) ? 99.0 : 2.0 + 0.01 * double(i);
        } else if (in_tri) {
          t(i, j) /= double(dim);
        }
        if (!in_tri) continue;
        const double v = (i == j && diag == Diag::Unit) ? 1.0 : t(i, j);
        if (op == Op::NoTrans)
          opt(i, j) = v;
        else
          opt(j, i) = v;
      }
    const auto b0 = random_matrix<double>(m, n, 18);
    auto ab0 = Matrix<double>::copy_of(b0.view());
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) ab0(i, j) *= alpha;

    // trmm: α·op(T)·B or α·B·op(T).
    auto mult = Matrix<double>::copy_of(b0.view());
    trmm<double>(side, uplo, op, diag, alpha, t.view(), mult.view());
    auto want_mult =
        (side == Side::Left)
            ? reference_gemm<double>(Op::NoTrans, Op::NoTrans, alpha,
                                     opt.view(), b0.view())
            : reference_gemm<double>(Op::NoTrans, Op::NoTrans, alpha,
                                     b0.view(), opt.view());
    EXPECT_LT(rel_diff<double>(mult.view(), want_mult.view()), 1e-13)
        << "trmm dim=" << dim;

    // trsm: naive substitution on the dense op(T), one right-hand side
    // (a column of αB for Left, a row for Right) at a time.
    auto solve = Matrix<double>::copy_of(b0.view());
    trsm<double>(side, uplo, op, diag, alpha, t.view(), solve.view());
    const bool lower_eff = (uplo == Uplo::Lower) == (op == Op::NoTrans);
    Matrix<double> want_solve(m, n);
    std::vector<double> x(static_cast<std::size_t>(dim));
    for (index_t v = 0; v < len; ++v) {
      auto rhs = [&](index_t i) -> double& {
        return (side == Side::Left) ? ab0(i, v) : ab0(v, i);
      };
      // Left: op(T)·x = rhs. Right: x·op(T) = rhs, i.e. op(T)ᵀ·x = rhs.
      auto coef = [&](index_t i, index_t k) {
        return (side == Side::Left) ? opt(i, k) : opt(k, i);
      };
      const bool lower = (side == Side::Left) == lower_eff;
      for (index_t s = 0; s < dim; ++s) {
        const index_t i = lower ? s : dim - 1 - s;
        double acc = rhs(i);
        for (index_t k = 0; k < dim; ++k)
          if (k != i && (lower ? k < i : k > i)) acc -= coef(i, k) * x[k];
        x[i] = acc / coef(i, i);
      }
      for (index_t i = 0; i < dim; ++i) {
        if (side == Side::Left)
          want_solve(i, v) = x[i];
        else
          want_solve(v, i) = x[i];
      }
    }
    EXPECT_LT(rel_diff<double>(solve.view(), want_solve.view()), 1e-13)
        << "trsm dim=" << dim;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrientations, TriangularDense,
    ::testing::Combine(::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Upper, Uplo::Lower),
                       ::testing::Values(Op::NoTrans, Op::Trans),
                       ::testing::Values(Diag::NonUnit, Diag::Unit)));

TEST(Trsm, BlockedPathLargeDimension) {
  // dim > nb = 64 exercises the blocked update path.
  const index_t dim = 150, n = 17;
  Matrix<double> t(dim, dim);
  for (index_t j = 0; j < dim; ++j) {
    t(j, j) = 2.0 + 0.01 * double(j);
    for (index_t i = 0; i < j; ++i) t(i, j) = 0.5 / double(1 + j - i);
  }
  auto x = random_matrix<double>(dim, n, 12);
  auto b = Matrix<double>::copy_of(x.view());
  trmm<double>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 1.0,
               t.view(), b.view());
  trsm<double>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 1.0,
               t.view(), b.view());
  EXPECT_LT(rel_diff<double>(b.view(), x.view()), 1e-10);
}

TEST(Trsm, AlphaScaling) {
  Matrix<double> t(2, 2, {2, 0, 0, 4});
  Matrix<double> b(2, 1, {4, 8});
  trsm<double>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 3.0,
               t.view(), b.view());
  EXPECT_DOUBLE_EQ(b(0, 0), 6.0);  // 3·4/2
  EXPECT_DOUBLE_EQ(b(1, 0), 6.0);  // 3·8/4
}

// ---------------------------------------------------------------- TRMM

TEST(Trmm, LeftUpperMatchesDense) {
  const index_t dim = 9, n = 5;
  Matrix<double> t(dim, dim);
  Matrix<double> dense(dim, dim);
  for (index_t j = 0; j < dim; ++j)
    for (index_t i = 0; i <= j; ++i) {
      t(i, j) = double(i + j + 1);
      dense(i, j) = t(i, j);
    }
  auto b = random_matrix<double>(dim, n, 13);
  auto ref = reference_gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, dense.view(),
                                    b.view());
  trmm<double>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 1.0,
               t.view(), b.view());
  EXPECT_LT(rel_diff<double>(b.view(), ref.view()), 1e-13);
}

TEST(Trmm, RightLowerTransMatchesDense) {
  const index_t m = 6, dim = 8;
  Matrix<double> t(dim, dim);
  Matrix<double> dense_t(dim, dim);
  for (index_t j = 0; j < dim; ++j)
    for (index_t i = j; i < dim; ++i) {
      t(i, j) = 0.2 * double(i) + double(j) + 1.0;
      dense_t(j, i) = t(i, j);  // op(T) = Tᵀ, upper
    }
  auto b = random_matrix<double>(m, dim, 14);
  auto ref = reference_gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, b.view(),
                                    dense_t.view());
  trmm<double>(Side::Right, Uplo::Lower, Op::Trans, Diag::NonUnit, 1.0,
               t.view(), b.view());
  EXPECT_LT(rel_diff<double>(b.view(), ref.view()), 1e-13);
}

TEST(Trmm, UnitDiagIgnoresStoredDiagonal) {
  Matrix<double> t(2, 2, {99, 1, 0, 99});  // diag values must be ignored
  Matrix<double> b(2, 1, {1, 1});
  trmm<double>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::Unit, 1.0, t.view(),
               b.view());
  EXPECT_DOUBLE_EQ(b(0, 0), 2.0);  // 1·1 + 1·1
  EXPECT_DOUBLE_EQ(b(1, 0), 1.0);
}

}  // namespace
}  // namespace randla::blas
