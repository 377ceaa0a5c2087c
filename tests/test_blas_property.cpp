// Property tests for the vectorized kernel core: the AVX2/FMA (or
// scalar fallback) GEMM/GEMV/SYRK paths are validated against naive
// triple-loop references across every transpose combination, ragged
// sizes, and alpha/beta in {0, 1, -1, 0.3}; and the parallel dispatch
// is checked to be bitwise identical across worker counts (GEMM never
// splits the k dimension, and the tall syrk splits it only at fixed
// boundaries summed in a fixed tree — see blas3.cpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "la/parallel.hpp"
#include "test_util.hpp"

namespace randla {
namespace {

using testing::random_matrix;
using testing::reference_gemm;

constexpr double kAlphas[] = {1.0, -1.0, 0.3, 0.0};
constexpr double kBetas[] = {0.0, 1.0, -1.0, 0.3};

struct Shape {
  index_t m, n, k;
};
// Ragged on purpose: remainders in every tile dimension of the
// microkernel (MR, NR) and in every cache-block dimension (MC, KC, NC
// boundaries are only hit by the larger shapes in test_blas3).
constexpr Shape kShapes[] = {
    {1, 1, 1}, {3, 5, 2}, {7, 6, 9}, {17, 13, 11}, {33, 29, 40}, {8, 65, 130},
};

TEST(GemmProperty, MatchesNaiveReferenceEverywhere) {
  set_blas_num_threads(1);
  for (const Shape& s : kShapes) {
    for (Op opa : {Op::NoTrans, Op::Trans}) {
      for (Op opb : {Op::NoTrans, Op::Trans}) {
        const Matrix<double> a =
            (opa == Op::NoTrans) ? random_matrix<double>(s.m, s.k, 101)
                                 : random_matrix<double>(s.k, s.m, 101);
        const Matrix<double> b =
            (opb == Op::NoTrans) ? random_matrix<double>(s.k, s.n, 102)
                                 : random_matrix<double>(s.n, s.k, 102);
        const Matrix<double> c0 = random_matrix<double>(s.m, s.n, 103);
        for (double alpha : kAlphas) {
          for (double beta : kBetas) {
            Matrix<double> c = Matrix<double>::copy_of(c0.view());
            blas::gemm<double>(opa, opb, alpha, a.view(), b.view(), beta,
                               c.view());
            const Matrix<double> prod =
                reference_gemm<double>(opa, opb, alpha, a.view(), b.view());
            const double tol = 1e-13 * (double(s.k) + 1.0);
            for (index_t j = 0; j < s.n; ++j)
              for (index_t i = 0; i < s.m; ++i)
                EXPECT_NEAR(c(i, j), beta * c0(i, j) + prod(i, j), tol)
                    << "m=" << s.m << " n=" << s.n << " k=" << s.k
                    << " opa=" << int(opa) << " opb=" << int(opb)
                    << " alpha=" << alpha << " beta=" << beta;
          }
        }
      }
    }
  }
}

TEST(GemvProperty, MatchesNaiveReference) {
  set_blas_num_threads(1);
  for (const Shape& s : kShapes) {
    const Matrix<double> a = random_matrix<double>(s.m, s.n, 104);
    for (Op op : {Op::NoTrans, Op::Trans}) {
      const index_t xd = (op == Op::NoTrans) ? s.n : s.m;
      const index_t yd = (op == Op::NoTrans) ? s.m : s.n;
      const Matrix<double> xm = random_matrix<double>(xd, 1, 105);
      const Matrix<double> y0 = random_matrix<double>(yd, 1, 106);
      for (double alpha : kAlphas) {
        for (double beta : kBetas) {
          std::vector<double> y(static_cast<std::size_t>(yd));
          for (index_t i = 0; i < yd; ++i) y[i] = y0(i, 0);
          blas::gemv<double>(op, alpha, a.view(), xm.data(), 1, beta, y.data(),
                             1);
          for (index_t i = 0; i < yd; ++i) {
            double want = beta * y0(i, 0);
            for (index_t j = 0; j < xd; ++j) {
              const double av = (op == Op::NoTrans) ? a(i, j) : a(j, i);
              want += alpha * av * xm(j, 0);
            }
            EXPECT_NEAR(y[i], want, 1e-12 * (double(xd) + 1.0));
          }
        }
      }
    }
  }
}

TEST(SyrkProperty, MatchesNaiveReferenceOnTriangle) {
  set_blas_num_threads(1);
  for (const Shape& s : kShapes) {
    for (Op op : {Op::NoTrans, Op::Trans}) {
      const Matrix<double> a = (op == Op::NoTrans)
                                   ? random_matrix<double>(s.n, s.k, 107)
                                   : random_matrix<double>(s.k, s.n, 107);
      const Matrix<double> c0 = random_matrix<double>(s.n, s.n, 108);
      for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
        for (double alpha : {1.0, -1.0, 0.3}) {
          for (double beta : kBetas) {
            Matrix<double> c = Matrix<double>::copy_of(c0.view());
            blas::syrk<double>(uplo, op, alpha, a.view(), beta, c.view());
            const Matrix<double> prod = reference_gemm<double>(
                op, transpose(op), alpha, a.view(), a.view());
            const double tol = 1e-13 * (double(s.k) + 1.0);
            for (index_t j = 0; j < s.n; ++j) {
              for (index_t i = 0; i < s.n; ++i) {
                const bool in_tri =
                    (uplo == Uplo::Upper) ? (i <= j) : (i >= j);
                const double want = in_tri
                                        ? beta * c0(i, j) + prod(i, j)
                                        : c0(i, j);  // other triangle untouched
                EXPECT_NEAR(c(i, j), want, tol)
                    << "uplo=" << int(uplo) << " op=" << int(op);
              }
            }
          }
        }
      }
    }
  }
}

// GEMM's parallel dispatch never splits the k (summation) dimension, so
// every per-element accumulation runs in the same order at any worker
// count: results must be bitwise identical, not merely close. (The tall
// syrk does split k, but only at fixed boundaries that do not depend on
// the thread count, and sums the parts in a fixed tree; see
// TallSyrkAndSmallTriangleKernelsBitwiseIdentical.)
TEST(ThreadInvariance, GemmBitwiseIdenticalAcrossWorkerCounts) {
  const index_t m = 300, n = 520, k = 64;
  const Matrix<double> a = random_matrix<double>(m, k, 109);
  const Matrix<double> b = random_matrix<double>(k, n, 110);
  set_blas_num_threads(1);
  Matrix<double> c1(m, n);
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), b.view(), 0.0,
                     c1.view());
  for (index_t threads : {2, 4}) {
    set_blas_num_threads(threads);
    Matrix<double> ct(m, n);
    blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), b.view(), 0.0,
                       ct.view());
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i)
        ASSERT_EQ(c1(i, j), ct(i, j)) << "threads=" << threads;
  }
  set_blas_num_threads(1);
}

TEST(ThreadInvariance, TrsmAndTrmmBitwiseIdenticalAcrossWorkerCounts) {
  // 96²·1200 ≈ 11 Mflop: above the parallel floor, so the worker-count
  // sweep really exercises the split path.
  const index_t dim = 96, nrhs = 1200;
  Matrix<double> t = random_matrix<double>(dim, dim, 111);
  for (index_t i = 0; i < dim; ++i) t(i, i) += double(dim);  // well-conditioned
  const Matrix<double> b0 = random_matrix<double>(dim, nrhs, 112);

  set_blas_num_threads(1);
  Matrix<double> solve1 = Matrix<double>::copy_of(b0.view());
  blas::trsm<double>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 1.0,
                     t.view(), solve1.view());
  Matrix<double> mult1 = Matrix<double>::copy_of(b0.view());
  blas::trmm<double>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 1.0,
                     t.view(), mult1.view());

  for (index_t threads : {2, 4}) {
    set_blas_num_threads(threads);
    Matrix<double> solve = Matrix<double>::copy_of(b0.view());
    blas::trsm<double>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 1.0,
                       t.view(), solve.view());
    Matrix<double> mult = Matrix<double>::copy_of(b0.view());
    blas::trmm<double>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 1.0,
                       t.view(), mult.view());
    for (index_t j = 0; j < nrhs; ++j)
      for (index_t i = 0; i < dim; ++i) {
        ASSERT_EQ(solve1(i, j), solve(i, j)) << "threads=" << threads;
        ASSERT_EQ(mult1(i, j), mult(i, j)) << "threads=" << threads;
      }
  }
  set_blas_num_threads(1);
}

// The tall syrk sums fixed 1024-row chunks in a fixed tree, and the
// small-triangle trsm/trmm cut B into panels sized by the triangle
// alone, so the bits must not depend on the worker count — and at these
// shapes the pool must really split.
TEST(ThreadInvariance, TallSyrkAndSmallTriangleKernelsBitwiseIdentical) {
  const index_t tall = 3000, dim = 50;
  const Matrix<double> a = random_matrix<double>(tall, dim, 116);
  const Matrix<double> aw = random_matrix<double>(dim, tall, 117);
  Matrix<double> t = random_matrix<double>(dim, dim, 118);
  for (index_t i = 0; i < dim; ++i) t(i, i) += double(dim);
  struct Result {
    Matrix<double> gram_t, gram_n, solve_r, mult_r, solve_l, mult_l;
  };
  auto run = [&](index_t threads) {
    set_blas_num_threads(threads);
    const std::uint64_t splits = pool_stats().split_batches;
    Result r{Matrix<double>(dim, dim), Matrix<double>(dim, dim),
             Matrix<double>::copy_of(a.view()), Matrix<double>::copy_of(a.view()),
             Matrix<double>::copy_of(aw.view()),
             Matrix<double>::copy_of(aw.view())};
    blas::syrk<double>(Uplo::Upper, Op::Trans, 1.0, a.view(), 0.0,
                       r.gram_t.view());
    blas::syrk<double>(Uplo::Lower, Op::NoTrans, 1.0, aw.view(), 0.0,
                       r.gram_n.view());
    blas::trsm<double>(Side::Right, Uplo::Upper, Op::NoTrans, Diag::NonUnit,
                       1.0, t.view(), r.solve_r.view());
    blas::trmm<double>(Side::Right, Uplo::Upper, Op::NoTrans, Diag::NonUnit,
                       1.0, t.view(), r.mult_r.view());
    blas::trsm<double>(Side::Left, Uplo::Lower, Op::Trans, Diag::NonUnit, 1.0,
                       t.view(), r.solve_l.view());
    blas::trmm<double>(Side::Left, Uplo::Lower, Op::Trans, Diag::Unit, 1.0,
                       t.view(), r.mult_l.view());
    if (threads > 1) {
      EXPECT_EQ(pool_stats().split_batches, splits + 6)
          << "every call should split at threads=" << threads;
    }
    set_blas_num_threads(1);
    return r;
  };
  auto same = [](const Matrix<double>& x, const Matrix<double>& y) {
    return std::memcmp(x.data(), y.data(),
                       sizeof(double) *
                           static_cast<std::size_t>(x.rows() * x.cols())) == 0;
  };
  const Result ref = run(1);
  for (index_t threads : {2, 4}) {
    const Result got = run(threads);
    EXPECT_TRUE(same(ref.gram_t, got.gram_t)) << "syrk Trans, " << threads;
    EXPECT_TRUE(same(ref.gram_n, got.gram_n)) << "syrk NoTrans, " << threads;
    EXPECT_TRUE(same(ref.solve_r, got.solve_r)) << "trsm Right, " << threads;
    EXPECT_TRUE(same(ref.mult_r, got.mult_r)) << "trmm Right, " << threads;
    EXPECT_TRUE(same(ref.solve_l, got.solve_l)) << "trsm Left, " << threads;
    EXPECT_TRUE(same(ref.mult_l, got.mult_l)) << "trmm Left, " << threads;
  }
}

// Regression for the seed's parallel cutoff bug: the old dispatch only
// split when n >= 2·NC (2048 columns), which excluded both dominant
// sampling shapes. The grid policy must now split tall-skinny (rows)
// and short-wide (columns) GEMMs, and stay serial for tiny work.
TEST(GemmGridPolicy, SamplingShapesDistribute) {
  // Tall-skinny A·P (the acceptance shape): splits rows.
  auto g = blas::gemm_parallel_grid(8192, 64, 8192, 4);
  EXPECT_GT(g.row_tiles, 1);
  EXPECT_EQ(g.col_tiles, 1);
  // Short-wide Ω·A with ℓ = 64 rows: splits columns.
  g = blas::gemm_parallel_grid(64, 512, 8192, 4);
  EXPECT_GT(g.col_tiles, 1);
  // Below the flop floor: serial.
  g = blas::gemm_parallel_grid(32, 2500, 20, 4);
  EXPECT_EQ(g.row_tiles, 1);
  EXPECT_EQ(g.col_tiles, 1);
  // One thread: always serial.
  g = blas::gemm_parallel_grid(8192, 8192, 8192, 1);
  EXPECT_EQ(g.row_tiles * g.col_tiles, 1);
}

TEST(GemmGridPolicy, TallSkinnyGemmRunsOnThePool) {
  const index_t m = 8192, n = 64, k = 8192;
  const Matrix<double> a = random_matrix<double>(m, k, 113);
  const Matrix<double> b = random_matrix<double>(k, n, 114);
  Matrix<double> c(m, n);
  set_blas_num_threads(4);
  const PoolStats before = pool_stats();
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), b.view(), 0.0,
                     c.view());
  const PoolStats after = pool_stats();
  set_blas_num_threads(1);
  // The call must have gone through parallel_ranges as a split batch
  // with one chunk per grid tile (scheduling-independent counters: they
  // count chunks executed on any lane, including the caller's).
  EXPECT_GE(after.split_batches, before.split_batches + 1);
  const auto grid = blas::gemm_parallel_grid(m, n, k, 4);
  EXPECT_GE(after.chunks_run,
            before.chunks_run +
                std::uint64_t(grid.row_tiles * grid.col_tiles));
  EXPECT_EQ(after.workers, 3);  // knob 4 = caller + 3 resident workers
}

TEST(PoolProperty, NestedParallelDegradesToSerialNotDeadlock) {
  set_blas_num_threads(4);
  std::vector<int> hits(16, 0);
  parallel_ranges(16, 1, [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) {
      // Nested fan-out from inside a pool task must run inline.
      parallel_ranges(4, 1, [&](index_t, index_t) {});
      hits[static_cast<std::size_t>(i)]++;
    }
  });
  set_blas_num_threads(1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Blas1Property, Nrm2MatchesReferenceAcrossScales) {
  set_blas_num_threads(1);
  for (double scale : {1.0, 1e-160, 1e160}) {
    const index_t n = 37;
    const Matrix<double> x0 = random_matrix<double>(n, 1, 115);
    std::vector<double> x(static_cast<std::size_t>(n));
    long double ssq = 0;
    for (index_t i = 0; i < n; ++i) {
      x[i] = x0(i, 0) * scale;
      ssq += static_cast<long double>(x[i] / scale) *
             static_cast<long double>(x[i] / scale);
    }
    const double want = double(std::sqrt(ssq)) * scale;
    const double got = blas::nrm2(n, x.data(), index_t{1});
    EXPECT_NEAR(got / want, 1.0, 1e-14) << "scale=" << scale;
  }
}

}  // namespace
}  // namespace randla
