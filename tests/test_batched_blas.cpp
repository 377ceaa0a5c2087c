// Batched kernel tier: gemm_batched must be bitwise identical to
// calling gemm on each problem in a loop — across shapes, dtypes,
// transpose combinations, alpha/beta, and worker counts (the batch only
// changes which thread runs which (problem, tile) item, never the
// summation order of any C element). Same contract for the batched
// CholQR panel walk and the batched Step-1 sample computation the
// scheduler's collector dispatches.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "la/blas3.hpp"
#include "la/parallel.hpp"
#include "ortho/ortho.hpp"
#include "rsvd/rsvd.hpp"
#include "test_util.hpp"

namespace randla {
namespace {

using testing::random_matrix;

struct Shape {
  index_t m, n, k;
};
// Ragged shapes below the single-GEMM fan-out threshold plus one above
// it, so the batch mixes whole-C items with grid-split items.
constexpr Shape kShapes[] = {
    {3, 5, 2}, {17, 13, 11}, {8, 65, 130}, {60, 640, 256}, {1, 1, 1},
    {33, 29, 40},
};

template <class Real>
bool bitwise_equal(ConstMatrixView<Real> x, ConstMatrixView<Real> y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t i = 0; i < x.rows(); ++i)
      if (std::memcmp(&x(i, j), &y(i, j), sizeof(Real)) != 0) return false;
  return true;
}

template <class Real>
struct Batch {
  std::vector<Matrix<Real>> a, b, c;
  std::vector<blas::GemmProblem<Real>> probs;
};

template <class Real>
Batch<Real> make_batch(int copies, std::uint64_t seed0) {
  Batch<Real> batch;
  std::uint64_t seed = seed0;
  const Real alphas[] = {Real(1), Real(-1), Real(0.5), Real(0)};
  const Real betas[] = {Real(0), Real(1), Real(-0.25)};
  int idx = 0;
  for (int rep = 0; rep < copies; ++rep) {
    for (const Shape& s : kShapes) {
      const Op opa = (idx % 2 == 0) ? Op::NoTrans : Op::Trans;
      const Op opb = (idx % 3 == 0) ? Op::Trans : Op::NoTrans;
      batch.a.push_back((opa == Op::NoTrans)
                            ? random_matrix<Real>(s.m, s.k, seed++)
                            : random_matrix<Real>(s.k, s.m, seed++));
      batch.b.push_back((opb == Op::NoTrans)
                            ? random_matrix<Real>(s.k, s.n, seed++)
                            : random_matrix<Real>(s.n, s.k, seed++));
      batch.c.push_back(random_matrix<Real>(s.m, s.n, seed++));
      blas::GemmProblem<Real> p;
      p.opa = opa;
      p.opb = opb;
      p.alpha = alphas[idx % 4];
      p.beta = betas[idx % 3];
      ++idx;
      batch.probs.push_back(p);
    }
  }
  return batch;
}

template <class Real>
void wire_views(Batch<Real>& batch) {
  for (std::size_t i = 0; i < batch.probs.size(); ++i) {
    batch.probs[i].a = ConstMatrixView<Real>(batch.a[i].view());
    batch.probs[i].b = ConstMatrixView<Real>(batch.b[i].view());
    batch.probs[i].c = batch.c[i].view();
  }
}

template <class Real>
void check_batched_matches_looped(index_t threads) {
  // Looped reference at 1 thread (the bitwise anchor for every config).
  set_blas_num_threads(1);
  Batch<Real> ref = make_batch<Real>(2, 42);
  wire_views(ref);
  for (auto& p : ref.probs)
    blas::gemm(p.opa, p.opb, p.alpha, p.a, p.b, p.beta, p.c);

  set_blas_num_threads(threads);
  Batch<Real> got = make_batch<Real>(2, 42);
  wire_views(got);
  blas::gemm_batched(got.probs.data(),
                     static_cast<index_t>(got.probs.size()));
  set_blas_num_threads(1);

  for (std::size_t i = 0; i < ref.c.size(); ++i)
    EXPECT_TRUE(bitwise_equal(ConstMatrixView<Real>(ref.c[i].view()),
                              ConstMatrixView<Real>(got.c[i].view())))
        << "problem " << i << " at " << threads << " threads";
}

TEST(GemmBatched, BitwiseMatchesLoopedDouble) {
  for (index_t threads : {1, 2, 4, 7})
    check_batched_matches_looped<double>(threads);
}

TEST(GemmBatched, BitwiseMatchesLoopedFloat) {
  for (index_t threads : {1, 3, 8})
    check_batched_matches_looped<float>(threads);
}

TEST(GemmBatched, EmptyAndDegenerateProblems) {
  set_blas_num_threads(4);
  blas::gemm_batched<double>(nullptr, 0);  // empty batch is a no-op

  // k == 0 problems must still apply beta, exactly like gemm.
  Matrix<double> a(3, 0), b(0, 5);
  Matrix<double> c = random_matrix<double>(3, 5, 9);
  Matrix<double> want = Matrix<double>::copy_of(c.view());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), b.view(), 0.5,
                     want.view());
  blas::GemmProblem<double> p;
  p.alpha = 1.0;
  p.beta = 0.5;
  p.a = ConstMatrixView<double>(a.view());
  p.b = ConstMatrixView<double>(b.view());
  p.c = c.view();
  blas::gemm_batched(&p, 1);
  set_blas_num_threads(1);
  EXPECT_TRUE(bitwise_equal(ConstMatrixView<double>(want.view()),
                            ConstMatrixView<double>(c.view())));
}

TEST(CholQRPanelBatched, BitwiseMatchesLoopedAcrossThreads) {
  // The last panel is wider than syrk's 1024-column summation chunk, so
  // its Gram takes the chunked path, serially inside the pool chunk.
  const index_t ls[] = {4, 9, 16, 5, 12, 12};
  const index_t ns[] = {40, 64, 90, 33, 48, 3000};
  constexpr int kPanels = 6;
  for (ortho::Scheme scheme : {ortho::Scheme::CholQR, ortho::Scheme::CholQR2}) {
    set_blas_num_threads(1);
    std::vector<Matrix<double>> ref;
    std::vector<ortho::OrthoReport> ref_reps;
    for (int i = 0; i < kPanels; ++i) {
      ref.push_back(random_matrix<double>(ls[i], ns[i], 7 + i));
      ref_reps.push_back(orthonormalize_rows(scheme, ref.back().view()));
    }
    for (index_t threads : {2, 4}) {
      set_blas_num_threads(threads);
      std::vector<Matrix<double>> got;
      std::vector<MatrixView<double>> panels;
      for (int i = 0; i < kPanels; ++i) {
        got.push_back(random_matrix<double>(ls[i], ns[i], 7 + i));
        panels.push_back(got.back().view());
      }
      std::vector<ortho::OrthoReport> reps(panels.size());
      ortho::cholqr_panel_batched(scheme, panels.data(),
                                  static_cast<index_t>(panels.size()),
                                  reps.data());
      set_blas_num_threads(1);
      for (int i = 0; i < kPanels; ++i) {
        EXPECT_TRUE(bitwise_equal(ConstMatrixView<double>(ref[i].view()),
                                  ConstMatrixView<double>(got[i].view())))
            << scheme_name(scheme) << " panel " << i << " at " << threads
            << " threads";
        EXPECT_EQ(ref_reps[i].fallback_used, reps[i].fallback_used);
        EXPECT_EQ(ref_reps[i].passes, reps[i].passes);
      }
    }
  }
}

TEST(CholQRPanelBatched, PerPanelFallbackStaysIsolated) {
  // Panel 1 is rank-deficient (duplicate rows): its Cholesky breaks down
  // and falls back to HHQR without disturbing the healthy panels.
  set_blas_num_threads(4);
  std::vector<Matrix<double>> panels_m;
  panels_m.push_back(random_matrix<double>(6, 32, 1));
  Matrix<double> sick = random_matrix<double>(6, 32, 2);
  for (index_t j = 0; j < 32; ++j) sick(5, j) = sick(4, j);
  panels_m.push_back(std::move(sick));
  panels_m.push_back(random_matrix<double>(6, 32, 3));
  std::vector<MatrixView<double>> panels;
  for (auto& p : panels_m) panels.push_back(p.view());
  std::vector<ortho::OrthoReport> reps(3);
  ortho::cholqr_panel_batched(ortho::Scheme::CholQR, panels.data(), 3,
                              reps.data());
  set_blas_num_threads(1);
  EXPECT_FALSE(reps[0].fallback_used);
  EXPECT_TRUE(reps[1].fallback_used);
  EXPECT_FALSE(reps[2].fallback_used);
  // Healthy panels are row-orthonormal.
  for (int pi : {0, 2}) {
    Matrix<double> g(6, 6);
    blas::syrk(Uplo::Lower, Op::NoTrans, 1.0,
               ConstMatrixView<double>(panels_m[static_cast<std::size_t>(pi)]
                                           .view()),
               0.0, g.view());
    for (index_t i = 0; i < 6; ++i)
      for (index_t j = 0; j <= i; ++j)
        EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-12);
  }
}

TEST(SamplesBatched, BitwiseMatchesPerJobComputeSample) {
  // Heterogeneous batch: different shapes, seeds, and q (including 0),
  // verifying the lock-step power iteration drops finished jobs without
  // perturbing the rest.
  const index_t ms[] = {48, 64, 40, 56};
  const index_t ns[] = {64, 48, 72, 40};
  const index_t qs[] = {0, 1, 2, 1};
  std::vector<Matrix<double>> as;
  std::vector<rsvd::FixedRankOptions> opts(4);
  for (int i = 0; i < 4; ++i) {
    as.push_back(random_matrix<double>(ms[i], ns[i], 100 + i));
    opts[static_cast<std::size_t>(i)].k = 8;
    opts[static_cast<std::size_t>(i)].p = 4;
    opts[static_cast<std::size_t>(i)].q = qs[i];
    opts[static_cast<std::size_t>(i)].seed = 500 + std::uint64_t(i);
  }

  set_blas_num_threads(2);
  std::vector<Matrix<double>> ref;
  for (int i = 0; i < 4; ++i)
    ref.push_back(rsvd::compute_sample(
        ConstMatrixView<double>(as[static_cast<std::size_t>(i)].view()),
        opts[static_cast<std::size_t>(i)]));

  for (index_t threads : {1, 4}) {
    set_blas_num_threads(threads);
    std::vector<rsvd::SampleBatchItem> items(4);
    for (int i = 0; i < 4; ++i) {
      items[static_cast<std::size_t>(i)].a =
          ConstMatrixView<double>(as[static_cast<std::size_t>(i)].view());
      items[static_cast<std::size_t>(i)].opts = opts[static_cast<std::size_t>(i)];
    }
    rsvd::compute_samples_batched(items.data(), 4);
    set_blas_num_threads(1);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(bitwise_equal(
          ConstMatrixView<double>(ref[static_cast<std::size_t>(i)].view()),
          ConstMatrixView<double>(
              items[static_cast<std::size_t>(i)].b.view())))
          << "job " << i << " at " << threads << " threads";
      EXPECT_GT(items[static_cast<std::size_t>(i)].flops.sampling, 0);
    }
  }
}

}  // namespace
}  // namespace randla
