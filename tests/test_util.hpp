// test_util.hpp — shared helpers for the randla test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "la/blas3.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"
#include "rng/gaussian.hpp"

namespace randla::testing {

/// Reference O(mnk) triple-loop GEMM for validating the blocked kernel.
template <class Real>
Matrix<Real> reference_gemm(Op opa, Op opb, Real alpha, ConstMatrixView<Real> a,
                            ConstMatrixView<Real> b) {
  const index_t m = (opa == Op::NoTrans) ? a.rows() : a.cols();
  const index_t k = (opa == Op::NoTrans) ? a.cols() : a.rows();
  const index_t n = (opb == Op::NoTrans) ? b.cols() : b.rows();
  Matrix<Real> c(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t p = 0; p < k; ++p) {
      const Real bv = (opb == Op::NoTrans) ? b(p, j) : b(j, p);
      for (index_t i = 0; i < m; ++i) {
        const Real av = (opa == Op::NoTrans) ? a(i, p) : a(p, i);
        c(i, j) += alpha * av * bv;
      }
    }
  return c;
}

/// ‖X − Y‖_F / max(1, ‖Y‖_F).
template <class Real>
Real rel_diff(ConstMatrixView<Real> x, ConstMatrixView<Real> y) {
  EXPECT_EQ(x.rows(), y.rows());
  EXPECT_EQ(x.cols(), y.cols());
  Matrix<Real> d(x.rows(), x.cols());
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t i = 0; i < x.rows(); ++i) d(i, j) = x(i, j) - y(i, j);
  const Real ny = norm_fro(y);
  return norm_fro(ConstMatrixView<Real>(d.view())) / (ny > Real(1) ? ny : Real(1));
}

/// ‖QᵀQ − I‖_max: orthonormality defect of the columns of Q.
template <class Real>
Real ortho_defect(ConstMatrixView<Real> q) {
  Matrix<Real> g(q.cols(), q.cols());
  blas::gemm(Op::Trans, Op::NoTrans, Real(1), q, q, Real(0), g.view());
  Real worst = 0;
  for (index_t j = 0; j < g.cols(); ++j)
    for (index_t i = 0; i < g.rows(); ++i) {
      const Real want = (i == j) ? Real(1) : Real(0);
      worst = std::max(worst, std::abs(g(i, j) - want));
    }
  return worst;
}

/// FNV-1a over the bit patterns of the entries, column-major: pins
/// results bit for bit in golden tests.
inline std::uint64_t digest(const Matrix<double>& a) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) {
      const double v = a(i, j);
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  return h;
}

/// Random Gaussian matrix with fixed seed (deterministic per test).
template <class Real>
Matrix<Real> random_matrix(index_t m, index_t n, std::uint64_t seed) {
  return rng::gaussian_matrix<Real>(m, n, seed);
}

/// A deliberately rank-deficient (rank = r) Gaussian product.
template <class Real>
Matrix<Real> random_low_rank(index_t m, index_t n, index_t r,
                             std::uint64_t seed) {
  Matrix<Real> left = rng::gaussian_matrix<Real>(m, r, seed);
  Matrix<Real> right = rng::gaussian_matrix<Real>(r, n, seed + 1);
  Matrix<Real> out(m, n);
  blas::gemm(Op::NoTrans, Op::NoTrans, Real(1),
             ConstMatrixView<Real>(left.view()),
             ConstMatrixView<Real>(right.view()), Real(0), out.view());
  return out;
}

}  // namespace randla::testing
