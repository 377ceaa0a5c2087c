#include "ortho/ortho.hpp"

#include "ortho/tsqr.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "la/cholesky.hpp"
#include "la/flops.hpp"
#include "la/householder.hpp"
#include "la/parallel.hpp"
#include "la/profile_hooks.hpp"

namespace randla::ortho {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::CholQR:
      return "CholQR";
    case Scheme::CholQR2:
      return "CholQR2";
    case Scheme::CGS:
      return "CGS";
    case Scheme::MGS:
      return "MGS";
    case Scheme::HHQR:
      return "HHQR";
    case Scheme::TSQR:
      return "TSQR";
  }
  return "?";
}

double scheme_flops(Scheme scheme, index_t rows, index_t cols) {
  switch (scheme) {
    case Scheme::CholQR:
      return flops::cholqr(rows, cols);
    case Scheme::CholQR2:
      return 2 * flops::cholqr(rows, cols);
    case Scheme::CGS:
    case Scheme::MGS:
      return flops::gram_schmidt(rows, cols);
    case Scheme::HHQR:
    case Scheme::TSQR:
      return flops::geqrf(rows, cols) + flops::orgqr(rows, cols);
  }
  return 0;
}

namespace {

// --- column-orientation primitives -----------------------------------

// One CholQR pass: G = AᵀA, G = RᵀR, A ← A·R⁻¹. Returns false on
// Cholesky breakdown. If r_out is non-empty, accumulates R into it
// (r_out ← R·r_out so repeated passes compose).
template <class Real>
bool cholqr_cols_pass(MatrixView<Real> a, MatrixView<Real> r_out) {
  const index_t n = a.cols();
  Matrix<Real> g(n, n);
  blas::syrk(Uplo::Upper, Op::Trans, Real(1), ConstMatrixView<Real>(a), Real(0),
             g.view());
  if (lapack::potrf(Uplo::Upper, g.view()) != 0) return false;
  blas::trsm(Side::Right, Uplo::Upper, Op::NoTrans, Diag::NonUnit, Real(1),
             ConstMatrixView<Real>(g.view()), a);
  if (!r_out.empty()) {
    blas::trmm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, Real(1),
               ConstMatrixView<Real>(g.view()), r_out);
  }
  return true;
}

template <class Real>
void cgs_cols(MatrixView<Real> a, MatrixView<Real> r) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  std::vector<Real> coeff(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    // r(0:j, j) = Q(:, 0:j)ᵀ·a_j in one gemv (BLAS-2), then a single
    // update a_j −= Q·r — this is what makes CGS BLAS-2 rather than
    // BLAS-1.
    auto q = ConstMatrixView<Real>(a.block(0, 0, m, j));
    Real* aj = a.col_ptr(j);
    if (j > 0) {
      blas::gemv(Op::Trans, Real(1), q, aj, index_t{1}, Real(0), coeff.data(),
                 index_t{1});
      blas::gemv(Op::NoTrans, Real(-1), q, coeff.data(), index_t{1}, Real(1),
                 aj, index_t{1});
    }
    const Real nrm = blas::nrm2(m, aj, index_t{1});
    if (nrm == Real(0))
      throw std::runtime_error("CGS: zero column (rank-deficient input)");
    blas::scal(m, Real(1) / nrm, aj, index_t{1});
    if (!r.empty()) {
      for (index_t i = 0; i < j; ++i) r(i, j) = coeff[static_cast<std::size_t>(i)];
      r(j, j) = nrm;
    }
  }
}

template <class Real>
void mgs_cols(MatrixView<Real> a, MatrixView<Real> r) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  for (index_t j = 0; j < n; ++j) {
    Real* aj = a.col_ptr(j);
    // One dot + one axpy per previous column (BLAS-1).
    for (index_t i = 0; i < j; ++i) {
      const Real* qi = a.col_ptr(i);
      const Real rij = blas::dot(m, qi, index_t{1}, aj, index_t{1});
      blas::axpy(m, -rij, qi, index_t{1}, aj, index_t{1});
      if (!r.empty()) r(i, j) = rij;
    }
    const Real nrm = blas::nrm2(m, aj, index_t{1});
    if (nrm == Real(0))
      throw std::runtime_error("MGS: zero column (rank-deficient input)");
    blas::scal(m, Real(1) / nrm, aj, index_t{1});
    if (!r.empty()) r(j, j) = nrm;
  }
}

}  // namespace

template <class Real>
OrthoReport orthonormalize_columns(Scheme scheme, MatrixView<Real> a,
                                   MatrixView<Real> r) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  if (m < n)
    throw std::invalid_argument(
        "orthonormalize_columns: matrix must be tall (use the row variant)");
  if (!r.empty() && (r.rows() != n || r.cols() != n))
    throw std::invalid_argument("orthonormalize_columns: R must be n×n");

  OrthoReport rep;
  rep.flops = scheme_flops(scheme, m, n);

  switch (scheme) {
    case Scheme::CholQR:
    case Scheme::CholQR2: {
      if (!r.empty()) r.set_identity();
      if (!cholqr_cols_pass(a, r)) {
        // Paper §4: fall back to Householder QR when CholQR breaks down.
        rep.cholesky_failed = true;
        rep.fallback_used = true;
        Matrix<Real> rr(n, n);
        lapack::qr_explicit(a, rr.view());
        if (!r.empty()) r.copy_from(ConstMatrixView<Real>(rr.view()));
        return rep;
      }
      if (scheme == Scheme::CholQR2) {
        rep.passes = 2;
        if (!cholqr_cols_pass(a, r)) {
          rep.cholesky_failed = true;
          rep.fallback_used = true;
          Matrix<Real> rr(n, n);
          lapack::qr_explicit(a, rr.view());
          // R accumulated so far is stale; HHQR result replaces it only
          // approximately. Keep exactness by composing: A_in = Q·(RR·R).
          if (!r.empty()) {
            blas::trmm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit,
                       Real(1), ConstMatrixView<Real>(rr.view()), r);
          }
        }
      }
      return rep;
    }
    case Scheme::CGS:
      cgs_cols(a, r);
      return rep;
    case Scheme::MGS:
      mgs_cols(a, r);
      return rep;
    case Scheme::HHQR: {
      if (!r.empty()) {
        lapack::qr_explicit(a, r);
      } else {
        Matrix<Real> rr(n, n);
        lapack::qr_explicit(a, rr.view());
      }
      return rep;
    }
    case Scheme::TSQR:
      return tsqr(a, r);
  }
  rep.ok = false;
  return rep;
}

template <class Real>
OrthoReport orthonormalize_rows(Scheme scheme, MatrixView<Real> b) {
  const index_t l = b.rows();
  const index_t n = b.cols();
  if (l > n)
    throw std::invalid_argument(
        "orthonormalize_rows: matrix must be short-wide (use the column "
        "variant)");

  OrthoReport rep;
  rep.flops = scheme_flops(scheme, n, l);  // same volume as n×ℓ columns

  switch (scheme) {
    case Scheme::CholQR:
    case Scheme::CholQR2: {
      // LQ adaptation (footnote 3): G = B·Bᵀ = L·Lᵀ, B ← L⁻¹·B.
      int passes = (scheme == Scheme::CholQR2) ? 2 : 1;
      rep.passes = passes;
      for (int p = 0; p < passes; ++p) {
        Matrix<Real> g(l, l);
        blas::syrk(Uplo::Lower, Op::NoTrans, Real(1), ConstMatrixView<Real>(b),
                   Real(0), g.view());
        if (lapack::potrf(Uplo::Lower, g.view()) != 0) {
          rep.cholesky_failed = true;
          rep.fallback_used = true;
          // HHQR fallback through the transpose.
          Matrix<Real> bt = transposed(ConstMatrixView<Real>(b));
          Matrix<Real> rr(l, l);
          lapack::qr_explicit(bt.view(), rr.view());
          for (index_t j = 0; j < n; ++j)
            for (index_t i = 0; i < l; ++i) b(i, j) = bt(j, i);
          return rep;
        }
        blas::trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, Real(1),
                   ConstMatrixView<Real>(g.view()), b);
      }
      return rep;
    }
    case Scheme::TSQR:
      return tsqr_rows(b);
    case Scheme::CGS:
    case Scheme::MGS:
    case Scheme::HHQR: {
      // Row variants operate on the transpose; HHQR/CGS/MGS of Bᵀ.
      Matrix<Real> bt = transposed(ConstMatrixView<Real>(b));
      Matrix<Real> rr(l, l);
      OrthoReport inner = orthonormalize_columns(scheme, bt.view(), rr.view());
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < l; ++i) b(i, j) = bt(j, i);
      inner.flops = rep.flops;
      return inner;
    }
  }
  rep.ok = false;
  return rep;
}

template <class Real>
void cholqr_panel_batched(Scheme scheme, MatrixView<Real>* panels,
                          index_t count, OrthoReport* reports) {
  // Validate shapes up front so nothing throws from inside a pool chunk.
  double total_flops = 0;
  for (index_t i = 0; i < count; ++i) {
    if (panels[i].rows() > panels[i].cols())
      throw std::invalid_argument(
          "cholqr_panel_batched: panels must be short-wide");
    total_flops += scheme_flops(scheme, panels[i].cols(), panels[i].rows());
  }
  la_prof::KernelScope prof(la_prof::Kernel::CholqrPanelBatched,
                            total_flops);
  // One walk over the pool: panels are independent, so each pool chunk
  // runs a contiguous range of them; the kernels inside a panel see the
  // nested-parallel context and degrade to serial, which is bitwise
  // identical to the top-level call (thread-count invariance of the
  // BLAS-3 tier). The HHQR breakdown fallback stays per-panel.
  auto run_range = [&](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i)
      reports[i] = orthonormalize_rows(scheme, panels[i]);
  };
  if (blas_num_threads() > 1 && count > 1) {
    parallel_ranges(count, 1, run_range);
    return;
  }
  run_range(0, count);
}

template <class Real>
void block_orth_rows(ConstMatrixView<Real> prev, MatrixView<Real> b,
                     int passes) {
  if (prev.rows() == 0) return;
  assert(prev.cols() == b.cols());
  const index_t lp = prev.rows();
  const index_t lb = b.rows();
  Matrix<Real> coeff(lb, lp);
  for (int p = 0; p < passes; ++p) {
    // coeff = B·prevᵀ;  B ← B − coeff·prev.  Two GEMMs — the BLAS-3
    // block classical Gram–Schmidt of Stathopoulos & Wu.
    blas::gemm(Op::NoTrans, Op::Trans, Real(1), ConstMatrixView<Real>(b), prev,
               Real(0), coeff.view());
    blas::gemm(Op::NoTrans, Op::NoTrans, Real(-1),
               ConstMatrixView<Real>(coeff.view()), prev, Real(1), b);
  }
}

template <class Real>
void block_orth_columns(ConstMatrixView<Real> prev, MatrixView<Real> b,
                        int passes) {
  if (prev.cols() == 0) return;
  assert(prev.rows() == b.rows());
  Matrix<Real> coeff(prev.cols(), b.cols());
  for (int p = 0; p < passes; ++p) {
    blas::gemm(Op::Trans, Op::NoTrans, Real(1), prev, ConstMatrixView<Real>(b),
               Real(0), coeff.view());
    blas::gemm(Op::NoTrans, Op::NoTrans, Real(-1), prev,
               ConstMatrixView<Real>(coeff.view()), Real(1), b);
  }
}

#define RANDLA_INSTANTIATE_ORTHO(Real)                                        \
  template OrthoReport orthonormalize_columns<Real>(Scheme, MatrixView<Real>, \
                                                    MatrixView<Real>);        \
  template OrthoReport orthonormalize_rows<Real>(Scheme, MatrixView<Real>);   \
  template void cholqr_panel_batched<Real>(Scheme, MatrixView<Real>*,         \
                                           index_t, OrthoReport*);            \
  template void block_orth_rows<Real>(ConstMatrixView<Real>,                  \
                                      MatrixView<Real>, int);                 \
  template void block_orth_columns<Real>(ConstMatrixView<Real>,               \
                                         MatrixView<Real>, int);

RANDLA_INSTANTIATE_ORTHO(float)
RANDLA_INSTANTIATE_ORTHO(double)

#undef RANDLA_INSTANTIATE_ORTHO

}  // namespace randla::ortho
