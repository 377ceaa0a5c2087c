// householder.hpp — Householder reflector kernels and QR factorization
// (LAPACK larfg/larf/larft/larfb/geqrf/orgqr/ormqr analogues).
//
// HHQR's limited throughput is what the paper measures in Figures 7
// and 9: only the nb = 32 column panels (geqr2, and org2r inside orgqr)
// run BLAS-1/BLAS-2 reflector by reflector. geqrf and orgqr apply each
// panel to the rest of the matrix as one compact-WY block reflector
// (larft + larfb: BLAS-3 gemm/trmm on the worker pool). These kernels
// also back the unconditionally stable fallback path when CholQR breaks
// down, and the panel factorization inside QP3.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace randla::lapack {

/// Generate an elementary reflector H = I − τ·v·vᵀ such that
/// H·[alpha; x] = [beta; 0]. On exit `alpha` holds beta and x holds the
/// tail of v (v₀ ≡ 1 is implicit). Returns τ (0 when x is already zero).
template <class Real>
Real larfg(index_t n, Real& alpha, Real* x, index_t incx);

/// Apply H = I − τ·v·vᵀ to C from the given side (v has C.rows() or
/// C.cols() entries with v₀ ≡ 1 NOT implicit here: v[0] must be 1).
template <class Real>
void larf(Side side, index_t vlen, const Real* v, index_t incv, Real tau,
          MatrixView<Real> c);

/// Form the upper-triangular block-reflector factor T (k×k) for the
/// forward column-wise compact-WY representation: H₁·H₂···H_k =
/// I − V·T·Vᵀ, where V is the m×k unit-lower-trapezoidal matrix stored
/// in `v` (diagonal implicitly 1, above-diagonal ignored).
template <class Real>
void larft(ConstMatrixView<Real> v, const Real* tau, MatrixView<Real> t);

/// Apply the block reflector (I − V·T·Vᵀ) or its transpose to C from the
/// left: C ← (I − V·Tᵒᵖ·Vᵀ)·C.
template <class Real>
void larfb_left(Op op, ConstMatrixView<Real> v, ConstMatrixView<Real> t,
                MatrixView<Real> c);

/// Blocked Householder QR: A ← {R above diagonal, V below}. `tau` is
/// resized to min(m, n).
template <class Real>
void geqrf(MatrixView<Real> a, std::vector<Real>& tau);

/// Generate the leading `k` columns of Q from geqrf output (in place on
/// the m×k leading block of `a`; requires a.cols() ≥ k factors present).
/// Blocked backward accumulation like LAPACK dorgqr (nb = 32); columns
/// past k are not touched. Bitwise identical at any worker count.
template <class Real>
void orgqr(MatrixView<Real> a, const std::vector<Real>& tau, index_t k);

/// Apply Q (op == NoTrans) or Qᵀ (op == Trans) from geqrf factors in `a`
/// to C from the left.
template <class Real>
void ormqr_left(Op op, ConstMatrixView<Real> a, const std::vector<Real>& tau,
                MatrixView<Real> c);

/// Convenience: thin QR of a (m×n, m ≥ n) returning explicit Q (m×n) in
/// `a` and R (n×n upper) in `r`.
template <class Real>
void qr_explicit(MatrixView<Real> a, MatrixView<Real> r);

}  // namespace randla::lapack
