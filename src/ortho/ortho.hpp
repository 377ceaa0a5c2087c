// ortho.hpp — orthogonalization schemes (paper §4, Figures 7 and 9).
//
// The paper studies four schemes for orthonormalizing tall-skinny and
// short-wide matrices: BLAS-3 CholQR, BLAS-2 CGS, BLAS-1 MGS, and
// Householder QR, plus the block orthogonalization (BOrth) used inside
// the power iteration. Two orientations are provided:
//
//  * column variants — orthonormalize the columns of a tall-skinny m×n
//    (m ≥ n) matrix, as in Step 3's QR of A·P₁:k (Figure 7);
//  * row variants — orthonormalize the rows of a short-wide ℓ×n matrix,
//    the LQ adaptation of footnote 3 used on the sampled matrices B and
//    C inside the power iteration (Figure 9).
#pragma once

#include <cstdint>
#include <string>

#include "la/matrix.hpp"

namespace randla::ortho {

enum class Scheme : std::uint8_t {
  CholQR,   ///< Gram matrix + Cholesky + triangular solve (BLAS-3)
  CholQR2,  ///< CholQR with one full reorthogonalization (paper §6)
  CGS,      ///< classical Gram–Schmidt (BLAS-2)
  MGS,      ///< modified Gram–Schmidt (BLAS-1)
  HHQR,     ///< Householder QR (BLAS-2 panels + BLAS-3 block
            ///< updates in geqrf and orgqr; unconditionally stable)
  TSQR,     ///< communication-avoiding QR (binary reduction tree, §11)
};

const char* scheme_name(Scheme s);

/// Outcome of an orthogonalization call.
struct OrthoReport {
  bool ok = true;              ///< false only if even the fallback failed
  bool cholesky_failed = false;  ///< CholQR Gram factorization broke down
  bool fallback_used = false;    ///< switched to HHQR after breakdown
  int passes = 1;                ///< 1, or 2 for CholQR2
  double flops = 0;              ///< flops charged (model accounting)
};

/// Orthonormalize the columns of tall-skinny `a` (m ≥ n) in place.
/// If `r` is non-empty it must be n×n and receives the triangular factor
/// with A_in = Q·R. CholQR falls back to HHQR on Cholesky breakdown
/// (paper §4's mitigation), reported in the returned OrthoReport.
template <class Real>
OrthoReport orthonormalize_columns(Scheme scheme, MatrixView<Real> a,
                                   MatrixView<Real> r = {});

/// Orthonormalize the rows of short-wide `b` (ℓ ≤ n) in place (LQ
/// adaptation): on exit B_new·B_newᵀ = I and B_in = L·B_new.
template <class Real>
OrthoReport orthonormalize_rows(Scheme scheme, MatrixView<Real> b);

/// Batched row orthonormalization: N independent short-wide panels
/// processed in one walk over the persistent worker pool. Panels run
/// concurrently (each panel's kernels degrade to serial inside its pool
/// chunk), so N small CholQR panels — each too small to engage the pool
/// alone — amortize one fork-join. Results are bitwise identical to
/// calling orthonormalize_rows on each panel in a loop at any thread
/// count, including the per-panel HHQR fallback on Cholesky breakdown.
/// `reports[i]` receives panel i's OrthoReport.
template <class Real>
void cholqr_panel_batched(Scheme scheme, MatrixView<Real>* panels,
                          index_t count, OrthoReport* reports);

/// BOrth (paper Fig. 2a lines 4 and 9): orthogonalize the rows of `b`
/// against the rows of `prev` (which must already be orthonormal):
/// B ← B − (B·prevᵀ)·prev. `passes` = 2 gives the classical
/// "twice is enough" re-orthogonalization.
template <class Real>
void block_orth_rows(ConstMatrixView<Real> prev, MatrixView<Real> b,
                     int passes = 1);

/// Column-space BOrth: B ← B − prev·(prevᵀ·B) for column-orthonormal
/// `prev`.
template <class Real>
void block_orth_columns(ConstMatrixView<Real> prev, MatrixView<Real> b,
                        int passes = 1);

/// Flop count charged for one orthonormalization (used by benches and
/// the performance model).
double scheme_flops(Scheme scheme, index_t rows, index_t cols);

}  // namespace randla::ortho
