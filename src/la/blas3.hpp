// blas3.hpp — matrix-matrix kernels (BLAS-3).
//
// GEMM is the kernel the entire paper pivots on: pruned Gaussian sampling
// is one GEMM, the power iteration is a chain of GEMMs, and CholQR routes
// its flops through GEMM-class operations. Our implementation is a
// cache-blocked, packed, register-tiled design (GotoBLAS structure) so the
// BLAS-3 vs BLAS-2 performance gap the paper measures exists here too.
#pragma once

#include "la/matrix.hpp"

namespace randla::blas {

/// Name of the compiled-in microkernel ISA (e.g. "avx2-fma (dgemm 8x6,
/// sgemm 16x6)" or "scalar (gemm 4x8)"), decided at compile time by the
/// RANDLA_NATIVE_ARCH build option. Benches record this next to flop
/// rates so numbers are attributable to a kernel.
const char* kernel_arch();

/// The row×column tile grid a GEMM of the given shape would be split
/// into at the given thread count. {1, 1} means serial. The k dimension
/// is never split, so results are bitwise identical for every grid.
/// Exposed so tests can assert the policy (e.g. that tall-skinny and
/// short-wide sampling shapes actually distribute).
struct GemmGrid {
  index_t row_tiles = 1;
  index_t col_tiles = 1;
};
GemmGrid gemm_parallel_grid(index_t m, index_t n, index_t k, index_t threads);

/// C ← α·op(A)·op(B) + β·C.
template <class Real>
void gemm(Op opa, Op opb, Real alpha, ConstMatrixView<Real> a,
          ConstMatrixView<Real> b, Real beta, MatrixView<Real> c);

/// One independent GEMM problem in a batch: c ← α·op(a)·op(b) + β·c.
/// Alpha is folded at pack time and beta fused into the first kc-block
/// write-out per problem, exactly as in the single-problem path.
template <class Real>
struct GemmProblem {
  Op opa = Op::NoTrans;
  Op opb = Op::NoTrans;
  Real alpha = Real(1);
  Real beta = Real(0);
  ConstMatrixView<Real> a;
  ConstMatrixView<Real> b;
  MatrixView<Real> c;
};

/// Batched GEMM: N independent problems scheduled as ONE 2D tile walk
/// over the persistent worker pool. Each problem is split by the same
/// gemm_parallel_grid policy as `gemm`, then all (problem, tile) work
/// items are flattened into a single parallel_ranges sweep — so many
/// small ℓ×n sampling GEMMs that would each run serially (below the
/// fan-out threshold) amortize one fork-join instead of N. Results are
/// bitwise identical to calling `gemm` on each problem in a loop, at
/// any thread count (k is never split; per-C-element summation order is
/// fixed). Problems must have disjoint C outputs.
template <class Real>
void gemm_batched(const GemmProblem<Real>* problems, index_t count);

/// Symmetric rank-k update on one triangle:
/// C ← α·A·Aᵀ + β·C (op == NoTrans) or C ← α·Aᵀ·A + β·C (op == Trans).
/// Only the `uplo` triangle of C is referenced/written. A tall update
/// (k > 1024, n ≤ 128) cuts k into fixed 1024-long chunks on the pool
/// and sums their partial Grams in a fixed tree, so the result is
/// bitwise the same at every thread count.
template <class Real>
void syrk(Uplo uplo, Op op, Real alpha, ConstMatrixView<Real> a, Real beta,
          MatrixView<Real> c);

/// Fill the other triangle of C so it is fully symmetric (helper for
/// code that wants a dense Gram matrix after syrk).
template <class Real>
void symmetrize(Uplo stored, MatrixView<Real> c);

/// Triangular solve with multiple right-hand sides:
/// B ← α·op(T)⁻¹·B (side == Left) or B ← α·B·op(T)⁻¹ (side == Right).
/// B's independent dimension is cut into panels sized by T alone, so
/// trsm and trmm are bitwise the same at every thread count.
template <class Real>
void trsm(Side side, Uplo uplo, Op op, Diag diag, Real alpha,
          ConstMatrixView<Real> t, MatrixView<Real> b);

/// Triangular matrix multiply:
/// B ← α·op(T)·B (side == Left) or B ← α·B·op(T) (side == Right).
template <class Real>
void trmm(Side side, Uplo uplo, Op op, Diag diag, Real alpha,
          ConstMatrixView<Real> t, MatrixView<Real> b);

}  // namespace randla::blas
