#include "la/blas3.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "la/blas1.hpp"
#include "la/parallel.hpp"
#include "la/profile_hooks.hpp"
#include "la/simd.hpp"

namespace randla::blas {

namespace {

// Cache-blocking parameters (GotoBLAS naming): a KC×NC panel of B lives
// in L2/L3, an MC×KC panel of A in L1/L2, and the microkernel keeps an
// MR×NR tile of C in registers. MR/NR depend on the ISA: the AVX2/FMA
// kernels widen the register tile to the vector width (double: two
// 4-lane accumulator columns ×6 = 12 ymm registers; float: two 8-lane
// columns ×6), the portable fallback keeps the narrow scalar tile.
constexpr index_t kMC = 128;
constexpr index_t kKC = 256;
constexpr index_t kNC = 1024;

template <class Real>
struct Tile {
  static constexpr index_t MR = 4;
  static constexpr index_t NR = 8;
};

#if RANDLA_SIMD_AVX2
template <>
struct Tile<double> {
  static constexpr index_t MR = 8;  // 2 ymm of 4 doubles
  static constexpr index_t NR = 6;
};
template <>
struct Tile<float> {
  static constexpr index_t MR = 16;  // 2 ymm of 8 floats
  static constexpr index_t NR = 6;
};
#endif

// Parallel tiling policy: a GEMM is split into a row_tiles×col_tiles
// grid of independent C blocks (GEMM never splits the k dimension, so
// the summation order — and therefore the bits — never depend on the
// thread count; the tall syrk below splits k only at fixed boundaries).
// Grains keep each tile at a full packed panel.
constexpr index_t kRowGrain = 256;
constexpr index_t kColGrain = 64;
// Don't fan out below ~8 Mflop (2·m·n·k); fork-join bookkeeping would
// dominate.
constexpr double kMinParallelFlops = 8.0e6;
// The tall syrk and the triangular kernels fan out over fixed chunks and
// panels from ~2 Mflop (n²·k, dim²·len): on a 4-vCPU AVX2 VM a 50-wide
// trsm on 800 rows (2 Mflop, 3 panels) runs 1.9× faster on 4 threads.
constexpr double kMinParallelPanelFlops = 2.0e6;

// Pack an mc×kc block of op(A) (top-left at (i0, k0) of op(A)) into
// row-panels of height MR: panel p holds rows [p*MR, p*MR+MR), stored
// as kc groups of MR contiguous elements. `alpha` is folded in here —
// each packed element is alpha·a — so the microkernel and the C
// write-out never touch alpha again.
template <class Real>
void pack_a(ConstMatrixView<Real> a, Op opa, index_t i0, index_t k0, index_t mc,
            index_t kc, Real alpha, Real* dst) {
  constexpr index_t MR = Tile<Real>::MR;
  if (opa == Op::NoTrans) {
    // op(A) rows are stored contiguously down each source column:
    // full panels with alpha == 1 are straight memcpys.
    for (index_t p = 0; p < mc; p += MR) {
      const index_t pr = std::min(MR, mc - p);
      const Real* src = &a(i0 + p, k0);
      const index_t lda = a.ld();
      if (pr == MR && alpha == Real(1)) {
        for (index_t k = 0; k < kc; ++k) {
          std::memcpy(dst, src + k * lda, MR * sizeof(Real));
          dst += MR;
        }
      } else {
        for (index_t k = 0; k < kc; ++k) {
          const Real* col = src + k * lda;
          for (index_t r = 0; r < pr; ++r) *dst++ = alpha * col[r];
          for (index_t r = pr; r < MR; ++r) *dst++ = Real(0);
        }
      }
    }
    return;
  }
  for (index_t p = 0; p < mc; p += MR) {
    const index_t pr = std::min(MR, mc - p);
    for (index_t k = 0; k < kc; ++k) {
      for (index_t r = 0; r < pr; ++r)
        *dst++ = alpha * a(k0 + k, i0 + p + r);
      for (index_t r = pr; r < MR; ++r) *dst++ = Real(0);
    }
  }
}

// Pack a kc×nc block of op(B) (top-left at (k0, j0) of op(B)) into
// column-panels of width NR: panel q holds columns [q*NR, q*NR+NR),
// stored as kc groups of NR contiguous elements.
template <class Real>
void pack_b(ConstMatrixView<Real> b, Op opb, index_t k0, index_t j0, index_t kc,
            index_t nc, Real* dst) {
  constexpr index_t NR = Tile<Real>::NR;
  if (opb == Op::NoTrans) {
    // op(B)'s k index runs down stored columns, so stream each source
    // column once (contiguous reads, NR-strided writes) instead of
    // revisiting all NR columns per k.
    for (index_t q = 0; q < nc; q += NR) {
      const index_t qc = std::min(NR, nc - q);
      for (index_t c = 0; c < qc; ++c) {
        const Real* src = &b(k0, j0 + q + c);
        Real* out = dst + c;
        for (index_t k = 0; k < kc; ++k) out[k * NR] = src[k];
      }
      for (index_t c = qc; c < NR; ++c) {
        Real* out = dst + c;
        for (index_t k = 0; k < kc; ++k) out[k * NR] = Real(0);
      }
      dst += kc * NR;
    }
    return;
  }
  // op(B) == Bᵀ: a k-group of NR elements is NR consecutive rows of one
  // stored column — full panels are straight memcpys.
  for (index_t q = 0; q < nc; q += NR) {
    const index_t qc = std::min(NR, nc - q);
    const index_t ldb = b.ld();
    const Real* src = &b(j0 + q, k0);
    if (qc == NR) {
      for (index_t k = 0; k < kc; ++k) {
        std::memcpy(dst, src + k * ldb, NR * sizeof(Real));
        dst += NR;
      }
    } else {
      for (index_t k = 0; k < kc; ++k) {
        const Real* col = src + k * ldb;
        for (index_t c = 0; c < qc; ++c) *dst++ = col[c];
        for (index_t c = qc; c < NR; ++c) *dst++ = Real(0);
      }
    }
  }
}

// MR×NR register-tile microkernel: acc = Ap·Bp over kc terms, where Ap
// is an MR-row packed panel (alpha folded in) and Bp an NR-column
// packed panel. acc is column-major: acc[cc*MR + r].
template <class Real>
inline void micro_kernel(index_t kc, const Real* __restrict__ ap,
                         const Real* __restrict__ bp, Real* __restrict__ acc) {
  constexpr index_t MR = Tile<Real>::MR;
  constexpr index_t NR = Tile<Real>::NR;
  Real c[MR * NR] = {};
  for (index_t k = 0; k < kc; ++k) {
    const Real* a = ap + k * MR;
    const Real* b = bp + k * NR;
    for (index_t cc = 0; cc < NR; ++cc) {
      const Real bv = b[cc];
      Real* ccol = c + cc * MR;
      for (index_t r = 0; r < MR; ++r) ccol[r] += a[r] * bv;
    }
  }
  for (index_t i = 0; i < MR * NR; ++i) acc[i] = c[i];
}

#if RANDLA_SIMD_AVX2

// 8×6 double microkernel: 12 ymm accumulators (two 4-lane column
// halves × 6 columns), one broadcast per packed B element, FMA
// throughput-bound.
template <>
inline void micro_kernel<double>(index_t kc, const double* __restrict__ ap,
                                 const double* __restrict__ bp,
                                 double* __restrict__ acc) {
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  __m256d c40 = _mm256_setzero_pd(), c41 = _mm256_setzero_pd();
  __m256d c50 = _mm256_setzero_pd(), c51 = _mm256_setzero_pd();
  for (index_t k = 0; k < kc; ++k) {
    const __m256d a0 = _mm256_loadu_pd(ap);
    const __m256d a1 = _mm256_loadu_pd(ap + 4);
    ap += 8;
    __m256d b;
    b = _mm256_broadcast_sd(bp + 0);
    c00 = _mm256_fmadd_pd(a0, b, c00);
    c01 = _mm256_fmadd_pd(a1, b, c01);
    b = _mm256_broadcast_sd(bp + 1);
    c10 = _mm256_fmadd_pd(a0, b, c10);
    c11 = _mm256_fmadd_pd(a1, b, c11);
    b = _mm256_broadcast_sd(bp + 2);
    c20 = _mm256_fmadd_pd(a0, b, c20);
    c21 = _mm256_fmadd_pd(a1, b, c21);
    b = _mm256_broadcast_sd(bp + 3);
    c30 = _mm256_fmadd_pd(a0, b, c30);
    c31 = _mm256_fmadd_pd(a1, b, c31);
    b = _mm256_broadcast_sd(bp + 4);
    c40 = _mm256_fmadd_pd(a0, b, c40);
    c41 = _mm256_fmadd_pd(a1, b, c41);
    b = _mm256_broadcast_sd(bp + 5);
    c50 = _mm256_fmadd_pd(a0, b, c50);
    c51 = _mm256_fmadd_pd(a1, b, c51);
    bp += 6;
  }
  _mm256_storeu_pd(acc + 0, c00);
  _mm256_storeu_pd(acc + 4, c01);
  _mm256_storeu_pd(acc + 8, c10);
  _mm256_storeu_pd(acc + 12, c11);
  _mm256_storeu_pd(acc + 16, c20);
  _mm256_storeu_pd(acc + 20, c21);
  _mm256_storeu_pd(acc + 24, c30);
  _mm256_storeu_pd(acc + 28, c31);
  _mm256_storeu_pd(acc + 32, c40);
  _mm256_storeu_pd(acc + 36, c41);
  _mm256_storeu_pd(acc + 40, c50);
  _mm256_storeu_pd(acc + 44, c51);
}

// 16×6 float microkernel, same register shape at 8 lanes.
template <>
inline void micro_kernel<float>(index_t kc, const float* __restrict__ ap,
                                const float* __restrict__ bp,
                                float* __restrict__ acc) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (index_t k = 0; k < kc; ++k) {
    const __m256 a0 = _mm256_loadu_ps(ap);
    const __m256 a1 = _mm256_loadu_ps(ap + 8);
    ap += 16;
    __m256 b;
    b = _mm256_broadcast_ss(bp + 0);
    c00 = _mm256_fmadd_ps(a0, b, c00);
    c01 = _mm256_fmadd_ps(a1, b, c01);
    b = _mm256_broadcast_ss(bp + 1);
    c10 = _mm256_fmadd_ps(a0, b, c10);
    c11 = _mm256_fmadd_ps(a1, b, c11);
    b = _mm256_broadcast_ss(bp + 2);
    c20 = _mm256_fmadd_ps(a0, b, c20);
    c21 = _mm256_fmadd_ps(a1, b, c21);
    b = _mm256_broadcast_ss(bp + 3);
    c30 = _mm256_fmadd_ps(a0, b, c30);
    c31 = _mm256_fmadd_ps(a1, b, c31);
    b = _mm256_broadcast_ss(bp + 4);
    c40 = _mm256_fmadd_ps(a0, b, c40);
    c41 = _mm256_fmadd_ps(a1, b, c41);
    b = _mm256_broadcast_ss(bp + 5);
    c50 = _mm256_fmadd_ps(a0, b, c50);
    c51 = _mm256_fmadd_ps(a1, b, c51);
    bp += 6;
  }
  _mm256_storeu_ps(acc + 0, c00);
  _mm256_storeu_ps(acc + 8, c01);
  _mm256_storeu_ps(acc + 16, c10);
  _mm256_storeu_ps(acc + 24, c11);
  _mm256_storeu_ps(acc + 32, c20);
  _mm256_storeu_ps(acc + 40, c21);
  _mm256_storeu_ps(acc + 48, c30);
  _mm256_storeu_ps(acc + 56, c31);
  _mm256_storeu_ps(acc + 64, c40);
  _mm256_storeu_ps(acc + 72, c41);
  _mm256_storeu_ps(acc + 80, c50);
  _mm256_storeu_ps(acc + 88, c51);
}

#endif  // RANDLA_SIMD_AVX2

template <class Real>
void scale_matrix(MatrixView<Real> c, Real beta) {
  if (beta == Real(1)) return;
  for (index_t j = 0; j < c.cols(); ++j) {
    Real* p = c.col_ptr(j);
    if (beta == Real(0)) {
      for (index_t i = 0; i < c.rows(); ++i) p[i] = Real(0);
    } else {
      for (index_t i = 0; i < c.rows(); ++i) p[i] *= beta;
    }
  }
}

// With `only` set, C is square and only the MR×NR tiles that touch that
// triangle are computed; tiles wholly outside it are left as they were
// (syrk's partial Grams).
template <class Real>
void gemm_serial(Op opa, Op opb, Real alpha, ConstMatrixView<Real> a,
                 ConstMatrixView<Real> b, Real beta, MatrixView<Real> c,
                 std::optional<Uplo> only = std::nullopt) {
  constexpr index_t MR = Tile<Real>::MR;
  constexpr index_t NR = Tile<Real>::NR;
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (opa == Op::NoTrans) ? a.cols() : a.rows();
  assert(((opa == Op::NoTrans) ? a.rows() : a.cols()) == m);
  assert(((opb == Op::NoTrans) ? b.rows() : b.cols()) == k);
  assert(((opb == Op::NoTrans) ? b.cols() : b.rows()) == n);

  if (m == 0 || n == 0) return;
  if (alpha == Real(0) || k == 0) {
    scale_matrix(c, beta);
    return;
  }

  thread_local std::vector<Real> a_pack;
  thread_local std::vector<Real> b_pack;
  a_pack.resize(static_cast<std::size_t>(kMC + MR) * kKC);
  b_pack.resize(static_cast<std::size_t>(kNC + NR) * kKC);

  Real acc[MR * NR];

  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nc = std::min(kNC, n - jc);
    for (index_t pc = 0; pc < k; pc += kKC) {
      const index_t kc = std::min(kKC, k - pc);
      // The beta pass is fused into the first kc-block's write-out
      // (beta·C + acc in one touch of C); later kc blocks accumulate.
      const bool first = (pc == 0);
      pack_b(b, opb, pc, jc, kc, nc, b_pack.data());
      for (index_t ic = 0; ic < m; ic += kMC) {
        const index_t mc = std::min(kMC, m - ic);
        pack_a(a, opa, ic, pc, mc, kc, alpha, a_pack.data());
        // Macro-kernel: sweep MR×NR tiles of the mc×nc block of C.
        for (index_t q = 0; q < nc; q += NR) {
          const index_t qc = std::min(NR, nc - q);
          const Real* bp = b_pack.data() + (q / NR) * kc * NR;
          for (index_t p = 0; p < mc; p += MR) {
            const index_t pr = std::min(MR, mc - p);
            if (only && (*only == Uplo::Upper ? ic + p > jc + q + qc - 1
                                              : ic + p + pr - 1 < jc + q))
              continue;
            const Real* ap = a_pack.data() + (p / MR) * kc * MR;
            micro_kernel(kc, ap, bp, acc);
            for (index_t cc = 0; cc < qc; ++cc) {
              Real* ccol = c.col_ptr(jc + q + cc) + ic + p;
              const Real* av = acc + cc * MR;
              if (!first || beta == Real(1)) {
                for (index_t r = 0; r < pr; ++r) ccol[r] += av[r];
              } else if (beta == Real(0)) {
                for (index_t r = 0; r < pr; ++r) ccol[r] = av[r];
              } else {
                for (index_t r = 0; r < pr; ++r)
                  ccol[r] = beta * ccol[r] + av[r];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

const char* kernel_arch() {
#if RANDLA_SIMD_AVX2
  return "avx2-fma (dgemm 8x6, sgemm 16x6)";
#else
  return "scalar (gemm 4x8)";
#endif
}

GemmGrid gemm_parallel_grid(index_t m, index_t n, index_t k, index_t threads) {
  GemmGrid g;
  if (threads <= 1 || m <= 0 || n <= 0 || k <= 0) return g;
  if (2.0 * double(m) * double(n) * double(k) < kMinParallelFlops) return g;
  const index_t max_r = std::max<index_t>(1, m / kRowGrain);
  const index_t max_c = std::max<index_t>(1, n / kColGrain);
  // Prefer column tiles (each worker packs a disjoint B panel), then
  // take rows until the grid covers the thread count. The k dimension
  // is never split, so results are bitwise independent of the grid.
  g.col_tiles = std::min(max_c, threads);
  g.row_tiles = std::min(max_r, (threads + g.col_tiles - 1) / g.col_tiles);
  return g;
}

template <class Real>
void gemm(Op opa, Op opb, Real alpha, ConstMatrixView<Real> a,
          ConstMatrixView<Real> b, Real beta, MatrixView<Real> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (opa == Op::NoTrans) ? a.cols() : a.rows();
  la_prof::KernelScope prof(la_prof::Kernel::Gemm,
                            2.0 * double(m) * double(n) * double(k),
                            std::min({m, n, k}), std::max({m, n, k}));
  // 2D (row×column) tiling over independent blocks of C, sized by
  // gemm_parallel_grid so the library's dominant sampling shapes —
  // short-wide Ω·A (splits columns) and tall-skinny A·P (splits rows)
  // — both engage the worker pool. thread_local packing buffers make
  // gemm_serial concurrency-safe.
  const GemmGrid grid = gemm_parallel_grid(m, n, k, blas_num_threads());
  const index_t tiles = grid.row_tiles * grid.col_tiles;
  if (tiles > 1) {
    const index_t rstep = (m + grid.row_tiles - 1) / grid.row_tiles;
    const index_t cstep = (n + grid.col_tiles - 1) / grid.col_tiles;
    parallel_ranges(tiles, 1, [&](index_t t0, index_t t1) {
      for (index_t t = t0; t < t1; ++t) {
        const index_t i0 = (t / grid.col_tiles) * rstep;
        const index_t j0 = (t % grid.col_tiles) * cstep;
        const index_t i1 = std::min(m, i0 + rstep);
        const index_t j1 = std::min(n, j0 + cstep);
        if (i0 >= i1 || j0 >= j1) continue;
        auto a_slice = (opa == Op::NoTrans)
                           ? a.block(i0, 0, i1 - i0, a.cols())
                           : a.block(0, i0, a.rows(), i1 - i0);
        auto b_slice = (opb == Op::NoTrans)
                           ? b.block(0, j0, b.rows(), j1 - j0)
                           : b.block(j0, 0, j1 - j0, b.cols());
        gemm_serial(opa, opb, alpha, a_slice, b_slice, beta,
                    c.block(i0, j0, i1 - i0, j1 - j0));
      }
    });
    return;
  }
  gemm_serial(opa, opb, alpha, a, b, beta, c);
}

namespace {

// One (problem, C-tile) unit of a batched walk. Tiles of a problem use
// the exact gemm_parallel_grid slicing `gemm` would use, so a batched
// run is bitwise identical to looping `gemm` over the problems.
struct BatchTile {
  index_t prob;
  index_t i0, i1, j0, j1;
};

template <class Real>
void run_batch_tile(const GemmProblem<Real>& p, const BatchTile& t) {
  auto a_slice = (p.opa == Op::NoTrans)
                     ? p.a.block(t.i0, 0, t.i1 - t.i0, p.a.cols())
                     : p.a.block(0, t.i0, p.a.rows(), t.i1 - t.i0);
  auto b_slice = (p.opb == Op::NoTrans)
                     ? p.b.block(0, t.j0, p.b.rows(), t.j1 - t.j0)
                     : p.b.block(t.j0, 0, t.j1 - t.j0, p.b.cols());
  MatrixView<Real> c = p.c;
  gemm_serial(p.opa, p.opb, p.alpha, a_slice, b_slice, p.beta,
              c.block(t.i0, t.j0, t.i1 - t.i0, t.j1 - t.j0));
}

}  // namespace

template <class Real>
void gemm_batched(const GemmProblem<Real>* problems, index_t count) {
  double total_flops = 0;
  for (index_t pi = 0; pi < count; ++pi) {
    const GemmProblem<Real>& p = problems[pi];
    const index_t k =
        (p.opa == Op::NoTrans) ? p.a.cols() : p.a.rows();
    total_flops +=
        2.0 * double(p.c.rows()) * double(p.c.cols()) * double(k);
  }
  la_prof::KernelScope prof(la_prof::Kernel::GemmBatched, total_flops);

  // Flatten every problem's tile grid into one work list. Large
  // problems contribute their usual row×col grid; small problems (below
  // the single-GEMM fan-out threshold) contribute one whole-C tile each
  // — which is exactly how the batch wins: N sub-threshold GEMMs become
  // N items distributed over one parallel sweep instead of N serial
  // calls. thread_local pack buffers in gemm_serial are reused across
  // every item a worker executes (shared pack buffers per thread).
  const index_t threads = blas_num_threads();
  std::vector<BatchTile> items;
  items.reserve(static_cast<std::size_t>(count));
  for (index_t pi = 0; pi < count; ++pi) {
    const GemmProblem<Real>& p = problems[pi];
    const index_t m = p.c.rows();
    const index_t n = p.c.cols();
    const index_t k =
        (p.opa == Op::NoTrans) ? p.a.cols() : p.a.rows();
    if (m == 0 || n == 0) continue;
    const GemmGrid grid = gemm_parallel_grid(m, n, k, threads);
    const index_t rstep = (m + grid.row_tiles - 1) / grid.row_tiles;
    const index_t cstep = (n + grid.col_tiles - 1) / grid.col_tiles;
    for (index_t t = 0; t < grid.row_tiles * grid.col_tiles; ++t) {
      const index_t i0 = (t / grid.col_tiles) * rstep;
      const index_t j0 = (t % grid.col_tiles) * cstep;
      const index_t i1 = std::min(m, i0 + rstep);
      const index_t j1 = std::min(n, j0 + cstep);
      if (i0 >= i1 || j0 >= j1) continue;
      items.push_back(BatchTile{pi, i0, i1, j0, j1});
    }
  }

  const index_t total = static_cast<index_t>(items.size());
  if (total == 0) return;
  if (threads <= 1 || total == 1) {
    for (const BatchTile& t : items)
      run_batch_tile(problems[t.prob], t);
    return;
  }
  parallel_ranges(total, 1, [&](index_t t0, index_t t1) {
    for (index_t t = t0; t < t1; ++t) {
      const BatchTile& bt = items[static_cast<std::size_t>(t)];
      run_batch_tile(problems[bt.prob], bt);
    }
  });
}

namespace {

// Tall syrk (k ≫ n, the CholQR Gram): the summation dimension is cut
// into fixed chunks of kSyrkChunk rows (op == Trans) or columns
// (op == NoTrans). Each chunk writes its own n×n partial Gram with the
// GEMM microkernel, and the partials are summed in a fixed pairwise
// tree. Chunk boundaries depend only on k, so the sum — and the bits —
// are the same at every thread count, nested or not. The path is taken
// only for n ≤ kSyrkChunk/8, so the partials (one n×n per chunk) take
// at most an eighth of A's memory.
constexpr index_t kSyrkChunk = 1024;

// C's uplo triangle ← β·C + full (full is the dense n×n product).
template <class Real>
void add_triangle(Uplo uplo, Real beta, ConstMatrixView<Real> full,
                  MatrixView<Real> c) {
  const index_t n = c.rows();
  for (index_t j = 0; j < n; ++j) {
    const index_t lo = (uplo == Uplo::Upper) ? 0 : j;
    const index_t hi = (uplo == Uplo::Upper) ? j + 1 : n;
    for (index_t i = lo; i < hi; ++i) {
      const Real prev = beta == Real(0) ? Real(0) : beta * c(i, j);
      c(i, j) = prev + full(i, j);
    }
  }
}

template <class Real>
void syrk_tall(Uplo uplo, Op op, Real alpha, ConstMatrixView<Real> a,
               Real beta, MatrixView<Real> c) {
  const index_t n = c.rows();
  const index_t k = (op == Op::NoTrans) ? a.cols() : a.rows();
  const index_t chunks = (k + kSyrkChunk - 1) / kSyrkChunk;
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  std::vector<Real> partial(nn * static_cast<std::size_t>(chunks));
  auto gram = [&](index_t c0, index_t c1) {
    for (index_t ch = c0; ch < c1; ++ch) {
      const index_t k0 = ch * kSyrkChunk;
      const index_t k1 = std::min(k, k0 + kSyrkChunk);
      auto part = (op == Op::NoTrans) ? a.cols_range(k0, k1)
                                      : a.rows_range(k0, k1);
      gemm_serial(op, transpose(op), alpha, part, part, Real(0),
                  MatrixView<Real>(n, n, partial.data() + nn * ch, n), uplo);
    }
  };
  if (blas_num_threads() > 1 &&
      double(n) * double(n) * double(k) >= kMinParallelPanelFlops) {
    parallel_ranges(chunks, 1, gram);
  } else {
    gram(0, chunks);
  }
  for (index_t s = 1; s < chunks; s *= 2) {
    for (index_t ch = 0; ch + s < chunks; ch += 2 * s) {
      Real* dst = partial.data() + nn * ch;
      const Real* src = partial.data() + nn * (ch + s);
      for (std::size_t i = 0; i < nn; ++i) dst[i] += src[i];
    }
  }
  add_triangle(uplo, beta, ConstMatrixView<Real>(n, n, partial.data(), n), c);
}

}  // namespace

template <class Real>
void syrk(Uplo uplo, Op op, Real alpha, ConstMatrixView<Real> a, Real beta,
          MatrixView<Real> c) {
  const index_t n = c.rows();
  assert(c.cols() == n);
  const index_t k = (op == Op::NoTrans) ? a.cols() : a.rows();
  assert(((op == Op::NoTrans) ? a.rows() : a.cols()) == n);
  la_prof::KernelScope prof(la_prof::Kernel::Syrk,
                            double(n) * double(n) * double(k));
  if (n > 0 && k > kSyrkChunk && n <= kSyrkChunk / 8) {
    syrk_tall(uplo, op, alpha, a, beta, c);
    return;
  }

  // Blocked over the triangle: diagonal blocks are computed densely with
  // gemm into a scratch tile (cheap relative to the off-diagonal volume),
  // off-diagonal blocks call gemm directly. Every (i, j) block of C is
  // written exactly once, so the blocks parallelize as independent
  // tasks across the worker pool.
  constexpr index_t nb = 96;
  auto do_block = [&](index_t i, index_t j) {
    const index_t ib = std::min(nb, n - i);
    auto ai = (op == Op::NoTrans) ? a.rows_range(i, i + ib)
                                  : a.cols_range(i, i + ib);
    if (i == j) {
      thread_local Matrix<Real> diag_tile;
      diag_tile.resize(ib, ib);
      gemm(op, transpose(op), alpha, ai, ai, Real(0), diag_tile.view());
      add_triangle(uplo, beta, ConstMatrixView<Real>(diag_tile.view()),
                   c.block(i, i, ib, ib));
      return;
    }
    const index_t jb = std::min(nb, n - j);
    auto aj = (op == Op::NoTrans) ? a.rows_range(j, j + jb)
                                  : a.cols_range(j, j + jb);
    if (uplo == Uplo::Upper) {
      gemm(op, transpose(op), alpha, ai, aj, beta, c.block(i, j, ib, jb));
    } else {
      gemm(op, transpose(op), alpha, aj, ai, beta, c.block(j, i, jb, ib));
    }
  };

  std::vector<std::pair<index_t, index_t>> blocks;
  for (index_t i = 0; i < n; i += nb)
    for (index_t j = i; j < n; j += nb) blocks.emplace_back(i, j);

  const double work = double(n) * double(n) * double(k);
  if (blas_num_threads() > 1 && blocks.size() > 1 &&
      work >= kMinParallelFlops) {
    parallel_ranges(static_cast<index_t>(blocks.size()), 1,
                    [&](index_t b0, index_t b1) {
                      for (index_t t = b0; t < b1; ++t)
                        do_block(blocks[static_cast<std::size_t>(t)].first,
                                 blocks[static_cast<std::size_t>(t)].second);
                    });
    return;
  }
  for (const auto& [i, j] : blocks) do_block(i, j);
}

template <class Real>
void symmetrize(Uplo stored, MatrixView<Real> c) {
  const index_t n = c.rows();
  assert(c.cols() == n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < j; ++i) {
      if (stored == Uplo::Upper)
        c(j, i) = c(i, j);
      else
        c(i, j) = c(j, i);
    }
  }
}

namespace {

// Triangular solve and multiply, blocked for small triangles. op(T) is
// cut into diagonal blocks of kTriBlock; every off-diagonal block goes
// through the GEMM microkernel, and each diagonal block runs column by
// column over strips of rows held in registers (still substitution, no
// explicit inverse). Right-side rows are independent, so B is cut into row
// panels of about kTriPanelBytes that stay in L2. A left-side panel of
// columns is the right-side problem on its transpose
// (op(T)·X = B ⇔ Xᵀ·op(T)ᵀ = Bᵀ): it is transposed into a buffer and
// shares the code. Panel boundaries depend only on the triangle's size,
// never on the thread count, so every element sees the same operations
// in the same order at any thread count, nested or not.
constexpr index_t kTriBlock = 16;
constexpr std::size_t kTriPanelBytes = 128 * 1024;
constexpr index_t kTriMinPanel = 16;
// Rows per register strip in a diagonal block: enough independent
// accumulators to hide the FMA latency.
constexpr index_t kTriStrip = 32;

// y[0:len) ← after·(before·y + Σ_{r<nr} w[r]·x_r[0:len)) with
// x_r = x + r·ld: one column of a diagonal block over a strip of rows,
// accumulated in registers. Len is a compile-time kTriStrip for full
// strips, so the loops vectorize, and index_t for the ragged last one.
template <class Real, class Len>
inline void combine_strip(Len len, Real* y, const Real* x, index_t ld,
                          const Real* w, index_t nr, Real before, Real after) {
  Real acc[kTriStrip];
  for (index_t i = 0; i < len; ++i) acc[i] = before * y[i];
  for (index_t r = 0; r < nr; ++r) {
    const Real* xr = x + r * ld;
    const Real wr = w[r];
    for (index_t i = 0; i < len; ++i) acc[i] += wr * xr[i];
  }
  for (index_t i = 0; i < len; ++i) y[i] = after * acc[i];
}

// B ← α·B·op(T)⁻¹ (solve) or B ← α·B·op(T) on one row panel, in place.
template <class Real>
void tri_right_panel(bool solve, Uplo uplo, Op op, Diag diag, Real alpha,
                     ConstMatrixView<Real> t, MatrixView<Real> b) {
  const index_t m = b.rows();
  const index_t dim = t.rows();
  constexpr index_t nb = kTriBlock;
  // op(T)(r, c), and the block op(T)(r0:r0+nr, c0:c0+nc) as a gemm
  // operand to be applied with `op`.
  auto tri = [&](index_t r, index_t c) {
    return op == Op::NoTrans ? t(r, c) : t(c, r);
  };
  auto tri_block = [&](index_t r0, index_t nr, index_t c0, index_t nc) {
    return op == Op::NoTrans ? t.block(r0, c0, nr, nc)
                             : t.block(c0, r0, nc, nr);
  };
  const bool upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);
  const index_t last = ((dim - 1) / nb) * nb;
  // Columns [k0, k0 + kn) of B feed block j through op(T)'s off-diagonal
  // block: the solved ones for a solve, the unmodified ones for a
  // multiply (each sweeps so that this holds).
  auto off_diagonal = [&](index_t j, index_t jb, Real a) {
    const index_t k0 = upper ? 0 : j + jb;
    const index_t kn = upper ? j : dim - k0;
    if (kn > 0)
      gemm_serial(Op::NoTrans, op, a,
                  ConstMatrixView<Real>(b.cols_range(k0, k0 + kn)),
                  tri_block(k0, kn, j, jb), Real(1), b.cols_range(j, j + jb));
  };

  if (solve && alpha != Real(1)) scale_matrix(b, alpha);
  Real w[nb * nb];
  Real before[nb], after[nb];
  for (index_t s = 0; s <= last; s += nb) {
    // A solve of an upper op(T) and a multiply by a lower one sweep
    // forward; the other two sweep backward.
    const index_t j = (upper == solve) ? s : last - s;
    const index_t jb = std::min(nb, dim - j);
    if (solve) off_diagonal(j, jb, Real(-1));
    // Diagonal block: block column cc combines block columns
    // [lo(cc), hi(cc)) — earlier ones for upper, later ones for lower.
    // Its order keeps every column it reads solved (solve) or
    // unmodified (multiply).
    auto lo = [&](index_t cc) { return upper ? 0 : cc + 1; };
    auto hi = [&](index_t cc) { return upper ? cc : jb; };
    for (index_t cc = 0; cc < jb; ++cc) {
      const Real d = diag == Diag::Unit ? Real(1) : tri(j + cc, j + cc);
      before[cc] = solve ? Real(1) : alpha * d;
      after[cc] = solve ? Real(1) / d : Real(1);
      for (index_t rr = lo(cc); rr < hi(cc); ++rr)
        w[cc * nb + rr] = solve ? -tri(j + rr, j + cc)
                                : alpha * tri(j + rr, j + cc);
    }
    for (index_t i0 = 0; i0 < m; i0 += kTriStrip) {
      const index_t len = std::min(kTriStrip, m - i0);
      Real* row = b.data() + i0 + j * b.ld();
      for (index_t q = 0; q < jb; ++q) {
        const index_t cc = (upper == solve) ? q : jb - 1 - q;
        auto strip = [&](auto n) {
          combine_strip(n, row + cc * b.ld(), row + lo(cc) * b.ld(), b.ld(),
                        w + cc * nb + lo(cc), hi(cc) - lo(cc), before[cc],
                        after[cc]);
        };
        if (len == kTriStrip) {
          strip(std::integral_constant<index_t, kTriStrip>{});
        } else {
          strip(len);
        }
      }
    }
    if (!solve) off_diagonal(j, jb, alpha);
  }
}

// dst ← srcᵀ in blocks of 8 columns of src, so that reads and writes
// both stream.
template <class Real>
void transpose_copy(ConstMatrixView<Real> src, MatrixView<Real> dst) {
  constexpr index_t kb = 8;
  const Real* s = src.data();
  Real* d = dst.data();
  for (index_t j0 = 0; j0 < src.cols(); j0 += kb) {
    const index_t j1 = std::min(src.cols(), j0 + kb);
    for (index_t i = 0; i < src.rows(); ++i)
      for (index_t j = j0; j < j1; ++j)
        d[j + i * dst.ld()] = s[i + j * src.ld()];
  }
}

// Left side on one column panel: transpose it into a buffer, apply the
// right-side kernel with op(T)ᵀ, transpose back.
template <class Real>
void tri_left_panel(bool solve, Uplo uplo, Op op, Diag diag, Real alpha,
                    ConstMatrixView<Real> t, MatrixView<Real> b) {
  const index_t dim = b.rows();
  const index_t nc = b.cols();
  thread_local std::vector<Real> buf;
  buf.resize(static_cast<std::size_t>(nc) * dim);
  MatrixView<Real> bt(nc, dim, buf.data(), nc);
  transpose_copy(ConstMatrixView<Real>(b), bt);
  tri_right_panel(solve, uplo, transpose(op), diag, alpha, t, bt);
  transpose_copy(ConstMatrixView<Real>(bt), b);
}

// Split the independent dimension (B's columns for Left, rows for
// Right) into fixed panels and run them across the pool.
template <class Real>
void tri_apply(bool solve, Side side, Uplo uplo, Op op, Diag diag, Real alpha,
               ConstMatrixView<Real> t, MatrixView<Real> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  assert(t.rows() == t.cols());
  assert(t.rows() == (side == Side::Left ? m : n));
  const index_t dim = t.rows();
  const index_t len = (side == Side::Left) ? n : m;
  const double work = double(dim) * double(dim) * double(len);
  la_prof::KernelScope prof(
      solve ? la_prof::Kernel::Trsm : la_prof::Kernel::Trmm, work);
  if (m == 0 || n == 0) return;
  const index_t panel = std::max<index_t>(
      kTriMinPanel,
      static_cast<index_t>(kTriPanelBytes / (sizeof(Real) * std::size_t(dim))));
  const index_t panels = (len + panel - 1) / panel;
  auto run = [&](index_t p0, index_t p1) {
    for (index_t p = p0; p < p1; ++p) {
      const index_t i0 = p * panel;
      const index_t i1 = std::min(len, i0 + panel);
      if (side == Side::Right) {
        tri_right_panel(solve, uplo, op, diag, alpha, t,
                        b.rows_range(i0, i1));
      } else {
        tri_left_panel(solve, uplo, op, diag, alpha, t, b.cols_range(i0, i1));
      }
    }
  };
  if (blas_num_threads() > 1 && panels > 1 && work >= kMinParallelPanelFlops) {
    parallel_ranges(panels, 1, run);
    return;
  }
  run(0, panels);
}

}  // namespace

template <class Real>
void trsm(Side side, Uplo uplo, Op op, Diag diag, Real alpha,
          ConstMatrixView<Real> t, MatrixView<Real> b) {
  tri_apply(true, side, uplo, op, diag, alpha, t, b);
}

template <class Real>
void trmm(Side side, Uplo uplo, Op op, Diag diag, Real alpha,
          ConstMatrixView<Real> t, MatrixView<Real> b) {
  tri_apply(false, side, uplo, op, diag, alpha, t, b);
}

#define RANDLA_INSTANTIATE_BLAS3(Real)                                         \
  template void gemm<Real>(Op, Op, Real, ConstMatrixView<Real>,                \
                           ConstMatrixView<Real>, Real, MatrixView<Real>);     \
  template void gemm_batched<Real>(const GemmProblem<Real>*, index_t);         \
  template void syrk<Real>(Uplo, Op, Real, ConstMatrixView<Real>, Real,        \
                           MatrixView<Real>);                                  \
  template void symmetrize<Real>(Uplo, MatrixView<Real>);                      \
  template void trsm<Real>(Side, Uplo, Op, Diag, Real, ConstMatrixView<Real>,  \
                           MatrixView<Real>);                                  \
  template void trmm<Real>(Side, Uplo, Op, Diag, Real, ConstMatrixView<Real>,  \
                           MatrixView<Real>);

RANDLA_INSTANTIATE_BLAS3(float)
RANDLA_INSTANTIATE_BLAS3(double)

#undef RANDLA_INSTANTIATE_BLAS3

}  // namespace randla::blas
