// gaussian.hpp — Gaussian variates and random matrix generation.
//
// The PRNG(ℓ, m) of the paper's Figure 2: fills sampling matrices with
// N(0, 1) entries (Box–Muller over Philox), plus Rademacher signs and
// sampling-without-replacement helpers for the SRFT sampling operator.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "la/matrix.hpp"
#include "la/parallel.hpp"
#include "rng/philox.hpp"

namespace randla::rng {

/// Streaming N(0, 1) generator (Box–Muller over a Philox stream).
class GaussianStream {
 public:
  explicit GaussianStream(std::uint64_t seed, std::uint64_t stream = 0)
      : gen_(seed, stream) {}

  double next() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    const double u1 = gen_.next_uniform();
    const double u2 = gen_.next_uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 6.283185307179586476925286766559 * u2;
    spare_ = r * std::sin(theta);
    has_spare_ = true;
    return r * std::cos(theta);
  }

 private:
  Philox4x32 gen_;
  double spare_ = 0;
  bool has_spare_ = false;
};

/// Fill `a` with i.i.d. N(0, 1) entries. Each column is generated from
/// its own Philox substream keyed by (seed, col_offset + j), so a
/// column-partitioned matrix generated on several simulated devices is
/// bitwise identical to one generated on a single device. The columns
/// are split across the BLAS worker pool (a chunk carries at least 8192
/// normals, so Ω below ~16k entries stays serial); since every column
/// owns its stream, the output is the same at any thread count.
template <class Real>
void fill_gaussian(MatrixView<Real> a, std::uint64_t seed,
                   std::uint64_t col_offset = 0) {
  const index_t grain =
      std::max<index_t>(1, 8192 / std::max<index_t>(1, a.rows()));
  parallel_ranges(a.cols(), grain, [&](index_t begin, index_t end) {
    for (index_t j = begin; j < end; ++j) {
      GaussianStream g(seed, col_offset + static_cast<std::uint64_t>(j));
      Real* c = a.col_ptr(j);
      for (index_t i = 0; i < a.rows(); ++i) c[i] = static_cast<Real>(g.next());
    }
  });
}

/// Convenience: newly allocated ℓ×m Gaussian matrix — PRNG(ℓ, m).
template <class Real>
Matrix<Real> gaussian_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix<Real> a(rows, cols);
  fill_gaussian(a.view(), seed);
  return a;
}

/// Fill with i.i.d. Rademacher (±1) signs (SRFT's diagonal D).
template <class Real>
void fill_signs(MatrixView<Real> a, std::uint64_t seed) {
  Philox4x32 g(seed, 0x5167u);
  for (index_t j = 0; j < a.cols(); ++j) {
    Real* c = a.col_ptr(j);
    for (index_t i = 0; i < a.rows(); ++i)
      c[i] = (g.next_u32() & 1u) ? Real(1) : Real(-1);
  }
}

/// `count` distinct indices sampled uniformly from [0, n) (SRFT's row
/// selection S), via a partial Fisher–Yates shuffle.
std::vector<index_t> sample_without_replacement(index_t n, index_t count,
                                                std::uint64_t seed);

/// Uniform random permutation of [0, n).
std::vector<index_t> random_permutation(index_t n, std::uint64_t seed);

}  // namespace randla::rng
