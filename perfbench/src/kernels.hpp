// kernels.hpp — the kernel layers (rng, la, ortho, qrcp, rsvd) measured
// from outside, through their public entry points.
//
// A fixed-rank solve is rebuilt here out of the calls rsvd::fixed_rank
// makes internally — rng::fill_gaussian, blas::gemm, the power-iteration
// pieces (ortho::block_orth_rows + ortho::orthonormalize_rows, gemm) and
// rsvd::finish_from_sample — with a timer around each, which yields the
// paper's Fig. 11 split without instrumenting the library. The split is
// only worth reporting if it computes exactly what the library does, so
// split_is_faithful() compares it bitwise against rsvd::compute_sample
// and rsvd::fixed_rank on the same seed.
#pragma once

#include <vector>

#include "common.hpp"
#include "qrcp/rqrcp.hpp"
#include "rsvd/rsvd.hpp"

namespace perfbench {

/// Seconds per layer of one split fixed-rank solve.
struct SplitTimes {
  double omega = 0;        ///< rng::fill_gaussian (Ω, ℓ×m)
  double sample_gemm = 0;  ///< B = Ω·A
  double iter_gemm = 0;    ///< power-iteration multiplies
  double iter_orth = 0;    ///< power-iteration orthonormalization
  double step2 = 0;        ///< truncated QP3 of B (PhaseTimes::qrcp)
  double step3 = 0;        ///< rest of finish_from_sample
  double total() const {
    return omega + sample_gemm + iter_gemm + iter_orth + step2 + step3;
  }
};

struct SplitRun {
  randla::rsvd::FixedRankResult res;
  randla::Matrix<double> b;  ///< the Step-1 sample
  SplitTimes t;
  double wall = 0;  ///< whole split op, glue (allocations) included
};

SplitRun fixed_rank_split(randla::ConstMatrixView<double> a,
                          const randla::rsvd::FixedRankOptions& o);

/// True when the split's sample equals rsvd::compute_sample and its
/// factors equal rsvd::fixed_rank, bit for bit, on the same options.
bool split_is_faithful(randla::ConstMatrixView<double> a,
                       const randla::rsvd::FixedRankOptions& o,
                       const SplitRun& run);

struct RqrcpRun {
  randla::qrcp::RqrcpResult<double> res;
  double wall = 0;
};

RqrcpRun rqrcp_timed(randla::ConstMatrixView<double> a, randla::index_t k,
                     const randla::qrcp::RqrcpOptions& opts);

/// One kernel-level op: a fixed-rank solve or a fixed-rank RQRCP.
struct KernelCase {
  randla::ConstMatrixView<double> a;
  bool rqrcp = false;
  randla::rsvd::FixedRankOptions fr;  ///< k/p/q/seed; fr.k is RQRCP's rank too
  randla::qrcp::RqrcpOptions rq;      ///< RQRCP knobs (want_q must be set)
  double max_residual = 0;            ///< kernel_probe's ‖AP−QR‖_F/‖A‖_F bound
};

/// Per-op layer samples gathered over a traced phase.
struct LayerSamples {
  std::vector<double> omega, sample_gemm, iter_gemm, iter_orth, step2, step3;
  std::vector<double> normals_per_s, sample_gflops, flops;
  std::vector<double> rq_sketch, rq_panel, rq_update, rq_downdate, rq_other;
  double max_residual = 0;  ///< largest fixed-rank ‖AP−QR‖_F/‖A‖_F seen
};

/// Outcome of one kernel case run through the timed split.
struct CaseResult {
  double wall = 0;        ///< op wall seconds
  double residual = 0;    ///< ‖AP−QR‖_F/‖A‖_F of the op's factors
  bool faithful = true;   ///< split matched the fused path (when checked)
};

/// Run `c` through fixed_rank_split (or rqrcp_timed), add its layer
/// samples to `s` and compute its residual. With `check_split`, also
/// run the faithful-split comparison (fixed-rank cases only).
CaseResult run_case(const KernelCase& c, bool check_split, LayerSamples& s,
                    randla::Matrix<double>& scratch);

/// Serving workloads' kernel layers: run `cases` round-robin through
/// run_case for `budget_s` (at least one pass), check the first
/// fixed-rank case's split and every residual against its bound, and
/// report the layer metrics.
void kernel_probe(const std::vector<KernelCase>& cases, double budget_s,
                  Report& rep);

/// rng.* / la.* / ortho.* / qrcp.* / rsvd.* metrics from the samples.
void report_kernel_layers(const LayerSamples& s, Report& rep);

/// scaling.<step>: median 1-thread time over median N-thread time of
/// each layer, N = the BLAS pool's default width, `reps` ops per case.
void report_scaling(const std::vector<KernelCase>& cases, int reps,
                    Report& rep);

}  // namespace perfbench
