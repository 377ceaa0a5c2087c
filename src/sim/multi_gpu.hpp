// multi_gpu.hpp — multi-device random sampling (paper §4, Figures 4
// and 15).
//
// The matrix A is distributed in 1D block-row format, one block per
// simulated device. Ω and C are distributed in the matching 1D
// block-column format of Aᵀ. Each phase follows the paper's multi-GPU
// plan exactly:
//   * sampling — each device computes its partial B(i) = Ω(i)·A(i); the
//     host accumulates B = Σ B(i);
//   * QR of the small ℓ×n B on the host, broadcast back;
//   * C(i) = B·A(i)ᵀ locally; multi-device CholQR of C via local Gram
//     blocks G(i) = C(i)·C(i)ᵀ, host reduction + Cholesky, broadcast of
//     R̄, local triangular solves (Figure 4);
//   * Steps 2–3: truncated QP3 of B on one device, tall-skinny QR of
//     A·P₁:k by the same multi-device CholQR.
//
// Every kernel executes for real, one device's share after another on
// the caller's thread, and charges modeled K40c time to that device;
// host↔device traffic charges modeled PCIe time into the Comms phase.
// Modeled clocks combine with max() at each bulk-synchronous point, so
// the modeled total behaves like concurrent hardware even though the
// devices run in sequence.
#pragma once

#include <vector>

#include "model/perfmodel.hpp"
#include "rsvd/rsvd.hpp"
#include "sim/device.hpp"

namespace randla::sim {

/// Result of a multi-device run: the usual factorization plus the
/// modeled phase breakdown (the measured wall-clock breakdown in
/// `result.phases` is real but reflects the single-core host, so the
/// modeled numbers are the ones comparable to the paper's Figure 15).
struct MultiFixedRankResult {
  rsvd::FixedRankResult result;
  rsvd::PhaseTimes modeled;  ///< per-phase modeled seconds incl. comms
  double modeled_total = 0;
};

class MultiDeviceContext {
 public:
  MultiDeviceContext(int num_devices, model::DeviceSpec spec = {});

  int num_devices() const { return static_cast<int>(devices_.size()); }
  Device& device(int i) { return devices_[static_cast<std::size_t>(i)]; }
  const Device& device(int i) const {
    return devices_[static_cast<std::size_t>(i)];
  }
  const model::DeviceSpec& spec() const { return spec_; }

  /// A distributed in 1D block-row format (device i owns rows
  /// [offset[i], offset[i+1])).
  struct RowBlocks {
    std::vector<Matrix<double>> block;
    std::vector<index_t> offset;  ///< size ng+1
    index_t rows = 0;
    index_t cols = 0;
  };
  RowBlocks distribute_rows(ConstMatrixView<double> a);

  /// Multi-device fixed-rank random sampling (Gaussian sampling only —
  /// the paper's multi-GPU implementation).
  MultiFixedRankResult fixed_rank(ConstMatrixView<double> a,
                                  const rsvd::FixedRankOptions& opts);

  /// Multi-device CholQR of a row-distributed tall-skinny matrix
  /// (Figure 4): orthonormalizes the columns of W in place and returns
  /// the modeled seconds charged (device max + host + comms split out).
  struct CholQrTimes {
    double device = 0;
    double host = 0;
    double comms = 0;
  };
  CholQrTimes multi_cholqr_columns(std::vector<Matrix<double>>& w_blocks,
                                   Matrix<double>* r_out = nullptr);

 private:
  std::vector<Device> devices_;
  model::DeviceSpec spec_;
};

}  // namespace randla::sim
