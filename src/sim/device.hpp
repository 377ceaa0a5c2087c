// device.hpp — simulated GPU device: an id, the modeled device spec and
// a virtual clock charged from the calibrated performance model.
//
// This substitutes for the paper's physical K40c GPUs (see DESIGN.md).
// A Device runs nothing itself: the multi-GPU driver (paper §4,
// Fig. 15) executes each device's share of a step on the caller's
// thread and charges the modeled time here. The per-device clocks are
// combined with max() at synchronization points, so the modeled total
// behaves like concurrent hardware even though the kernels run one
// device after another.
#pragma once

#include <utility>

#include "model/perfmodel.hpp"

namespace randla::sim {

class Device {
 public:
  Device(int id, model::DeviceSpec spec) : id_(id), spec_(std::move(spec)) {}

  int id() const { return id_; }
  const model::DeviceSpec& spec() const { return spec_; }

  /// Advance this device's virtual clock by `seconds` of modeled time.
  void charge(double seconds) { modeled_time_ += seconds; }

  /// Virtual clock: modeled seconds of device-side work so far.
  double modeled_time() const { return modeled_time_; }

  /// Fast-forward the clock to at least `t` (used at synchronization
  /// points: a device that finished early waits for the slowest one).
  void advance_to(double t) {
    if (t > modeled_time_) modeled_time_ = t;
  }

 private:
  const int id_;
  const model::DeviceSpec spec_;
  double modeled_time_ = 0;
};

}  // namespace randla::sim
