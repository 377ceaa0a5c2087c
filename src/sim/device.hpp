// device.hpp — simulated GPU device: a worker thread that executes the
// library's real kernels on its data shard, plus a virtual clock charged
// from the calibrated performance model.
//
// This substitutes for the paper's physical K40c GPUs (see DESIGN.md).
// Work submitted to a Device runs asynchronously on its own thread, so a
// MultiDeviceContext genuinely overlaps device work like concurrent
// GPUs; the *modeled* per-device clocks are combined with max() at
// synchronization points, which is what makes strong-scaling curves
// meaningful even on a single-core host. Only the multi-GPU algorithm
// (paper §4, Fig. 15) needs per-device threads; the serving runtime runs
// each job inline on its scheduler worker instead.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "model/perfmodel.hpp"

namespace randla::sim {

/// One simulated device with a sequential in-order work queue.
class Device {
 public:
  Device(int id, model::DeviceSpec spec);
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int id() const { return id_; }
  const model::DeviceSpec& spec() const { return spec_; }

  /// Enqueue a task; tasks run in submission order on the device thread.
  std::future<void> submit(std::function<void()> fn);

  /// Block until every submitted task has finished (stream sync).
  void synchronize();

  /// Advance this device's virtual clock by `seconds` of modeled time.
  /// Called from inside tasks (or anywhere — it is atomic).
  void charge(double seconds);

  /// Virtual clock: modeled seconds of device-side work so far.
  double modeled_time() const;

  /// Fast-forward the clock to at least `t` (used at synchronization
  /// points: a device that finished early waits for the slowest one).
  void advance_to(double t);

 private:
  void worker_loop();

  const int id_;
  const model::DeviceSpec spec_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stopping_ = false;
  bool idle_ = true;
  std::condition_variable idle_cv_;

  mutable std::mutex clock_mu_;
  double modeled_time_ = 0;

  std::thread thread_;
};

}  // namespace randla::sim
