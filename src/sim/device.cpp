#include "sim/device.hpp"

#include <algorithm>
#include <utility>

namespace randla::sim {

Device::Device(int id, model::DeviceSpec spec)
    : id_(id), spec_(std::move(spec)), thread_([this] { worker_loop(); }) {}

Device::~Device() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

std::future<void> Device::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  auto fut = task.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(task));
    idle_ = false;
  }
  cv_.notify_all();
  return fut;
}

void Device::synchronize() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && idle_; });
}

void Device::charge(double seconds) {
  std::lock_guard<std::mutex> lk(clock_mu_);
  modeled_time_ += seconds;
}

double Device::modeled_time() const {
  std::lock_guard<std::mutex> lk(clock_mu_);
  return modeled_time_;
}

void Device::advance_to(double t) {
  std::lock_guard<std::mutex> lk(clock_mu_);
  modeled_time_ = std::max(modeled_time_, t);
}

void Device::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      idle_ = queue_.empty();
      if (idle_) idle_cv_.notify_all();
      cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      idle_ = false;
    }
    task();  // exceptions propagate through the packaged_task's future
  }
}

}  // namespace randla::sim
