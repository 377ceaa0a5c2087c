// queue.hpp — bounded MPMC queue with reject-on-full backpressure.
//
// The serving scheduler's admission point: producers (request threads)
// try_push and get an immediate QueueFull refusal past the high-water
// mark instead of blocking — under overload the runtime sheds load at
// the door rather than letting latency grow without bound. Consumers
// (workers) block in pop until work arrives or the queue is closed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace randla::runtime {

enum class PushStatus {
  Ok,
  QueueFull,  ///< at or past the high-water mark — caller should shed/retry
  Closed,     ///< shutting down, no new work accepted
};

template <class T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Non-blocking admission; never waits (backpressure by rejection).
  /// The item is moved from only on Ok, so a refused one can still be
  /// answered by the caller.
  PushStatus try_push(T&& item) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return PushStatus::Closed;
      if (items_.size() >= capacity_) return PushStatus::QueueFull;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return PushStatus::Ok;
  }

  /// Failover path: hand a job a dying worker already popped back to the
  /// survivors. Pushes to the *front* (the job already waited its turn)
  /// and ignores the high-water mark — the item was admitted once and
  /// must not be shed now. False only when the queue is closed; the item
  /// is consumed only on success, so the caller can still fail it.
  bool requeue_front(T& item) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return false;
      items_.push_front(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Batching collector: pop the front item only when `pred(front)` says
  /// it can join the caller's batch. Non-blocking; FIFO order preserved —
  /// an incompatible head blocks the drain rather than being skipped, so
  /// batching can never reorder jobs past one another.
  template <class Pred>
  std::optional<T> try_pop_if(Pred&& pred) {
    std::lock_guard<std::mutex> lk(mu_);
    if (items_.empty() || !pred(items_.front())) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Non-blocking pop (last-worker-down drain path).
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lk(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Block until an item is available or the queue is closed and
  /// drained; nullopt means "no more work ever".
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Stop admitting; wake all consumers once the backlog drains.
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace randla::runtime
