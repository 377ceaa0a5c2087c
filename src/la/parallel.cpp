#include "la/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "la/profile_hooks.hpp"

namespace randla {

namespace {

index_t initial_threads() {
  if (const char* s = std::getenv("RANDLA_NUM_THREADS")) {
    const long v = std::atol(s);
    if (v >= 1) return static_cast<index_t>(v);
  }
  return static_cast<index_t>(std::max(1u, std::thread::hardware_concurrency()));
}

std::atomic<index_t> g_threads{initial_threads()};

// A chunk body running inside the pool (worker lane or the caller's own
// draining loop) must not fan out again: nested parallel_ranges would
// wait on chunks that only the blocked threads could run.
thread_local bool t_in_pool_task = false;

// One parallel_ranges call in flight. Chunk c covers
// [begin + c·per, min(end, begin + (c+1)·per)).
struct Batch {
  const std::function<void(index_t, index_t)>* fn = nullptr;
  la_prof::Context prof;            // the caller's, installed per chunk
  index_t total = 0;
  index_t per = 0;
  index_t count = 0;
  index_t next = 0;                 // next unclaimed chunk (queue lock)
  std::atomic<index_t> done{0};     // chunks finished
  std::mutex m;
  std::condition_variable cv;      // signaled when done == count
};

class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  ~WorkerPool() { stop_workers(); }

  void run(index_t total, index_t chunks,
           const std::function<void(index_t, index_t)>& fn) {
    ensure_size(blas_num_threads() - 1);

    auto batch = std::make_shared<Batch>();
    batch->fn = &fn;
    batch->prof = la_prof::current_context();
    batch->total = total;
    batch->per = (total + chunks - 1) / chunks;
    batch->count = chunks;

    {
      std::lock_guard<std::mutex> lk(qm_);
      queue_.push_back(batch);
      split_batches_.fetch_add(1, std::memory_order_relaxed);
    }
    qcv_.notify_all();

    // The caller is a full lane: claim chunks of its own batch until
    // none are left, then wait for workers to finish the rest. Because
    // the caller drains its own batch, completion never depends on any
    // worker being free (or existing at all).
    for (;;) {
      index_t c;
      {
        std::lock_guard<std::mutex> lk(qm_);
        if (batch->next >= batch->count) break;
        c = batch->next++;
        if (batch->next >= batch->count) remove_from_queue(batch.get());
      }
      run_chunk(*batch, c);
    }
    std::unique_lock<std::mutex> lk(batch->m);
    batch->cv.wait(lk, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->count;
    });
  }

  PoolStats stats() {
    PoolStats s;
    s.chunks_run = chunks_run_.load(std::memory_order_relaxed);
    s.split_batches = split_batches_.load(std::memory_order_relaxed);
    s.rebuilds = rebuilds_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(size_m_);
    s.workers = static_cast<index_t>(workers_.size());
    return s;
  }

 private:
  WorkerPool() = default;

  void ensure_size(index_t want) {
    if (want < 0) want = 0;
    {
      std::lock_guard<std::mutex> lk(size_m_);
      if (static_cast<index_t>(workers_.size()) == want) return;
    }
    resize(want);
  }

  void resize(index_t want) {
    std::lock_guard<std::mutex> lk(size_m_);
    if (static_cast<index_t>(workers_.size()) == want) return;
    stop_workers_locked();
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
    stop_ = false;
    workers_.reserve(static_cast<std::size_t>(want));
    for (index_t i = 0; i < want; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  void stop_workers() {
    std::lock_guard<std::mutex> lk(size_m_);
    stop_workers_locked();
  }

  void stop_workers_locked() {
    {
      std::lock_guard<std::mutex> lk(qm_);
      stop_ = true;
    }
    qcv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
    // In-flight batches are unaffected: their remaining chunks are
    // claimed by the threads that submitted them.
  }

  void worker_loop() {
    for (;;) {
      std::shared_ptr<Batch> batch;
      index_t c = 0;
      {
        std::unique_lock<std::mutex> lk(qm_);
        qcv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
        if (stop_) return;
        batch = queue_.front();
        c = batch->next++;
        if (batch->next >= batch->count) queue_.pop_front();
      }
      run_chunk(*batch, c);
    }
  }

  void run_chunk(Batch& batch, index_t c) {
    const index_t b = c * batch.per;
    const index_t e = std::min(batch.total, b + batch.per);
    if (b < e) {
      // A chunk is part of the caller's work: kernels inside it nest
      // under the caller's kernel, or record into the caller's table.
      la_prof::ScopedContext prof(batch.prof);
      const bool prev = t_in_pool_task;
      t_in_pool_task = true;
      (*batch.fn)(b, e);
      t_in_pool_task = prev;
    }
    chunks_run_.fetch_add(1, std::memory_order_relaxed);
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 == batch.count) {
      std::lock_guard<std::mutex> lk(batch.m);
      batch.cv.notify_all();
    }
  }

  void remove_from_queue(const Batch* batch) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->get() == batch) {
        queue_.erase(it);
        return;
      }
    }
  }

  std::mutex qm_;
  std::condition_variable qcv_;
  std::deque<std::shared_ptr<Batch>> queue_;
  bool stop_ = false;

  std::mutex size_m_;
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> chunks_run_{0};
  std::atomic<std::uint64_t> split_batches_{0};
  std::atomic<std::uint64_t> rebuilds_{0};
};

}  // namespace

index_t blas_num_threads() { return g_threads.load(std::memory_order_relaxed); }

void set_blas_num_threads(index_t n) {
  g_threads.store(std::max<index_t>(1, n), std::memory_order_relaxed);
}

void parallel_ranges(index_t total, index_t grain,
                     const std::function<void(index_t, index_t)>& fn) {
  if (total <= 0) return;
  const index_t max_threads = blas_num_threads();
  const index_t chunks = std::max<index_t>(
      1, std::min(max_threads, total / std::max<index_t>(1, grain)));
  if (chunks <= 1 || t_in_pool_task) {
    fn(0, total);
    return;
  }
  WorkerPool::instance().run(total, chunks, fn);
}

PoolStats pool_stats() { return WorkerPool::instance().stats(); }

}  // namespace randla
