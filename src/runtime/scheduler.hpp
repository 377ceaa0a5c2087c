// scheduler.hpp — concurrent batch-serving runtime (see DESIGN.md §7).
//
// A Scheduler owns a bounded admission queue and num_workers worker
// threads, one per simulated device. Producers submit typed Jobs and
// immediately get a JobHandle plus a reject-on-full backpressure
// verdict. A worker pops a job, lets the batching collector add
// compatible queued jobs behind it (a solo job is a batch of one), and
// runs the whole dispatch inline on its own thread (charging modeled
// K40c time to the worker's virtual clock), consulting the two-level
// sketch/result cache for fixed-rank requests.
//
// Robustness policy per job:
//   * deadline — a job whose queue wait already exceeds its deadline
//     expires without running; a tight-but-live deadline degrades the
//     plan to fewer power iterations per the model::perfmodel estimate
//     (scaled by an online real/modeled calibration factor);
//   * retry — if a run reports CholQR breakdown (cholqr_fallbacks > 0),
//     the job is re-run with the next stabler orthogonalization
//     (CholQR → CholQR2 → HHQR), so at most 2 retries;
//   * failover — a device that dies (injected DeviceFail or an external
//     fail_device call) is marked unhealthy and its worker retires at its
//     next pickup; the job it popped there is requeued at the front onto
//     the survivors with the dead device recorded in its excluded_devices
//     mask, bounded by max_resubmits. A job already executing when its
//     device dies finishes and is delivered once. Capacity rebalances
//     because the remaining workers own the whole queue (DESIGN.md §10);
//   * watchdog — an optional monitor thread cancels (cooperatively)
//     dispatches whose execution exceeds watchdog_multiple × their
//     effective deadline, so an injected hang fails fast instead of
//     wedging a worker forever.
// Every job, run or not, finishes through one complete(): its trace is
// recorded, its handle fulfilled, and drain() woken.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "la/profile_hooks.hpp"
#include "model/perfmodel.hpp"
#include "obs/metrics.hpp"
#include "runtime/arena.hpp"
#include "runtime/cache.hpp"
#include "runtime/job.hpp"
#include "runtime/queue.hpp"
#include "runtime/telemetry.hpp"

namespace randla::runtime {

struct SchedulerOptions {
  int num_workers = 2;              ///< simulated devices == worker threads
  std::size_t queue_capacity = 64;  ///< high-water mark: reject past this
  double default_deadline_s = 0;    ///< per-job deadline when job says 0
  std::size_t sketch_cache_capacity = 32;
  std::size_t result_cache_capacity = 64;
  std::size_t rqrcp_cache_capacity = 64;  ///< RQRCP factorization cache
  bool enable_cache = true;
  model::DeviceSpec spec;           ///< modeled device for every worker
  // --- batching collector (DESIGN.md §12) -----------------------------
  /// A worker that pops a FixedRank job drains up to batch_max-1 more
  /// compatible queued jobs (FixedRank, Gaussian sampling, same
  /// power-iteration scheme) into one dispatch; two or more members that
  /// miss both caches share ONE batched Step-1 over the worker pool,
  /// amortizing pack/launch overhead. 1 disables coalescing, and every
  /// dispatch holds one job. Per-job deadlines, caches, degradation, and
  /// the retry ladder apply to every member alike.
  int batch_max = 1;
  /// Once a worker holds at least one job but fewer than batch_max, it
  /// lingers this long for stragglers before dispatching. Under a
  /// saturating load the backlog is already queued when a worker pops,
  /// so the default drains without waiting — lingering there only
  /// delays solo jobs. Raise for open-loop arrivals you want smoothed
  /// into batches; keep well under one service time.
  double batch_linger_s = 0;
  // --- fault plane (DESIGN.md §10) ------------------------------------
  fault::InjectorPtr injector;      ///< null = no injected faults
  int max_resubmits = 2;            ///< failover requeues before Failed
  /// Watchdog: cancel a job whose execution exceeds this multiple of its
  /// effective deadline (job deadline, else default_deadline_s, else
  /// watchdog_grace_s). 0 disables the watchdog thread entirely.
  double watchdog_multiple = 0;
  double watchdog_grace_s = 0.25;   ///< deadline stand-in for undeadlined jobs
};

struct SubmitResult {
  PushStatus status = PushStatus::Ok;
  /// Always non-null; for rejected submissions it is already fulfilled
  /// with JobStatus::Rejected so callers can treat all paths uniformly.
  std::shared_ptr<JobHandle> handle;
};

/// Per-worker utilization snapshot (dispatch counters + virtual clock).
struct WorkerStats {
  int worker = 0;
  std::uint64_t jobs = 0;
  double busy_s = 0;     ///< real seconds inside jobs
  double modeled_s = 0;  ///< modeled K40c seconds charged
};

/// Recovery-machinery counters (HealthReply + chaos-run accounting).
struct FaultStats {
  std::uint64_t jobs_requeued = 0;    ///< failover handoffs to survivors
  std::uint64_t watchdog_fired = 0;   ///< cancellations issued
  std::uint64_t device_failures = 0;  ///< devices marked unhealthy
  int healthy_workers = 0;
};

/// Batching-collector counters (occupancy = batched_jobs / dispatches).
struct BatchStats {
  std::uint64_t dispatches = 0;    ///< batched dispatches (size ≥ 2)
  std::uint64_t batched_jobs = 0;  ///< jobs that rode in those dispatches
};

/// Per-device health row (the HealthReply wire frame's payload).
struct DeviceHealthInfo {
  int device = 0;
  bool healthy = true;
  std::uint64_t jobs = 0;
  double modeled_s = 0;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions opts = {});
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Non-blocking admission. QueueFull / Closed submissions never enter
  /// the queue; their handle is fulfilled immediately.
  SubmitResult submit(Job job);

  /// Block until every accepted job has been fulfilled.
  void drain();

  /// Seconds since the scheduler started (the trace time base).
  double now() const;

  TelemetrySink& telemetry() { return telemetry_; }
  CacheStats sketch_cache_stats() const { return sketches_.stats(); }
  CacheStats result_cache_stats() const { return results_.stats(); }
  CacheStats rqrcp_cache_stats() const { return rqrcps_.stats(); }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t queue_capacity() const { return queue_.capacity(); }
  /// Jobs admitted but not yet fulfilled (queued + executing). The
  /// network front-end polls this to decide when a drain has finished.
  int inflight() const { return inflight_.load(); }
  /// EMA of recent per-job real execution seconds (0 until the first
  /// job completes). Feeds the server's BUSY Retry-After hint:
  /// queue_depth × recent_exec_s ≈ time for the backlog to clear.
  double recent_exec_s() const;
  int num_workers() const;
  std::vector<WorkerStats> worker_stats() const;
  const SchedulerOptions& options() const { return opts_; }

  /// Aligned ingest arena owned by the pool. Front-ends decode inline
  /// tensor payloads straight into leased blocks; the blocks stay alive
  /// through retries/failover via the MatrixHandle keepalive and are
  /// recycled here once the last handle drops (DESIGN.md §12).
  Arena& arena() { return arena_; }
  BatchStats batch_stats() const;

  // --- planned-drain cache handoff (DESIGN.md §15) --------------------
  /// Snapshot every live cache entry (most-recently-used first) so a
  /// draining shard can stream its warmth to the ring successor, and
  /// install one entry shipped from a draining peer. Installs go through
  /// the ordinary LRU put, so capacity and eviction accounting hold.
  std::vector<std::pair<ResultKey, std::shared_ptr<const rsvd::FixedRankResult>>>
  export_results() const { return results_.snapshot(); }
  std::vector<std::pair<SketchKey, std::shared_ptr<const SketchEntry>>>
  export_sketches() const { return sketches_.snapshot(); }
  std::vector<std::pair<RqrcpKey, std::shared_ptr<const qrcp::RqrcpResult<double>>>>
  export_rqrcps() const { return rqrcps_.snapshot(); }
  void install_result(const ResultKey& k,
                      std::shared_ptr<const rsvd::FixedRankResult> v) {
    results_.put(k, std::move(v));
  }
  void install_sketch(const SketchKey& k,
                      std::shared_ptr<const SketchEntry> v) {
    sketches_.put(k, std::move(v));
  }
  void install_rqrcp(const RqrcpKey& k,
                     std::shared_ptr<const qrcp::RqrcpResult<double>> v) {
    rqrcps_.put(k, std::move(v));
  }

  // --- fault plane ----------------------------------------------------
  /// Kill a device from outside (tests, ops tooling): it is marked
  /// unhealthy, a job it is executing finishes and is delivered, and its
  /// worker retires at its next pickup after handing that job to the
  /// survivors; no further work lands on it. Irreversible.
  void fail_device(int device);
  int healthy_workers() const { return healthy_.load(); }
  FaultStats fault_stats() const;
  std::vector<DeviceHealthInfo> device_health() const;

  /// This scheduler's Stats/Prometheus rows, read from its own counters:
  /// queue depth and in-flight, batching, failover, watchdog, cache,
  /// RQRCP-phase and arena counts, its telemetry's per-job counts and
  /// SLO window, the `la_*` rows of the kernels its workers ran (with
  /// profiling on), and its fault injector's rows when it has one. Each
  /// event is counted once, here, and exported once under its `_total`
  /// name (DESIGN.md §9).
  obs::MetricRows stats_rows() const;

 private:
  struct PendingJob {
    Job job;
    std::shared_ptr<JobHandle> handle;
    double submit_s = 0;
    std::uint32_t excluded_devices = 0;  ///< bitmask of failed holders
    int resubmits = 0;                   ///< failover handoffs so far
  };

  /// Per-worker state. The watchdog reads the running dispatch's
  /// start/budget and flips its cancel token; worker_stats() and
  /// device_health() read the counters and the failed flag.
  struct ExecSlot {
    std::mutex mu;
    std::shared_ptr<std::atomic<bool>> cancel;  ///< null when idle
    double started_s = -1;
    double budget_s = 0;
    std::uint64_t job_id = 0;  ///< running job, for flight-recorder events
    bool fired = false;
    std::uint64_t jobs = 0;    ///< dispatches run (a batch counts once)
    double busy_s = 0;         ///< real seconds inside dispatches
    double modeled_s = 0;      ///< modeled K40c seconds charged
    std::atomic<bool> failed{false};  ///< device dead: retire at next pickup
  };

  /// One job of a dispatch, from admission to delivery.
  struct Member {
    PendingJob pending;
    JobOutcome outcome;                  ///< status stays Pending while live
    double remaining_s = 0;              ///< deadline budget left (0 = none)
    rsvd::FixedRankOptions plan;         ///< FixedRank opts after degradation
    std::shared_ptr<SketchEntry> fresh;  ///< shared Step-1 sample, if any
  };

  void worker_loop(int widx);
  void watchdog_loop();
  /// Arm worker `widx`'s slot for one dispatch, then sleep out an
  /// injected DeviceStall. Returns the dispatch's cancel token.
  std::shared_ptr<std::atomic<bool>> begin_dispatch(int widx, double budget_s,
                                                    std::uint64_t job_id);
  /// Disarm the slot and account the dispatch's real and modeled seconds.
  void end_dispatch(int widx, double busy_s, double modeled_s);
  /// Dying worker hands its popped job back (or fails it when the
  /// resubmit budget / eligible survivors run out).
  void handoff(PendingJob pending, int widx);
  /// Fulfill a pending job as Failed without running it.
  void fail_pending(PendingJob pending, const std::string& why);
  /// The one exit of every job: fill the trace's identity fields, feed
  /// the exec EMA and telemetry, fulfill the handle, and wake drain().
  void complete(PendingJob pending, JobOutcome outcome);
  void mark_device_failed(int widx);
  /// After the last worker retires: nothing will ever pop again, so
  /// fail whatever is still queued instead of deadlocking drain().
  void drain_queue_no_workers();
  double watchdog_budget(const Job& job) const;
  // --- dispatch (DESIGN.md §7, §12) -----------------------------------
  /// Drain compatible queued jobs behind `first` (size/linger window);
  /// just `first` when batching is off or it cannot lead a batch.
  std::vector<PendingJob> collect_batch(PendingJob first, int widx);
  /// Run one dispatch on worker `widx`: admission (deadline, degradation)
  /// per member, faults once, a shared Step-1 for ≥2 cache misses, then
  /// execute() and complete() per member.
  void dispatch(std::vector<PendingJob> batch, int widx);
  /// Run one admitted member by job kind, under its trace id.
  void execute(Member& m);
  /// RQRCP engine dispatch: fingerprint-keyed result cache, deadline
  /// degradation by truncating the block sweep, per-phase obs metrics.
  JobOutcome run_rqrcp(const RqrcpJob& rj, JobTrace& trace,
                       double remaining_s);
  /// Shed power iterations to fit `remaining_s`.
  void degrade_to_fit(rsvd::FixedRankOptions& opts, index_t m, index_t n,
                      double remaining_s, JobTrace& trace) const;
  /// Cache-aware retry ladder on already-degraded options; `fresh`, when
  /// non-null, supplies a batched Step-1 sample consumed by the first
  /// pass instead of computing one.
  JobOutcome finish_fixed_rank(const FixedRankJob& fj,
                               rsvd::FixedRankOptions opts, JobTrace& trace,
                               std::shared_ptr<SketchEntry> fresh);
  /// One cache-aware fixed-rank pass with the given (possibly escalated
  /// or degraded) options. step1_fallbacks reports CholQR breakdowns in
  /// the *sampling* stage only — the signal the retry policy escalates
  /// on (Step-3 breakdowns are already rescued by an unconditionally
  /// stable scheme and cannot be improved by changing power_ortho).
  struct PassResult {
    std::shared_ptr<const rsvd::FixedRankResult> res;
    int step1_fallbacks = 0;
  };
  PassResult fixed_rank_pass(const FixedRankJob& fj,
                             const rsvd::FixedRankOptions& opts,
                             JobTrace& trace,
                             std::shared_ptr<SketchEntry> fresh = nullptr);

  double calibration() const;
  void observe_calibration(double real_s, double modeled_s);

  SchedulerOptions opts_;
  Arena arena_;
  BoundedQueue<PendingJob> queue_;
  SketchCache sketches_;
  ResultCache results_;
  RqrcpCache rqrcps_;
  TelemetrySink telemetry_;

  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> next_id_{1};

  std::atomic<int> inflight_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  mutable std::mutex calib_mu_;
  double calib_real_per_modeled_ = 1.0;
  double exec_ema_s_ = 0;

  /// RQRCP engine totals: seconds per algorithm phase, downdate
  /// safeguard resketches, and block sweeps truncated at a deadline.
  struct QrcpTotals {
    std::atomic<double> sketch_s{0}, panel_s{0}, update_s{0}, downdate_s{0};
    std::atomic<std::uint64_t> resketches{0}, degraded{0};
  } qrcp_;

  /// Profiled kernels run by this scheduler's workers and their pool
  /// chunks (the workers' la_prof context points here).
  la_prof::KernelTable kernels_;

  std::atomic<std::uint64_t> batches_{0};       ///< dispatches of 2+ jobs
  std::atomic<std::uint64_t> batched_jobs_{0};  ///< jobs in those dispatches

  std::atomic<int> healthy_{0};
  std::atomic<std::uint64_t> jobs_requeued_{0};
  std::atomic<std::uint64_t> watchdog_fired_{0};
  std::atomic<std::uint64_t> device_failures_{0};
  std::vector<std::unique_ptr<ExecSlot>> slots_;
  std::atomic<bool> watchdog_stop_{false};
  std::thread watchdog_;

  std::vector<std::thread> workers_;
};

}  // namespace randla::runtime
