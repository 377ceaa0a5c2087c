// job.hpp — typed work units for the serving runtime.
//
// A Job wraps one of the library's decomposition entry points
// (rsvd::fixed_rank, rsvd::fixed_accuracy, qrcp baseline) around a
// shared fingerprinted input matrix, plus serving metadata (deadline,
// tag). Submission returns a JobHandle the caller can block on; the
// outcome carries the factorization and the per-job telemetry trace.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <variant>

#include "qrcp/qrcp.hpp"
#include "qrcp/rqrcp.hpp"
#include "rsvd/adaptive.hpp"
#include "rsvd/rsvd.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/telemetry.hpp"

namespace randla::runtime {

using MatrixHandle = std::shared_ptr<const FingerprintedMatrix>;

/// Convenience: wrap (and fingerprint) an owned matrix for submission.
inline MatrixHandle make_input(Matrix<double> a) {
  return std::make_shared<const FingerprintedMatrix>(std::move(a));
}

/// Zero-copy: wrap externally owned bytes (an arena-decoded inline
/// payload); the keepalive pins them for the handle's lifetime.
inline MatrixHandle make_input(SharedConstMatrixView<double> a) {
  return std::make_shared<const FingerprintedMatrix>(a.view,
                                                     std::move(a.keepalive));
}

/// Fixed-rank random sampling request (paper Fig. 2).
struct FixedRankJob {
  MatrixHandle a;
  rsvd::FixedRankOptions opts;
};

/// Fixed-accuracy request via the adaptive-ℓ scheme (paper Fig. 3).
struct AdaptiveJob {
  MatrixHandle a;
  rsvd::AdaptiveOptions opts;
};

/// Deterministic truncated-QP3 baseline request (paper §2).
struct QrcpJob {
  MatrixHandle a;
  index_t k = 50;
  index_t block = 32;
};

/// Randomized rank-revealing factorization request (RQRCP engine,
/// protocol v4). opts.epsilon > 0 selects the fixed-accuracy mode: the
/// rank is discovered from the sketch's trailing-block norms and `k`
/// is ignored (opts.max_rank caps the sweep instead).
struct RqrcpJob {
  MatrixHandle a;
  index_t k = 50;            ///< requested rank (fixed-rank mode)
  qrcp::RqrcpOptions opts;   ///< block/oversample/seed/want_q + ε plumbing
};

struct Job {
  std::variant<FixedRankJob, AdaptiveJob, QrcpJob, RqrcpJob> payload;
  /// Wall-clock budget from submission to completion, seconds. 0 uses
  /// the scheduler default; negative disables the deadline outright.
  double deadline_s = 0;
  std::string tag;  ///< free-form label copied into the trace
  /// Distributed-trace id (obs spans); 0 = untraced. The scheduler
  /// installs it on the executing thread so phase spans connect.
  std::uint64_t trace_id = 0;
};

inline JobKind job_kind(const Job& job) {
  if (std::holds_alternative<FixedRankJob>(job.payload))
    return JobKind::FixedRank;
  if (std::holds_alternative<AdaptiveJob>(job.payload))
    return JobKind::Adaptive;
  if (const auto* r = std::get_if<RqrcpJob>(&job.payload))
    return r->opts.epsilon > 0 ? JobKind::RqrcpAdaptive : JobKind::Rqrcp;
  return JobKind::Qrcp;
}

inline const MatrixHandle& job_matrix(const Job& job) {
  if (const auto* f = std::get_if<FixedRankJob>(&job.payload)) return f->a;
  if (const auto* s = std::get_if<AdaptiveJob>(&job.payload)) return s->a;
  if (const auto* r = std::get_if<RqrcpJob>(&job.payload)) return r->a;
  return std::get<QrcpJob>(job.payload).a;
}

/// Everything a finished (or failed/rejected/expired) job leaves behind.
/// Exactly one of the result pointers is set for successful jobs.
struct JobOutcome {
  JobStatus status = JobStatus::Pending;
  std::shared_ptr<const rsvd::FixedRankResult> fixed_rank;
  std::shared_ptr<const rsvd::AdaptiveResult> adaptive;
  std::shared_ptr<const qrcp::QrcpFactors<double>> qrcp;
  std::shared_ptr<const qrcp::RqrcpResult<double>> rqrcp;
  std::string error;
  JobTrace trace;
};

/// Future-like handle: the scheduler fulfills it exactly once.
class JobHandle {
 public:
  explicit JobHandle(std::uint64_t id) : id_(id) { outcome_.trace.job_id = id; }

  // id_ lives outside outcome_ so this needs no lock against fulfill()'s
  // move-assignment of the whole outcome.
  std::uint64_t id() const { return id_; }

  bool done() const {
    std::lock_guard<std::mutex> lk(mu_);
    return fulfilled_;
  }

  /// Block until the outcome is available and return it.
  const JobOutcome& wait() const {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return fulfilled_; });
    return outcome_;
  }

  /// Completion callback (one slot). Runs at once if the handle is
  /// already fulfilled, otherwise exactly once from fulfill() — on the
  /// fulfilling thread, after the handle lock is released, so it may
  /// call done() or wait(). The Scheduler runs it holding none of its
  /// own locks either, so it may also call back into the Scheduler.
  void on_done(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!fulfilled_) {
        on_done_ = std::move(fn);
        return;
      }
    }
    fn();
  }

  /// Scheduler-side: publish the outcome, wake waiters, run on_done.
  void fulfill(JobOutcome outcome) {
    if (auto cb = publish(std::move(outcome))) cb();
  }

  /// fulfill() without running on_done: publish the outcome, wake
  /// waiters, and return the callback (possibly empty) for the caller
  /// to run once it has released its own locks.
  [[nodiscard]] std::function<void()> publish(JobOutcome outcome) {
    std::function<void()> cb;
    {
      std::lock_guard<std::mutex> lk(mu_);
      outcome.trace.job_id = id_;
      outcome_ = std::move(outcome);
      fulfilled_ = true;
      cb = std::exchange(on_done_, nullptr);
    }
    cv_.notify_all();
    return cb;
  }

 private:
  const std::uint64_t id_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool fulfilled_ = false;
  JobOutcome outcome_;
  std::function<void()> on_done_;
};

}  // namespace randla::runtime
