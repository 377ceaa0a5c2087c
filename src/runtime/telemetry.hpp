// telemetry.hpp — structured per-job traces and run-level aggregation.
//
// Every job the scheduler touches leaves one JobTrace: queue wait,
// execution time, the per-phase PhaseTimes/PhaseFlops breakdown of the
// underlying algorithm, cache disposition, retries, degradation, and
// final status. Traces serialize to one JSON object each (schema in
// README.md §randla_serve) and aggregate into percentile summaries so a
// replayed workload can be judged at a glance.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "rsvd/phases.hpp"
#include "util/stats.hpp"

namespace randla::runtime {

enum class JobKind : std::uint8_t {
  FixedRank,      ///< fixed-rank random sampling (paper Fig. 2)
  Adaptive,       ///< fixed-accuracy adaptive-ℓ sampling (paper Fig. 3)
  Qrcp,           ///< deterministic truncated QP3 baseline
  Rqrcp,          ///< sample-update RQRCP, fixed rank (protocol v4)
  RqrcpAdaptive,  ///< RQRCP fixed-accuracy: rank discovered on the fly
};
const char* job_kind_name(JobKind k);

enum class JobStatus : std::uint8_t {
  Pending,   ///< not yet scheduled
  Done,      ///< finished successfully
  Failed,    ///< threw / could not be completed
  Rejected,  ///< shed at admission (queue past high-water mark)
  Expired,   ///< deadline elapsed before a worker picked it up
};
const char* job_status_name(JobStatus s);

/// How the result cache served (or didn't serve) a job.
enum class CacheDisposition : std::uint8_t {
  None,    ///< not cacheable (adaptive/qp3) or caching disabled
  Miss,    ///< cacheable but computed from scratch (and inserted)
  Sketch,  ///< reused a cached sample B, ran only Steps 2–3
  Result,  ///< full factorization served from cache
};
const char* cache_disposition_name(CacheDisposition d);

/// One record per job, filled in by the scheduler.
struct JobTrace {
  std::uint64_t job_id = 0;
  /// Distributed-trace id carried from the submitting client (obs
  /// spans); 0 when the job was submitted without one.
  std::uint64_t trace_id = 0;
  std::string tag;
  JobKind kind = JobKind::FixedRank;
  JobStatus status = JobStatus::Pending;
  int worker = -1;             ///< device/worker index, -1 if never scheduled
  double submit_s = 0;         ///< seconds since scheduler start
  double queue_wait_s = 0;     ///< admission → worker pickup
  double exec_s = 0;           ///< worker pickup → completion (real)
  double modeled_s = 0;        ///< modeled K40c seconds charged to the device
  rsvd::PhaseTimes phases;     ///< per-phase real breakdown (fixed-rank path)
  rsvd::PhaseFlops flops;
  CacheDisposition cache = CacheDisposition::None;
  int retries = 0;             ///< CholQR-breakdown escalations re-run
  int cholqr_fallbacks = 0;    ///< in-kernel HHQR rescues in the final run
  bool degraded = false;       ///< q lowered to fit the deadline
  index_t q_requested = 0;
  index_t q_used = 0;
  double deadline_s = 0;       ///< effective deadline (0 = none)
  /// Jobs coalesced into the dispatch that ran this job (1 = solo).
  int batch_size = 1;
  std::string error;
};

/// One JSON object (single line, no trailing newline).
std::string to_json(const JobTrace& t);

/// Run-level aggregate over a set of traces.
struct TelemetrySummary {
  std::uint64_t total = 0;
  std::map<std::string, std::uint64_t> by_status;  ///< status name → count
  std::map<std::string, std::uint64_t> by_cache;   ///< disposition → count
  std::uint64_t retries = 0;
  std::uint64_t degraded = 0;
  // Exact percentiles (util::percentile) over completed (Done) jobs.
  double queue_wait_p50 = 0, queue_wait_p90 = 0, queue_wait_p99 = 0;
  double exec_p50 = 0, exec_p90 = 0, exec_p99 = 0;
  /// Mean execution seconds per cache disposition — the cache-hit
  /// speedup is exec_mean[Miss] / exec_mean[Result or Sketch].
  double exec_mean_miss = 0, exec_mean_sketch = 0, exec_mean_result = 0;

  std::string to_json() const;
};

/// Thread-safe trace collector shared by the scheduler's workers.
///
/// Besides the traces, record() keeps this sink's own per-job counts
/// and SLO window under the same mutex; summarize() and metrics() read
/// only this sink, so schedulers sharing a process never see each
/// other's jobs.
class TelemetrySink {
 public:
  void record(JobTrace trace);
  std::vector<JobTrace> traces() const;
  TelemetrySummary summarize() const;
  /// All traces as a JSON array, one object per line.
  std::string traces_json() const;
  /// runtime_jobs_total{status}, runtime_cache_total{disposition},
  /// runtime_retries_total, runtime_degraded_total, and the slo_*
  /// window of end-to-end latency (wait + exec) per job kind.
  obs::Snapshot metrics() const;

 private:
  mutable std::mutex mu_;
  std::vector<JobTrace> traces_;
  std::array<std::uint64_t, std::size_t(JobStatus::Expired) + 1> by_status_{};
  std::array<std::uint64_t, std::size_t(CacheDisposition::Result) + 1>
      by_cache_{};
  std::uint64_t retries_ = 0;
  std::uint64_t degraded_ = 0;
  obs::SloBook slo_;
};

/// Shared percentile helper (see util/stats.hpp); re-exported here
/// because telemetry consumers historically found it in this namespace.
using util::percentile;

}  // namespace randla::runtime
