// slo.hpp — per-instance SLO windows per job kind (DESIGN.md §14).
//
// One histogram per served job kind, all on ONE fixed bucket ladder
// (slo_latency_spec) whose bounds are compile-time constants — every
// process in a cluster exposes bit-identical `le` labels, so a router
// merging shard scrapes can sum buckets by exact name and the merged
// histogram is exact, not an approximation.
//
// Each instance that sees jobs finish owns one SloBook: a scheduler's
// telemetry sink (wait + exec per job) and a router (submit to relayed
// reply). snapshot() derives p50/p99 and the error-budget burn rate per
// kind when it is taken. Burn rate = (violating fraction)/(1-objective):
// 1.0 means the error budget is being consumed exactly at the allowed
// rate; >1 means the budget will be exhausted early.
#pragma once

#include <array>
#include <string_view>

#include "obs/metrics.hpp"

namespace randla::obs {

/// Served job kinds, by wire value (mirrors runtime::JobKind without a
/// runtime dependency — obs sits below runtime in the layering).
inline constexpr int kNumSloKinds = 5;
const char* slo_kind_name(int kind);  ///< "fixed_rank", ... ; "?" if out of range

/// Per-job latency target and the fraction of jobs that must meet it.
inline constexpr double kSloTargetS = 1.0;
inline constexpr double kSloObjective = 0.99;

/// The shared bucket ladder: 100µs first bound, sqrt(2) growth, 40
/// buckets (last +Inf) — ~100µs .. ~80s at ~41% resolution.
HistogramSpec slo_latency_spec();

/// One instance's SLO window. Not synchronized: the owner serializes
/// observe() against p99() and snapshot().
class SloBook {
 public:
  SloBook();

  /// Record one finished job: latency into the kind's histogram, and a
  /// violation when the job failed or exceeded kSloTargetS. Kinds out
  /// of range are ignored.
  void observe(int kind, double latency_s, bool ok);

  /// The kind's p99 latency in seconds; 0 while its window is empty.
  double p99(int kind) const;

  /// Per kind: the `<prefix>latency_seconds` histogram, the
  /// `<prefix>requests_total` / `<prefix>violations_total` counters, and
  /// the `<prefix>p50_seconds`, `<prefix>p99_seconds`, `<prefix>burn_rate`
  /// gauges computed now, every name labeled `{kind="…"}`.
  Snapshot snapshot(std::string_view prefix = "slo_") const;

 private:
  std::array<HistogramSnapshot, kNumSloKinds> latency_;
  std::array<double, kNumSloKinds> violations_{};
};

}  // namespace randla::obs
