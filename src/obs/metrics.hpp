// metrics.hpp — metric rows and their exposition.
//
// There is no metrics registry. Each instance that sees an event counts
// it in its own struct or atomics (a server's ServerStats, a scheduler's
// FaultStats, a fault injector's decision counts, a scheduler's kernel
// table) and has one function that emits those counts as rows under
// their Prometheus names (DESIGN.md §9). This header holds what the rows
// share: the flat MetricRows a Stats frame carries, the typed Snapshot
// that renders Prometheus text and JSON, and the log-bucket histogram
// that per-instance SLO windows keep (HistogramSpec ladder,
// HistogramSnapshot buckets and quantiles).
//
// Metric names follow Prometheus conventions; labels are embedded in
// the name string, e.g. `net_frames_in_total{type="submit"}`. The
// exposition layer splits at '{' to group a metric family's TYPE line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace randla::obs {

/// Flat (name, value) metric rows: the Stats wire frame's payload and
/// what Snapshot::flatten and the per-instance scrapes produce.
using MetricRows = std::vector<std::pair<std::string, double>>;

/// Fixed log-spaced bucket layout: bucket i spans
/// (first_upper*growth^(i-1), first_upper*growth^i]; the final bucket
/// is +Inf. Defaults cover 1µs … ~4300s at ~41% resolution, which is
/// fine-grained enough for p50/p90/p99 of serving latencies.
struct HistogramSpec {
  double first_upper = 1e-6;
  double growth = 1.4142135623730951;  // sqrt(2)
  std::uint32_t buckets = 64;          // including the +Inf bucket

  /// The bucket upper bounds (size `buckets`, last +Inf). Every
  /// histogram on a spec takes its bounds from here, so two instances
  /// sharing a spec emit byte-identical `le` labels.
  std::vector<double> upper_bounds() const;
};

/// A histogram's contents: what an instance keeps and what a snapshot
/// carries. Default-constructed it has no buckets; built from a spec it
/// is an empty histogram on that spec's ladder, ready to observe().
struct HistogramSnapshot {
  HistogramSnapshot() = default;
  explicit HistogramSnapshot(const HistogramSpec& spec, std::string name = {});

  std::string name;
  std::string help;
  std::vector<double> upper;  ///< bucket upper bounds; last is +Inf
  std::vector<double> count;  ///< per-bucket counts (not cumulative)
  double sum = 0;
  double total = 0;  ///< total observation count

  /// Approximate quantile (q in [0,1]) by linear interpolation within
  /// the containing bucket. Returns 0 on an empty histogram.
  double quantile(double q) const;
  double mean() const { return total > 0 ? sum / total : 0.0; }

  /// Add one observation. Prometheus `le` semantics: a value equal to
  /// an upper bound lands in that bucket. Not synchronized.
  void observe(double v);
};

/// Point-in-time copy of one instance's metrics, typed for exposition.
struct Snapshot {
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  std::string prometheus() const;  ///< Prometheus text exposition
  std::string json() const;        ///< one JSON object, stable layout
  /// Counter/gauge lookup by exact name; 0 if absent.
  double value(std::string_view name) const;
  /// Flattened (name, value) list: counters, gauges, then per-histogram
  /// `<name>_count` / `<name>_sum` entries. This is what the Stats wire
  /// frame carries. With include_buckets, each histogram additionally
  /// emits cumulative `<base>_bucket{...,le="..."}` rows; the `le`
  /// labels are formatted with a fixed "%.10g" so two processes sharing
  /// a HistogramSpec emit byte-identical names, and a cluster router
  /// can merge shard histograms bucket-by-bucket exactly.
  MetricRows flatten(bool include_buckets = false) const;
};

/// Kernel-profiling master switch. When off (the default), the BLAS
/// hot-path hooks cost one relaxed atomic load. Reads RANDLA_OBS_PROFILE
/// from the environment once at startup; randla_serve --metrics also
/// turns it on.
bool profiling_enabled();
void set_profiling_enabled(bool on);

}  // namespace randla::obs
