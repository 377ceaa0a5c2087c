// metrics.hpp — lock-light metrics registry: counters, gauges, and
// fixed log-bucket histograms with per-thread accumulation.
//
// Design: each metric is a slot index into fixed-size per-thread shards
// of relaxed atomics. The hot path (Counter::add, Histogram::observe)
// touches only this thread's shard — each cell has a single writer, so
// updates are plain load/store pairs on relaxed atomics with no CAS and
// no lock. Registration and scraping take the registry mutex; scrape
// sums live shards in place and drains shards whose threads have exited
// into a base array, so dead threads cost nothing after the next scrape.
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

class Registry;

/// Flat (name, value) metric rows: the Stats wire frame's payload and
/// what Snapshot::flatten and the per-instance scrapes produce.
using MetricRows = std::vector<std::pair<std::string, double>>;

/// Monotonic counter (double-valued so flop counts fit). Handles are
/// small value types; default-constructed handles are no-ops.
class Counter {
 public:
  Counter() = default;
  void add(double v);
  void inc() { add(1.0); }
  double value() const;
  explicit operator bool() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Counter(Registry* r, std::uint32_t slot) : reg_(r), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Last-write-wins instantaneous value (queue depth, efficiency).
/// Backed by a single shared atomic, not per-thread shards: a gauge is
/// a point sample, so summing per-thread copies would be meaningless.
class Gauge {
 public:
  Gauge() = default;
  void set(double v);
  void add(double v);  ///< atomic read-modify-write; for up/down counts
  double value() const;
  explicit operator bool() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Gauge(Registry* r, std::uint32_t idx) : reg_(r), idx_(idx) {}
  Registry* reg_ = nullptr;
  std::uint32_t idx_ = 0;
};

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

class Histogram {
 public:
  Histogram() = default;
  void observe(double v);
  explicit operator bool() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Histogram(Registry* r, std::uint32_t slot, std::uint32_t def)
      : reg_(r), slot_(slot), def_(def) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;  ///< first of buckets+2 slots (…, sum, count)
  std::uint32_t def_ = 0;   ///< index into the registry's histogram defs
};

struct HistogramSnapshot {
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
};

/// Point-in-time copy of every metric in a registry.
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

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry used by layer instrumentation. Local
  /// registries (e.g. per-TelemetrySink) isolate their own metrics.
  static Registry& global();

  /// Idempotent: re-registering a name returns the existing handle.
  /// Registering a name under a different kind throws std::logic_error.
  Counter counter(std::string_view name, std::string_view help = {});
  Gauge gauge(std::string_view name, std::string_view help = {});
  Histogram histogram(std::string_view name, HistogramSpec spec = {},
                      std::string_view help = {});

  /// Sum live per-thread shards, fold (drain) shards whose threads have
  /// exited, and return a copy of everything.
  Snapshot scrape();

  /// Zero all values (registrations survive). Test helper.
  void reset();

  struct Impl;  // public so the .cpp's file-local helpers can name it

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;
  Impl* impl_;
};

/// Kernel-profiling master switch. When off (the default), the BLAS
/// hot-path hooks cost one relaxed atomic load. Reads RANDLA_OBS_PROFILE
/// from the environment once at startup; randla_serve --metrics also
/// turns it on.
bool profiling_enabled();
void set_profiling_enabled(bool on);

}  // namespace randla::obs
