// injector.hpp — deterministic fault-injection plane (DESIGN.md §10).
//
// A FaultInjector is the single decision oracle every layer consults at
// its injection sites: the scheduler before running a job (device death,
// transient stalls, worker hangs, artificial latency) and net::Server at
// frame boundaries (connection resets, corrupted/truncated frames,
// delayed writes). Decisions are
// pure functions of (seed, kind, per-kind decision index) through the
// library's Philox4x32 block cipher, so the same seed and schedule
// reproduce the identical injection sequence per kind regardless of
// thread interleaving across kinds — chaos runs are replayable.
//
// Schedules come from a tiny DSL (grammar in DESIGN.md §10):
//
//   schedule  := entry ("," entry)*
//   entry     := kind "@" probability        Bernoulli per decision
//              | kind (":" step)+            fire at exact 1-based
//                                            per-kind decision indices
//
//   e.g.  "device_fail@0.05,conn_reset@0.02"  or  "device_fail:3:10"
//
// Each injector counts its own decisions and fired injections, and
// stats_rows() exports them as `fault_decisions_total` and one
// `fault_injected_total{kind="…"}` row per kind, every row on every
// call, so a chaos run's Stats scrape carries the full fault series
// even before the first injection. A Stats reply carries each injector
// once, however many of the server's layers share it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace randla::fault {

enum class FaultKind : std::uint8_t {
  DeviceFail = 0,    ///< simulated device dies at job pickup
  DeviceStall,       ///< worker sleeps before running a dispatch
  WorkerHang,        ///< job wedges until the watchdog cancels it
  JobLatency,        ///< artificial delay before a job executes
  ConnReset,         ///< server drops the connection at a frame boundary
  FrameCorrupt,      ///< server flips a byte in an outgoing frame
  FrameTruncate,     ///< server sends half a frame, then closes
  WriteDelay,        ///< server stalls before flushing a write
};
inline constexpr int kNumFaultKinds = 8;

const char* fault_kind_name(FaultKind k);
std::optional<FaultKind> fault_kind_from_name(std::string_view name);

/// Parsed schedule plus the magnitude knobs injections use. Magnitudes
/// are deliberately config fields, not DSL syntax: the DSL decides
/// *when*, the config decides *how hard*.
struct FaultConfig {
  std::array<double, kNumFaultKinds> probability{};  ///< 0 = never
  std::array<std::vector<std::uint64_t>, kNumFaultKinds> steps;  ///< 1-based
  double stall_ms = 20;     ///< DeviceStall sleep
  double latency_ms = 10;   ///< JobLatency sleep
  double write_delay_ms = 15;  ///< WriteDelay stall
  double hang_cap_s = 2.0;  ///< WorkerHang gives up if no watchdog fires

  bool empty() const;
};

/// Parse the schedule DSL; nullopt (with a diagnostic in *err) on any
/// malformed entry. An empty string parses to an all-zero config.
std::optional<FaultConfig> parse_schedule(std::string_view dsl,
                                          std::string* err = nullptr);

class FaultInjector {
 public:
  FaultInjector(FaultConfig cfg, std::uint64_t seed);

  /// One decision at an injection site: true = inject now. Thread-safe;
  /// the n-th decision for a kind is deterministic in (seed, kind, n).
  bool fire(FaultKind k);

  /// Master switch (e.g. a chaos driver quiescing faults before its
  /// final stats scrape). Disabled decisions still consume indices so a
  /// re-enabled injector stays on its deterministic sequence.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  const FaultConfig& config() const { return cfg_; }
  std::uint64_t seed() const { return seed_; }

  /// Decisions taken / injections fired so far, per kind and total.
  std::uint64_t decisions(FaultKind k) const;
  std::uint64_t injected(FaultKind k) const;
  std::uint64_t injected_total() const;

  /// `fault_decisions_total` and all kNumFaultKinds
  /// `fault_injected_total{kind="…"}` rows, from this injector's counts.
  obs::MetricRows stats_rows() const;

 private:
  FaultConfig cfg_;
  std::uint64_t seed_;
  std::atomic<bool> enabled_{true};
  std::array<std::atomic<std::uint64_t>, kNumFaultKinds> decisions_{};
  std::array<std::atomic<std::uint64_t>, kNumFaultKinds> injected_{};
};

using InjectorPtr = std::shared_ptr<FaultInjector>;

/// Build an injector from a DSL schedule; nullptr on parse failure
/// (diagnostic in *err) and for an empty/no-op schedule.
InjectorPtr make_injector(std::string_view dsl, std::uint64_t seed,
                          std::string* err = nullptr);

}  // namespace randla::fault
