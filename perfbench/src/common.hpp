// common.hpp — shared plumbing of the perfbench program: the run report
// (metrics with units, pass/fail accounting), order statistics, process
// memory probes and seed derivation.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "la/permutation.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run prints: the metrics, the op accounting, and
/// free-form context lines (`info <key> <json>`) printed before the
/// final result line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string json) {
    info.emplace_back(std::move(key), std::move(json));
  }
  /// A correctness failure that is not an op failure (e.g. the
  /// faithful-split check): the run's `correct` flag goes false.
  void invalid(const std::string& why);
};

/// Linearly interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 if empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// A workload's fixed tail percentile: the value, its label ("p99") and
/// how many samples lie strictly beyond it.
struct Tail {
  double value = 0;
  std::string label;
  std::size_t beyond = 0;
};
Tail tail(const std::vector<double>& v, int percentile);

/// Resident set (VmRSS) and its high-water mark (VmHWM), MiB.
double rss_mb();
double peak_rss_mb();

/// Independent 64-bit stream value i of `seed` (splitmix64 finalizer).
std::uint64_t derive(std::uint64_t seed, std::uint64_t i);

/// The end-to-end metrics of a --trace 0 run: `lat` holds the verified
/// ops' seconds, `setup` the seconds of each set-up repetition.
void report_end_to_end(const std::vector<double>& lat, double ops_per_s,
                       const std::vector<double>& setup, int tail_pct,
                       Report& rep);

/// The loadgen/process/trace metrics every traced run ends with.
void report_run_layers(const std::vector<double>& lag, double rss_growth_mb,
                       const std::vector<double>& plain_lat,
                       const std::vector<double>& traced_lat, Report& rep);

/// ‖A·P − Q·R‖_F / ‖A‖_F with R = [R1 R2] given as one k×n matrix.
/// `scratch` is resized to A's shape and reused across calls.
double factor_residual(randla::ConstMatrixView<double> a,
                       const randla::Permutation& perm,
                       randla::ConstMatrixView<double> q,
                       randla::ConstMatrixView<double> r,
                       randla::Matrix<double>& scratch);

/// [R1 R2] side by side (k×n) from a truncated QRCP's two blocks.
randla::Matrix<double> join_r(randla::ConstMatrixView<double> r1,
                              randla::ConstMatrixView<double> r2);

bool same_bits(randla::ConstMatrixView<double> x,
               randla::ConstMatrixView<double> y);

Report run_factor_tall(const Args& args);
Report run_serve_mix(const Args& args);
Report run_cluster_hot(const Args& args);

}  // namespace perfbench
