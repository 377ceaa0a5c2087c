#include "fault/injector.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/recorder.hpp"
#include "rng/philox.hpp"

namespace randla::fault {

namespace {

constexpr const char* kKindNames[kNumFaultKinds] = {
    "device_fail", "device_stall", "worker_hang",   "job_latency",
    "conn_reset",  "frame_corrupt", "frame_truncate", "write_delay",
};

/// Uniform double in (0,1) from the Philox block at (seed, kind, index):
/// the same 53-bit construction Philox4x32::next_uniform uses, evaluated
/// statelessly so concurrent sites need no shared generator.
double uniform_at(std::uint64_t seed, FaultKind k, std::uint64_t index) {
  const auto block = rng::Philox4x32::at(
      seed, static_cast<std::uint64_t>(k) + 1, index);
  const std::uint64_t bits =
      ((static_cast<std::uint64_t>(block[0]) << 32) | block[1]) >> 11;
  return (static_cast<double>(bits) + 0.5) * (1.0 / 9007199254740992.0);
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kNumFaultKinds ? kKindNames[i] : "?";
}

std::optional<FaultKind> fault_kind_from_name(std::string_view name) {
  for (int i = 0; i < kNumFaultKinds; ++i)
    if (name == kKindNames[i]) return static_cast<FaultKind>(i);
  return std::nullopt;
}

bool FaultConfig::empty() const {
  for (int i = 0; i < kNumFaultKinds; ++i)
    if (probability[static_cast<std::size_t>(i)] > 0 ||
        !steps[static_cast<std::size_t>(i)].empty())
      return false;
  return true;
}

std::optional<FaultConfig> parse_schedule(std::string_view dsl,
                                          std::string* err) {
  auto bad = [&](const std::string& why) -> std::optional<FaultConfig> {
    if (err) *err = why;
    return std::nullopt;
  };
  FaultConfig cfg;
  std::size_t pos = 0;
  while (pos < dsl.size()) {
    std::size_t end = dsl.find(',', pos);
    if (end == std::string_view::npos) end = dsl.size();
    const std::string_view entry = dsl.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    const std::size_t at = entry.find('@');
    const std::size_t colon = entry.find(':');
    if (at == std::string_view::npos && colon == std::string_view::npos)
      return bad("entry '" + std::string(entry) +
                 "' needs '@probability' or ':step'");
    const std::size_t split = std::min(at, colon);
    const std::string_view name = entry.substr(0, split);
    const auto kind = fault_kind_from_name(name);
    if (!kind) return bad("unknown fault kind '" + std::string(name) + "'");
    const auto ki = static_cast<std::size_t>(*kind);

    if (at != std::string_view::npos) {
      if (colon != std::string_view::npos)
        return bad("entry '" + std::string(entry) + "' mixes '@' and ':'");
      const std::string num(entry.substr(at + 1));
      char* endp = nullptr;
      const double p = std::strtod(num.c_str(), &endp);
      if (num.empty() || endp != num.c_str() + num.size() || p < 0 || p > 1)
        return bad("bad probability in '" + std::string(entry) +
                   "' (want 0..1)");
      cfg.probability[ki] = p;
    } else {
      std::string_view rest = entry.substr(colon);
      while (!rest.empty()) {
        rest.remove_prefix(1);  // ':'
        std::size_t stop = rest.find(':');
        if (stop == std::string_view::npos) stop = rest.size();
        const std::string num(rest.substr(0, stop));
        char* endp = nullptr;
        const unsigned long long s = std::strtoull(num.c_str(), &endp, 10);
        if (num.empty() || endp != num.c_str() + num.size() || s == 0)
          return bad("bad step in '" + std::string(entry) +
                     "' (want positive integers)");
        cfg.steps[ki].push_back(s);
        rest.remove_prefix(stop);
      }
      std::sort(cfg.steps[ki].begin(), cfg.steps[ki].end());
    }
  }
  return cfg;
}

FaultInjector::FaultInjector(FaultConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)), seed_(seed) {}

bool FaultInjector::fire(FaultKind k) {
  const auto ki = static_cast<std::size_t>(k);
  // The 1-based decision index; consumed even while disabled so the
  // sequence stays aligned across enable/disable cycles.
  const std::uint64_t n =
      decisions_[ki].fetch_add(1, std::memory_order_relaxed) + 1;
  if (!enabled_.load(std::memory_order_relaxed)) return false;

  bool hit = false;
  if (cfg_.probability[ki] > 0)
    hit = uniform_at(seed_, k, n) < cfg_.probability[ki];
  if (!hit && !cfg_.steps[ki].empty())
    hit = std::binary_search(cfg_.steps[ki].begin(), cfg_.steps[ki].end(), n);
  if (hit) {
    injected_[ki].fetch_add(1, std::memory_order_relaxed);
    obs::Recorder::global().record(obs::EventKind::FaultInjected, 0, 0,
                                   static_cast<std::int64_t>(ki),
                                   static_cast<std::int64_t>(n),
                                   kKindNames[ki]);
  }
  return hit;
}

std::uint64_t FaultInjector::decisions(FaultKind k) const {
  return decisions_[static_cast<std::size_t>(k)].load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected(FaultKind k) const {
  return injected_[static_cast<std::size_t>(k)].load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected_total() const {
  std::uint64_t total = 0;
  for (const auto& c : injected_)
    total += c.load(std::memory_order_relaxed);
  return total;
}

obs::MetricRows FaultInjector::stats_rows() const {
  std::uint64_t decided = 0;
  for (const auto& c : decisions_) decided += c.load(std::memory_order_relaxed);
  obs::MetricRows rows = {{"fault_decisions_total", double(decided)}};
  for (int i = 0; i < kNumFaultKinds; ++i)
    rows.emplace_back(
        std::string("fault_injected_total{kind=\"") + kKindNames[i] + "\"}",
        double(injected(static_cast<FaultKind>(i))));
  return rows;
}

InjectorPtr make_injector(std::string_view dsl, std::uint64_t seed,
                          std::string* err) {
  auto cfg = parse_schedule(dsl, err);
  if (!cfg || cfg->empty()) return nullptr;
  return std::make_shared<FaultInjector>(*cfg, seed);
}

}  // namespace randla::fault
