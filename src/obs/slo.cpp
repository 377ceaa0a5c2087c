#include "obs/slo.hpp"

#include <string>

namespace randla::obs {

namespace {

// Wire order: FixedRank=0, Adaptive=1, Qrcp=2, Rqrcp=3, RqrcpAdaptive=4.
constexpr const char* kKindNames[kNumSloKinds] = {
    "fixed_rank", "adaptive", "qrcp", "rqrcp", "rqrcp_adaptive",
};

std::string labeled(std::string_view prefix, const char* family, int kind) {
  return std::string(prefix) + family + "{kind=\"" + kKindNames[kind] + "\"}";
}

}  // namespace

const char* slo_kind_name(int kind) {
  return kind >= 0 && kind < kNumSloKinds ? kKindNames[kind] : "?";
}

HistogramSpec slo_latency_spec() {
  HistogramSpec spec;
  spec.first_upper = 1e-4;
  spec.growth = 1.4142135623730951;  // sqrt(2): exact double everywhere
  spec.buckets = 40;                 // including +Inf
  return spec;
}

SloBook::SloBook() {
  for (HistogramSnapshot& h : latency_)
    h = HistogramSnapshot(slo_latency_spec());
}

void SloBook::observe(int kind, double latency_s, bool ok) {
  if (kind < 0 || kind >= kNumSloKinds) return;
  latency_[kind].observe(latency_s);
  if (!ok || latency_s > kSloTargetS) violations_[kind] += 1;
}

double SloBook::p99(int kind) const {
  return kind >= 0 && kind < kNumSloKinds ? latency_[kind].quantile(0.99)
                                          : 0.0;
}

Snapshot SloBook::snapshot(std::string_view prefix) const {
  Snapshot s;
  for (int k = 0; k < kNumSloKinds; ++k) {
    const HistogramSnapshot& h = latency_[k];
    s.counters.emplace_back(labeled(prefix, "requests_total", k), h.total);
    s.counters.emplace_back(labeled(prefix, "violations_total", k),
                            violations_[k]);
    s.gauges.emplace_back(labeled(prefix, "p50_seconds", k), h.quantile(0.50));
    s.gauges.emplace_back(labeled(prefix, "p99_seconds", k), h.quantile(0.99));
    const double rate = h.total > 0 ? violations_[k] / h.total : 0.0;
    s.gauges.emplace_back(labeled(prefix, "burn_rate", k),
                          rate / (1.0 - kSloObjective));
    s.histograms.push_back(h);
    s.histograms.back().name = labeled(prefix, "latency_seconds", k);
    s.histograms.back().help = "end-to-end job latency";
  }
  return s;
}

}  // namespace randla::obs
