#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace randla::obs {
namespace {

// Fixed shard capacity so a shard's cell array never reallocates while
// another thread is scraping it. 4096 doubles = 32 KiB per thread per
// registry; registration past the cap throws (it means a metric is
// being minted per-request, which is a bug, not a workload).
constexpr std::uint32_t kMaxSlots = 4096;

struct Shard {
  std::atomic<double> cells[kMaxSlots];
  std::atomic<bool> retired{false};
  Shard() {
    for (auto& c : cells) c.store(0.0, std::memory_order_relaxed);
  }
};

// Single-writer relaxed accumulate: each cell is written only by the
// owning thread, so a plain load+store pair is race-free and avoids the
// CAS loop std::atomic<double>::fetch_add would compile to.
inline void bump(std::atomic<double>& cell, double v) {
  cell.store(cell.load(std::memory_order_relaxed) + v,
             std::memory_order_relaxed);
}

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

struct MetricDef {
  std::string name;
  std::string help;
  Kind kind;
  std::uint32_t slot = 0;  // first shard slot (counters, histograms)
  std::uint32_t idx = 0;   // gauge index / histogram def index
};

struct HistogramDef {
  HistogramSpec spec;
  std::vector<double> upper;  // size == spec.buckets; last is +Inf
};

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void json_escape(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// "net_frames_in_total{type=\"submit\"}" -> base, inner labels (no braces).
void split_labels(std::string_view name, std::string_view& base,
                  std::string_view& labels) {
  const auto brace = name.find('{');
  if (brace == std::string_view::npos) {
    base = name;
    labels = {};
    return;
  }
  base = name.substr(0, brace);
  labels = name.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') labels.remove_suffix(1);
}

}  // namespace

struct Registry::Impl {
  std::mutex mu;
  std::uint64_t id = 0;
  std::vector<MetricDef> metrics;  // registration order drives exposition
  std::unordered_map<std::string, std::size_t> index;
  std::uint32_t next_slot = 0;
  std::vector<double> base;  // drained totals from retired shards
  std::vector<std::shared_ptr<Shard>> shards;
  std::deque<std::atomic<double>> gauges;  // deque: grows without moving
  std::deque<HistogramDef> hists;  // deque: observe() reads without mu

  // Sum of base plus every shard (caller holds mu).
  double slot_total(std::uint32_t slot) const {
    double v = slot < base.size() ? base[slot] : 0.0;
    for (const auto& s : shards)
      v += s->cells[slot].load(std::memory_order_relaxed);
    return v;
  }

  void drain_retired() {  // caller holds mu
    auto it = shards.begin();
    while (it != shards.end()) {
      if ((*it)->retired.load(std::memory_order_acquire)) {
        if (base.size() < next_slot) base.resize(next_slot, 0.0);
        for (std::uint32_t s = 0; s < next_slot; ++s)
          base[s] += (*it)->cells[s].load(std::memory_order_relaxed);
        it = shards.erase(it);
      } else {
        ++it;
      }
    }
  }
};

namespace {

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Per-thread shard directory. On thread exit the destructor marks each
// shard retired; the shard itself stays alive via the shared_ptr until
// the registry drains it on the next scrape, so no value is ever lost
// and a dying registry never has to chase other threads' thread_locals.
struct ThreadEntry {
  std::uint64_t reg_id;
  Shard* shard;
  std::shared_ptr<Shard> owner;
};

struct ThreadShards {
  std::vector<ThreadEntry> entries;
  ~ThreadShards() {
    for (auto& e : entries)
      e.owner->retired.store(true, std::memory_order_release);
  }
};

thread_local ThreadShards t_shards;

Shard* local_shard(Registry::Impl* impl) {
  for (auto& e : t_shards.entries)
    if (e.reg_id == impl->id) return e.shard;
  auto sp = std::make_shared<Shard>();
  {
    std::lock_guard<std::mutex> lock(impl->mu);
    impl->shards.push_back(sp);
  }
  t_shards.entries.push_back({impl->id, sp.get(), sp});
  return t_shards.entries.back().shard;
}

}  // namespace

Registry::Registry() : impl_(new Impl) { impl_->id = next_registry_id(); }

Registry::~Registry() { delete impl_; }

Registry& Registry::global() {
  static Registry reg;
  return reg;
}

Counter Registry::counter(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->index.find(std::string(name));
  if (it != impl_->index.end()) {
    const MetricDef& def = impl_->metrics[it->second];
    if (def.kind != Kind::kCounter)
      throw std::logic_error("obs: metric kind mismatch for " +
                             std::string(name));
    return Counter(this, def.slot);
  }
  if (impl_->next_slot + 1 > kMaxSlots)
    throw std::logic_error("obs: registry slot capacity exceeded");
  MetricDef def;
  def.name = std::string(name);
  def.help = std::string(help);
  def.kind = Kind::kCounter;
  def.slot = impl_->next_slot++;
  impl_->index.emplace(def.name, impl_->metrics.size());
  impl_->metrics.push_back(std::move(def));
  return Counter(this, impl_->metrics.back().slot);
}

Gauge Registry::gauge(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->index.find(std::string(name));
  if (it != impl_->index.end()) {
    const MetricDef& def = impl_->metrics[it->second];
    if (def.kind != Kind::kGauge)
      throw std::logic_error("obs: metric kind mismatch for " +
                             std::string(name));
    return Gauge(this, def.idx);
  }
  MetricDef def;
  def.name = std::string(name);
  def.help = std::string(help);
  def.kind = Kind::kGauge;
  def.idx = static_cast<std::uint32_t>(impl_->gauges.size());
  impl_->gauges.emplace_back(0.0);
  impl_->index.emplace(def.name, impl_->metrics.size());
  impl_->metrics.push_back(std::move(def));
  return Gauge(this, impl_->metrics.back().idx);
}

std::vector<double> HistogramSpec::upper_bounds() const {
  std::vector<double> upper(buckets);
  double u = first_upper;
  for (std::uint32_t i = 0; i + 1 < buckets; ++i) {
    upper[i] = u;
    u *= growth;
  }
  upper[buckets - 1] = std::numeric_limits<double>::infinity();
  return upper;
}

Histogram Registry::histogram(std::string_view name, HistogramSpec spec,
                              std::string_view help) {
  if (spec.buckets < 2 || spec.first_upper <= 0 || spec.growth <= 1.0)
    throw std::logic_error("obs: invalid histogram spec for " +
                           std::string(name));
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->index.find(std::string(name));
  if (it != impl_->index.end()) {
    const MetricDef& def = impl_->metrics[it->second];
    if (def.kind != Kind::kHistogram)
      throw std::logic_error("obs: metric kind mismatch for " +
                             std::string(name));
    return Histogram(this, def.slot, def.idx);
  }
  const std::uint32_t slots = spec.buckets + 2;  // buckets, sum, count
  if (impl_->next_slot + slots > kMaxSlots)
    throw std::logic_error("obs: registry slot capacity exceeded");
  HistogramDef hdef;
  hdef.spec = spec;
  hdef.upper = spec.upper_bounds();
  MetricDef def;
  def.name = std::string(name);
  def.help = std::string(help);
  def.kind = Kind::kHistogram;
  def.slot = impl_->next_slot;
  def.idx = static_cast<std::uint32_t>(impl_->hists.size());
  impl_->next_slot += slots;
  impl_->hists.push_back(std::move(hdef));
  impl_->index.emplace(def.name, impl_->metrics.size());
  impl_->metrics.push_back(std::move(def));
  return Histogram(this, impl_->metrics.back().slot,
                   impl_->metrics.back().idx);
}

void Counter::add(double v) {
  if (!reg_) return;
  bump(local_shard(reg_->impl_)->cells[slot_], v);
}

double Counter::value() const {
  if (!reg_) return 0;
  std::lock_guard<std::mutex> lock(reg_->impl_->mu);
  return reg_->impl_->slot_total(slot_);
}

void Gauge::set(double v) {
  if (!reg_) return;
  reg_->impl_->gauges[idx_].store(v, std::memory_order_relaxed);
}

void Gauge::add(double v) {
  if (!reg_) return;
  auto& cell = reg_->impl_->gauges[idx_];
  double cur = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

double Gauge::value() const {
  if (!reg_) return 0;
  return reg_->impl_->gauges[idx_].load(std::memory_order_relaxed);
}

void Histogram::observe(double v) {
  if (!reg_) return;
  Registry::Impl* impl = reg_->impl_;
  Shard* shard = local_shard(impl);
  // The def's bound array is immutable after registration, so reading
  // it without the registry mutex is safe.
  const HistogramDef& def = impl->hists[def_];
  const auto it = std::lower_bound(def.upper.begin(), def.upper.end(), v);
  const auto bucket = static_cast<std::uint32_t>(it - def.upper.begin());
  bump(shard->cells[slot_ + std::min(bucket, def.spec.buckets - 1)], 1.0);
  bump(shard->cells[slot_ + def.spec.buckets], v);       // sum
  bump(shard->cells[slot_ + def.spec.buckets + 1], 1.0); // count
}

double HistogramSnapshot::quantile(double q) const {
  if (total <= 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * total;
  double cum = 0;
  for (std::size_t i = 0; i < count.size(); ++i) {
    if (count[i] <= 0) continue;
    if (cum + count[i] >= rank) {
      const double lower = i == 0 ? 0.0 : upper[i - 1];
      const double hi = upper[i];
      if (!std::isfinite(hi)) return lower;  // +Inf bucket: report floor
      const double frac = count[i] > 0 ? (rank - cum) / count[i] : 0.0;
      return lower + (hi - lower) * std::clamp(frac, 0.0, 1.0);
    }
    cum += count[i];
  }
  for (std::size_t i = upper.size(); i-- > 0;)
    if (std::isfinite(upper[i])) return upper[i];
  return 0;
}

Snapshot Registry::scrape() {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->drain_retired();
  for (const MetricDef& def : impl_->metrics) {
    switch (def.kind) {
      case Kind::kCounter:
        snap.counters.emplace_back(def.name, impl_->slot_total(def.slot));
        break;
      case Kind::kGauge:
        snap.gauges.emplace_back(
            def.name,
            impl_->gauges[def.idx].load(std::memory_order_relaxed));
        break;
      case Kind::kHistogram: {
        const HistogramDef& hdef = impl_->hists[def.idx];
        HistogramSnapshot h;
        h.name = def.name;
        h.help = def.help;
        h.upper = hdef.upper;
        h.count.resize(hdef.spec.buckets);
        for (std::uint32_t i = 0; i < hdef.spec.buckets; ++i)
          h.count[i] = impl_->slot_total(def.slot + i);
        h.sum = impl_->slot_total(def.slot + hdef.spec.buckets);
        h.total = impl_->slot_total(def.slot + hdef.spec.buckets + 1);
        snap.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::fill(impl_->base.begin(), impl_->base.end(), 0.0);
  for (auto& shard : impl_->shards)
    for (std::uint32_t s = 0; s < impl_->next_slot; ++s)
      shard->cells[s].store(0.0, std::memory_order_relaxed);
  for (auto& g : impl_->gauges) g.store(0.0, std::memory_order_relaxed);
}

namespace {

const std::string& row_name(const std::pair<std::string, double>& row) {
  return row.first;
}
const std::string& row_name(const HistogramSnapshot& h) { return h.name; }

// Row indices with each family's rows moved up behind its first row,
// families in first-seen order: the text format allows one TYPE line per
// family, and labeled families often arrive interleaved.
template <class Rows>
std::vector<std::size_t> family_order(const Rows& rows) {
  std::vector<std::string_view> family(rows.size());
  std::unordered_map<std::string_view, std::size_t> first;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::string_view labels;
    split_labels(row_name(rows[i]), family[i], labels);
    first.emplace(family[i], i);
  }
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t(0));
  std::stable_sort(order.begin(), order.end(), [&](auto x, auto y) {
    return first[family[x]] < first[family[y]];
  });
  return order;
}

}  // namespace

std::string Snapshot::prometheus() const {
  std::string out;
  auto emit_header = [&out](std::string_view base, std::string_view help,
                            const char* type, std::string& last) {
    if (last == base) return;
    last = std::string(base);
    if (!help.empty()) {
      out += "# HELP ";
      out += base;
      out += ' ';
      out += help;
      out += '\n';
    }
    out += "# TYPE ";
    out += base;
    out += ' ';
    out += type;
    out += '\n';
  };
  std::string last;
  for (const std::size_t i : family_order(counters)) {
    const auto& [name, value] = counters[i];
    std::string_view base, labels;
    split_labels(name, base, labels);
    emit_header(base, {}, "counter", last);
    out += name;
    out += ' ';
    out += fmt_double(value);
    out += '\n';
  }
  for (const std::size_t i : family_order(gauges)) {
    const auto& [name, value] = gauges[i];
    std::string_view base, labels;
    split_labels(name, base, labels);
    emit_header(base, {}, "gauge", last);
    out += name;
    out += ' ';
    out += fmt_double(value);
    out += '\n';
  }
  for (const std::size_t hi : family_order(histograms)) {
    const HistogramSnapshot& h = histograms[hi];
    std::string_view base, labels;
    split_labels(h.name, base, labels);
    emit_header(base, h.help, "histogram", last);
    double cum = 0;
    for (std::size_t i = 0; i < h.upper.size(); ++i) {
      cum += h.count[i];
      out += base;
      out += "_bucket{";
      if (!labels.empty()) {
        out += labels;
        out += ',';
      }
      out += "le=\"";
      out += std::isfinite(h.upper[i]) ? fmt_double(h.upper[i]) : "+Inf";
      out += "\"} ";
      out += fmt_double(cum);
      out += '\n';
    }
    auto scalar = [&](const char* suffix, double v) {
      out += base;
      out += suffix;
      if (!labels.empty()) {
        out += '{';
        out += labels;
        out += '}';
      }
      out += ' ';
      out += fmt_double(v);
      out += '\n';
    };
    scalar("_sum", h.sum);
    scalar("_count", h.total);
  }
  return out;
}

std::string Snapshot::json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape(out, name);
    out += "\": ";
    out += fmt_double(value);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape(out, name);
    out += "\": ";
    out += fmt_double(value);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const HistogramSnapshot& h : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape(out, h.name);
    out += "\": {\"count\": ";
    out += fmt_double(h.total);
    out += ", \"sum\": ";
    out += fmt_double(h.sum);
    out += ", \"p50\": ";
    out += fmt_double(h.quantile(0.50));
    out += ", \"p90\": ";
    out += fmt_double(h.quantile(0.90));
    out += ", \"p99\": ";
    out += fmt_double(h.quantile(0.99));
    out += "}";
  }
  out += "\n  }\n}\n";
  return out;
}

double Snapshot::value(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  for (const auto& [n, v] : gauges)
    if (n == name) return v;
  return 0;
}

MetricRows Snapshot::flatten(bool include_buckets) const {
  MetricRows out;
  out.reserve(counters.size() + gauges.size() + 2 * histograms.size());
  out.insert(out.end(), counters.begin(), counters.end());
  out.insert(out.end(), gauges.begin(), gauges.end());
  for (const HistogramSnapshot& h : histograms) {
    // Prometheus name grammar: the _count/_sum/_bucket suffix attaches
    // to the base name, BEFORE any label set — `x_count{kind="a"}`,
    // never `x{kind="a"}_count`. Getting this wrong would make labeled
    // histogram rows invisible to the cluster stats merge, which keys
    // on the suffix of the label-stripped name.
    std::string_view base, labels;
    split_labels(h.name, base, labels);
    const std::string wrap =
        labels.empty() ? "" : "{" + std::string(labels) + "}";
    out.emplace_back(std::string(base) + "_count" + wrap, h.total);
    out.emplace_back(std::string(base) + "_sum" + wrap, h.sum);
    if (!include_buckets) continue;
    double cum = 0;
    for (std::size_t i = 0; i < h.upper.size(); ++i) {
      cum += h.count[i];
      std::string name(base);
      name += "_bucket{";
      if (!labels.empty()) {
        name += labels;
        name += ',';
      }
      name += "le=\"";
      name += std::isfinite(h.upper[i]) ? fmt_double(h.upper[i]) : "+Inf";
      name += "\"}";
      out.emplace_back(std::move(name), cum);
    }
  }
  return out;
}

namespace {
std::atomic<bool>& profiling_flag() {
  static std::atomic<bool> flag([] {
    const char* env = std::getenv("RANDLA_OBS_PROFILE");
    return env && *env && *env != '0';
  }());
  return flag;
}
}  // namespace

bool profiling_enabled() {
  return profiling_flag().load(std::memory_order_relaxed);
}

void set_profiling_enabled(bool on) {
  profiling_flag().store(on, std::memory_order_relaxed);
}

}  // namespace randla::obs
