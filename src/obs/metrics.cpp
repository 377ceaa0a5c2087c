#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <unordered_map>

namespace randla::obs {
namespace {

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

HistogramSnapshot::HistogramSnapshot(const HistogramSpec& spec,
                                     std::string hist_name)
    : name(std::move(hist_name)),
      upper(spec.upper_bounds()),
      count(spec.buckets, 0.0) {}

void HistogramSnapshot::observe(double v) {
  const auto it = std::lower_bound(upper.begin(), upper.end(), v);
  count[std::min<std::size_t>(it - upper.begin(), upper.size() - 1)] += 1;
  sum += v;
  total += 1;
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
