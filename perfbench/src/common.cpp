#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "la/blas3.hpp"
#include "la/norms.hpp"

namespace perfbench {

using namespace randla;

void Report::invalid(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - double(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

Tail tail(const std::vector<double>& v, int percentile) {
  Tail t;
  t.label = "p" + std::to_string(percentile);
  t.value = quantile(v, percentile / 100.0);
  t.beyond = static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > t.value; }));
  return t;
}

namespace {

// {"percentile":"p99","samples":N,"beyond":B}
std::string tail_json(const Tail& t, std::size_t samples) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"percentile\":\"%s\",\"samples\":%zu,\"beyond\":%zu}",
                t.label.c_str(), samples, t.beyond);
  return buf;
}

}  // namespace

void report_end_to_end(const std::vector<double>& lat, double ops_per_s,
                       const std::vector<double>& setup, int tail_pct,
                       Report& rep) {
  const Tail t = tail(lat, tail_pct);
  rep.add("ops_per_s", ops_per_s, "1/s");
  rep.add("latency_p50_ms", median(lat) * 1e3, "ms");
  rep.add("latency_tail_ms", t.value * 1e3, "ms");
  rep.add("setup_s", median(setup), "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
  rep.note("latency_tail", tail_json(t, lat.size()));
}

void report_run_layers(const std::vector<double>& lag, double rss_growth_mb,
                       const std::vector<double>& plain_lat,
                       const std::vector<double>& traced_lat, Report& rep) {
  rep.add("loadgen.sched_lag_ms", median(lag) * 1e3, "ms");
  rep.add("proc.rss_growth_mb", rss_growth_mb, "MiB");
  const double p50_plain = median(plain_lat);
  rep.add("trace.overhead_ratio",
          p50_plain > 0 ? median(traced_lat) / p50_plain : 0, "ratio");
}

namespace {

// One "<key>: <n> kB" line of /proc/self/status, in MiB.
double status_mb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen &&
        line[klen] == ':')
      return std::strtod(line.c_str() + klen + 1, nullptr) / 1024.0;
  }
  return 0;
}

}  // namespace

double rss_mb() { return status_mb("VmRSS"); }
double peak_rss_mb() { return status_mb("VmHWM"); }

std::uint64_t derive(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + (i + 1) * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double factor_residual(ConstMatrixView<double> a, const Permutation& perm,
                       ConstMatrixView<double> q, ConstMatrixView<double> r,
                       Matrix<double>& scratch) {
  if (scratch.rows() != a.rows() || scratch.cols() != a.cols())
    scratch.resize(a.rows(), a.cols());
  if (perm.size() != static_cast<std::size_t>(a.cols()) ||
      q.rows() != a.rows() || r.cols() != a.cols() || q.cols() != r.rows())
    return INFINITY;
  apply_column_permutation<double>(a, perm, scratch.view());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0, q, r, 1.0,
                     scratch.view());
  const double na = norm_fro<double>(a);
  return norm_fro<double>(ConstMatrixView<double>(scratch.view())) / na;
}

Matrix<double> join_r(ConstMatrixView<double> r1, ConstMatrixView<double> r2) {
  Matrix<double> r(r1.rows(), r1.cols() + r2.cols());
  r.view().cols_range(0, r1.cols()).copy_from(r1);
  if (r2.cols() > 0)
    r.view().cols_range(r1.cols(), r1.cols() + r2.cols()).copy_from(r2);
  return r;
}

bool same_bits(ConstMatrixView<double> x, ConstMatrixView<double> y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (index_t j = 0; j < x.cols(); ++j)
    if (x.rows() > 0 &&
        std::memcmp(x.col_ptr(j), y.col_ptr(j),
                    sizeof(double) * static_cast<std::size_t>(x.rows())) != 0)
      return false;
  return true;
}

}  // namespace perfbench
