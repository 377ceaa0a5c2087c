#include "runtime/telemetry.hpp"

#include <cstdio>

#include "obs/recorder.hpp"

namespace randla::runtime {

const char* job_kind_name(JobKind k) {
  switch (k) {
    case JobKind::FixedRank: return "fixed_rank";
    case JobKind::Adaptive: return "adaptive";
    case JobKind::Qrcp: return "qrcp";
    case JobKind::Rqrcp: return "rqrcp";
    case JobKind::RqrcpAdaptive: return "rqrcp_adaptive";
  }
  return "?";
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::Pending: return "pending";
    case JobStatus::Done: return "done";
    case JobStatus::Failed: return "failed";
    case JobStatus::Rejected: return "rejected";
    case JobStatus::Expired: return "expired";
  }
  return "?";
}

const char* cache_disposition_name(CacheDisposition d) {
  switch (d) {
    case CacheDisposition::None: return "none";
    case CacheDisposition::Miss: return "miss";
    case CacheDisposition::Sketch: return "sketch";
    case CacheDisposition::Result: return "result";
  }
  return "?";
}

namespace {

void append_kv(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.6g,", key, v);
  out += buf;
}

void append_kv(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%llu,", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_kv(std::string& out, const char* key, const std::string& v) {
  out += '"';
  out += key;
  out += "\":\"";
  out += escape(v);
  out += "\",";
}

void close_object(std::string& out) {
  if (!out.empty() && out.back() == ',') out.pop_back();
  out += '}';
}

}  // namespace

std::string to_json(const JobTrace& t) {
  std::string out = "{";
  append_kv(out, "job_id", static_cast<std::uint64_t>(t.job_id));
  if (t.trace_id != 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(t.trace_id));
    append_kv(out, "trace_id", std::string(buf));
  }
  append_kv(out, "tag", t.tag);
  append_kv(out, "kind", std::string(job_kind_name(t.kind)));
  append_kv(out, "status", std::string(job_status_name(t.status)));
  append_kv(out, "worker", double(t.worker));
  append_kv(out, "submit_s", t.submit_s);
  append_kv(out, "queue_wait_s", t.queue_wait_s);
  append_kv(out, "exec_s", t.exec_s);
  append_kv(out, "modeled_s", t.modeled_s);
  out += "\"phases\":{";
  append_kv(out, "prng", t.phases.prng);
  append_kv(out, "sampling", t.phases.sampling);
  append_kv(out, "gemm_iter", t.phases.gemm_iter);
  append_kv(out, "orth_iter", t.phases.orth_iter);
  append_kv(out, "qrcp", t.phases.qrcp);
  append_kv(out, "qr", t.phases.qr);
  append_kv(out, "comms", t.phases.comms);
  close_object(out);
  out += ',';
  append_kv(out, "flops", t.flops.total());
  append_kv(out, "cache", std::string(cache_disposition_name(t.cache)));
  append_kv(out, "retries", double(t.retries));
  append_kv(out, "cholqr_fallbacks", double(t.cholqr_fallbacks));
  out += t.degraded ? "\"degraded\":true," : "\"degraded\":false,";
  append_kv(out, "q_requested", double(t.q_requested));
  append_kv(out, "q_used", double(t.q_used));
  append_kv(out, "deadline_s", t.deadline_s);
  append_kv(out, "batch_size", double(t.batch_size));
  if (!t.error.empty()) append_kv(out, "error", t.error);
  close_object(out);
  return out;
}

void TelemetrySink::record(JobTrace trace) {
  // Flight-recorder terminal events. The recorder is the postmortem
  // source of truth, so every job leaves exactly one terminal event
  // here plus the cache/degradation annotations that explain it.
  {
    auto& rec = obs::Recorder::global();
    if (trace.degraded)
      rec.record(obs::EventKind::JobDegraded, trace.job_id, trace.trace_id,
                 trace.q_requested, trace.q_used, trace.tag);
    switch (trace.cache) {
      case CacheDisposition::Sketch:
      case CacheDisposition::Result:
        rec.record(obs::EventKind::CacheHit, trace.job_id, trace.trace_id,
                   static_cast<std::int64_t>(trace.cache), 0, trace.tag);
        break;
      case CacheDisposition::Miss:
        rec.record(obs::EventKind::CacheMiss, trace.job_id, trace.trace_id,
                   0, 0, trace.tag);
        break;
      case CacheDisposition::None: break;
    }
    obs::EventKind terminal = obs::EventKind::JobFailed;
    switch (trace.status) {
      case JobStatus::Done: terminal = obs::EventKind::JobCompleted; break;
      case JobStatus::Failed: terminal = obs::EventKind::JobFailed; break;
      case JobStatus::Rejected: terminal = obs::EventKind::JobRejected; break;
      case JobStatus::Expired: terminal = obs::EventKind::JobExpired; break;
      case JobStatus::Pending: break;  // never recorded as terminal
    }
    if (trace.status != JobStatus::Pending)
      rec.record(terminal, trace.job_id, trace.trace_id,
                 static_cast<std::int64_t>(trace.cache), trace.batch_size,
                 trace.tag);
  }

  std::lock_guard<std::mutex> lk(mu_);
  ++by_status_[std::size_t(trace.status)];
  ++by_cache_[std::size_t(trace.cache)];
  retries_ += static_cast<std::uint64_t>(trace.retries);
  if (trace.degraded) ++degraded_;
  // JobKind wire values match the obs SLO kind indices by construction.
  slo_.observe(static_cast<int>(trace.kind), trace.queue_wait_s + trace.exec_s,
               trace.status == JobStatus::Done);
  traces_.push_back(std::move(trace));
}

obs::Snapshot TelemetrySink::metrics() const {
  std::lock_guard<std::mutex> lk(mu_);
  obs::Snapshot s = slo_.snapshot();
  auto& c = s.counters;
  for (std::size_t i = 0; i < by_status_.size(); ++i)
    c.emplace_back(std::string("runtime_jobs_total{status=\"") +
                       job_status_name(JobStatus(i)) + "\"}",
                   double(by_status_[i]));
  for (std::size_t i = 0; i < by_cache_.size(); ++i)
    c.emplace_back(std::string("runtime_cache_total{disposition=\"") +
                       cache_disposition_name(CacheDisposition(i)) + "\"}",
                   double(by_cache_[i]));
  c.emplace_back("runtime_retries_total", double(retries_));
  c.emplace_back("runtime_degraded_total", double(degraded_));
  return s;
}

std::vector<JobTrace> TelemetrySink::traces() const {
  std::lock_guard<std::mutex> lk(mu_);
  return traces_;
}

std::string TelemetrySink::traces_json() const {
  const auto all = traces();
  std::string out = "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    out += "\n  ";
    out += to_json(all[i]);
    if (i + 1 < all.size()) out += ',';
  }
  out += "\n]";
  return out;
}

TelemetrySummary TelemetrySink::summarize() const {
  const auto all = traces();
  TelemetrySummary s;
  s.total = all.size();
  // Latency distributions over Done jobs, exact from the traces.
  std::vector<double> wait, exec;
  std::array<double, std::size_t(CacheDisposition::Result) + 1> sum{};
  std::array<std::size_t, std::size_t(CacheDisposition::Result) + 1> n{};
  for (const auto& t : all) {
    ++s.by_status[job_status_name(t.status)];
    ++s.by_cache[cache_disposition_name(t.cache)];
    s.retries += static_cast<std::uint64_t>(t.retries);
    if (t.degraded) ++s.degraded;
    if (t.status != JobStatus::Done) continue;
    wait.push_back(t.queue_wait_s);
    exec.push_back(t.exec_s);
    sum[std::size_t(t.cache)] += t.exec_s;
    ++n[std::size_t(t.cache)];
  }
  s.queue_wait_p50 = util::percentile(wait, 50);
  s.queue_wait_p90 = util::percentile(wait, 90);
  s.queue_wait_p99 = util::percentile(wait, 99);
  s.exec_p50 = util::percentile(exec, 50);
  s.exec_p90 = util::percentile(exec, 90);
  s.exec_p99 = util::percentile(exec, 99);
  const auto mean = [&](CacheDisposition d) {
    const std::size_t i = std::size_t(d);
    return n[i] > 0 ? sum[i] / double(n[i]) : 0.0;
  };
  s.exec_mean_miss = mean(CacheDisposition::Miss);
  s.exec_mean_sketch = mean(CacheDisposition::Sketch);
  s.exec_mean_result = mean(CacheDisposition::Result);
  return s;
}

std::string TelemetrySummary::to_json() const {
  std::string out = "{";
  append_kv(out, "total", total);
  out += "\"by_status\":{";
  for (const auto& [k, v] : by_status) append_kv(out, k.c_str(), v);
  close_object(out);
  out += ",\"by_cache\":{";
  for (const auto& [k, v] : by_cache) append_kv(out, k.c_str(), v);
  close_object(out);
  out += ',';
  append_kv(out, "retries", retries);
  append_kv(out, "degraded", degraded);
  append_kv(out, "queue_wait_p50", queue_wait_p50);
  append_kv(out, "queue_wait_p90", queue_wait_p90);
  append_kv(out, "queue_wait_p99", queue_wait_p99);
  append_kv(out, "exec_p50", exec_p50);
  append_kv(out, "exec_p90", exec_p90);
  append_kv(out, "exec_p99", exec_p99);
  append_kv(out, "exec_mean_miss", exec_mean_miss);
  append_kv(out, "exec_mean_sketch", exec_mean_sketch);
  append_kv(out, "exec_mean_result", exec_mean_result);
  close_object(out);
  return out;
}

}  // namespace randla::runtime
