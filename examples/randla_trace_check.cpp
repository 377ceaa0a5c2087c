// randla_trace_check — CI validator for the observability artifacts
// randla_serve writes on exit:
//
//   randla_trace_check <trace.json> <metrics.prom>
//
// Checks (exit 0 only if all pass):
//   1. The trace file is a Chrome trace_event document: a traceEvents
//      array whose events each carry name/ph/ts/pid/tid, with "X"
//      (complete) phases also carrying dur and an args.trace_id.
//   2. At least one trace id forms a full cross-layer chain: a
//      net.submit, a queue.wait, a worker.exec, and at least one
//      rsvd.* span all tagged with the same id.
//   3. The metrics dump contains the server's and scheduler's own rows
//      (net_*_total counters, runtime_queue_depth, runtime_inflight,
//      the batching, failover, cache and arena counters, the SLO
//      latency buckets), each series once and each family typed once,
//      and — since --metrics enables profiling — at least one la_*
//      kernel series.
//
// The trace parser is deliberately line-oriented: chrome_json() emits
// one event object per line, and depending on a JSON library for a CI
// gate would be a heavier dependency than the format warrants.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

int g_failures = 0;

void fail(const std::string& msg) {
  std::fprintf(stderr, "FAIL: %s\n", msg.c_str());
  ++g_failures;
}

/// Value of a `"key": "string"` field on this line, or "" if absent.
std::string str_field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\": \"";
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return {};
  const auto start = pos + pat.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return {};
  return line.substr(start, end - start);
}

bool has_field(const std::string& line, const std::string& key) {
  return line.find("\"" + key + "\":") != std::string::npos;
}

struct SpanChain {
  bool submit = false, wait = false, exec = false, rsvd = false;
  bool complete() const { return submit && wait && exec && rsvd; }
};

void check_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    fail("cannot open trace file " + path);
    return;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  if (text.find("\"traceEvents\"") == std::string::npos) {
    fail("trace file has no traceEvents array");
    return;
  }

  std::map<std::string, SpanChain> chains;
  std::size_t events = 0, bad_events = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string ph = str_field(line, "ph");
    if (ph.empty()) continue;  // array delimiters, not events
    ++events;
    if (!has_field(line, "name") || !has_field(line, "pid") ||
        !has_field(line, "tid") || (ph != "M" && !has_field(line, "ts"))) {
      ++bad_events;
      continue;
    }
    if (ph != "X") continue;  // metadata events carry no span fields
    if (!has_field(line, "dur")) {
      ++bad_events;
      continue;
    }
    const std::string id = str_field(line, "trace_id");
    const std::string name = str_field(line, "name");
    if (id.empty() || name.empty()) {
      ++bad_events;
      continue;
    }
    SpanChain& c = chains[id];
    if (name == "net.submit") c.submit = true;
    if (name == "queue.wait") c.wait = true;
    if (name == "worker.exec") c.exec = true;
    if (name.rfind("rsvd.", 0) == 0) c.rsvd = true;
  }

  if (events == 0) fail("trace file contains no events");
  if (bad_events > 0)
    fail(std::to_string(bad_events) + " events missing required fields");
  std::size_t complete = 0;
  for (const auto& [id, chain] : chains)
    if (chain.complete()) ++complete;
  if (complete == 0)
    fail("no trace id spans the full net.submit -> queue.wait -> "
         "worker.exec -> rsvd.* chain");
  std::printf("trace: %zu events, %zu traced requests, %zu complete "
              "cross-layer chains\n",
              events, chains.size(), complete);
}

void check_metrics(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    fail("cannot open metrics file " + path);
    return;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  const char* required[] = {
      "net_connections_total",
      "net_frames_in_total{type=\"submit\"}",
      "net_jobs_submitted_total",
      "net_jobs_completed_total",
      "net_busy_total",
      "net_decode_errors_total",
      "net_bytes_in_total",
      "net_bytes_out_total",
      "runtime_jobs_total",
      "runtime_queue_depth",
      "runtime_inflight",
      "runtime_batches_total",
      "fault_job_requeued_total",
      "watchdog_fired_total",
      "# TYPE slo_latency_seconds histogram",
      "slo_latency_seconds_bucket",
      "runtime_cache_total",
      "runtime_arena_alloc_total",
  };
  for (const char* name : required)
    if (text.find(name) == std::string::npos)
      fail(std::string("metrics dump missing ") + name);
  // Each serving event is exported once: a series written twice means
  // a second copy of a count crept back in.
  // Likewise each family carries one TYPE line, as the text format
  // requires.
  std::set<std::string> seen, typed;
  std::istringstream series_lines(text);
  for (std::string line; std::getline(series_lines, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string family = line.substr(7, line.find(' ', 7) - 7);
      if (!typed.insert(family).second)
        fail("metrics dump types family " + family + " twice");
    }
    if (line.empty() || line[0] == '#') continue;
    const std::string series = line.substr(0, line.rfind(' '));
    if (!seen.insert(series).second)
      fail("metrics dump writes " + series + " twice");
  }
  // --metrics turns profiling on, so at least one kernel must have
  // reported (every job kind runs gemm somewhere).
  if (text.find("la_gemm_calls_total") == std::string::npos)
    fail("metrics dump has no la_* kernel series (profiling hooks dead?)");
  if (text.find("# TYPE") == std::string::npos)
    fail("metrics dump has no Prometheus TYPE lines");

  std::size_t series = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line))
    if (!line.empty() && line[0] != '#') ++series;
  std::printf("metrics: %zu series\n", series);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <trace.json> <metrics.prom>\n", argv[0]);
    return 2;
  }
  check_trace(argv[1]);
  check_metrics(argv[2]);
  if (g_failures > 0) {
    std::fprintf(stderr, "randla_trace_check: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("randla_trace_check: OK\n");
  return 0;
}
