// randla_postmortem — flight-recorder dump reader (DESIGN.md §14).
//
// Turns the JSON postmortems written by obs::Recorder (crash handler,
// watchdog RANDLA_POSTMORTEM_PATH dumps, the Dump protocol verb, and the
// router's cluster-merged fan-out) back into human-readable incident
// timelines:
//
//   randla_postmortem DUMP.json [flags]
//   randla_postmortem --live HOST:PORT [flags]     # Dump verb over TCP
//
//   --timelines N       print the N slowest per-job event timelines (0 = none)
//   --job TAG           print every event for one job tag
//   --require-complete  exit nonzero unless every accepted job reached a
//                       terminal event exactly once (the chaos-stage gate:
//                       0 unaccounted, 0 duplicated)
//
// The dump format is the recorder's own — one event object per line —
// so the parser is deliberately line-oriented and dependency-free. A
// cluster-merged dump concatenates several per-process dumps; the
// "source" header of each section labels the events that follow, and
// CLOCK_REALTIME timestamps plus Philox stamps make the merge a single
// total order.
//
// Accounting rules match randla_cluster's duplicate detector: a job's
// identity is its tag (job ids are per-process); a tag *executed* when
// it completed with cache disposition None or Miss; "/hedge" tags
// (router replica and hedge legs) are deliberate duplicates and exempt. A tag with an accept but no terminal
// event is unaccounted — after a shard SIGKILL, retried jobs re-execute
// on survivors, so a healthy cluster postmortem shows 0 unaccounted.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/client.hpp"

namespace {

struct Ev {
  double ts = 0;
  std::uint64_t seq = 0;
  std::string source;
  std::string kind;
  std::uint64_t job = 0;
  std::string trace;
  long long a = 0, b = 0;
  std::string tag;
};

/// Extract the number right after `key` in `line`; nullopt when absent.
std::optional<double> num_after(const std::string& line, const char* key) {
  const std::size_t pos = line.find(key);
  if (pos == std::string::npos) return std::nullopt;
  return std::strtod(line.c_str() + pos + std::strlen(key), nullptr);
}

/// Extract the quoted string right after `key`.
std::optional<std::string> str_after(const std::string& line,
                                     const char* key) {
  const std::size_t pos = line.find(key);
  if (pos == std::string::npos) return std::nullopt;
  const std::size_t start = pos + std::strlen(key);
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) return std::nullopt;
  return line.substr(start, end - start);
}

struct Dump {
  std::vector<Ev> events;
  std::vector<std::string> sources;
  int stale_shards = 0;
};

/// Line-oriented parse of a recorder dump (single-process or the
/// router's `{"stale_shards":..,"sources":[..]}` merge). The format is
/// the recorder's own, so a full JSON parser would be overkill — every
/// event lives on one line and every header line carries "source".
Dump parse_dump(const std::string& text) {
  Dump d;
  std::string source = "?";
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (auto stale = num_after(line, "\"stale_shards\":"))
      d.stale_shards = static_cast<int>(*stale);
    if (auto src = str_after(line, "\"source\":\"")) {
      source = src->empty() ? "?" : *src;
      d.sources.push_back(source);
    }
    const auto ts = num_after(line, "{\"ts\":");
    if (!ts) continue;  // not an event line
    Ev e;
    e.ts = *ts;
    e.source = source;
    e.seq = static_cast<std::uint64_t>(num_after(line, "\"seq\":").value_or(0));
    e.kind = str_after(line, "\"kind\":\"").value_or("?");
    e.job = static_cast<std::uint64_t>(num_after(line, "\"job\":").value_or(0));
    e.trace = str_after(line, "\"trace\":\"").value_or("0");
    e.a = static_cast<long long>(num_after(line, "\"a\":").value_or(0));
    e.b = static_cast<long long>(num_after(line, "\"b\":").value_or(0));
    e.tag = str_after(line, "\"tag\":\"").value_or("");
    d.events.push_back(std::move(e));
  }
  std::sort(d.events.begin(), d.events.end(), [](const Ev& x, const Ev& y) {
    if (x.ts != y.ts) return x.ts < y.ts;
    return x.seq < y.seq;
  });
  return d;
}

bool terminal_kind(const std::string& k) {
  return k == "job_completed" || k == "job_failed" || k == "job_rejected" ||
         k == "job_expired";
}

/// Per-job reconstruction keyed by tag (the only identity stable across
/// retries and shards; untagged events key on source/job id).
struct Job {
  std::vector<const Ev*> events;
  double accept_ts = 0, dispatch_ts = 0, terminal_ts = 0;
  int executions = 0;  ///< completions that actually ran (cache None/Miss)
  bool accepted = false, terminated = false;
};

std::string job_key(const Ev& e) {
  if (!e.tag.empty()) return e.tag;
  return e.source + "/#" + std::to_string(e.job);
}

void print_timeline(const std::string& key, const Job& j, double t0) {
  std::printf("  %s\n", key.c_str());
  for (const Ev* e : j.events) {
    std::printf("    %+9.3fms  %-18s %-10s job=%llu a=%lld b=%lld\n",
                (e->ts - t0) * 1e3, e->kind.c_str(), e->source.c_str(),
                (unsigned long long)e->job, e->a, e->b);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path, live, focus;
  int timelines = 3;
  bool require_complete = false;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--live")) live = need("--live");
    else if (!std::strcmp(argv[i], "--timelines")) timelines = std::atoi(need("--timelines"));
    else if (!std::strcmp(argv[i], "--job")) focus = need("--job");
    else if (!std::strcmp(argv[i], "--require-complete")) require_complete = true;
    else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    } else path = argv[i];
  }
  if (path.empty() == live.empty()) {
    std::fprintf(stderr,
                 "usage: randla_postmortem DUMP.json [--timelines N] "
                 "[--job TAG] [--require-complete]\n"
                 "       randla_postmortem --live HOST:PORT [flags]\n");
    return 2;
  }

  std::string text;
  if (!live.empty()) {
    const std::size_t colon = live.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "postmortem: --live wants HOST:PORT\n");
      return 2;
    }
    randla::net::ClientOptions copt;
    copt.host = live.substr(0, colon);
    copt.port = static_cast<std::uint16_t>(std::atoi(live.c_str() + colon + 1));
    randla::net::Client client(copt);
    if (!client.connect()) {
      std::fprintf(stderr, "postmortem: connect %s: %s\n", live.c_str(),
                   client.last_error().c_str());
      return 1;
    }
    auto dump = client.dump();
    if (!dump) {
      std::fprintf(stderr, "postmortem: Dump verb failed: %s\n",
                   client.last_error().c_str());
      return 1;
    }
    text = std::move(*dump);
  } else {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) {
      std::fprintf(stderr, "postmortem: cannot open %s\n", path.c_str());
      return 1;
    }
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
  }

  const Dump d = parse_dump(text);
  if (d.events.empty()) {
    std::fprintf(stderr, "postmortem: no events in %s\n",
                 live.empty() ? path.c_str() : live.c_str());
    return require_complete ? 1 : 0;
  }
  const double t0 = d.events.front().ts;
  const double span = d.events.back().ts - t0;

  std::printf("postmortem: %zu events from %zu source(s), %.3fs span",
              d.events.size(), d.sources.size(), span);
  if (d.stale_shards > 0) std::printf(", %d stale shard(s)", d.stale_shards);
  std::printf("\n  sources:");
  for (const auto& s : d.sources) std::printf(" %s", s.c_str());
  std::printf("\n");

  // ------------------------------------------------------------------
  // Event census + per-job reconstruction.
  std::map<std::string, int> by_kind;
  std::map<std::string, Job> jobs;
  std::vector<const Ev*> incidents;  // membership, watchdog, faults, breakers
  for (const Ev& e : d.events) {
    ++by_kind[e.kind];
    if (e.kind == "shard_down" || e.kind == "shard_up" ||
        e.kind == "watchdog_fired" || e.kind == "breaker_transition" ||
        e.kind == "fault_injected")
      incidents.push_back(&e);
    if (e.kind.rfind("job_", 0) != 0) continue;
    Job& j = jobs[job_key(e)];
    j.events.push_back(&e);
    if (e.kind == "job_accepted") {
      j.accepted = true;
      if (j.accept_ts == 0) j.accept_ts = e.ts;
    } else if (e.kind == "job_dispatched" || e.kind == "job_batched") {
      if (j.dispatch_ts == 0) j.dispatch_ts = e.ts;
    } else if (terminal_kind(e.kind)) {
      j.terminated = true;
      j.terminal_ts = e.ts;
      // cache disposition rides in `a`: 0 = None, 1 = Miss mean the job
      // actually ran; 2/3 (Sketch/Result hits) served from cache.
      if (e.kind == "job_completed" && (e.a == 0 || e.a == 1)) ++j.executions;
    }
  }

  std::printf("  census: ");
  for (const auto& [k, n] : by_kind) std::printf("%s=%d ", k.c_str(), n);
  std::printf("\n");

  // ------------------------------------------------------------------
  // Accounting: accepted vs terminal, genuine double executions.
  int accepted = 0, completed = 0, unaccounted = 0, duplicated = 0;
  std::vector<std::string> unaccounted_keys, duplicated_keys;
  for (const auto& [key, j] : jobs) {
    if (!j.accepted) continue;  // e.g. degraded/cache events of foreign jobs
    ++accepted;
    if (j.terminated) ++completed;
    else {
      ++unaccounted;
      unaccounted_keys.push_back(key);
    }
    if (j.executions > 1 && !key.ends_with("/hedge")) {
      ++duplicated;
      duplicated_keys.push_back(key);
    }
  }
  std::printf("  jobs: %d accepted, %d reached a terminal event, "
              "%d unaccounted, %d duplicated\n",
              accepted, completed, unaccounted, duplicated);
  for (const auto& k : unaccounted_keys)
    std::printf("    UNACCOUNTED %s\n", k.c_str());
  for (const auto& k : duplicated_keys)
    std::printf("    DUPLICATED  %s\n", k.c_str());

  // ------------------------------------------------------------------
  // Critical-path attribution: where did completed jobs spend their
  // lifetime — queue wait (accept → first dispatch) or execution
  // (dispatch → terminal)?
  double wait_sum = 0, exec_sum = 0, worst_total = 0;
  int attributed = 0;
  std::vector<std::pair<double, const std::string*>> slowest;
  for (const auto& [key, j] : jobs) {
    if (!j.accepted || !j.terminated || j.dispatch_ts == 0) continue;
    // A worker can pop and record the dispatch before the submitting
    // thread records the accept (the recorder is lock-free, not fenced
    // across threads), so µs-scale negative waits are normal — clamp
    // them. Skip only gross negatives, which mean clock skew between
    // merged processes.
    const double wait = std::max(0.0, j.dispatch_ts - j.accept_ts);
    const double exec = std::max(0.0, j.terminal_ts - j.dispatch_ts);
    if (j.dispatch_ts - j.accept_ts < -0.01 ||
        j.terminal_ts - j.dispatch_ts < -0.01)
      continue;
    wait_sum += wait;
    exec_sum += exec;
    worst_total = std::max(worst_total, wait + exec);
    ++attributed;
    slowest.emplace_back(wait + exec, &key);
  }
  if (attributed > 0) {
    const double total = wait_sum + exec_sum;
    std::printf("  critical path (%d jobs): wait %.1fms (%.0f%%), "
                "exec %.1fms (%.0f%%), worst job %.1fms\n",
                attributed, wait_sum * 1e3,
                total > 0 ? 100 * wait_sum / total : 0, exec_sum * 1e3,
                total > 0 ? 100 * exec_sum / total : 0, worst_total * 1e3);
  }

  if (!incidents.empty()) {
    std::printf("  incidents:\n");
    for (const Ev* e : incidents)
      std::printf("    %+9.3fms  %-18s %-10s a=%lld b=%lld %s\n",
                  (e->ts - t0) * 1e3, e->kind.c_str(), e->source.c_str(),
                  e->a, e->b, e->tag.c_str());
  }

  if (!focus.empty()) {
    const auto it = jobs.find(focus);
    if (it == jobs.end()) {
      std::fprintf(stderr, "postmortem: no events for job tag %s\n",
                   focus.c_str());
      return 1;
    }
    std::printf("  timeline:\n");
    print_timeline(focus, it->second, t0);
  } else if (timelines > 0 && !slowest.empty()) {
    std::sort(slowest.begin(), slowest.end(),
              [](const auto& x, const auto& y) { return x.first > y.first; });
    std::printf("  slowest timelines:\n");
    const int n = std::min<int>(timelines, static_cast<int>(slowest.size()));
    for (int i = 0; i < n; ++i)
      print_timeline(*slowest[size_t(i)].second, jobs[*slowest[size_t(i)].second],
                     t0);
  }

  if (require_complete && (unaccounted > 0 || duplicated > 0)) {
    std::fprintf(stderr,
                 "FAIL: postmortem incomplete — %d unaccounted, %d "
                 "duplicated job(s)\n",
                 unaccounted, duplicated);
    return 1;
  }
  return 0;
}
