// randla_cluster — multi-process sharded serving: N forked shard
// servers behind a consistent-hash router (DESIGN.md §11).
//
// Two modes:
//
//   * scaling sweep (default): for each S in --scales, fork S shard
//     processes (each a full runtime::Scheduler + net::Server), front
//     them with a cluster::Router, and push --jobs fixed-rank requests
//     through it from --threads closed-loop clients. One JSON report row
//     per scale records throughput and latency percentiles;
//     --min-speedup X demands jobs/s at the largest scale be at least
//     X × the single-shard figure. At every scale the router's merged
//     Stats scrape is cross-checked against direct scrapes of each
//     shard: every summable row (counters, histogram buckets) must equal
//     the per-shard sum, except the connection, frame and byte counts
//     the scrapes and the router's probes themselves move; every shard's
//     labeled net_jobs_submitted_total must match its own; and
//     cluster_stale_shards must be 0 (DESIGN.md §14).
//
//     The workload is cache-affinity-bound by construction: --spread
//     distinct matrices rotate round-robin against per-shard result
//     caches of --cache entries. With spread > cache one shard thrashes
//     its LRU (every request recomputes); with spread ≤ S·cache the
//     ring hands each shard a stable slice small enough to stay
//     resident, so added shards convert recomputes into cache hits.
//     That — not core count — is what the sweep measures, which is why
//     it scales even on a single-core host (pin BLAS threads with
//     RANDLA_NUM_THREADS=1 there).
//
//   * --chaos: one run over --shards shards; once ~40% of jobs are
//     done the parent SIGKILLs the shard owning the most routing keys.
//     Clients ride the full retry policy through the router, which
//     detects the death (probe + forward failures → breaker → ring
//     eviction) and re-routes the dead shard's keys to ring neighbors.
//     The run must end with 0 lost jobs and 0 duplicated executions —
//     proven from the surviving shards' own telemetry dumps — and the
//     router's Stats scrape must show the membership change.
//
//   * --chaos --routers N (N ≥ 2): same shards, but fronted by N router
//     processes sharing one deterministic Philox ring (identical shard
//     list + vnodes ⇒ identical placement, no coordination). Clients
//     spread across the routers; at ~40% the parent SIGKILLs router 0
//     and the orphaned clients fail over to a surviving router — the
//     run must still complete 100% of jobs, with re-executions bounded
//     by the failover resubmissions that explain them (a replay racing
//     its still-in-flight first execution re-runs; the client still
//     sees exactly one result). DESIGN.md §15 router redundancy.
//
//   * --drain: planned decommission (DESIGN.md §15). At ~40% of jobs
//     the parent calls Router::drain() on the shard owning the most
//     keys: the shard stops accepting, streams its result/sketch/RQRCP
//     cache entries to its ring successor (CacheHandoff frames),
//     finishes in-flight jobs and exits; the router re-points the
//     keyshare only after the DrainReply. The run must lose 0 jobs,
//     duplicate none, hand off > 0 cache entries, and the successor's
//     post-drain result-cache hit-rate must clear --hit-floor — cache
//     warmth provably survived the decommission. The report prices the
//     drain: its wall time, and the p99 of jobs that completed inside
//     the drain window, next to the router's hedge counters.
//
// --replicate-threshold X arms hot-key replicated execution in the
// router (keys above the decayed-rate threshold run on owner AND
// successor, first result wins, loser cancelled); --hedge arms latency
// hedging off the router's per-kind p99 gauges. Replica/hedge legs are
// tagged "/hedge" and excluded from the duplicate detector — they are
// intentional duplicates, cancelled or discarded before the client ever
// sees a second result.
//
// Every child (shard or router) reports its ephemeral port over a
// socketpair. A shard serves until the parent sends a Shutdown frame,
// then dumps one "tag<TAB>status<TAB>cache" line per job trace for the
// parent's duplicate detector; a router child serves until the parent
// closes its end of the socketpair.
//
//   randla_cluster [--scales 1,2,4] [--jobs N] [--threads T]
//                  [--workers W] [--queue Q] [--cache C] [--spread K]
//                  [--m M] [--n N] [--check-frac F] [--seed S]
//                  [--min-speedup X] [--tmp DIR]
//                  [--replicate-threshold X] [--hedge] [--json PATH]
//   randla_cluster --chaos [--shards S] [--routers N] [flags as above]
//   randla_cluster --drain [--shards S] [--hit-floor F] [flags as above]
//
// Exit code: 2 on bad arguments (--jobs or --threads below 1, a --scales
// entry that is not a positive integer); otherwise nonzero on any lost
// job, duplicated execution, failed residual check, missed speedup
// bound, merged-scrape mismatch, missed drain handoff or hit-rate floor,
// or missing router metrics.
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "cluster/stats_merge.hpp"
#include "la/norms.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/recorder.hpp"
#include "runtime/scheduler.hpp"
#include "util/stats.hpp"

using namespace randla;

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::vector<int> scales = {1, 2, 4};
  int shards = 3;  ///< chaos mode shard count
  int jobs = 240;
  int threads = 8;
  int workers = 1;      ///< scheduler workers per shard
  int queue = 8;        ///< scheduler queue capacity per shard
  int cache = 16;       ///< result/sketch/matrix cache entries per shard
  int spread = 48;      ///< distinct matrices rotated through the run
  index_t m = 192, n = 96;
  double check_frac = 0.1;
  double min_speedup = 0;    ///< 0 = record only
  double replicate_threshold = 0;  ///< router hot-key replication (0 = off)
  bool hedge = false;              ///< router latency hedging
  int routers = 1;   ///< chaos: router processes over one shared ring
  bool drain = false;      ///< planned-drain mode
  double hit_floor = 0.2;  ///< drain: post-drain successor hit-rate bound
  std::uint64_t seed = 2026;
  bool chaos = false;
  std::string tmp = ".";
  std::string postmortem;  ///< chaos: write the cluster Dump merge here
};

/// "1,2,4" → {1, 2, 4}; false unless every entry is a positive integer.
bool parse_scales(const std::string& list, std::vector<int>* out) {
  out->clear();
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = list.find(',', pos);
    const std::string item = list.substr(pos, comma - pos);
    char* end = nullptr;
    const long v = std::strtol(item.c_str(), &end, 10);
    if (item.empty() || *end != '\0' || v < 1 || v > INT_MAX) return false;
    out->push_back(static_cast<int>(v));
    if (comma == std::string::npos) return true;
    pos = comma + 1;
  }
}

/// The run is fixed-rank only: results are cacheable (idempotent
/// resubmission after a shard death must hit the result cache, and the
/// duplicate detector relies on cache dispositions to tell a replayed
/// result from a re-execution) and residual-checkable.
net::JobRequest build_request(const Options& opt, int i) {
  net::JobRequest req;
  req.request_id = static_cast<std::uint64_t>(i) + 1;
  req.kind = runtime::JobKind::FixedRank;
  req.matrix.generator = "lowrank";
  req.matrix.m = opt.m;
  req.matrix.n = opt.n;
  req.matrix.seed =
      opt.seed + static_cast<std::uint64_t>(i % std::max(1, opt.spread));
  req.matrix.rank = 8;
  req.k = 16;
  req.p = 8;
  req.q = 1;
  // Request the unconditionally stable orthogonalization up front (wire
  // ortho code 2 = HHQR): the rank-deficient input breaks CholQR down,
  // and the scheduler's retry ladder would otherwise cache every
  // escalation level as its own entry — 2-3 slots per matrix, quietly
  // shrinking the effective result-cache capacity the affinity sweep is
  // sized against.
  req.power_ortho = 2;
  // No deadline: degradation would shed power iterations under load,
  // and a degraded q lands under a different cache key — the affinity
  // sweep needs every request for one matrix to be byte-identical.
  req.deadline_s = -1;
  req.tag = "cluster/" + std::to_string(i);
  return req;
}

/// ‖A·P − Q·R‖_F / ‖A‖_F with A regenerated locally from the spec.
bool verify_fixed_rank(const net::JobRequest& req,
                       const net::CallResult& res) {
  if (res.header.status != runtime::JobStatus::Done ||
      res.tensors.size() != 2)
    return false;
  const Matrix<double> a = net::materialize(req.matrix);
  Matrix<double> resid(a.rows(), a.cols());
  apply_column_permutation<double>(a.view(), res.header.perm, resid.view());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0,
                     ConstMatrixView<double>(res.tensors[0].view()),
                     ConstMatrixView<double>(res.tensors[1].view()), 1.0,
                     resid.view());
  const double err =
      norm_fro<double>(ConstMatrixView<double>(resid.view())) /
      norm_fro<double>(ConstMatrixView<double>(a.view()));
  if (err > 1e-8) {
    std::fprintf(stderr, "cluster: residual %.3e (req %llu)\n", err,
                 (unsigned long long)req.request_id);
    return false;
  }
  return true;
}

net::ClientOptions loopback(std::uint16_t port) {
  net::ClientOptions copt;
  copt.host = "127.0.0.1";
  copt.port = port;
  copt.recv_timeout_s = 5;
  return copt;
}

// ---------------------------------------------------------------------
// Child processes: one fork harness for shards and routers.

struct Proc {
  pid_t pid = -1;
  std::uint16_t port = 0;
  int fd = -1;  ///< parent's end of the port socketpair; EOF stops a router
  bool killed = false;
  std::string telemetry_path;  ///< shards: per-job trace dump
};

/// Fork a child that runs `body(fd)`: the body starts a server, writes
/// its u16 port to `fd`, serves and _exits — it never returns. The parent
/// reads the port back and keeps its end of the socketpair in `out->fd`.
/// Callers fork before starting any thread, so the child starts from a
/// clean slate. On failure no fd stays open and no child is left.
template <class Body>
bool spawn(Body&& body, Proc* out) {
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
  const pid_t pid = fork();
  if (pid == 0) {
    ::close(sv[0]);
    body(sv[1]);
  }
  ::close(sv[1]);
  std::uint16_t port = 0;
  if (pid < 0 || read(sv[0], &port, sizeof port) != sizeof port ||
      port == 0) {
    ::close(sv[0]);
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
    return false;
  }
  out->pid = pid;
  out->port = port;
  out->fd = sv[0];
  return true;
}

/// Failure path: close, SIGKILL and reap every child that started.
void kill_all(std::vector<Proc>& procs) {
  for (Proc& p : procs) {
    if (p.pid <= 0) continue;
    if (p.fd >= 0) ::close(p.fd);
    kill(p.pid, SIGKILL);
    waitpid(p.pid, nullptr, 0);
  }
}

/// Shard body: serve until a remote Shutdown drains the loop, then dump
/// telemetry for the parent's duplicate detector. Never returns.
[[noreturn]] void shard_child(const Options& opt, int shard_idx, int port_fd,
                              const std::string& telemetry_path) {
  // Label this process's flight recorder so the cluster-wide postmortem
  // attributes events to the right shard, and arm the crash handler: a
  // SIGSEGV/SIGABRT leaves a best-effort ring dump next to telemetry.
  obs::Recorder::global().set_source("shard-" + std::to_string(shard_idx));
  const std::string crash_path =
      opt.tmp + "/cluster_shard_" + std::to_string(shard_idx) + "_crash.json";
  obs::Recorder::global().install_crash_handler(crash_path.c_str());

  runtime::SchedulerOptions so;
  so.num_workers = opt.workers;
  so.queue_capacity = opt.queue;
  so.result_cache_capacity = static_cast<std::size_t>(opt.cache);
  so.sketch_cache_capacity = static_cast<std::size_t>(opt.cache);
  runtime::Scheduler sched(so);

  net::ServerOptions svo;
  svo.port = 0;
  svo.allow_remote_shutdown = true;
  svo.matrix_cache_capacity = static_cast<std::size_t>(opt.cache);
  net::Server server(sched, svo);
  if (!server.start()) _exit(3);

  const std::uint16_t port = server.port();
  if (write(port_fd, &port, sizeof port) != sizeof port) _exit(3);
  ::close(port_fd);

  server.wait();  // blocks until the parent's Shutdown frame drains us

  if (std::FILE* f = std::fopen(telemetry_path.c_str(), "w")) {
    for (const auto& tr : sched.telemetry().traces())
      std::fprintf(f, "%s\t%s\t%s\n", tr.tag.c_str(),
                   runtime::job_status_name(tr.status),
                   runtime::cache_disposition_name(tr.cache));
    std::fclose(f);
  }
  _exit(0);
}

/// Router body: one of N redundant routers over the same shard list.
/// Identical options ⇒ identical Philox ring ⇒ identical placement, so
/// the routers need no coordination. Serves until the parent closes its
/// end of the socketpair, then stops gracefully. Never returns.
[[noreturn]] void router_child(const Options& opt,
                               const std::vector<Proc>& shards, int idx,
                               int port_fd) {
  obs::Recorder::global().set_source("router-" + std::to_string(idx));
  cluster::RouterOptions ro;
  for (const Proc& sp : shards)
    ro.shards.push_back(cluster::ShardEndpoint{"127.0.0.1", sp.port});
  ro.probe_interval_s = 0.1;
  ro.replicate_threshold = opt.replicate_threshold;
  ro.hedge = opt.hedge;
  cluster::Router router(ro);
  if (!router.start()) _exit(3);
  const std::uint16_t port = router.port();
  if (write(port_fd, &port, sizeof port) != sizeof port) _exit(3);
  char b = 0;
  ssize_t r;
  do {
    r = read(port_fd, &b, 1);
  } while (r < 0 && errno == EINTR);
  router.stop();
  _exit(0);
}

/// Fork `n` shards whose telemetry lands in <tmp>/cluster_<stem>_<i>.telemetry.
/// Empty on failure, with every shard that started killed and reaped.
std::vector<Proc> spawn_shards(const Options& opt, int n,
                               const std::string& stem) {
  std::vector<Proc> shards(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    Proc& sp = shards[static_cast<std::size_t>(s)];
    sp.telemetry_path =
        opt.tmp + "/cluster_" + stem + "_" + std::to_string(s) + ".telemetry";
    std::remove(sp.telemetry_path.c_str());
    if (!spawn([&](int fd) { shard_child(opt, s, fd, sp.telemetry_path); },
               &sp)) {
      std::fprintf(stderr, "cluster: failed to spawn shard %d\n", s);
      kill_all(shards);
      return {};
    }
    // A shard stops on a Shutdown frame, not on EOF: drop the channel so
    // later children do not inherit it.
    ::close(sp.fd);
    sp.fd = -1;
  }
  return shards;
}

/// True when `tag` carries the intentional-duplicate suffix the router
/// appends to replica and hedge legs.
bool intentional_duplicate(const std::string& tag) {
  return tag.ends_with("/hedge");
}

/// Cluster-wide duplicate detection from the shards' telemetry dumps: a
/// tag that *executed* (Done with cache Miss/None) more than once
/// anywhere ran twice for real. Replays served from a result cache show
/// up as Result dispositions and never count; replica and hedge legs
/// are intentional duplicates and are tagged out of the population.
int scan_duplicates(const std::vector<Proc>& shards) {
  std::map<std::string, int> executed;
  for (const Proc& sp : shards) {
    if (sp.killed) continue;
    std::FILE* f = std::fopen(sp.telemetry_path.c_str(), "r");
    if (!f) {
      std::fprintf(stderr, "cluster: missing telemetry %s\n",
                   sp.telemetry_path.c_str());
      continue;
    }
    char line[512];
    while (std::fgets(line, sizeof line, f)) {
      std::string s(line);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
        s.pop_back();
      const auto tab1 = s.find('\t');
      const auto tab2 = tab1 == std::string::npos ? std::string::npos
                                                  : s.find('\t', tab1 + 1);
      if (tab2 == std::string::npos) continue;
      const std::string tag = s.substr(0, tab1);
      const std::string status = s.substr(tab1 + 1, tab2 - tab1 - 1);
      const std::string cache = s.substr(tab2 + 1);
      if (status != "done") continue;
      if (cache != "miss" && cache != "none") continue;
      if (intentional_duplicate(tag)) continue;
      ++executed[tag];
    }
    std::fclose(f);
  }
  int duplicated = 0;
  for (const auto& [tag, n] : executed)
    if (n > 1) {
      std::fprintf(stderr, "cluster: tag %s executed %d times\n", tag.c_str(),
                   n);
      ++duplicated;
    }
  return duplicated;
}

/// Shutdown every live shard (it drains, dumps telemetry and exits), reap
/// them all, and return the duplicate count from their dumps.
int stop_shards(const std::vector<Proc>& shards) {
  for (const Proc& sp : shards) {
    if (sp.killed) continue;
    net::Client c(loopback(sp.port));
    if (c.connect()) c.send_shutdown();
  }
  for (const Proc& sp : shards) waitpid(sp.pid, nullptr, 0);
  return scan_duplicates(shards);
}

// ---------------------------------------------------------------------
// Closed-loop clients.

/// One job as its client saw it.
struct Rec {
  bool ok = false;
  int busy = 0;
  int reconnects = 0;
  int failovers = 0;  ///< endpoint switches after a failed call
  bool checked = false;
  bool check_passed = true;
  double latency_ms = 0;
  Clock::time_point end;
};

struct Load {
  std::vector<Rec> recs;
  double wall_s = 0;
};

/// Push opt.jobs requests through `ports` from opt.threads closed-loop
/// clients; client t starts on ports[t % E]. With more than one endpoint
/// a failed call moves the client to the next endpoint and resubmits the
/// same idempotent request — the shard's result cache turns the replay
/// into a hit, never a second execution. Once ~40% of jobs are done,
/// `mid_run` (when set) runs on the calling thread while the clients
/// keep going.
Load drive(const Options& opt, const std::vector<std::uint16_t>& ports,
           int max_attempts, const std::function<void(int)>& mid_run) {
  Load load;
  load.recs.resize(static_cast<std::size_t>(opt.jobs));
  const int nports = static_cast<int>(ports.size());
  std::atomic<int> next_job{0};
  std::atomic<int> done_jobs{0};
  std::atomic<int> check_counter{0};
  const int check_period =
      opt.check_frac > 0
          ? std::max(1, static_cast<int>(std::lround(1.0 / opt.check_frac)))
          : 0;

  const auto t0 = Clock::now();
  auto worker = [&](int widx) {
    int ep = widx % nports;
    auto client_for = [&](int e) {
      net::ClientOptions copt = loopback(ports[static_cast<std::size_t>(e)]);
      copt.recv_timeout_s = 10;
      copt.retry.max_attempts = max_attempts;
      copt.retry.max_busy_retries = 1000;  // throughput run: wait, don't fail
      copt.retry.busy_wait_cap_s = 0.25;
      copt.retry.backoff_seed = opt.seed * 1000 + std::uint64_t(widx);
      return std::make_unique<net::Client>(copt);
    };
    std::unique_ptr<net::Client> client = client_for(ep);
    for (;;) {
      const int i = next_job.fetch_add(1);
      if (i >= opt.jobs) return;
      const net::JobRequest req = build_request(opt, i);
      Rec& rec = load.recs[static_cast<std::size_t>(i)];
      const auto start = Clock::now();
      net::CallResult res;
      net::RetryInfo info;
      for (int hop = 0;; ++hop) {
        res = client->call_with_retry(req, &info);
        rec.busy += info.busy_retries;
        rec.reconnects += info.reconnects;
        if (res.status == net::CallStatus::Ok || nports == 1 ||
            hop == 2 * nports)
          break;
        ep = (ep + 1) % nports;
        client = client_for(ep);
        ++rec.failovers;
      }
      rec.end = Clock::now();
      rec.latency_ms =
          std::chrono::duration<double, std::milli>(rec.end - start).count();
      rec.ok = res.status == net::CallStatus::Ok &&
               res.header.status == runtime::JobStatus::Done;
      done_jobs.fetch_add(1);
      if (!rec.ok) {
        std::fprintf(stderr, "cluster: job %d lost after %d attempts: %s %s\n",
                     i, info.attempts, net::call_status_name(res.status),
                     res.detail.c_str());
        continue;
      }
      if (check_period > 0 &&
          check_counter.fetch_add(1) % check_period == 0) {
        rec.checked = true;
        rec.check_passed = verify_fixed_rank(req, res);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < opt.threads; ++t) pool.emplace_back(worker, t);
  if (mid_run) {
    const int trigger = std::max(1, (opt.jobs * 2) / 5);
    while (done_jobs.load() < trigger)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    mid_run(done_jobs.load());
  }
  for (auto& t : pool) t.join();
  load.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return load;
}

/// What the clients saw, summed over every job.
struct Tally {
  int ok = 0, lost = 0, checked = 0, check_failed = 0, failovers = 0;
  long busy_retries = 0, reconnects = 0;
  double wall_s = 0, throughput = 0, p50_ms = 0, p99_ms = 0;
};

void tally(const Load& load, Tally* t) {
  std::vector<double> lat;
  for (const Rec& r : load.recs) {
    r.ok ? ++t->ok : ++t->lost;
    t->busy_retries += r.busy;
    t->reconnects += r.reconnects;
    t->failovers += r.failovers;
    if (r.ok) lat.push_back(r.latency_ms);
    if (r.checked) {
      ++t->checked;
      if (!r.check_passed) ++t->check_failed;
    }
  }
  t->wall_s = load.wall_s;
  t->p50_ms = util::percentile(lat, 50);
  t->p99_ms = util::percentile(lat, 99);
  t->throughput = load.wall_s > 0 ? double(t->ok) / load.wall_s : 0;
}

// ---------------------------------------------------------------------
// One measured run at a given shard count.

enum class RunMode { Sweep, Chaos, Drain };

struct RunResult : Tally {
  bool started = false;
  int duplicated = 0;
  cluster::RouterStats router;
  std::vector<std::uint32_t> live_end;  ///< ring membership after the run
  bool stats_scrape_ok = false;
  /// Sweep: the merged scrape equals the per-shard direct scrapes.
  /// Chaos/drain (a shard is gone and cannot be scraped): the scrape
  /// carries cluster_stale_shards and shard-labeled merged rows.
  bool merged_stats_ok = false;
  bool victim_marked_down = false;  ///< chaos: scrape shows shard_up == 0
  std::uint32_t victim = 0;
  std::string postmortem;  ///< cluster-wide Dump merge (router view)
  // Drain mode (DESIGN.md §15):
  bool drain_ok = false;          ///< Router::drain round-trip succeeded
  net::DrainSummary drain_sum;
  std::uint32_t successor = 0;    ///< handoff target of the victim
  double succ_hit_rate = -1;      ///< successor result-cache hit rate over
                                  ///< the post-drain window (-1 = no scrape)
  double drain_wall_ms = 0;       ///< time inside Router::drain
  int drain_window_jobs = 0;      ///< jobs that completed inside it
  double drain_window_p99_ms = 0;
};

/// The sweep's merge contract (DESIGN.md §14): the router's merged scrape
/// must agree exactly with direct scrapes of every shard. `exact_submits`
/// additionally demands the shards admitted exactly `jobs` submits, which
/// holds only when no job was lost or resubmitted and no hedge or replica
/// leg ran.
bool cross_check(const std::vector<Proc>& shards,
                 const net::StatsReply& merged, bool exact_submits,
                 int jobs) {
  bool ok = true;
  if (!merged.has("cluster_stale_shards")) {
    std::fprintf(stderr, "FAIL: merged scrape lacks cluster_stale_shards\n");
    ok = false;
  } else if (merged.value("cluster_stale_shards") != 0) {
    std::fprintf(stderr, "FAIL: %d stale shard(s) in merged scrape\n",
                 int(merged.value("cluster_stale_shards")));
    ok = false;
  }
  // Per-shard direct scrapes: accumulate every mergeable row that the
  // scrapes themselves cannot have moved. Between the two scrape
  // instants the fan-out's Stats frames, these direct Stats frames and
  // the router's health probes add connections, frames and bytes on
  // every shard, so net_connections_total, net_frames_in_total{...} and
  // net_bytes_{in,out}_total are skipped. Everything else, the shards'
  // job, Busy, error, batching, failover and cache counts included, is
  // quiescent once the clients joined and must match exactly.
  const auto moved_by_scrapes = [](const std::string& name) {
    for (const char* prefix :
         {"net_connections_total", "net_frames_in_total", "net_bytes_in_total",
          "net_bytes_out_total"})
      if (name.rfind(prefix, 0) == 0) return true;
    return false;
  };
  std::map<std::string, double> sums;
  double submitted = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    net::Client sc(loopback(shards[s].port));
    std::optional<net::StatsReply> st;
    if (sc.connect()) st = sc.stats();
    if (!st) {
      std::fprintf(stderr, "FAIL: direct scrape of shard %zu failed\n", s);
      ok = false;
      continue;
    }
    for (const auto& [name, v] : st->metrics) {
      if (cluster::mergeable_stat(name) && !moved_by_scrapes(name))
        sums[name] += v;
    }
    const double direct = st->value("net_jobs_submitted_total");
    submitted += direct;
    // The merged scrape must carry this shard's labeled row, equal in
    // name and value to the direct view.
    const std::string labeled = cluster::with_shard_label(
        "net_jobs_submitted_total", static_cast<std::uint32_t>(s));
    if (merged.value(labeled) != direct) {
      std::fprintf(stderr, "FAIL: merged %s = %.0f, shard says %.0f\n",
                   labeled.c_str(), merged.value(labeled), direct);
      ok = false;
    }
  }
  // Every mergeable series must appear in the merged scrape exactly
  // once, with the per-shard sum (within float-sum tolerance: seconds
  // totals add in a different order). The router's own rows never share
  // a name with a shard's.
  int rows_matched = 0;
  for (const auto& [name, want] : sums) {
    int copies = 0;
    double got = 0;
    for (const auto& [mname, mv] : merged.metrics)
      if (mname == name) {
        ++copies;
        got = mv;
      }
    if (copies == 1 &&
        std::abs(got - want) <= 1e-6 * std::max(1.0, std::abs(want))) {
      ++rows_matched;
    } else {
      std::fprintf(stderr,
                   "FAIL: merged scrape has %d row(s) for %s (last %.10g), "
                   "want one equal to the per-shard sum %.10g\n",
                   copies, name.c_str(), got, want);
      ok = false;
    }
  }
  if (exact_submits && submitted != double(jobs)) {
    std::fprintf(stderr, "FAIL: shards saw %.0f submits for %d jobs\n",
                 submitted, jobs);
    ok = false;
  }
  std::printf("merge:     %d/%zu summed series match the direct scrapes of "
              "%zu shards%s\n",
              rows_matched, sums.size(), shards.size(), ok ? "" : "  [FAIL]");
  return ok;
}

RunResult run_scale(const Options& opt, int nshards, RunMode mode) {
  RunResult rr;
  std::vector<Proc> shards =
      spawn_shards(opt, nshards, "shard_" + std::to_string(nshards));
  if (shards.empty()) return rr;

  cluster::RouterOptions ro;
  for (const Proc& sp : shards)
    ro.shards.push_back(cluster::ShardEndpoint{"127.0.0.1", sp.port});
  ro.probe_interval_s = 0.1;
  ro.replicate_threshold = opt.replicate_threshold;
  ro.hedge = opt.hedge;
  cluster::Router router(ro);
  if (!router.start()) {
    std::fprintf(stderr, "cluster: router failed to start\n");
    kill_all(shards);
    return rr;
  }
  rr.started = true;

  // Chaos/drain victim: the shard owning the most routing keys, computed
  // from the same ring layout the router uses — killing (or draining) it
  // is guaranteed to move live keys. The drain handoff target is the
  // victim's ring successor, the same expression the router evaluates.
  if (mode != RunMode::Sweep && nshards >= 2) {
    cluster::HashRing ring(cluster::RingOptions{ro.vnodes});
    for (int s = 0; s < nshards; ++s)
      ring.add(static_cast<std::uint32_t>(s));
    std::map<std::uint32_t, int> owned;
    for (int i = 0; i < std::max(1, opt.spread); ++i)
      owned[*ring.owner(cluster::routing_key(build_request(opt, i)))] += 1;
    rr.victim = owned.rbegin()->first;
    for (const auto& [s, cnt] : owned)
      if (cnt > owned[rr.victim]) rr.victim = s;
    rr.successor = *ring.successor(cluster::ring_point(rr.victim, 0));
  }

  // Successor result-cache scrape for the drain hit-rate window: the
  // per-shard Stats verb, straight to the shard (not through the router).
  auto scrape_result_cache = [&](std::uint32_t shard, double* hits,
                                 double* misses) {
    net::Client sc(loopback(shards[shard].port));
    if (!sc.connect()) return false;
    const auto st = sc.stats();
    if (!st) return false;
    *hits = st->value("result_cache_hits");
    *misses = st->value("result_cache_misses");
    return true;
  };

  double succ_hits0 = 0, succ_misses0 = 0;
  bool succ_scrape0 = false;
  Clock::time_point drain_t0, drain_t1;
  std::function<void(int)> mid_run;
  if (mode == RunMode::Chaos) {
    // Let the cluster warm up, then kill the victim mid-run.
    mid_run = [&](int done) {
      Proc& v = shards[rr.victim];
      std::printf("cluster: SIGKILL shard %u (pid %d) after %d jobs\n",
                  rr.victim, int(v.pid), done);
      kill(v.pid, SIGKILL);
      v.killed = true;
    };
  } else if (mode == RunMode::Drain) {
    // Let the victim's caches warm up, then decommission it live. The
    // drain blocks here until the handoff's DrainReply — jobs keep
    // flowing the whole time (the victim sheds new submits with Busy
    // hints, which the clients' retry policy rides out).
    mid_run = [&](int done) {
      succ_scrape0 =
          scrape_result_cache(rr.successor, &succ_hits0, &succ_misses0);
      std::printf("cluster: draining shard %u → successor %u after %d jobs\n",
                  rr.victim, rr.successor, done);
      drain_t0 = Clock::now();
      rr.drain_ok = router.drain(rr.victim, &rr.drain_sum);
      drain_t1 = Clock::now();
      std::printf("cluster: drain %s — %llu entries / %llu bytes handed off, "
                  "%llu skipped, %llu in flight at reply\n",
                  rr.drain_ok ? "ok" : "FAILED",
                  (unsigned long long)rr.drain_sum.entries,
                  (unsigned long long)rr.drain_sum.bytes,
                  (unsigned long long)rr.drain_sum.skipped,
                  (unsigned long long)rr.drain_sum.inflight);
    };
  }
  const Load load = drive(opt, {router.port()},
                          mode == RunMode::Sweep ? 6 : 12, mid_run);
  tally(load, &rr);

  if (mode == RunMode::Drain) {
    // Post-drain window hit rate on the successor: every request in the
    // victim's former keyshare now lands there, and the handed-off cache
    // entries should serve them without re-execution.
    double h1 = 0, m1 = 0;
    if (succ_scrape0 && scrape_result_cache(rr.successor, &h1, &m1)) {
      const double dh = h1 - succ_hits0, dm = m1 - succ_misses0;
      rr.succ_hit_rate = (dh + dm) > 0 ? dh / (dh + dm) : 0.0;
    }
    // The availability cost of the decommission: the latency tail of the
    // jobs that completed while Router::drain was in progress.
    std::vector<double> window;
    for (const Rec& r : load.recs)
      if (r.ok && r.end >= drain_t0 && r.end <= drain_t1)
        window.push_back(r.latency_ms);
    rr.drain_wall_ms =
        std::chrono::duration<double, std::milli>(drain_t1 - drain_t0).count();
    rr.drain_window_jobs = static_cast<int>(window.size());
    rr.drain_window_p99_ms = util::percentile(window, 99);
  }

  // Router-side accounting: scrape over the wire (the same Stats verb a
  // monitoring client would use), then the in-process snapshot.
  {
    net::Client sc(loopback(router.port()));
    if (sc.connect()) {
      if (auto stats = sc.stats()) {
        rr.stats_scrape_ok = stats->has("cluster_submits_routed_total") &&
                             stats->has("cluster_membership_changes_total") &&
                             stats->has("cluster_shards_live");
        if (mode == RunMode::Sweep) {
          rr.merged_stats_ok = cross_check(
              shards, *stats,
              rr.lost == 0 && rr.reconnects == 0 &&
                  router.stats().hedges_fired == 0,
              opt.jobs);
        } else {
          // The degraded-mode counter must always be present, and at
          // least one live shard's labeled rows must have survived the
          // wire cap (the victim may be any shard id, so scan rather
          // than name one).
          bool any_labeled = false;
          for (const auto& [name, v] : stats->metrics)
            if (name.rfind("net_jobs_submitted_total{shard=", 0) == 0)
              any_labeled = true;
          rr.merged_stats_ok =
              stats->has("cluster_stale_shards") && any_labeled;
        }
        const std::string up_key =
            "cluster_shard_up{shard=\"" + std::to_string(rr.victim) + "\"}";
        rr.victim_marked_down =
            stats->has(up_key) && stats->value(up_key) == 0.0;
      }
      // Cluster-wide postmortem through the same router the clients
      // used: the router's flight recorder (with the victim's ShardDown
      // event) plus every surviving shard's rings, one JSON document.
      if (auto dump = sc.dump()) rr.postmortem = std::move(*dump);
    }
  }
  rr.router = router.stats();
  rr.live_end = router.live_shards();
  router.stop();

  rr.duplicated = stop_shards(shards);
  return rr;
}

void print_run(const char* label, const RunResult& rr) {
  std::printf("%-10s %4d ok %3d lost %3d dup  %7.1f jobs/s  "
              "p50 %6.1fms p99 %7.1fms  busy %4ld reconn %3ld  "
              "routed %llu rerouted %llu fwd_err %llu members %llu\n",
              label, rr.ok, rr.lost, rr.duplicated, rr.throughput, rr.p50_ms,
              rr.p99_ms, rr.busy_retries, rr.reconnects,
              (unsigned long long)rr.router.submits_routed,
              (unsigned long long)rr.router.rerouted,
              (unsigned long long)rr.router.forward_errors,
              (unsigned long long)rr.router.membership_changes);
  if (rr.router.hedges_fired || rr.router.hedge_budget_exhausted)
    std::printf("%-10s hedges %llu (wins %llu cancels %llu "
                "budget-exhausted %llu)\n",
                "", (unsigned long long)rr.router.hedges_fired,
                (unsigned long long)rr.router.hedge_wins,
                (unsigned long long)rr.router.hedge_cancels,
                (unsigned long long)rr.router.hedge_budget_exhausted);
}

int run_chaos(const Options& opt, int argc, char** argv) {
  std::printf("randla_cluster: chaos — %d shards, %d jobs, %d threads, "
              "spread %d\n",
              opt.shards, opt.jobs, opt.threads, opt.spread);
  const RunResult rr = run_scale(opt, opt.shards, RunMode::Chaos);
  if (!rr.started) return 1;
  print_run("chaos", rr);
  std::printf("residual:   %d sampled, %d failed\n", rr.checked,
              rr.check_failed);
  std::printf("membership: victim %u, %zu/%d shards live at end, "
              "%llu membership changes, scrape %s victim-down %s\n",
              rr.victim, rr.live_end.size(), opt.shards,
              (unsigned long long)rr.router.membership_changes,
              rr.stats_scrape_ok ? "ok" : "MISSING",
              rr.victim_marked_down ? "yes" : "NO");

  // Postmortem: the router-view Dump merge must exist and carry the
  // victim's death (the router's own flight recorder logged ShardDown
  // when the breaker evicted it).
  const bool postmortem_has_death =
      rr.postmortem.find("\"kind\":\"shard_down\"") != std::string::npos;
  if (!opt.postmortem.empty()) {
    if (std::FILE* f = std::fopen(opt.postmortem.c_str(), "w")) {
      std::fwrite(rr.postmortem.data(), 1, rr.postmortem.size(), f);
      std::fclose(f);
      std::printf("postmortem: %zu bytes → %s (shard_down %s)\n",
                  rr.postmortem.size(), opt.postmortem.c_str(),
                  postmortem_has_death ? "recorded" : "MISSING");
    } else {
      std::fprintf(stderr, "cluster: cannot write %s\n",
                   opt.postmortem.c_str());
    }
  }

  bench::JsonReport report("cluster", argc, argv);
  if (report.enabled()) {
    report.row("chaos")
        .set("shards", double(opt.shards))
        .set("jobs", double(opt.jobs))
        .set("ok", double(rr.ok))
        .set("lost", double(rr.lost))
        .set("duplicated", double(rr.duplicated))
        .set("busy_retries", double(rr.busy_retries))
        .set("reconnects", double(rr.reconnects))
        .set("rerouted", double(rr.router.rerouted))
        .set("forward_errors", double(rr.router.forward_errors))
        .set("membership_changes", double(rr.router.membership_changes))
        .set("hedges_fired", double(rr.router.hedges_fired))
        .set("hedge_wins", double(rr.router.hedge_wins))
        .set("hedge_cancels", double(rr.router.hedge_cancels))
        .set("hedge_budget_exhausted",
             double(rr.router.hedge_budget_exhausted))
        .set("throughput_jps", rr.throughput)
        .set("p99_ms", rr.p99_ms);
    if (!report.write()) return 1;
  }

  bool bad = false;
  if (rr.lost > 0) {
    std::fprintf(stderr, "FAIL: %d jobs lost\n", rr.lost);
    bad = true;
  }
  if (rr.duplicated > 0) {
    std::fprintf(stderr, "FAIL: %d jobs executed more than once\n",
                 rr.duplicated);
    bad = true;
  }
  if (rr.check_failed > 0) {
    std::fprintf(stderr, "FAIL: %d residual checks failed\n",
                 rr.check_failed);
    bad = true;
  }
  if (rr.router.membership_changes < 1) {
    std::fprintf(stderr, "FAIL: router never recorded the shard death\n");
    bad = true;
  }
  if (rr.live_end.size() != static_cast<std::size_t>(opt.shards) - 1) {
    std::fprintf(stderr, "FAIL: expected %d live shards, router sees %zu\n",
                 opt.shards - 1, rr.live_end.size());
    bad = true;
  }
  if (!rr.stats_scrape_ok || !rr.victim_marked_down) {
    std::fprintf(stderr,
                 "FAIL: router Stats scrape missing membership metrics\n");
    bad = true;
  }
  if (!rr.merged_stats_ok) {
    std::fprintf(stderr,
                 "FAIL: router Stats merge missing cluster_stale_shards or "
                 "shard-labeled rows\n");
    bad = true;
  }
  if (rr.postmortem.empty() || !postmortem_has_death) {
    std::fprintf(stderr, "FAIL: cluster postmortem missing or lacks the "
                         "victim's shard_down event\n");
    bad = true;
  }
  if (opt.hedge && opt.replicate_threshold <= 0) {
    // Latency hedges are token-bucket bounded: refill ratio (default
    // 0.05/submit) times routed submits, plus the burst the bucket can
    // hold. Replication legs share the counter, so only check when
    // hedging runs alone.
    const double bound = 0.05 * double(rr.router.submits_routed) + 5.0;
    if (double(rr.router.hedges_fired) > bound) {
      std::fprintf(stderr, "FAIL: %llu hedges exceed budget bound %.0f\n",
                   (unsigned long long)rr.router.hedges_fired, bound);
      bad = true;
    }
  }
  return bad ? 1 : 0;
}

// ---------------------------------------------------------------------
// --drain: planned decommission with cache handoff (DESIGN.md §15).

int run_drain(const Options& opt, int argc, char** argv) {
  std::printf("randla_cluster: drain — %d shards, %d jobs, %d threads, "
              "spread %d, cache %d/shard, hit floor %.2f\n",
              opt.shards, opt.jobs, opt.threads, opt.spread, opt.cache,
              opt.hit_floor);
  const RunResult rr = run_scale(opt, opt.shards, RunMode::Drain);
  if (!rr.started) return 1;
  print_run("drain", rr);
  std::printf("residual:   %d sampled, %d failed\n", rr.checked,
              rr.check_failed);
  std::printf("handoff:    shard %u → %u, %llu entries / %llu bytes "
              "(%llu skipped), successor post-drain hit-rate %.2f\n",
              rr.victim, rr.successor,
              (unsigned long long)rr.drain_sum.entries,
              (unsigned long long)rr.drain_sum.bytes,
              (unsigned long long)rr.drain_sum.skipped, rr.succ_hit_rate);
  std::printf("window:     drain took %.0fms, p99 %.1fms over the %d jobs "
              "that completed inside it\n",
              rr.drain_wall_ms, rr.drain_window_p99_ms, rr.drain_window_jobs);

  bench::JsonReport report("cluster", argc, argv);
  if (report.enabled()) {
    report.row("drain")
        .set("shards", double(opt.shards))
        .set("jobs", double(opt.jobs))
        .set("ok", double(rr.ok))
        .set("lost", double(rr.lost))
        .set("duplicated", double(rr.duplicated))
        .set("victim", double(rr.victim))
        .set("successor", double(rr.successor))
        .set("handoff_entries", double(rr.drain_sum.entries))
        .set("handoff_bytes", double(rr.drain_sum.bytes))
        .set("handoff_skipped", double(rr.drain_sum.skipped))
        .set("successor_hit_rate", rr.succ_hit_rate)
        .set("hit_floor", opt.hit_floor)
        .set("drain_wall_ms", rr.drain_wall_ms)
        .set("drain_window_jobs", double(rr.drain_window_jobs))
        .set("drain_window_p99_ms", rr.drain_window_p99_ms)
        .set("hedges_fired", double(rr.router.hedges_fired))
        .set("hedge_wins", double(rr.router.hedge_wins))
        .set("hedge_cancels", double(rr.router.hedge_cancels))
        .set("hedge_budget_exhausted",
             double(rr.router.hedge_budget_exhausted))
        .set("busy_retries", double(rr.busy_retries))
        .set("throughput_jps", rr.throughput)
        .set("p99_ms", rr.p99_ms);
    if (!report.write()) return 1;
  }

  bool bad = false;
  if (rr.lost > 0) {
    std::fprintf(stderr, "FAIL: %d jobs lost across the drain\n", rr.lost);
    bad = true;
  }
  if (rr.duplicated > 0) {
    std::fprintf(stderr, "FAIL: %d jobs executed more than once\n",
                 rr.duplicated);
    bad = true;
  }
  if (rr.check_failed > 0) {
    std::fprintf(stderr, "FAIL: %d residual checks failed\n", rr.check_failed);
    bad = true;
  }
  if (!rr.drain_ok) {
    std::fprintf(stderr, "FAIL: drain round-trip failed\n");
    bad = true;
  }
  if (rr.drain_sum.entries == 0) {
    std::fprintf(stderr, "FAIL: drain handed off zero cache entries\n");
    bad = true;
  }
  if (rr.router.drains_completed != 1) {
    std::fprintf(stderr, "FAIL: router recorded %llu completed drains\n",
                 (unsigned long long)rr.router.drains_completed);
    bad = true;
  }
  if (std::find(rr.live_end.begin(), rr.live_end.end(), rr.victim) !=
      rr.live_end.end()) {
    std::fprintf(stderr, "FAIL: drained shard %u still in the ring\n",
                 rr.victim);
    bad = true;
  }
  if (rr.succ_hit_rate < opt.hit_floor) {
    std::fprintf(stderr,
                 "FAIL: successor post-drain hit-rate %.2f below floor %.2f "
                 "— cache warmth was lost\n",
                 rr.succ_hit_rate, opt.hit_floor);
    bad = true;
  }
  return bad ? 1 : 0;
}

// ---------------------------------------------------------------------
// --chaos --routers N: redundant routers over one deterministic ring.

int run_router_chaos(const Options& opt, int argc, char** argv) {
  const int nshards = opt.shards, nrouters = opt.routers;
  std::printf("randla_cluster: router chaos — %d shards behind %d routers, "
              "%d jobs, %d threads\n",
              nshards, nrouters, opt.jobs, opt.threads);

  std::vector<Proc> shards = spawn_shards(opt, nshards, "rchaos");
  if (shards.empty()) return 1;
  std::vector<Proc> routers(static_cast<std::size_t>(nrouters));
  std::vector<std::uint16_t> ports;
  for (int r = 0; r < nrouters; ++r) {
    Proc& rp = routers[static_cast<std::size_t>(r)];
    if (!spawn([&](int fd) { router_child(opt, shards, r, fd); }, &rp)) {
      std::fprintf(stderr, "cluster: router %d failed to start\n", r);
      kill_all(routers);
      kill_all(shards);
      return 1;
    }
    ports.push_back(rp.port);
  }
  std::printf("cluster: routers ready on ports");
  for (std::uint16_t p : ports) std::printf(" :%u", unsigned(p));
  std::printf("\n");

  // Kill router 0 mid-run: every client parked on it must fail over to a
  // survivor and finish its jobs there. Clients fail fast (3 attempts)
  // on one router, then switch.
  Tally t;
  tally(drive(opt, ports, 3,
              [&](int done) {
                std::printf("cluster: SIGKILL router 0 (pid %d) after %d "
                            "jobs\n",
                            int(routers[0].pid), done);
                kill(routers[0].pid, SIGKILL);
                routers[0].killed = true;
              }),
        &t);

  // A surviving router must still answer the observability plane.
  bool survivor_scrape_ok = false;
  for (const Proc& rp : routers) {
    if (rp.killed) continue;
    net::Client sc(loopback(rp.port));
    if (!sc.connect()) continue;
    if (const auto stats = sc.stats())
      survivor_scrape_ok = stats->has("cluster_submits_routed_total") &&
                           stats->has("cluster_shards_live");
    break;
  }

  // Graceful stop for the survivors (EOF on their socketpair), then reap
  // all. Close every channel before the first wait: a router forked
  // later holds inherited copies of the earlier routers' channels.
  for (Proc& rp : routers) {
    ::close(rp.fd);
    rp.fd = -1;
  }
  for (const Proc& rp : routers) waitpid(rp.pid, nullptr, 0);

  // Drain the shards (all still alive) and reap; their telemetry feeds
  // the duplicate detector.
  const int duplicated = stop_shards(shards);

  std::printf("router-chaos %4d ok %3d lost %3d dup  %7.1f jobs/s  "
              "p99 %7.1fms  busy %4ld reconn %3ld failovers %d\n",
              t.ok, t.lost, duplicated, t.throughput, t.p99_ms,
              t.busy_retries, t.reconnects, t.failovers);
  std::printf("residual:   %d sampled, %d failed\n", t.checked,
              t.check_failed);

  bench::JsonReport report("cluster", argc, argv);
  if (report.enabled()) {
    report.row("router_chaos")
        .set("shards", double(nshards))
        .set("routers", double(nrouters))
        .set("jobs", double(opt.jobs))
        .set("ok", double(t.ok))
        .set("lost", double(t.lost))
        .set("duplicated", double(duplicated))
        .set("failovers", double(t.failovers))
        .set("busy_retries", double(t.busy_retries))
        .set("reconnects", double(t.reconnects))
        .set("throughput_jps", t.throughput)
        .set("p99_ms", t.p99_ms);
    if (!report.write()) return 1;
  }

  bool bad = false;
  if (t.ok != opt.jobs) {
    std::fprintf(stderr, "FAIL: only %d/%d jobs completed through the "
                         "surviving router(s)\n",
                 t.ok, opt.jobs);
    bad = true;
  }
  if (duplicated > t.failovers) {
    // A worker whose router died mid-call resubmits through a survivor;
    // if the first execution was still in flight on the shard, the
    // replay re-executes — at most one orphaned job per failover. The
    // client still sees exactly one result. Anything beyond that bound
    // is a genuine double execution.
    std::fprintf(stderr,
                 "FAIL: %d duplicated executions exceed the %d failover "
                 "resubmissions that could explain them\n",
                 duplicated, t.failovers);
    bad = true;
  }
  if (t.check_failed > 0) {
    std::fprintf(stderr, "FAIL: %d residual checks failed\n", t.check_failed);
    bad = true;
  }
  if (t.failovers == 0) {
    std::fprintf(stderr, "FAIL: no client ever failed over — the kill "
                         "exercised nothing\n");
    bad = true;
  }
  if (!survivor_scrape_ok) {
    std::fprintf(stderr, "FAIL: surviving router's Stats scrape missing "
                         "router metrics\n");
    bad = true;
  }
  return bad ? 1 : 0;
}

int run_sweep(const Options& opt, int argc, char** argv) {
  const std::vector<int>& scales = opt.scales;
  std::printf("randla_cluster: scales");
  for (int s : scales) std::printf(" %d", s);
  std::printf(" — %d jobs, %d threads, spread %d, cache %d/shard\n", opt.jobs,
              opt.threads, opt.spread, opt.cache);

  std::vector<RunResult> results;
  for (int s : scales) {
    RunResult rr = run_scale(opt, s, RunMode::Sweep);
    if (!rr.started) return 1;
    const std::string label = std::to_string(s) + " shard" +
                              (s == 1 ? "" : "s");
    print_run(label.c_str(), rr);
    results.push_back(std::move(rr));
  }

  bench::JsonReport report("cluster", argc, argv);
  if (report.enabled()) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& rr = results[i];
      report.row(("scale_" + std::to_string(scales[i])).c_str())
          .set("shards", double(scales[i]))
          .set("jobs", double(opt.jobs))
          .set("ok", double(rr.ok))
          .set("lost", double(rr.lost))
          .set("duplicated", double(rr.duplicated))
          .set("checked", double(rr.checked))
          .set("check_failed", double(rr.check_failed))
          .set("busy_retries", double(rr.busy_retries))
          .set("wall_s", rr.wall_s)
          .set("throughput_jps", rr.throughput)
          .set("p50_ms", rr.p50_ms)
          .set("p99_ms", rr.p99_ms)
          .set("routed", double(rr.router.submits_routed))
          .set("spread", double(opt.spread))
          .set("cache_per_shard", double(opt.cache));
    }
    if (results.size() >= 2) {
      const double base = results.front().throughput;
      report.row("speedup")
          .set("scale_lo", double(scales.front()))
          .set("scale_hi", double(scales.back()))
          .set("speedup",
               base > 0 ? results.back().throughput / base : 0.0)
          .set("p99_ratio", results.front().p99_ms > 0
                                ? results.back().p99_ms /
                                      results.front().p99_ms
                                : 0.0);
    }
    if (!report.write()) return 1;
  }

  bool bad = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& rr = results[i];
    if (rr.lost > 0 || rr.duplicated > 0 || rr.check_failed > 0 ||
        !rr.stats_scrape_ok || !rr.merged_stats_ok) {
      std::fprintf(stderr,
                   "FAIL: scale %d: %d lost, %d duplicated, %d residual "
                   "failures, scrape %s, merge %s\n",
                   scales[i], rr.lost, rr.duplicated, rr.check_failed,
                   rr.stats_scrape_ok ? "ok" : "missing",
                   rr.merged_stats_ok ? "exact" : "MISMATCH");
      bad = true;
    }
  }
  if (opt.min_speedup > 0 && results.size() >= 2) {
    const double base = results.front().throughput;
    const double speedup =
        base > 0 ? results.back().throughput / base : 0.0;
    std::printf("speedup: %.2fx (%d → %d shards), bound %.2fx\n", speedup,
                scales.front(), scales.back(), opt.min_speedup);
    if (speedup < opt.min_speedup) {
      std::fprintf(stderr, "FAIL: speedup %.2fx below bound %.2fx\n", speedup,
                   opt.min_speedup);
      bad = true;
    }
  }
  return bad ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--scales")) {
      const char* list = need("--scales");
      if (!parse_scales(list, &opt.scales)) {
        std::fprintf(stderr, "cluster: --scales '%s' must list positive "
                             "integers\n", list);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--shards")) opt.shards = std::atoi(need("--shards"));
    else if (!std::strcmp(argv[i], "--jobs")) opt.jobs = std::atoi(need("--jobs"));
    else if (!std::strcmp(argv[i], "--threads")) opt.threads = std::atoi(need("--threads"));
    else if (!std::strcmp(argv[i], "--workers")) opt.workers = std::atoi(need("--workers"));
    else if (!std::strcmp(argv[i], "--queue")) opt.queue = std::atoi(need("--queue"));
    else if (!std::strcmp(argv[i], "--cache")) opt.cache = std::atoi(need("--cache"));
    else if (!std::strcmp(argv[i], "--spread")) opt.spread = std::atoi(need("--spread"));
    else if (!std::strcmp(argv[i], "--m")) opt.m = std::atoi(need("--m"));
    else if (!std::strcmp(argv[i], "--n")) opt.n = std::atoi(need("--n"));
    else if (!std::strcmp(argv[i], "--check-frac")) opt.check_frac = std::atof(need("--check-frac"));
    else if (!std::strcmp(argv[i], "--min-speedup")) opt.min_speedup = std::atof(need("--min-speedup"));
    else if (!std::strcmp(argv[i], "--replicate-threshold")) opt.replicate_threshold = std::atof(need("--replicate-threshold"));
    else if (!std::strcmp(argv[i], "--hedge")) opt.hedge = true;
    else if (!std::strcmp(argv[i], "--routers")) opt.routers = std::atoi(need("--routers"));
    else if (!std::strcmp(argv[i], "--hit-floor")) opt.hit_floor = std::atof(need("--hit-floor"));
    else if (!std::strcmp(argv[i], "--seed")) opt.seed = std::strtoull(need("--seed"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--tmp")) opt.tmp = need("--tmp");
    else if (!std::strcmp(argv[i], "--postmortem")) opt.postmortem = need("--postmortem");
    else if (!std::strcmp(argv[i], "--chaos")) opt.chaos = true;
    else if (!std::strcmp(argv[i], "--drain")) opt.drain = true;
    else if (!std::strcmp(argv[i], "--json")) { need("--json"); }  // JsonReport reads argv
    else { std::fprintf(stderr, "unknown flag %s\n", argv[i]); return 2; }
  }
  // Every mode waits for 40% of --jobs to finish or spreads work over
  // --threads clients: zero of either never finishes.
  if (opt.jobs < 1 || opt.threads < 1) {
    std::fprintf(stderr, "cluster: --jobs and --threads must be >= 1\n");
    return 2;
  }
  if ((opt.chaos || opt.drain) && opt.shards < 2) {
    std::fprintf(stderr, "cluster: --chaos/--drain need at least 2 shards\n");
    return 2;
  }
  if (opt.chaos && opt.drain) {
    std::fprintf(stderr, "cluster: --chaos and --drain are exclusive\n");
    return 2;
  }
  if (opt.routers > 1 && !opt.chaos) {
    std::fprintf(stderr, "cluster: --routers N only applies to --chaos\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  obs::Recorder::global().set_source("router");
  if (opt.chaos && opt.routers > 1) return run_router_chaos(opt, argc, argv);
  if (opt.chaos) return run_chaos(opt, argc, argv);
  if (opt.drain) return run_drain(opt, argc, argv);
  return run_sweep(opt, argc, argv);
}
