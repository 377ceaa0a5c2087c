// randla_loadgen — TCP load generator for the serving front-end.
//
// Drives a running `randla_serve --tcp <port>` (or any net::Server) with
// a deterministic mix of fixed-rank, adaptive, QP3, and RQRCP (fixed-
// rank + fixed-accuracy, protocol v4) requests over real sockets, one
// blocking net::Client per worker thread. Two pacing modes:
//   * closed loop (default): each thread keeps exactly one request in
//     flight — submit, wait, repeat;
//   * open loop (--rate R): requests are launched on a fixed arrival
//     schedule of R jobs/s regardless of completions, which is what
//     actually pushes the server into Busy-shedding territory.
//
// Busy replies are honored the way a well-behaved client should: sleep
// for the server's retry hint, then resend; latency is measured from the
// *first* attempt so shed-and-retry time counts against the server. A
// sample of fixed-rank results is residual-checked against a locally
// regenerated copy of the input (the request carries a generator spec,
// so client and server can materialize the identical matrix).
//
//   randla_loadgen --port P [--host H] [--jobs N] [--threads T]
//                  [--rate JOBS_PER_S] [--m M] [--n N] [--check-frac F]
//                  [--inline-frac F] [--spread N] [--batch-hint N]
//                  [--max-p99-ms X] [--expect-busy] [--shutdown]
//                  [--json PATH] [--check-stats]
//   randla_loadgen --chaos SCHEDULE [--seed N] [--jobs N] [--threads T]
//                  [--m M] [--n N] [--check-frac F] [--spread N]
//
// --port names exactly one server (a router endpoint counts as one);
// randla_cluster is the driver that forks, fronts and checks clusters.
//
// --chaos ignores --port: it hosts its own loopback scheduler + server
// with a deterministic fault injector (see src/fault) driven by
// SCHEDULE, e.g. "device_fail@0.05,conn_reset@0.02,worker_hang@0.03".
// Clients use the full retry policy (backoff + jitter, Busy hints,
// circuit breaker, idempotent resubmission) and the run reports lost /
// duplicated / retried jobs — the exit code demands 0 lost and 0
// duplicated, residual-verifies a sample of results, and asserts the
// fault_*/watchdog_* metric series are present in a Stats scrape.
//
// At the end of a run the generator scrapes the server's live metrics
// (Stats → StatsReply) and prints them next to its own accounting;
// --check-stats makes the comparison strict: the server's own
// net_busy_total must equal the Busy replies this client honored,
// net_jobs_submitted_total its admitted jobs, net_jobs_completed_total
// the submitted count, and net_decode_errors_total and
// net_results_dropped_total must read 0. These rows are per server
// instance, so the check holds exactly against a dedicated, freshly
// started server. The batching line reads runtime_batches_total and
// runtime_batched_jobs_total, and --json embeds the scraped label-free
// metrics in the report.
//
// --spread N rotates requests through N distinct matrix seeds: small N
// makes the scheduler's result cache absorb most of the load, large N
// forces real factorizations (use it to provoke Busy shedding).
//
// Exit code is a self-check: nonzero on any failed job, failed residual
// check, missing expected backpressure, or busted p99 bound.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fault/injector.hpp"
#include "la/norms.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "runtime/scheduler.hpp"
#include "util/stats.hpp"

using namespace randla;

namespace {

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  int jobs = 200;
  int threads = 4;
  double rate = 0;        // jobs/s; 0 = closed loop
  index_t m = 192, n = 96;
  double check_frac = 0.15;
  double inline_frac = 0.25;
  double max_p99_ms = 0;  // 0 = no bound
  int spread = 4;         // distinct matrix seeds; higher = fewer cache hits
  /// Server-side batch_max hint: presets client concurrency so the
  /// scheduler's collector can actually fill its batches (threads >=
  /// 2*hint), and reports scraped batch occupancy.
  int batch_hint = 0;
  bool expect_busy = false;
  bool send_shutdown = false;
  bool check_stats = false;
  std::uint64_t seed = 2026;
  std::string chaos;  ///< fault schedule DSL; non-empty = chaos mode
};

/// Metric names become JSON keys in the report; strip label syntax.
std::string sanitize_key(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name)
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_';
  return out;
}

/// Job-kind axis of the mix. Index == wire runtime::JobKind value, so a
/// request's kind maps straight to its latency bucket and JSON label.
constexpr int kNumKinds = 5;
constexpr const char* kKindNames[kNumKinds] = {
    "fixed_rank", "adaptive", "qrcp", "rqrcp", "rqrcp_adaptive"};

struct JobRecord {
  std::uint8_t kind = 0;  // runtime::JobKind wire value (index into kKindNames)
  double latency_ms = 0;
  int busy_retries = 0;
  bool ok = false;
  bool checked = false;
  bool check_passed = true;
};

/// Deterministic request for job index i: the mix rotates through a few
/// generator specs so the server's matrix memo and the scheduler's
/// sketch/result caches both see repeats.
net::JobRequest build_request(const Options& opt, int i) {
  net::JobRequest req;
  req.request_id = static_cast<std::uint64_t>(i) + 1;
  req.matrix.m = opt.m;
  req.matrix.n = opt.n;
  const int slot = i % 10;
  const std::uint64_t mseed =
      opt.seed + static_cast<std::uint64_t>(i % std::max(1, opt.spread));
  if (slot < 6) {
    // Fixed-rank on a numerically rank-8 input: with k = 16 ≥ rank the
    // approximation is near-exact, so the residual check has teeth.
    req.kind = runtime::JobKind::FixedRank;
    req.matrix.generator = "lowrank";
    req.matrix.seed = mseed;
    req.matrix.rank = 8;
    req.k = 16;
    req.p = 8;
    req.q = 1;
    req.tag = "loadgen/fixed";
  } else if (slot < 8) {
    req.kind = runtime::JobKind::Adaptive;
    req.matrix.generator = "gaussian";
    req.matrix.seed = mseed;
    req.epsilon = 0.5;
    req.relative = true;
    req.l_init = 8;
    req.l_inc = 8;
    req.l_max = std::min(opt.m, opt.n) / 2;
    req.tag = "loadgen/adaptive";
  } else if (slot == 8) {
    req.kind = runtime::JobKind::Qrcp;
    req.matrix.generator = "lowrank";
    req.matrix.seed = mseed;
    req.matrix.rank = 8;
    req.k = 16;
    req.block = 16;
    req.tag = "loadgen/qrcp";
  } else if (slot == 9 && i % 20 == 9) {
    // Fixed-accuracy RQRCP on the same numerically rank-8 input: with a
    // tight relative ε the sweep must discover (about) that rank.
    req.kind = runtime::JobKind::RqrcpAdaptive;
    req.matrix.generator = "lowrank";
    req.matrix.seed = mseed;
    req.matrix.rank = 8;
    req.epsilon = 1e-6;
    req.relative = true;
    req.block = 8;
    req.oversample = 8;
    req.max_rank = 32;
    req.want_q = true;
    req.tag = "loadgen/rqrcp_adaptive";
  } else {
    req.kind = runtime::JobKind::Rqrcp;
    req.matrix.generator = "lowrank";
    req.matrix.seed = mseed;
    req.matrix.rank = 8;
    req.k = 16;
    req.block = 8;
    req.oversample = 8;
    req.want_q = true;  // stream Q back so the residual check has teeth
    req.tag = "loadgen/rqrcp";
  }
  return req;
}

/// Every (i % check_period)-th job gets an inline payload instead of a
/// generator spec, exercising the other decode path end to end.
void maybe_inline(net::JobRequest& req, const Options& opt, int i) {
  if (opt.inline_frac <= 0) return;
  const int period = static_cast<int>(std::lround(1.0 / opt.inline_frac));
  if (period <= 0 || i % period != 0) return;
  req.matrix.inline_data = net::materialize(req.matrix);
  req.matrix.source = net::MatrixSource::Inline;
}

/// ‖A·P − Q·R‖_F / ‖A‖_F for a fixed-rank reply, with A regenerated
/// locally from the request's generator spec.
double fixed_rank_residual(const net::JobRequest& req,
                           const net::CallResult& res) {
  net::MatrixSpec spec = req.matrix;
  spec.source = net::MatrixSource::Generator;
  const Matrix<double> a = net::materialize(spec);
  const Matrix<double>& q = res.tensors[0];
  const Matrix<double>& r = res.tensors[1];
  Matrix<double> resid(a.rows(), a.cols());
  apply_column_permutation<double>(a.view(), res.header.perm, resid.view());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0,
                     ConstMatrixView<double>(q.view()),
                     ConstMatrixView<double>(r.view()), 1.0, resid.view());
  return norm_fro<double>(ConstMatrixView<double>(resid.view())) /
         norm_fro<double>(ConstMatrixView<double>(a.view()));
}

/// ‖(A·P)₁:k − Q·R1‖_F for a truncated-QP3 reply (leading k columns of
/// a pivoted QR are exact, not approximate).
double qrcp_residual(const net::JobRequest& req, const net::CallResult& res) {
  const Matrix<double> a = net::materialize(req.matrix);
  const Matrix<double>& q = res.tensors[0];
  const Matrix<double>& r1 = res.tensors[1];
  Matrix<double> lead = permuted_leading_columns<double>(
      a.view(), res.header.perm, r1.cols());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0,
                     ConstMatrixView<double>(q.view()),
                     ConstMatrixView<double>(r1.view()), 1.0, lead.view());
  return norm_fro<double>(ConstMatrixView<double>(lead.view())) /
         norm_fro<double>(ConstMatrixView<double>(a.view()));
}

/// ‖A·P − Q·[R1 R2]‖_F / ‖A‖_F for an RQRCP reply carrying the explicit
/// Q (want_q). Tensor order on the wire: rdiag, r1, r2, q.
double rqrcp_residual(const net::JobRequest& req, const net::CallResult& res) {
  net::MatrixSpec spec = req.matrix;
  spec.source = net::MatrixSource::Generator;
  const Matrix<double> a = net::materialize(spec);
  const Matrix<double>& r1 = res.tensors[1];
  const Matrix<double>& r2 = res.tensors[2];
  const Matrix<double>& q = res.tensors[3];
  const index_t k = r1.rows();
  Matrix<double> r(k, a.cols());
  for (index_t j = 0; j < r1.cols(); ++j)
    for (index_t i = 0; i < k; ++i) r(i, j) = r1(i, j);
  for (index_t j = 0; j < r2.cols(); ++j)
    for (index_t i = 0; i < k; ++i) r(i, k + j) = r2(i, j);
  Matrix<double> resid(a.rows(), a.cols());
  apply_column_permutation<double>(a.view(), res.header.perm, resid.view());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0,
                     ConstMatrixView<double>(q.view()),
                     ConstMatrixView<double>(r.view()), 1.0, resid.view());
  return norm_fro<double>(ConstMatrixView<double>(resid.view())) /
         norm_fro<double>(ConstMatrixView<double>(a.view()));
}

/// Shared contract checks for both RQRCP reply shapes, then the full
/// residual (only possible when the request asked for Q).
bool verify_rqrcp(const net::JobRequest& req, const net::CallResult& res,
                  double tol) {
  const std::size_t expect = req.want_q ? 4 : 3;
  if (res.tensors.size() != expect) return false;
  const index_t k = res.header.tensors[0].rows;  // rdiag is k×1
  if (res.header.tensors[1].rows != k || res.header.tensors[1].cols != k ||
      res.header.tensors[2].rows != k ||
      res.header.perm.size() != std::size_t(req.matrix.n))
    return false;
  if (req.kind == runtime::JobKind::Rqrcp && k != req.k) return false;
  if (req.kind == runtime::JobKind::RqrcpAdaptive &&
      (k < 1 || (req.max_rank > 0 && k > req.max_rank)))
    return false;
  if (!req.want_q) return true;
  if (res.header.tensors[3].rows != req.matrix.m ||
      res.header.tensors[3].cols != k)
    return false;
  const double err = rqrcp_residual(req, res);
  if (err > tol) {
    std::fprintf(stderr, "loadgen: rqrcp residual %.3e > %.1e (req %llu)\n",
                 err, tol, (unsigned long long)req.request_id);
    return false;
  }
  return true;
}

bool verify_result(const net::JobRequest& req, const net::CallResult& res,
                   JobRecord& rec) {
  if (res.header.status != runtime::JobStatus::Done) return false;
  switch (req.kind) {
    case runtime::JobKind::FixedRank: {
      if (res.tensors.size() != 2) return false;
      const double err = fixed_rank_residual(req, res);
      if (err > 1e-8) {
        std::fprintf(stderr, "loadgen: fixed-rank residual %.3e (req %llu)\n",
                     err, (unsigned long long)req.request_id);
        return false;
      }
      return true;
    }
    case runtime::JobKind::Adaptive: {
      // The basis dims are the contract here; the ε guarantee itself is
      // covered by the adaptive unit tests.
      return res.tensors.size() == 1 &&
             res.header.tensors[0].cols == req.matrix.n &&
             res.header.tensors[0].rows >= 1;
    }
    case runtime::JobKind::Qrcp: {
      if (res.tensors.size() != 3) return false;
      const double err = qrcp_residual(req, res);
      if (err > 1e-10) {
        std::fprintf(stderr, "loadgen: qrcp residual %.3e (req %llu)\n", err,
                     (unsigned long long)req.request_id);
        return false;
      }
      return true;
    }
    case runtime::JobKind::Rqrcp:
      // k = 16 on a numerically rank-8 input: the randomized pivoting
      // must recover the matrix to roundoff, like the QP3 baseline.
      return verify_rqrcp(req, res, 1e-10);
    case runtime::JobKind::RqrcpAdaptive:
      // The fixed-accuracy contract: residual within the requested ε
      // (relative mode in the mix), rank discovered within max_rank.
      return verify_rqrcp(req, res, req.epsilon * 10);
  }
  (void)rec;
  return false;
}

// ---------------------------------------------------------------------
// Chaos mode (DESIGN.md §10): loopback scheduler + server under a
// deterministic fault schedule, clients on the full retry policy.

/// Chaos requests are limited to the cached job kinds: idempotent
/// resubmission leans on the scheduler's result caches, which key
/// fixed-rank jobs and (since v4) RQRCP jobs — with adaptive/qp3 in
/// the mix a retried job would recompute, and the duplicate detector
/// below could not tell recomputation from a genuine double execution.
/// Every 5th job is a fixed-rank RQRCP factorization so the new verb
/// rides through the same fault schedule as the sketch path.
net::JobRequest chaos_request(const Options& opt, int i) {
  net::JobRequest req;
  req.request_id = static_cast<std::uint64_t>(i) + 1;
  req.matrix.generator = "lowrank";
  req.matrix.m = opt.m;
  req.matrix.n = opt.n;
  req.matrix.seed =
      opt.seed + static_cast<std::uint64_t>(i % std::max(1, opt.spread));
  req.matrix.rank = 8;
  req.k = 16;
  if (i % 5 == 4) {
    req.kind = runtime::JobKind::Rqrcp;
    req.block = 8;
    req.oversample = 8;
    req.want_q = true;
    req.tag = "chaos/rqrcp/" + std::to_string(i);
  } else {
    req.kind = runtime::JobKind::FixedRank;
    req.p = 8;
    req.q = 1;
    req.tag = "chaos/" + std::to_string(i);
  }
  return req;
}

int run_chaos(const Options& opt) {
  std::string err;
  fault::InjectorPtr injector = fault::make_injector(opt.chaos, opt.seed, &err);
  if (!injector) {
    std::fprintf(stderr, "loadgen: bad chaos schedule '%s': %s\n",
                 opt.chaos.c_str(), err.c_str());
    return 2;
  }

  runtime::SchedulerOptions so;
  so.num_workers = 2;
  so.queue_capacity = 32;
  so.injector = injector;
  so.max_resubmits = 2;
  so.watchdog_multiple = 3.0;  // budget = 3 × 0.25s grace per job
  runtime::Scheduler sched(so);

  net::ServerOptions svo;
  svo.port = 0;  // ephemeral loopback
  svo.injector = injector;
  net::Server server(sched, svo);
  if (!server.start()) return 1;

  std::printf("randla_loadgen: chaos '%s' seed %llu — %d jobs, %d threads, "
              "loopback port %u\n",
              opt.chaos.c_str(), (unsigned long long)opt.seed, opt.jobs,
              opt.threads, unsigned(server.port()));

  struct ChaosRecord {
    bool ok = false;
    int attempts = 0;
    int busy_retries = 0;
    int reconnects = 0;
    bool checked = false;
    bool check_passed = true;
  };
  std::vector<ChaosRecord> records(static_cast<std::size_t>(opt.jobs));
  std::atomic<int> next_job{0};
  std::atomic<int> check_counter{0};
  const int check_period =
      opt.check_frac > 0
          ? std::max(1, static_cast<int>(std::lround(1.0 / opt.check_frac)))
          : 0;

  auto worker = [&](int widx) {
    net::ClientOptions copt;
    copt.host = "127.0.0.1";
    copt.port = server.port();
    copt.recv_timeout_s = 10;
    copt.retry.max_attempts = 12;
    copt.retry.max_busy_retries = 1000;  // correctness over latency here
    copt.retry.busy_wait_cap_s = 0.5;
    copt.retry.backoff_seed = opt.seed * 1000 + std::uint64_t(widx);
    net::Client client(copt);
    for (;;) {
      const int i = next_job.fetch_add(1);
      if (i >= opt.jobs) return;
      const net::JobRequest req = chaos_request(opt, i);
      ChaosRecord& rec = records[static_cast<std::size_t>(i)];
      net::RetryInfo info;
      const net::CallResult res = client.call_with_retry(req, &info);
      rec.attempts = info.attempts;
      rec.busy_retries = info.busy_retries;
      rec.reconnects = info.reconnects;
      rec.ok = res.status == net::CallStatus::Ok &&
               res.header.status == runtime::JobStatus::Done;
      if (!rec.ok) {
        std::fprintf(stderr, "loadgen: chaos job %d lost after %d attempts: "
                     "%s %s %s\n",
                     i, info.attempts, net::call_status_name(res.status),
                     res.detail.c_str(), res.header.error.c_str());
        continue;
      }
      if (check_period > 0 && check_counter.fetch_add(1) % check_period == 0) {
        rec.checked = true;
        JobRecord scratch;
        rec.check_passed = verify_result(req, res, scratch);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < opt.threads; ++t) pool.emplace_back(worker, t);
  for (auto& t : pool) t.join();

  // ------------------------------------------------------------------
  // Duplicate detection from the scheduler's own telemetry: a tag that
  // *executed* (Done with cache Miss/None) more than once was genuinely
  // run twice. A retried submit whose first result was dropped shows up
  // as a second Done trace with cache == Result — idempotent, not a
  // duplicate. Failed/Expired traces never count.
  int duplicated = 0;
  {
    std::map<std::string, int> executed;
    for (const auto& tr : sched.telemetry().traces())
      if (tr.status == runtime::JobStatus::Done &&
          (tr.cache == runtime::CacheDisposition::Miss ||
           tr.cache == runtime::CacheDisposition::None))
        ++executed[tr.tag];
    for (const auto& [tag, n] : executed)
      if (n > 1) {
        std::fprintf(stderr, "loadgen: tag %s executed %d times\n",
                     tag.c_str(), n);
        ++duplicated;
      }
  }

  // Quiesce the injector before the verification scrape: disabled
  // decisions still consume Philox indices, so a replay with the same
  // seed stays aligned, but no fault can eat the scrape itself.
  injector->set_enabled(false);

  std::optional<net::StatsReply> stats;
  std::optional<net::HealthReply> health;
  for (int attempt = 0; attempt < 3 && (!stats || !health); ++attempt) {
    net::ClientOptions copt;
    copt.host = "127.0.0.1";
    copt.port = server.port();
    copt.recv_timeout_s = 5;
    net::Client sc(copt);
    if (!sc.connect()) continue;
    if (!stats) stats = sc.stats();
    if (!health) health = sc.health();
  }

  int ok = 0, lost = 0, retried = 0, checked = 0, check_failed = 0;
  long total_busy = 0, total_reconnects = 0;
  for (const ChaosRecord& r : records) {
    r.ok ? ++ok : ++lost;
    if (r.attempts > 1) ++retried;
    total_busy += r.busy_retries;
    total_reconnects += r.reconnects;
    if (r.checked) {
      ++checked;
      if (!r.check_passed) ++check_failed;
    }
  }
  const auto fs = sched.fault_stats();

  std::printf("\n-- chaos summary ----------------------------------------\n");
  std::printf("jobs:        %d ok, %d lost, %d duplicated (of %d)\n", ok, lost,
              duplicated, opt.jobs);
  std::printf("retries:     %d jobs retried, %ld busy waits, %ld reconnects\n",
              retried, total_busy, total_reconnects);
  std::printf("residual:    %d sampled, %d failed\n", checked, check_failed);
  std::printf("faults:      %llu injected (",
              (unsigned long long)injector->injected_total());
  for (int k = 0; k < fault::kNumFaultKinds; ++k) {
    const auto kind = static_cast<fault::FaultKind>(k);
    if (injector->injected(kind) > 0)
      std::printf("%s=%llu ", fault::fault_kind_name(kind),
                  (unsigned long long)injector->injected(kind));
  }
  std::printf(")\n");
  std::printf("recovery:    %llu requeued, %llu device failures, "
              "%llu watchdog firings, %d/%d devices healthy\n",
              (unsigned long long)fs.jobs_requeued,
              (unsigned long long)fs.device_failures,
              (unsigned long long)fs.watchdog_fired, fs.healthy_workers,
              sched.num_workers());
  if (health) {
    std::printf("health:      serving=%d healthy=%u/%u requeued=%llu "
                "injected=%llu\n",
                int(health->serving), health->healthy_devices,
                health->total_devices,
                (unsigned long long)health->jobs_requeued,
                (unsigned long long)health->faults_injected);
  }

  bool bad = false;
  if (lost > 0) {
    std::fprintf(stderr, "FAIL: %d jobs lost\n", lost);
    bad = true;
  }
  if (duplicated > 0) {
    std::fprintf(stderr, "FAIL: %d jobs executed more than once\n", duplicated);
    bad = true;
  }
  if (check_failed > 0) {
    std::fprintf(stderr, "FAIL: %d residual checks failed\n", check_failed);
    bad = true;
  }
  if (!stats) {
    std::fprintf(stderr, "FAIL: stats scrape failed after chaos run\n");
    bad = true;
  } else {
    // The fault/watchdog series must exist in the scrape even at value 0
    // (the scheduler exports its requeue, watchdog and unhealthy-device
    // rows on every scrape; the injector registers its series eagerly).
    const char* required[] = {"fault_decisions_total",
                              "fault_job_requeued_total",
                              "fault_device_unhealthy", "watchdog_fired_total"};
    for (const char* name : required)
      if (!stats->has(name)) {
        std::fprintf(stderr, "FAIL: metric series %s missing from scrape\n",
                     name);
        bad = true;
      }
    bool saw_injected_series = false;
    for (const auto& [name, v] : stats->metrics)
      if (name.rfind("fault_injected_total{", 0) == 0) saw_injected_series = true;
    if (!saw_injected_series) {
      std::fprintf(stderr,
                   "FAIL: no fault_injected_total{kind=...} series in scrape\n");
      bad = true;
    }
  }
  if (!health) {
    std::fprintf(stderr, "FAIL: health probe failed after chaos run\n");
    bad = true;
  } else if (health->healthy_devices < 1) {
    std::fprintf(stderr, "FAIL: no healthy devices left\n");
    bad = true;
  }

  server.stop();
  return bad ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--host")) opt.host = need("--host");
    else if (!std::strcmp(argv[i], "--port")) {
      const char* arg = need("--port");
      char* end = nullptr;
      const long port = std::strtol(arg, &end, 10);
      if (end == arg || *end != '\0' || port < 1 || port > 65535) {
        std::fprintf(stderr, "loadgen: --port takes one port number, got "
                             "'%s'\n", arg);
        return 2;
      }
      opt.port = static_cast<int>(port);
    } else if (!std::strcmp(argv[i], "--jobs")) opt.jobs = std::atoi(need("--jobs"));
    else if (!std::strcmp(argv[i], "--threads")) opt.threads = std::atoi(need("--threads"));
    else if (!std::strcmp(argv[i], "--rate")) opt.rate = std::atof(need("--rate"));
    else if (!std::strcmp(argv[i], "--m")) opt.m = std::atoi(need("--m"));
    else if (!std::strcmp(argv[i], "--n")) opt.n = std::atoi(need("--n"));
    else if (!std::strcmp(argv[i], "--check-frac")) opt.check_frac = std::atof(need("--check-frac"));
    else if (!std::strcmp(argv[i], "--inline-frac")) opt.inline_frac = std::atof(need("--inline-frac"));
    else if (!std::strcmp(argv[i], "--max-p99-ms")) opt.max_p99_ms = std::atof(need("--max-p99-ms"));
    else if (!std::strcmp(argv[i], "--spread")) opt.spread = std::atoi(need("--spread"));
    else if (!std::strcmp(argv[i], "--batch-hint")) opt.batch_hint = std::atoi(need("--batch-hint"));
    else if (!std::strcmp(argv[i], "--seed")) opt.seed = std::strtoull(need("--seed"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--chaos")) opt.chaos = need("--chaos");
    else if (!std::strcmp(argv[i], "--json")) json_path = need("--json");
    else if (!std::strcmp(argv[i], "--expect-busy")) opt.expect_busy = true;
    else if (!std::strcmp(argv[i], "--shutdown")) opt.send_shutdown = true;
    else if (!std::strcmp(argv[i], "--check-stats")) opt.check_stats = true;
    else { std::fprintf(stderr, "unknown flag %s\n", argv[i]); return 2; }
  }
  if (!opt.chaos.empty()) return run_chaos(opt);  // hosts its own loopback
  if (opt.port == 0) {
    std::fprintf(stderr,
                 "usage: randla_loadgen --port P [flags]\n"
                 "       randla_loadgen --chaos SCHEDULE [--seed N] [flags]\n");
    return 2;
  }
  if (opt.batch_hint > 0) {
    // Concurrency preset: a collector with batch_max=N only fills its
    // window when ~N jobs are queued per worker, so keep at least two
    // windows of requests in flight.
    const int preset = 2 * opt.batch_hint;
    if (opt.threads < preset) {
      std::printf("batch-hint %d: raising --threads %d -> %d\n",
                  opt.batch_hint, opt.threads, preset);
      opt.threads = preset;
    }
  }

  std::printf("randla_loadgen: %d jobs → %s:%d, %d threads, %s\n", opt.jobs,
              opt.host.c_str(), opt.port, opt.threads,
              opt.rate > 0 ? "open loop" : "closed loop");

  net::ClientOptions server_opt;
  server_opt.host = opt.host;
  server_opt.port = static_cast<std::uint16_t>(opt.port);

  std::vector<JobRecord> records(static_cast<std::size_t>(opt.jobs));
  std::atomic<int> next_job{0};
  std::atomic<int> transport_failures{0};
  std::atomic<int> check_counter{0};
  const int check_period =
      opt.check_frac > 0
          ? std::max(1, static_cast<int>(std::lround(1.0 / opt.check_frac)))
          : 0;
  const auto t0 = std::chrono::steady_clock::now();

  auto worker = [&](int widx) {
    net::Client client(server_opt);
    if (!client.connect()) {
      std::fprintf(stderr, "loadgen[%d]: %s\n", widx,
                   client.last_error().c_str());
      transport_failures.fetch_add(1);
      return;
    }
    for (;;) {
      const int i = next_job.fetch_add(1);
      if (i >= opt.jobs) return;
      net::JobRequest req = build_request(opt, i);
      maybe_inline(req, opt, i);
      JobRecord& rec = records[static_cast<std::size_t>(i)];
      rec.kind = static_cast<std::uint8_t>(req.kind);
      if (opt.rate > 0) {
        // Open loop: launch at the scheduled arrival time even if the
        // previous request on this thread just finished late.
        const auto due =
            t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(double(i) / opt.rate));
        std::this_thread::sleep_until(due);
      }
      const auto start = std::chrono::steady_clock::now();
      net::CallResult res;
      for (;;) {
        res = client.call(req);
        if (res.status != net::CallStatus::Busy) break;
        rec.busy_retries += 1;
        const auto nap = std::min<std::uint32_t>(res.busy.retry_after_ms, 200);
        std::this_thread::sleep_for(std::chrono::milliseconds(nap));
      }
      rec.latency_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (res.status != net::CallStatus::Ok ||
          res.header.status != runtime::JobStatus::Done) {
        std::fprintf(stderr, "loadgen: job %d failed: %s %s %s\n", i,
                     net::call_status_name(res.status),
                     res.detail.c_str(),
                     res.status == net::CallStatus::RemoteError
                         ? res.error.message.c_str()
                         : res.header.error.c_str());
        if (res.status == net::CallStatus::TransportError) {
          // The connection is unusable after a transport error.
          if (!client.connect()) return;
        }
        continue;  // rec.ok stays false
      }
      rec.ok = true;
      if (check_period > 0 && check_counter.fetch_add(1) % check_period == 0) {
        rec.checked = true;
        rec.check_passed = verify_result(req, res, rec);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < opt.threads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // ------------------------------------------------------------------
  // Aggregate.
  int ok = 0, failed = 0, busy_events = 0, checked = 0, check_failed = 0;
  std::vector<double> lat_all;
  std::vector<double> lat_by_kind[kNumKinds];  // indexed by JobKind value
  for (const JobRecord& r : records) {
    busy_events += r.busy_retries;
    if (r.ok) {
      ++ok;
      lat_all.push_back(r.latency_ms);
      lat_by_kind[std::min<int>(r.kind, kNumKinds - 1)].push_back(
          r.latency_ms);
    } else {
      ++failed;
    }
    if (r.checked) {
      ++checked;
      if (!r.check_passed) ++check_failed;
    }
  }
  const double p50 = util::percentile(lat_all, 50);
  const double p90 = util::percentile(lat_all, 90);
  const double p99 = util::percentile(lat_all, 99);
  const double throughput = wall_s > 0 ? double(ok) / wall_s : 0;

  std::printf("\n-- load summary -----------------------------------------\n");
  std::printf("jobs:        %d ok, %d failed (of %d) in %.2fs → %.1f jobs/s\n",
              ok, failed, opt.jobs, wall_s, throughput);
  std::printf("latency ms:  p50 %.1f  p90 %.1f  p99 %.1f\n", p50, p90, p99);
  std::printf("backpressure: %d busy replies honored\n", busy_events);
  std::printf("residual:    %d sampled, %d failed\n", checked, check_failed);

  // Scrape the server's live metrics over the wire (before any shutdown)
  // and hold them for the report + cross-check below.
  std::optional<net::StatsReply> server_stats;
  {
    net::Client sc(server_opt);
    if (sc.connect()) server_stats = sc.stats();
    if (!server_stats)
      std::fprintf(stderr, "loadgen: stats scrape of :%d failed: %s\n",
                   opt.port, sc.last_error().c_str());
  }
  double batches = 0, bjobs = 0, bmax = 0;
  if (server_stats) {
    std::printf("server:      %.0f submitted, %.0f busy, %.0f completed, "
                "%.0f protocol errors, %.0f dropped\n",
                server_stats->value("net_jobs_submitted_total"),
                server_stats->value("net_busy_total"),
                server_stats->value("net_jobs_completed_total"),
                server_stats->value("net_decode_errors_total"),
                server_stats->value("net_results_dropped_total"));
    batches = server_stats->value("runtime_batches_total");
    bjobs = server_stats->value("runtime_batched_jobs_total");
    bmax = server_stats->value("sched_batch_max");
    if (server_stats->has("runtime_batches_total"))
      std::printf("batching:    batch_max %.0f, %.0f dispatches, %.0f jobs "
                  "coalesced, mean occupancy %.2f\n",
                  bmax, batches, bjobs, batches > 0 ? bjobs / batches : 0.0);
  }

  bench::JsonReport report("serving", argc, argv);
  if (report.enabled()) {
    report.row("summary")
        .set("jobs", double(opt.jobs))
        .set("ok", double(ok))
        .set("failed", double(failed))
        .set("busy_events", double(busy_events))
        .set("checked", double(checked))
        .set("check_failed", double(check_failed))
        .set("wall_s", wall_s)
        .set("throughput_jps", throughput)
        .set("p50_ms", p50)
        .set("p90_ms", p90)
        .set("p99_ms", p99)
        .set("threads", double(opt.threads))
        .set("mode", std::string(opt.rate > 0 ? "open" : "closed"))
        .set("rate_jps", opt.rate);
    report.row("batching")
        .set("batch_max", bmax)
        .set("dispatches", batches)
        .set("batched_jobs", bjobs)
        .set("mean_occupancy", batches > 0 ? bjobs / batches : 0.0)
        .set("batch_hint", double(opt.batch_hint));
    // One row per job kind in the mix, labeled explicitly so report
    // consumers can filter on the "kind" field instead of row names
    // (which previously covered only the original three kinds).
    for (int ki = 0; ki < kNumKinds; ++ki) {
      report.row("by_kind")
          .set("kind", std::string(kKindNames[ki]))
          .set("count", double(lat_by_kind[ki].size()))
          .set("p50_ms", util::percentile(lat_by_kind[ki], 50))
          .set("p90_ms", util::percentile(lat_by_kind[ki], 90))
          .set("p99_ms", util::percentile(lat_by_kind[ki], 99));
    }
    if (server_stats) {
      // Embed the scrape (label-free series only: labeled names would
      // collapse to ambiguous keys after sanitizing).
      auto& row = report.row("server_stats");
      row.set("port", double(opt.port));
      for (const auto& [name, v] : server_stats->metrics)
        if (name.find('{') == std::string::npos)
          row.set(sanitize_key(name).c_str(), v);
    }
    if (!report.write()) return 1;
  }

  if (opt.send_shutdown) {
    net::Client client(server_opt);
    if (client.connect() && client.send_shutdown())
      std::printf("sent shutdown to :%d\n", opt.port);
  }

  // Self-check exit code (CI smoke contract).
  bool bad = false;
  if (failed > 0 || transport_failures.load() > 0) {
    std::fprintf(stderr, "FAIL: %d jobs failed, %d transport failures\n",
                 failed, transport_failures.load());
    bad = true;
  }
  if (check_failed > 0) {
    std::fprintf(stderr, "FAIL: %d residual checks failed\n", check_failed);
    bad = true;
  }
  if (opt.expect_busy && busy_events == 0) {
    std::fprintf(stderr, "FAIL: expected Busy backpressure, saw none\n");
    bad = true;
  }
  if (opt.max_p99_ms > 0 && p99 > opt.max_p99_ms) {
    std::fprintf(stderr, "FAIL: p99 %.1fms exceeds bound %.1fms\n", p99,
                 opt.max_p99_ms);
    bad = true;
  }
  if (opt.check_stats) {
    // Against a dedicated server, every counter is accounted for: each
    // Busy reply we honored is one server-side shed, every admitted job
    // came back, and nothing was malformed or dropped.
    if (!server_stats) {
      std::fprintf(stderr, "FAIL: --check-stats but stats scrape failed\n");
      bad = true;
    } else {
      auto expect = [&](const char* name, double want) {
        const double got = server_stats->value(name);
        if (got != want) {
          std::fprintf(stderr, "FAIL: server %s = %.0f, client expects %.0f\n",
                       name, got, want);
          bad = true;
        }
      };
      expect("net_busy_total", double(busy_events));
      expect("net_decode_errors_total", 0);
      expect("net_results_dropped_total", 0);
      expect("net_jobs_completed_total",
             server_stats->value("net_jobs_submitted_total"));
      if (failed == 0 && transport_failures.load() == 0)
        expect("net_jobs_submitted_total", double(opt.jobs));
    }
  }
  return bad ? 1 : 0;
}
