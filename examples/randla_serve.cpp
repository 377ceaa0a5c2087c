// randla_serve — replay a synthetic serving workload through the
// concurrent batch-serving runtime and print its structured telemetry.
//
// The workload mixes fixed-rank requests (with repeated matrices and
// rank refinements that hit the result/sketch cache), fixed-accuracy
// adaptive jobs, QP3 baseline jobs, and a few ill-conditioned inputs
// that trip CholQR breakdown and the scheduler's retry escalation.
// Jobs are submitted in bursts against a deliberately small admission
// queue, so some are shed with QueueFull (backpressure) and re-submitted
// once after the burst drains — exactly how a client should react.
//
//   randla_serve [--jobs N] [--workers N] [--queue N] [--burst N]
//                [--deadline SECONDS] [--watchdog MULT] [--traces PATH]
//                [--tcp PORT] [--clients N] [--linger] [--engine qp3|rqrcp]
//                [--metrics PATH] [--trace PATH]
//
// --engine swaps the engine serving the workload's deterministic
// rank-revealing jobs: qp3 (default) keeps the truncated-QP3 baseline,
// rqrcp remaps them to the randomized RQRCP engine (protocol v4) with
// want_q set. The in-process replay prints the mean/max factorization
// residual for those jobs, so two runs differing only in --engine are a
// direct A/B comparison of the engines on identical traffic.
//
// --watchdog enables the scheduler's execution watchdog (cancel jobs
// past MULT × their effective deadline); in --tcp mode the client-side
// recv timeout is derived from the same budget, so a server that dies
// mid-run makes the replay exit nonzero instead of hanging.
//
// --metrics writes Prometheus text on exit: the server's (with --tcp)
// or the scheduler's own rows, the same ones a Stats scrape returns.
// It also turns on kernel profiling, so the scheduler's la_* kernel
// rows are populated;
// --trace enables the span tracer and dumps Chrome trace_event JSON
// (load it in Perfetto / chrome://tracing) on exit.
//
// With --tcp the same workload is replayed over a real loopback socket
// through src/net: the process hosts a net::Server on PORT (0 picks an
// ephemeral port, printed on stdout) and drives it with N concurrent
// blocking clients that honor Busy backpressure the way the in-process
// path honors QueueFull. --linger keeps the server alive after the
// replay (or with --jobs 0, immediately) until a client sends a
// Shutdown frame — the CI smoke runs `randla_serve --tcp ... --linger`
// in the background and points randla_loadgen at it.
//
// See README.md §randla_serve for the telemetry JSON schema.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "la/blas3.hpp"
#include "la/norms.hpp"
#include "la/permutation.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/workload.hpp"

using namespace randla;

namespace {

/// Write `text` to `path`; false, with a message, when it cannot.
bool write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

/// Writes the span trace (--trace) when the process is done, whatever
/// path it exits through. Declared before the scheduler so workers are
/// joined (all spans recorded) by the time this runs.
struct TraceDump {
  std::string path;
  ~TraceDump() {
    const auto& tracer = obs::Tracer::global();
    if (!path.empty() && write_text(path, tracer.chrome_json()))
      std::printf("wrote %zu trace events to %s (%zu dropped)\n",
                  tracer.events().size(), path.c_str(), tracer.dropped());
  }
};

/// Writes the Prometheus dump (--metrics) when its scope ends, whatever
/// path it exits through. Declared after the server (or, in-process,
/// the scheduler) whose stats_rows() it reads, so those rows come from
/// the live instance, the same rows a Stats scrape returns (the `la_*`
/// kernel rows among them).
struct MetricsDump {
  std::string path;
  std::function<obs::MetricRows()> rows;
  const runtime::TelemetrySink& jobs;
  ~MetricsDump() {
    if (path.empty()) return;
    // The telemetry sink's rows keep their types (slo_latency_seconds is
    // a histogram); of the rest, `_total` rows are counters and the
    // others point-in-time gauges.
    obs::Snapshot own = jobs.metrics();
    std::set<std::string> typed;
    for (auto& row : own.flatten(/*include_buckets=*/true))
      typed.insert(std::move(row.first));
    for (auto& [name, v] : rows()) {
      if (typed.count(name)) continue;
      const std::string_view base =
          std::string_view(name).substr(0, name.find('{'));
      (base.ends_with("_total") ? own.counters : own.gauges)
          .emplace_back(std::move(name), v);
    }
    if (write_text(path, own.prometheus()))
      std::printf("wrote metrics to %s\n", path.c_str());
  }
};

/// Rebuild the generator spec a workload job's matrix came from (the
/// workload derives every input from a seeded generator, so the wire
/// request can name it instead of shipping the payload).
net::MatrixSpec spec_for(const runtime::MatrixHandle& a,
                         const runtime::Workload& w,
                         const runtime::WorkloadOptions& wo) {
  net::MatrixSpec spec;
  spec.m = wo.m;
  spec.n = wo.n;
  for (std::size_t i = 0; i < w.matrices.size(); ++i) {
    if (w.matrices[i] == a) {
      spec.generator = "gaussian";
      spec.seed = wo.seed + 100 + i;
      return spec;
    }
  }
  // Not one of the well-conditioned inputs: the deficient matrix.
  spec.generator = "lowrank";
  spec.seed = wo.seed + 999;
  spec.rank = std::max<index_t>(2, wo.ranks.front() / 2);
  return spec;
}

std::uint8_t ortho_to_wire(ortho::Scheme s) {
  if (s == ortho::Scheme::CholQR) return 0;
  if (s == ortho::Scheme::HHQR) return 2;
  return 1;  // CholQR2 (the default)
}

net::JobRequest to_request(const runtime::Job& job, const runtime::Workload& w,
                           const runtime::WorkloadOptions& wo,
                           std::uint64_t id) {
  net::JobRequest req;
  req.request_id = id;
  req.tag = job.tag;
  req.deadline_s = job.deadline_s;
  req.matrix = spec_for(runtime::job_matrix(job), w, wo);
  if (const auto* fj = std::get_if<runtime::FixedRankJob>(&job.payload)) {
    req.kind = runtime::JobKind::FixedRank;
    req.k = fj->opts.k;
    req.p = fj->opts.p;
    req.q = fj->opts.q;
    req.sample_seed = fj->opts.seed;
    req.power_ortho = ortho_to_wire(fj->opts.power_ortho);
  } else if (const auto* aj = std::get_if<runtime::AdaptiveJob>(&job.payload)) {
    req.kind = runtime::JobKind::Adaptive;
    req.epsilon = aj->opts.epsilon;
    req.relative = aj->opts.relative;
    req.l_init = aj->opts.l_init;
    req.l_inc = aj->opts.l_inc;
    req.l_max = aj->opts.l_max;
    req.q = aj->opts.q;
    req.sample_seed = aj->opts.seed;
    req.power_ortho = ortho_to_wire(aj->opts.power_ortho);
  } else if (const auto* rj = std::get_if<runtime::RqrcpJob>(&job.payload)) {
    req.kind = rj->opts.epsilon > 0 ? runtime::JobKind::RqrcpAdaptive
                                    : runtime::JobKind::Rqrcp;
    req.k = rj->k;
    req.block = rj->opts.block;
    req.oversample = rj->opts.oversample;
    req.sample_seed = rj->opts.seed;
    req.want_q = rj->opts.want_q;
    req.epsilon = rj->opts.epsilon;
    req.relative = rj->opts.relative;
    req.max_rank = rj->opts.max_rank;
  } else {
    const auto& qj = std::get<runtime::QrcpJob>(job.payload);
    req.kind = runtime::JobKind::Qrcp;
    req.k = qj.k;
    req.block = qj.block;
  }
  return req;
}

/// --engine rqrcp: swap every deterministic QP3 job for the randomized
/// engine at the same rank, with the explicit Q requested so the replay
/// can residual-check both engines on identical traffic.
void remap_engine(runtime::Workload& w) {
  for (auto& job : w.jobs) {
    if (const auto* qj = std::get_if<runtime::QrcpJob>(&job.payload)) {
      runtime::RqrcpJob rj;
      rj.a = qj->a;
      rj.k = qj->k;
      rj.opts.block = qj->block;
      rj.opts.want_q = true;
      job.payload = std::move(rj);
      job.tag += "/rqrcp";
    }
  }
}

/// ‖(A·P)₁:k − Q·R₁‖_F / ‖A‖_F for either engine's factors.
double engine_residual(ConstMatrixView<double> a, const Permutation& perm,
                       ConstMatrixView<double> q, ConstMatrixView<double> r1) {
  Matrix<double> lead = permuted_leading_columns<double>(a, perm, r1.cols());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0, q,
                     ConstMatrixView<double>(r1), 1.0, lead.view());
  return norm_fro<double>(ConstMatrixView<double>(lead.view())) /
         norm_fro<double>(a);
}

/// Loopback replay: host a net::Server on `port` and push the workload
/// through it with `clients` concurrent blocking connections.
int run_tcp(runtime::Scheduler& sched, const runtime::Workload& w,
            const runtime::WorkloadOptions& wo, int port, int clients,
            bool linger, const std::string& metrics_path) {
  net::ServerOptions sopts;
  sopts.port = static_cast<std::uint16_t>(port);
  sopts.allow_remote_shutdown = true;
  net::Server server(sched, sopts);
  MetricsDump metrics{metrics_path, [&server] { return server.stats_rows(); },
                      sched.telemetry()};
  if (!server.start()) return 1;
  std::printf("randla_serve: listening on 127.0.0.1:%u (%zu replay jobs, "
              "%d clients%s)\n",
              unsigned(server.port()), w.jobs.size(), clients,
              linger ? ", linger" : "");
  std::fflush(stdout);

  // Client-side wait bound, derived from the scheduler's watchdog policy
  // when one is configured: if a job's execution budget is B, a healthy
  // server must answer well within a few multiples of it. Without this
  // bound a dead event loop left clients blocked in recv forever.
  const auto& so = sched.options();
  const double budget =
      so.watchdog_multiple > 0
          ? so.watchdog_multiple *
                std::max(so.default_deadline_s, so.watchdog_grace_s)
          : 0;
  const double recv_timeout_s = budget > 0 ? 4 * budget + 1 : 30;

  std::atomic<std::size_t> next{0};
  std::atomic<int> busy_total{0}, ok_total{0}, failed_total{0};
  std::atomic<bool> server_died{false};
  auto submitter = [&] {
    net::ClientOptions copt;
    copt.port = server.port();
    copt.recv_timeout_s = recv_timeout_s;
    net::Client client(copt);
    if (!client.connect()) {
      failed_total.fetch_add(1);
      return;
    }
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= w.jobs.size()) return;
      const net::JobRequest req =
          to_request(w.jobs[i], w, wo, static_cast<std::uint64_t>(i) + 1);
      for (;;) {
        const net::CallResult res = client.call(req);
        if (res.status == net::CallStatus::Busy) {
          busy_total.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::min<std::uint32_t>(res.busy.retry_after_ms, 100)));
          continue;
        }
        if (res.status == net::CallStatus::Ok &&
            res.header.status == runtime::JobStatus::Done) {
          ok_total.fetch_add(1);
        } else {
          if ((res.status == net::CallStatus::TransportError ||
               res.status == net::CallStatus::ProtocolError) &&
              !server.running()) {
            // The background server died mid-run: abandon the replay
            // instead of timing out once per remaining job.
            server_died.store(true);
            return;
          }
          std::fprintf(stderr, "replay job %zu: %s %s\n", i,
                       net::call_status_name(res.status),
                       res.detail.empty() ? res.header.error.c_str()
                                          : res.detail.c_str());
          failed_total.fetch_add(1);
        }
        break;
      }
    }
  };
  std::vector<std::thread> pool;
  for (int c = 0; c < clients && !w.jobs.empty(); ++c)
    pool.emplace_back(submitter);
  for (auto& t : pool) t.join();

  if (server_died.load()) {
    std::fprintf(stderr,
                 "randla_serve: server died mid-run (%d ok before loss)\n",
                 ok_total.load());
    return 1;
  }

  if (!w.jobs.empty()) {
    const auto summary = sched.telemetry().summarize();
    const auto sk = sched.sketch_cache_stats();
    const auto rc = sched.result_cache_stats();
    const auto st = server.stats();
    std::printf("\n-- tcp replay summary -----------------------------------\n");
    std::printf("%s\n", summary.to_json().c_str());
    std::printf("replay:       %d ok, %d failed, %d busy replies honored\n",
                ok_total.load(), failed_total.load(), busy_total.load());
    std::printf("server:       %llu frames in, %llu protocol errors, "
                "%llu submitted, %llu busy, %llu completed\n",
                (unsigned long long)st.frames_in,
                (unsigned long long)st.protocol_errors,
                (unsigned long long)st.jobs_submitted,
                (unsigned long long)st.jobs_busy,
                (unsigned long long)st.jobs_completed);

    const bool saw_cache_hit = sk.hits + rc.hits > 0;
    const bool saw_busy = busy_total.load() > 0;
    const bool saw_retry = summary.retries > 0;
    const bool clean = failed_total.load() == 0 && st.protocol_errors == 0;
    if (!saw_cache_hit || !saw_busy || !saw_retry || !clean) {
      std::fprintf(stderr,
                   "expected cache hit (%d), busy (%d), retry (%d), "
                   "clean replay (%d)\n",
                   int(saw_cache_hit), int(saw_busy), int(saw_retry),
                   int(clean));
      if (!linger) return 1;
    }
  }

  if (linger) {
    std::printf("randla_serve: serving until remote shutdown\n");
    std::fflush(stdout);
    server.wait();  // a client's Shutdown frame drains and exits the loop
    std::printf("randla_serve: drained after remote shutdown\n");
  } else {
    server.stop();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 120, workers = 2, queue = 8, burst = 16;
  int tcp_port = -1, clients = 8, batch = 1;
  bool linger = false;
  double deadline = 0, watchdog = 0;
  std::string traces_path, metrics_path, trace_path, engine = "qp3";
  for (int i = 1; i < argc; ++i) {
    auto val = [&] {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--jobs")) jobs = std::atoi(val());
    else if (!std::strcmp(argv[i], "--workers")) workers = std::atoi(val());
    else if (!std::strcmp(argv[i], "--queue")) queue = std::atoi(val());
    else if (!std::strcmp(argv[i], "--burst")) burst = std::atoi(val());
    else if (!std::strcmp(argv[i], "--deadline")) deadline = std::atof(val());
    else if (!std::strcmp(argv[i], "--watchdog")) watchdog = std::atof(val());
    else if (!std::strcmp(argv[i], "--traces")) traces_path = val();
    else if (!std::strcmp(argv[i], "--tcp")) tcp_port = std::atoi(val());
    else if (!std::strcmp(argv[i], "--clients")) clients = std::atoi(val());
    else if (!std::strcmp(argv[i], "--linger")) linger = true;
    else if (!std::strcmp(argv[i], "--batch")) batch = std::atoi(val());
    else if (!std::strcmp(argv[i], "--metrics")) metrics_path = val();
    else if (!std::strcmp(argv[i], "--trace")) trace_path = val();
    else if (!std::strcmp(argv[i], "--engine")) engine = val();
    else { std::fprintf(stderr, "unknown flag %s\n", argv[i]); return 2; }
  }
  if (engine != "qp3" && engine != "rqrcp") {
    std::fprintf(stderr, "--engine must be qp3 or rqrcp (got '%s')\n",
                 engine.c_str());
    return 2;
  }

  obs::Recorder::global().set_source("serve");
  if (const char* crash = std::getenv("RANDLA_POSTMORTEM_PATH"))
    obs::Recorder::global().install_crash_handler(crash);

  TraceDump trace_dump{trace_path};
  if (!metrics_path.empty() || !trace_path.empty())
    obs::set_profiling_enabled(true);  // populate la_* kernel series
  if (!trace_path.empty()) obs::Tracer::global().enable();

  runtime::WorkloadOptions wo;
  wo.num_jobs = jobs;
  runtime::Workload w = runtime::make_workload(wo);
  if (engine == "rqrcp") remap_engine(w);

  runtime::SchedulerOptions so;
  so.num_workers = workers;
  so.queue_capacity = static_cast<std::size_t>(queue);
  so.default_deadline_s = deadline;
  so.watchdog_multiple = watchdog;
  so.batch_max = std::max(1, batch);
  runtime::Scheduler sched(so);

  if (tcp_port >= 0)
    return run_tcp(sched, w, wo, tcp_port, clients, linger, metrics_path);
  MetricsDump metrics{metrics_path, [&sched] { return sched.stats_rows(); },
                      sched.telemetry()};

  std::printf("randla_serve: %d jobs, %d workers, queue high-water %d, "
              "burst %d%s\n",
              jobs, workers, queue, burst,
              deadline > 0 ? " (deadline set)" : "");

  // Burst submission with one client-side retry for shed jobs.
  std::uint64_t rejected_first_try = 0, rejected_final = 0;
  std::vector<std::shared_ptr<runtime::JobHandle>> handles;
  std::vector<std::size_t> handle_job;  // handles[h] ran w.jobs[handle_job[h]]
  for (std::size_t base = 0; base < w.jobs.size();
       base += static_cast<std::size_t>(burst)) {
    const std::size_t end =
        std::min(w.jobs.size(), base + static_cast<std::size_t>(burst));
    std::vector<std::size_t> shed;
    for (std::size_t i = base; i < end; ++i) {
      auto sub = sched.submit(w.jobs[i]);
      if (sub.status == runtime::PushStatus::QueueFull) {
        ++rejected_first_try;
        shed.push_back(i);
      }
      handles.push_back(std::move(sub.handle));
      handle_job.push_back(i);
    }
    // Let the burst drain, then re-offer shed jobs; a well-behaved
    // client keeps backing off until admission succeeds.
    for (std::size_t i : shed) {
      for (int attempt = 0;; ++attempt) {
        sched.drain();
        auto sub = sched.submit(w.jobs[i]);
        if (sub.status == runtime::PushStatus::Ok || attempt == 9) {
          if (sub.status != runtime::PushStatus::Ok) ++rejected_final;
          handles.push_back(std::move(sub.handle));
          handle_job.push_back(i);
          break;
        }
      }
    }
  }
  sched.drain();

  const auto summary = sched.telemetry().summarize();
  std::printf("\n-- run summary ------------------------------------------\n");
  std::printf("%s\n", summary.to_json().c_str());

  std::printf("\n-- interpretation ---------------------------------------\n");
  std::printf("backpressure: %llu shed at first try, %llu after retry\n",
              static_cast<unsigned long long>(rejected_first_try),
              static_cast<unsigned long long>(rejected_final));
  std::printf("robustness:   %llu CholQR-breakdown retries, %llu degraded\n",
              static_cast<unsigned long long>(summary.retries),
              static_cast<unsigned long long>(summary.degraded));
  const auto sk = sched.sketch_cache_stats();
  const auto rc = sched.result_cache_stats();
  std::printf("caches:       sketch %llu/%llu hits, result %llu/%llu hits\n",
              static_cast<unsigned long long>(sk.hits),
              static_cast<unsigned long long>(sk.hits + sk.misses),
              static_cast<unsigned long long>(rc.hits),
              static_cast<unsigned long long>(rc.hits + rc.misses));
  if (summary.exec_mean_miss > 0) {
    if (summary.exec_mean_result > 0)
      std::printf("cache speedup: result hits %.0fx faster than misses "
                  "(%.4fs vs %.4fs per job)\n",
                  summary.exec_mean_miss / summary.exec_mean_result,
                  summary.exec_mean_result, summary.exec_mean_miss);
    if (summary.exec_mean_sketch > 0)
      std::printf("cache speedup: sketch hits %.1fx faster than misses "
                  "(%.4fs vs %.4fs per job)\n",
                  summary.exec_mean_miss / summary.exec_mean_sketch,
                  summary.exec_mean_sketch, summary.exec_mean_miss);
  }
  for (const auto& ws : sched.worker_stats())
    std::printf("worker %d:     %llu jobs, %.3fs busy (real), %.4fs modeled "
                "K40c time\n",
                ws.worker, static_cast<unsigned long long>(ws.jobs), ws.busy_s,
                ws.modeled_s);

  // Engine A/B: residual over the rank-revealing jobs the --engine flag
  // governs. Identical workloads replayed with qp3 vs rqrcp make these
  // two lines directly comparable.
  {
    double rsum = 0, rmax = 0;
    int rn = 0;
    for (std::size_t h = 0; h < handles.size(); ++h) {
      const runtime::JobOutcome& out = handles[h]->wait();
      if (out.status != runtime::JobStatus::Done) continue;
      ConstMatrixView<double> q, r1;
      const Permutation* perm = nullptr;
      if (out.qrcp) {
        q = out.qrcp->q.view();
        r1 = out.qrcp->r1.view();
        perm = &out.qrcp->perm;
      } else if (out.rqrcp && out.rqrcp->q.rows() > 0) {
        q = out.rqrcp->q.view();
        r1 = out.rqrcp->r1.view();
        perm = &out.rqrcp->perm;
      } else {
        continue;
      }
      const auto a = runtime::job_matrix(w.jobs[handle_job[h]])->view();
      const double err = engine_residual(a, *perm, q, r1);
      rsum += err;
      rmax = std::max(rmax, err);
      ++rn;
    }
    if (rn > 0)
      std::printf("engine %s:   %d rank-revealing jobs, residual mean %.3e "
                  "max %.3e\n",
                  engine.c_str(), rn, rsum / rn, rmax);
  }

  if (!traces_path.empty()) {
    if (std::FILE* f = std::fopen(traces_path.c_str(), "w")) {
      const std::string json = sched.telemetry().traces_json();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("wrote %zu traces to %s\n",
                  sched.telemetry().traces().size(), traces_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", traces_path.c_str());
      return 1;
    }
  }

  // Exit code doubles as a self-check when replayed in CI: the run must
  // demonstrate cache hits, backpressure, and the retry policy.
  const bool saw_cache_hit = sk.hits + rc.hits > 0;
  const bool saw_backpressure = rejected_first_try > 0;
  const bool saw_retry = summary.retries > 0;
  if (!saw_cache_hit || !saw_backpressure || !saw_retry) {
    std::fprintf(stderr,
                 "expected cache hit (%d), backpressure (%d), retry (%d)\n",
                 int(saw_cache_hit), int(saw_backpressure), int(saw_retry));
    return 1;
  }
  return 0;
}
