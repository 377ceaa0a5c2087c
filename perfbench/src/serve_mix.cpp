// serve_mix — one in-process net::Server (2 scheduler workers, batching
// collector on) driven over loopback TCP by 4 closed-loop clients. Each
// request carries an inline 256×128 matrix and follows randla_loadgen's
// mix: 60% fixed-rank, 20% adaptive, 10% truncated QP3, 10% RQRCP
// (alternating fixed-rank and fixed-accuracy). Every request misses the
// result caches: fixed-rank and RQRCP requests get a fresh sampling
// seed, and adaptive/QP3 jobs are never cached. Every reply is checked.
#include <atomic>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "serving.hpp"

namespace perfbench {

using namespace randla;

namespace {

constexpr index_t kM = 256;
constexpr index_t kN = 128;
constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr int kBatchMax = 4;
constexpr int kLowrankPool = 64;
constexpr int kGaussianPool = 16;
constexpr int kSetupReps = 3;
constexpr std::uint64_t kWarmupOpsPerClient = 100;
/// ~1000 jobs/s for 20 s: p99 keeps ≥10 samples beyond it.
constexpr int kTailPct = 99;

struct Inputs {
  std::vector<Matrix<double>> lowrank;   ///< numerically rank 8
  std::vector<Matrix<double>> gaussian;  ///< full rank (adaptive requests)
};

runtime::JobKind kind_of(std::uint64_t i) {
  const std::uint64_t slot = i % 10;
  if (slot < 6) return runtime::JobKind::FixedRank;
  if (slot < 8) return runtime::JobKind::Adaptive;
  if (slot == 8) return runtime::JobKind::Qrcp;
  return (i / 10) % 2 == 0 ? runtime::JobKind::Rqrcp
                           : runtime::JobKind::RqrcpAdaptive;
}

net::JobRequest request_for(const Inputs& in, std::uint64_t seed,
                            std::uint64_t i) {
  const runtime::JobKind kind = kind_of(i);
  const auto& pool =
      kind == runtime::JobKind::Adaptive ? in.gaussian : in.lowrank;
  const std::uint64_t r = derive(seed, i);
  net::JobRequest req = mix_request(kind, pool[r % pool.size()], r);
  req.request_id = i + 1;
  return req;
}

/// The mix's closed loop: kClients clients, every reply checked.
ClientLoop mix_loop(std::uint16_t port, const Inputs& in, std::uint64_t seed,
                    std::atomic<std::uint64_t>& next, double seconds,
                    std::uint64_t ops_per_client) {
  return closed_loop(port, kClients, seconds, ops_per_client,
                     [&](net::Client& client, Matrix<double>& scratch) {
    const net::JobRequest req = request_for(in, seed, next.fetch_add(1));
    OpTiming t;
    t.send = Clock::now();
    const net::CallResult res = client.call_with_retry(req);
    t.reply = Clock::now();
    t.verdict = verify_reply(req, res, scratch);
    t.checked = true;
    return t;
  });
}

}  // namespace

Report run_serve_mix(const Args& args) {
  Report rep;
  Inputs in;
  std::unique_ptr<Stack> st;
  std::vector<double> setup;
  runtime::SchedulerOptions so;
  so.num_workers = kWorkers;
  so.batch_max = kBatchMax;
  for (int r = 0; r < kSetupReps; ++r) {
    st.reset();
    in = Inputs{};
    const auto t0 = Clock::now();
    in.lowrank = make_pool("lowrank", kLowrankPool, kM, kN, args.seed);
    in.gaussian = make_pool("gaussian", kGaussianPool, kM, kN, ~args.seed);
    st = std::make_unique<Stack>(1, so);
    std::atomic<std::uint64_t> warm{1ull << 40};
    const ClientLoop w = mix_loop(st->shard_port(0), in, args.seed, warm, 1e9,
                                  kWarmupOpsPerClient);
    setup.push_back(seconds_since(t0));
    if (w.failed > 0) rep.invalid("serve_mix warm-up ops failed");
  }
  const std::uint16_t port = st->shard_port(0);
  const double rss0 = rss_mb();
  std::atomic<std::uint64_t> next{0};

  if (!args.trace) {
    const ClientLoop lp = mix_loop(port, in, args.seed, next, args.seconds, ~0ull);
    lp.account(rep);
    report_end_to_end(lp.lat, lp.wall > 0 ? double(lp.lat.size()) / lp.wall : 0,
                      setup, kTailPct, rep);
    return rep;
  }

  // Traced run: untraced third, traced third (library spans on, counter
  // window open), then the layer probes on this workload's requests.
  const ClientLoop plain =
      mix_loop(port, in, args.seed, next, args.seconds / 3, ~0ull);
  plain.account(rep);
  obs::Tracer::global().enable();
  ClientLoop traced;
  {
    Window w(*st);
    traced = mix_loop(port, in, args.seed, next, args.seconds / 3, ~0ull);
    w.report(kTailPct, rep);
  }
  obs::Tracer::global().disable();
  obs::Tracer::global().clear();
  traced.account(rep);
  const double rss1 = rss_mb();

  std::vector<KernelCase> cases;
  std::vector<ProbeCase> probes;
  for (std::size_t i = 0; i < 4; ++i) {
    const Matrix<double>& a = in.lowrank[i];
    for (auto kind : {runtime::JobKind::FixedRank, runtime::JobKind::Rqrcp})
      cases.push_back(kernel_case(mix_request(kind, a, derive(args.seed, 50000 + i)),
                                  a.view()));
    probes.push_back(probe_case(a));
  }
  kernel_probe(cases, args.seconds / 10, rep);
  report_scaling(cases, 10, rep);

  st->add_router(cluster::RouterOptions{});
  rep.failed += probe_overheads(*st, probes, args.seconds / 6, args.seed, rep);
  std::vector<net::JobRequest> frames;
  for (std::uint64_t i = 0; i < 10; ++i)
    frames.push_back(request_for(in, args.seed, i));
  probe_codec(frames, rep);

  report_run_layers(traced.lag, rss1 - rss0, plain.lat, traced.lat, rep);
  return rep;
}

}  // namespace perfbench
