// cluster_hot — a cluster::Router in front of 2 in-process shards, with
// hot-key replication on, driven by 4 closed-loop clients. Requests
// carry inline 256×128 matrices whose keys are drawn Zipf-skewed from a
// set small enough to fit the shards' result caches, so after warm-up
// almost every request is a cache hit: the router, the content
// fingerprint, the replica legs and cancels, and the wire dominate, with
// almost no kernel time. A sample of routed replies is checked (loadgen
// residuals) and compared bit for bit with the owning shard's direct
// reply to the same request.
//
// Why a closed loop: as an open loop at a fixed 600 requests/s (about
// half of capacity) on a 4-vCPU AVX2 VM, the p99 did not repeat; its IQR
// over 10 runs was 25% of the median. That VM stalls for 10–40 ms a few
// times per 20 s. An open loop that times requests from their due time
// charges each stall to every request due during it, ~25 of them, and a
// handful of stalls is just enough to move the p99 of 12000 samples.
// Closed-loop clients have at most 4 requests in flight during a stall.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "kernels.hpp"
#include "obs/trace.hpp"
#include "serving.hpp"

namespace perfbench {

using namespace randla;

namespace {

constexpr index_t kM = 256;
constexpr index_t kN = 128;
constexpr int kShards = 2;
constexpr int kWorkersPerShard = 2;
constexpr int kClients = 4;
/// Distinct keys; every fourth is an RQRCP request, the rest fixed-rank.
/// 2 shards × 64-entry result caches hold all of them.
constexpr int kKeys = 32;
constexpr double kZipfS = 1.1;
/// Router hot-key threshold on its decayed submit rate (~10 s time
/// constant): the hottest keys replicate within the warm-up, keys down
/// to ~10 requests/s join them during the run.
constexpr double kReplicateThreshold = 100;
constexpr std::uint64_t kWarmupOpsPerClient = 250;
constexpr int kSetupReps = 3;
constexpr std::uint64_t kVerifyEvery = 16;
/// ~1300 requests/s for 20 s: p99 keeps ≥10 samples beyond it.
constexpr int kTailPct = 99;

struct Keys {
  std::vector<Matrix<double>> mats;
  std::vector<net::JobRequest> reqs;        ///< one fixed request per key
  std::vector<double> cdf;                  ///< Zipf CDF over keys
  std::vector<net::CallResult> direct;      ///< owner shard's reply per key
};

/// Key j's matrix is drawn until its ring owner is the shard with the
/// least Zipf mass so far, so every seed splits the load the same way.
Keys make_keys(std::uint64_t seed) {
  Keys k;
  const cluster::HashRing ring = shard_ring(kShards);
  std::vector<double> load(kShards, 0.0);
  double sum = 0;
  for (int j = 0; j < kKeys; ++j) {
    const auto kind = j % 4 == 3 ? runtime::JobKind::Rqrcp
                                 : runtime::JobKind::FixedRank;
    const double mass = std::pow(double(j + 1), -kZipfS);
    const auto target = static_cast<std::uint32_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    for (std::uint64_t attempt = 0;; ++attempt) {
      const std::uint64_t s = derive(seed, 7000 + 64 * std::uint64_t(j) + attempt);
      Matrix<double> a = std::move(make_pool("lowrank", 1, kM, kN, s)[0]);
      net::JobRequest req = mix_request(kind, a, s);
      if (*ring.owner(cluster::routing_key(req)) != target) continue;
      req.request_id = static_cast<std::uint64_t>(j) + 1;
      k.mats.push_back(std::move(a));
      k.reqs.push_back(std::move(req));
      break;
    }
    load[target] += mass;
    sum += mass;
    k.cdf.push_back(sum);
  }
  for (double& c : k.cdf) c /= sum;
  return k;
}

std::size_t key_of(const Keys& k, std::uint64_t seed, std::uint64_t i) {
  const double u = double(derive(seed, i) >> 11) * 0x1.0p-53;
  const auto it = std::lower_bound(k.cdf.begin(), k.cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - k.cdf.begin()),
                               kKeys - 1);
}

bool same_reply(const net::CallResult& x, const net::CallResult& y) {
  if (x.tensors.size() != y.tensors.size() || x.header.perm != y.header.perm)
    return false;
  for (std::size_t i = 0; i < x.tensors.size(); ++i)
    if (!same_bits(x.tensors[i].view(), y.tensors[i].view())) return false;
  return true;
}

/// The closed loop through the router; op i draws its key from `seed`.
/// With `compare`, every kVerifyEvery-th reply is residual-checked and
/// compared bitwise with keys.direct.
ClientLoop hot_loop(std::uint16_t port, const Keys& keys, std::uint64_t seed,
                    std::atomic<std::uint64_t>& next, double seconds,
                    std::uint64_t ops_per_client, bool compare) {
  return closed_loop(port, kClients, seconds, ops_per_client,
                     [&](net::Client& client, Matrix<double>& scratch) {
    const std::uint64_t i = next.fetch_add(1);
    const std::size_t key = key_of(keys, seed, i);
    const net::JobRequest& req = keys.reqs[key];
    OpTiming t;
    t.send = Clock::now();
    const net::CallResult res = client.call_with_retry(req);
    t.reply = Clock::now();
    t.verdict = res.status == net::CallStatus::Ok &&
                        res.header.status == runtime::JobStatus::Done
                    ? Verdict::Ok
                    : Verdict::Failed;
    if (t.verdict == Verdict::Ok && compare && i % kVerifyEvery == 0) {
      t.checked = true;
      t.verdict = verify_reply(req, res, scratch);
      if (t.verdict == Verdict::Ok && !same_reply(res, keys.direct[key]))
        t.verdict = Verdict::Wrong;
    }
    return t;
  });
}

std::unique_ptr<Stack> make_cluster() {
  runtime::SchedulerOptions so;
  so.num_workers = kWorkersPerShard;
  auto st = std::make_unique<Stack>(kShards, so);
  cluster::RouterOptions ro;
  ro.replicate_threshold = kReplicateThreshold;
  st->add_router(ro);
  return st;
}

/// Fill the caches (every key once), run the loop for the warm-up so the
/// hot keys replicate, then fetch every key's reply straight from its
/// owning shard as the reference for the bitwise comparison.
bool warm_up(Stack& st, Keys& keys, std::uint64_t seed) {
  auto client = connect_client(st.router_port());
  Matrix<double> scratch;
  bool ok = true;
  for (const net::JobRequest& req : keys.reqs)
    ok = verify_reply(req, client->call(req), scratch) == Verdict::Ok && ok;
  std::atomic<std::uint64_t> warm{1ull << 40};
  const ClientLoop w = hot_loop(st.router_port(), keys, seed, warm, 1e9,
                                kWarmupOpsPerClient, false);
  ok = ok && w.failed == 0;
  std::vector<std::unique_ptr<net::Client>> direct;
  for (int s = 0; s < st.shards(); ++s)
    direct.push_back(connect_client(st.shard_port(s)));
  keys.direct.clear();
  for (const net::JobRequest& req : keys.reqs) {
    keys.direct.push_back(direct[st.owner(req)]->call(req));
    ok = verify_reply(req, keys.direct.back(), scratch) == Verdict::Ok && ok;
  }
  return ok;
}

}  // namespace

Report run_cluster_hot(const Args& args) {
  Report rep;
  Keys keys;
  std::unique_ptr<Stack> st;
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    st.reset();
    keys = Keys{};
    const auto t0 = Clock::now();
    keys = make_keys(args.seed);
    st = make_cluster();
    if (!warm_up(*st, keys, args.seed)) rep.invalid("cluster_hot warm-up failed");
    setup.push_back(seconds_since(t0));
  }
  const std::uint16_t port = st->router_port();
  const double rss0 = rss_mb();
  std::atomic<std::uint64_t> next{0};

  if (!args.trace) {
    const ClientLoop lp =
        hot_loop(port, keys, args.seed, next, args.seconds, ~0ull, true);
    lp.account(rep);
    report_end_to_end(lp.lat, lp.wall > 0 ? double(lp.lat.size()) / lp.wall : 0,
                      setup, kTailPct, rep);
    rep.note("compared_with_owner", std::to_string(lp.checked));
    return rep;
  }

  // Traced run: untraced third, traced third (library spans on, counter
  // window open), then the layer probes on this workload's requests.
  const ClientLoop plain =
      hot_loop(port, keys, args.seed, next, args.seconds / 3, ~0ull, true);
  plain.account(rep);
  obs::Tracer::global().enable();
  ClientLoop traced;
  {
    Window w(*st);
    traced = hot_loop(port, keys, args.seed, next, args.seconds / 3, ~0ull,
                      true);
    w.report(kTailPct, rep);
  }
  obs::Tracer::global().disable();
  obs::Tracer::global().clear();
  traced.account(rep);
  const double rss1 = rss_mb();

  // Keys 0–2 are fixed-rank, key 3 is RQRCP.
  std::vector<KernelCase> cases;
  std::vector<ProbeCase> probes;
  for (std::size_t j = 0; j < 4; ++j) {
    cases.push_back(kernel_case(keys.reqs[j], keys.mats[j].view()));
    if (j < 3) probes.push_back(probe_case(keys.mats[j]));
  }
  kernel_probe(cases, args.seconds / 10, rep);
  report_scaling(cases, 10, rep);
  rep.failed += probe_overheads(*st, probes, args.seconds / 6, args.seed, rep);
  probe_codec({keys.reqs[0], keys.reqs[3]}, rep);

  report_run_layers(traced.lag, rss1 - rss0, plain.lat, traced.lat, rep);
  return rep;
}

}  // namespace perfbench
