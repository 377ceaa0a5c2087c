// test_cluster_router.cpp — loopback integration tests for the
// consistent-hash routing front-end: transparent forwarding with
// residual checks (every job kind, generator and inline payloads),
// per-key shard affinity, HealthCheck-driven failover
// and readmission, hot-key replicas warming the successor shard,
// Stats/Health service through the router, the cluster observability
// plane (merged Stats fan-out, stale-shard degradation, Dump
// postmortems, cross-process trace propagation — DESIGN.md §14), and
// remote shutdown draining the whole cluster, and the client-connection
// edges shared with net::Server (bad headers, the connection cap, idle
// close, fire-and-forget Shutdown). Plus unit tests for the bucket-exact
// stats merge.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "cluster/stats_merge.hpp"
#include "la/blas3.hpp"
#include "la/norms.hpp"
#include "la/permutation.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

using namespace randla;
using namespace randla::cluster;

namespace {

runtime::SchedulerOptions small_sched() {
  runtime::SchedulerOptions so;
  so.num_workers = 2;
  so.queue_capacity = 16;
  return so;
}

net::ServerOptions shard_opts() {
  net::ServerOptions so;
  so.allow_remote_shutdown = true;
  return so;
}

RouterOptions router_over(const std::vector<const net::Server*>& shards) {
  RouterOptions ro;
  for (const net::Server* s : shards)
    ro.shards.push_back({"127.0.0.1", s->port()});
  // Tight probe cadence so membership reacts within test timeouts.
  ro.probe_interval_s = 0.05;
  ro.probe_timeout_s = 0.5;
  ro.breaker = fault::BreakerOptions{/*failure_threshold=*/2,
                                     /*open_cooldown_s=*/0.25};
  return ro;
}

net::ClientOptions client_for(const Router& router) {
  net::ClientOptions copt;
  copt.port = router.port();
  copt.recv_timeout_s = 30;
  return copt;
}

net::JobRequest lowrank_fixed_request(std::uint64_t id, std::uint64_t seed) {
  net::JobRequest req;
  req.request_id = id;
  req.kind = runtime::JobKind::FixedRank;
  req.matrix.generator = "lowrank";
  req.matrix.seed = seed;
  req.matrix.m = 48;
  req.matrix.n = 24;
  req.matrix.rank = 4;
  req.k = 8;
  req.p = 4;
  req.q = 1;
  req.power_ortho = 2;  // wire code 2 = HHQR: no escalation retries
  return req;
}

/// ‖A·P − Q·R‖_F/‖A‖_F with A rebuilt locally from the generator spec.
double fixed_rank_residual(const net::JobRequest& req,
                           const net::CallResult& res) {
  net::MatrixSpec spec = req.matrix;
  spec.source = net::MatrixSource::Generator;
  const Matrix<double> a = net::materialize(spec);
  Matrix<double> resid(a.rows(), a.cols());
  apply_column_permutation<double>(a.view(), res.header.perm, resid.view());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0,
                     ConstMatrixView<double>(res.tensors[0].view()),
                     ConstMatrixView<double>(res.tensors[1].view()), 1.0,
                     resid.view());
  return norm_fro<double>(ConstMatrixView<double>(resid.view())) /
         norm_fro<double>(ConstMatrixView<double>(a.view()));
}

/// ‖A·P − Q·[R1 R2]‖_F/‖A‖_F for an RQRCP reply carrying Q (want_q);
/// tensor order on the wire: rdiag, r1, r2, q.
double rqrcp_residual(const net::JobRequest& req, const net::CallResult& res) {
  const Matrix<double> a = net::materialize(req.matrix);
  const Matrix<double>& r1 = res.tensors[1];
  const Matrix<double>& r2 = res.tensors[2];
  const index_t k = r1.rows();
  Matrix<double> r(k, a.cols());
  for (index_t j = 0; j < r1.cols(); ++j)
    for (index_t i = 0; i < k; ++i) r(i, j) = r1(i, j);
  for (index_t j = 0; j < r2.cols(); ++j)
    for (index_t i = 0; i < k; ++i) r(i, k + j) = r2(i, j);
  Matrix<double> resid(a.rows(), a.cols());
  apply_column_permutation<double>(a.view(), res.header.perm, resid.view());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0,
                     ConstMatrixView<double>(res.tensors[3].view()),
                     ConstMatrixView<double>(r.view()), 1.0, resid.view());
  return norm_fro<double>(ConstMatrixView<double>(resid.view())) /
         norm_fro<double>(ConstMatrixView<double>(a.view()));
}

/// Shard index (into RouterOptions::shards) that owns this request on a
/// ring configured like the router's — the parent-side placement oracle.
std::uint32_t owner_of(const net::JobRequest& req, int shards, int vnodes) {
  RingOptions opts;
  opts.vnodes = vnodes;
  HashRing ring(opts);
  for (int s = 0; s < shards; ++s) ring.add(static_cast<std::uint32_t>(s));
  return ring.owner(routing_key(req)).value();
}

/// The first seed from `from` on whose request lands on `want` in a
/// 2-shard layout.
std::uint64_t seed_owned_by(std::uint32_t want, int vnodes,
                            std::uint64_t from = 1) {
  for (std::uint64_t seed = from;; ++seed) {
    if (owner_of(lowrank_fixed_request(1, seed), 2, vnodes) == want)
      return seed;
  }
}

bool wait_until(const std::function<bool()>& pred, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

}  // namespace

TEST(ClusterRouter, RoutesAndCompletesAcrossShards) {
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  Router router(router_over({&shard_a, &shard_b}));
  ASSERT_TRUE(router.start());

  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  // Distinct seeds spread across both shards' arcs; every exchange must
  // look exactly like talking to one server.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const net::JobRequest req = lowrank_fixed_request(seed, seed);
    const net::CallResult res = client.call(req);
    ASSERT_EQ(res.status, net::CallStatus::Ok) << res.detail;
    ASSERT_EQ(res.header.status, runtime::JobStatus::Done) << res.header.error;
    ASSERT_EQ(res.tensors.size(), 2u);
    EXPECT_LT(fixed_rank_residual(req, res), 1e-8);
  }

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.submits_routed, 6u);
  EXPECT_EQ(stats.results_relayed, 6u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.forward_errors, 0u);
  EXPECT_EQ(shard_a.stats().jobs_submitted + shard_b.stats().jobs_submitted,
            6u);

  router.stop();
  shard_a.stop();
  shard_b.stop();
}

TEST(ClusterRouter, AffinityPinsAKeyToOneShard) {
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  Router router(router_over({&shard_a, &shard_b}));
  ASSERT_TRUE(router.start());

  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  const net::JobRequest req = lowrank_fixed_request(1, 31);
  for (std::uint64_t i = 0; i < 5; ++i) {
    net::JobRequest r = req;
    r.request_id = 100 + i;  // envelope churn must not move the key
    ASSERT_EQ(client.call(r).status, net::CallStatus::Ok);
  }

  // All five submits land on the ring owner; the other shard never sees
  // the key (its cache slice stays untouched).
  const std::uint64_t a = shard_a.stats().jobs_submitted;
  const std::uint64_t b = shard_b.stats().jobs_submitted;
  EXPECT_EQ(a + b, 5u);
  EXPECT_EQ(std::min(a, b), 0u);
  const std::uint32_t expect_owner =
      owner_of(req, 2, RouterOptions{}.vnodes);
  for (const ShardView& v : router.shard_views()) {
    EXPECT_TRUE(v.in_ring);
    EXPECT_EQ(v.submits, v.shard == expect_owner ? 5u : 0u);
  }

  router.stop();
  shard_a.stop();
  shard_b.stop();
}

TEST(ClusterRouter, RoutesEveryJobKindAndInlinePayload) {
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  const RouterOptions ro = router_over({&shard_a, &shard_b});
  Router router(ro);
  ASSERT_TRUE(router.start());
  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());

  // One request per JobKind on a numerically rank-4 input, each reply
  // held to randla_loadgen's per-kind contract.
  const index_t m = 48, n = 24;
  const runtime::JobKind kinds[] = {
      runtime::JobKind::FixedRank, runtime::JobKind::Adaptive,
      runtime::JobKind::Qrcp, runtime::JobKind::Rqrcp,
      runtime::JobKind::RqrcpAdaptive};
  std::uint64_t id = 0;
  for (const runtime::JobKind kind : kinds) {
    ++id;
    net::JobRequest req = lowrank_fixed_request(id, 40 + id);
    req.kind = kind;
    if (kind == runtime::JobKind::Adaptive) {
      req.epsilon = 0.5;
      req.relative = true;
      req.l_init = 8;
      req.l_inc = 8;
      req.l_max = 12;
    } else if (kind == runtime::JobKind::Qrcp) {
      req.block = 8;
    } else if (kind == runtime::JobKind::Rqrcp) {
      req.block = 4;
      req.oversample = 4;
      req.want_q = true;
    } else if (kind == runtime::JobKind::RqrcpAdaptive) {
      req.epsilon = 1e-6;
      req.relative = true;
      req.block = 4;
      req.oversample = 4;
      req.max_rank = 16;
      req.want_q = true;
    }
    const net::CallResult res = client.call(req);
    SCOPED_TRACE(runtime::job_kind_name(kind));
    ASSERT_EQ(res.status, net::CallStatus::Ok) << res.detail;
    ASSERT_EQ(res.header.status, runtime::JobStatus::Done) << res.header.error;
    switch (kind) {
      case runtime::JobKind::FixedRank:
        ASSERT_EQ(res.tensors.size(), 2u);
        EXPECT_LT(fixed_rank_residual(req, res), 1e-8);
        break;
      case runtime::JobKind::Adaptive:
        ASSERT_EQ(res.tensors.size(), 1u);
        EXPECT_EQ(res.header.tensors[0].cols, n);
        EXPECT_GE(res.header.tensors[0].rows, 1);
        break;
      case runtime::JobKind::Qrcp: {
        // The leading k columns of a pivoted QR are exact.
        ASSERT_EQ(res.tensors.size(), 3u);
        const Matrix<double> a = net::materialize(req.matrix);
        Matrix<double> lead = permuted_leading_columns<double>(
            a.view(), res.header.perm, res.tensors[1].cols());
        blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0,
                           ConstMatrixView<double>(res.tensors[0].view()),
                           ConstMatrixView<double>(res.tensors[1].view()),
                           1.0, lead.view());
        EXPECT_LT(norm_fro<double>(ConstMatrixView<double>(lead.view())) /
                      norm_fro<double>(ConstMatrixView<double>(a.view())),
                  1e-10);
        break;
      }
      case runtime::JobKind::Rqrcp:
      case runtime::JobKind::RqrcpAdaptive: {
        ASSERT_EQ(res.tensors.size(), 4u);
        const index_t k = res.header.tensors[0].rows;  // rdiag is k×1
        EXPECT_EQ(res.header.tensors[1].rows, k);
        EXPECT_EQ(res.header.tensors[1].cols, k);
        EXPECT_EQ(res.header.tensors[2].rows, k);
        EXPECT_EQ(res.header.tensors[3].rows, m);
        EXPECT_EQ(res.header.tensors[3].cols, k);
        EXPECT_EQ(res.header.perm.size(), std::size_t(n));
        if (kind == runtime::JobKind::Rqrcp) {
          EXPECT_EQ(k, req.k);
          EXPECT_LT(rqrcp_residual(req, res), 1e-10);
        } else {
          EXPECT_GE(k, 1);
          EXPECT_LE(k, req.max_rank);
          EXPECT_LT(rqrcp_residual(req, res), req.epsilon * 10);
        }
        break;
      }
    }
  }

  // An inline payload is routed by its content fingerprint: it must be
  // admitted on the shard the placement oracle names, and nowhere else.
  net::JobRequest inl = lowrank_fixed_request(id + 1, 77);
  inl.matrix.inline_data = net::materialize(inl.matrix);
  inl.matrix.source = net::MatrixSource::Inline;
  const std::uint32_t owner = owner_of(inl, 2, ro.vnodes);
  const std::uint64_t before[2] = {shard_a.stats().jobs_submitted,
                                   shard_b.stats().jobs_submitted};
  const net::CallResult res = client.call(inl);
  ASSERT_EQ(res.status, net::CallStatus::Ok) << res.detail;
  ASSERT_EQ(res.header.status, runtime::JobStatus::Done) << res.header.error;
  ASSERT_EQ(res.tensors.size(), 2u);
  EXPECT_LT(fixed_rank_residual(inl, res), 1e-8);
  EXPECT_EQ(shard_a.stats().jobs_submitted - before[0], owner == 0 ? 1u : 0u);
  EXPECT_EQ(shard_b.stats().jobs_submitted - before[1], owner == 1 ? 1u : 0u);

  router.stop();
  shard_a.stop();
  shard_b.stop();
}

TEST(ClusterRouter, FailoverEvictsDeadShardAndReroutes) {
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  Router router(router_over({&shard_a, &shard_b}));
  ASSERT_TRUE(router.start());

  // A key owned by shard 0 — the shard we kill.
  const std::uint64_t seed = seed_owned_by(0, RouterOptions{}.vnodes);
  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  ASSERT_EQ(client.call(lowrank_fixed_request(1, seed)).status,
            net::CallStatus::Ok);

  shard_a.stop();
  ASSERT_TRUE(wait_until(
      [&router] { return router.live_shards() == std::vector<std::uint32_t>{1}; },
      5.0))
      << "probe breaker never evicted the dead shard";

  // Same key now completes on the survivor; the retry policy absorbs any
  // in-flight transport cut.
  const net::CallResult res =
      client.call_with_retry(lowrank_fixed_request(2, seed));
  ASSERT_EQ(res.status, net::CallStatus::Ok) << res.detail;
  ASSERT_EQ(res.header.status, runtime::JobStatus::Done);
  EXPECT_GT(shard_b.stats().jobs_submitted, 0u);

  const RouterStats stats = router.stats();
  EXPECT_GE(stats.membership_changes, 1u);
  EXPECT_GT(stats.probes_failed, 0u);
  for (const ShardView& v : router.shard_views()) {
    if (v.shard == 0) {
      EXPECT_FALSE(v.in_ring);
      EXPECT_GT(v.failures, 0u);
    } else {
      EXPECT_TRUE(v.in_ring);
    }
  }

  router.stop();
  shard_b.stop();
}

TEST(ClusterRouter, ProbeSuccessReadmitsRecoveredShard) {
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  auto shard_a = std::make_unique<net::Server>(sched_a, shard_opts());
  net::Server shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a->start());
  ASSERT_TRUE(shard_b.start());
  const std::uint16_t port_a = shard_a->port();
  Router router(router_over({shard_a.get(), &shard_b}));
  ASSERT_TRUE(router.start());

  shard_a->stop();
  ASSERT_TRUE(wait_until(
      [&router] { return router.live_shards().size() == 1; }, 5.0));

  // Bring the shard back on its old endpoint; after the breaker cooldown
  // a probe success must readmit it.
  shard_a.reset();
  net::ServerOptions reopts = shard_opts();
  reopts.port = port_a;
  net::Server revived(sched_a, reopts);
  ASSERT_TRUE(revived.start());
  ASSERT_TRUE(wait_until(
      [&router] { return router.live_shards().size() == 2; }, 5.0))
      << "recovered shard never readmitted";
  EXPECT_GE(router.stats().membership_changes, 2u);

  router.stop();
  revived.stop();
  shard_b.stop();
}

// Hot-key replication leaves the successor warm: the "/hedge" leg runs
// to completion on the successor even when it loses the race (Cancel is
// advisory and only changes the answer), so the successor's result cache
// holds the key and a failover lands on a cache hit, not a recompute.
TEST(ClusterRouter, ReplicationWarmsTheSuccessorShard) {
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  RouterOptions ro = router_over({&shard_a, &shard_b});
  ro.replicate_threshold = 1.0;
  Router router(ro);
  ASSERT_TRUE(router.start());

  // A key owned by shard 0, so shard 1 is its successor.
  const std::uint64_t seed = seed_owned_by(0, ro.vnodes);
  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  const net::JobRequest req = lowrank_fixed_request(1, seed);
  ASSERT_EQ(client.call(req).status, net::CallStatus::Ok);

  auto successor_ran_hedge_leg = [&sched_b] {
    for (const runtime::JobTrace& t : sched_b.telemetry().traces())
      if (t.tag.ends_with("/hedge") && t.status == runtime::JobStatus::Done)
        return true;
    return false;
  };
  ASSERT_TRUE(wait_until(successor_ran_hedge_leg, 5.0))
      << "successor never finished the replica leg";

  // Straight to the successor, bypassing the router: a warm cache hit.
  net::ClientOptions direct;
  direct.port = shard_b.port();
  direct.recv_timeout_s = 30;
  net::Client succ(direct);
  ASSERT_TRUE(succ.connect());
  const net::CallResult res = succ.call(lowrank_fixed_request(2, seed));
  ASSERT_EQ(res.status, net::CallStatus::Ok) << res.detail;
  ASSERT_EQ(res.header.status, runtime::JobStatus::Done);
  EXPECT_NE(res.header.trace_json.find("\"cache\":\"result\""),
            std::string::npos)
      << res.header.trace_json;
  EXPECT_EQ(router.stats().results_relayed, 1u);

  router.stop();
  shard_a.stop();
  shard_b.stop();
}

TEST(ClusterRouter, ServesStatsHealthAndPing) {
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  Router router(router_over({&shard_a, &shard_b}));
  ASSERT_TRUE(router.start());

  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  ASSERT_EQ(client.call(lowrank_fixed_request(1, 5)).status,
            net::CallStatus::Ok);
  EXPECT_TRUE(client.ping(99));

  const auto health = client.health();
  ASSERT_TRUE(health.has_value());
  EXPECT_TRUE(health->serving);

  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->has("cluster_submits_routed_total"));
  EXPECT_EQ(stats->value("cluster_submits_routed_total"), 1.0);
  ASSERT_TRUE(stats->has("cluster_shards_live"));
  EXPECT_EQ(stats->value("cluster_shards_live"), 2.0);
  EXPECT_TRUE(stats->has("cluster_shard_up{shard=\"0\"}"));
  EXPECT_TRUE(stats->has("cluster_shard_up{shard=\"1\"}"));

  router.stop();
  shard_a.stop();
  shard_b.stop();
}

// ------------------------------------------------- client connections
// The router's side of the connection layer it shares with net::Server
// (net/conn.hpp): the same checks as the server's own tests.

TEST(ClusterRouter, MalformedHeaderGetsTypedErrorThenClose) {
  runtime::Scheduler sched(small_sched());
  net::Server shard(sched, shard_opts());
  ASSERT_TRUE(shard.start());
  RouterOptions ro = router_over({&shard});
  ro.max_frame_bytes = 1024;
  Router router(ro);
  ASSERT_TRUE(router.start());

  const auto expect_error_then_close = [&](const std::vector<std::uint8_t>& raw,
                                           net::ErrorCode want) {
    net::Client client(client_for(router));
    ASSERT_TRUE(client.connect());
    ASSERT_TRUE(client.send_raw(raw.data(), raw.size()));
    net::FrameHeader hdr;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(client.read_frame(&hdr, &payload));
    EXPECT_EQ(hdr.type, net::FrameType::Error);
    const auto err = net::decode_error(payload.data(), payload.size());
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, want);
    // The poisoned connection is closed after the error flushes.
    EXPECT_FALSE(client.read_frame(&hdr, &payload));
  };
  expect_error_then_close(std::vector<std::uint8_t>(16, 0xAB),
                          net::ErrorCode::BadFrame);
  // A well-formed Ping header whose payload_len (LE u32 at byte 8)
  // claims more than max_frame_bytes.
  std::vector<std::uint8_t> too_large = net::encode_ping(1);
  too_large[8] = 0x00;
  too_large[9] = 0x10;  // 4096
  too_large[10] = too_large[11] = 0;
  expect_error_then_close(too_large, net::ErrorCode::TooLarge);

  // The router itself is unharmed: a fresh connection works.
  net::Client fresh(client_for(router));
  ASSERT_TRUE(fresh.connect());
  EXPECT_TRUE(fresh.ping(99));
  router.stop();
  EXPECT_EQ(router.stats().protocol_errors, 2u);
  shard.stop();
}

TEST(ClusterRouter, ConnectionCapRefusesWithTypedError) {
  runtime::Scheduler sched(small_sched());
  net::Server shard(sched, shard_opts());
  ASSERT_TRUE(shard.start());
  RouterOptions ro = router_over({&shard});
  ro.max_connections = 1;
  Router router(ro);
  ASSERT_TRUE(router.start());

  net::Client first(client_for(router));
  ASSERT_TRUE(first.connect());
  ASSERT_TRUE(first.ping(1));  // ensure the router registered it

  net::Client second(client_for(router));
  ASSERT_TRUE(second.connect());  // TCP accept succeeds, then refusal
  net::FrameHeader hdr;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(second.read_frame(&hdr, &payload));
  EXPECT_EQ(hdr.type, net::FrameType::Error);
  const auto err = net::decode_error(payload.data(), payload.size());
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, net::ErrorCode::ServerFull);

  EXPECT_TRUE(first.ping(2));  // the admitted connection is unaffected
  router.stop();
  EXPECT_EQ(router.stats().conns_refused, 1u);
  EXPECT_EQ(router.stats().conns_accepted, 1u);
  shard.stop();
}

TEST(ClusterRouter, IdleTimeoutClosesQuietClients) {
  runtime::Scheduler sched(small_sched());
  net::Server shard(sched, shard_opts());
  ASSERT_TRUE(shard.start());
  RouterOptions ro = router_over({&shard});
  ro.idle_timeout_s = 0.2;
  Router router(ro);
  ASSERT_TRUE(router.start());

  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  ASSERT_TRUE(client.ping(1));
  // Go quiet; the router should close us within ~timeout + one tick.
  const auto t0 = std::chrono::steady_clock::now();
  net::FrameHeader hdr;
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(client.read_frame(&hdr, &payload));  // EOF from idle close
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            10.0);
  router.stop();
  shard.stop();
}

TEST(ClusterRouter, ShutdownThenImmediateCloseStillHonored) {
  // Fire-and-forget shutdown: the frame and the FIN can land in the same
  // poll cycle, and the router must parse buffered frames before
  // treating the connection as gone.
  runtime::Scheduler sched(small_sched());
  net::Server shard(sched, shard_opts());
  ASSERT_TRUE(shard.start());
  RouterOptions ro = router_over({&shard});
  ro.allow_remote_shutdown = true;
  Router router(ro);
  ASSERT_TRUE(router.start());

  {
    net::Client client(client_for(router));
    ASSERT_TRUE(client.connect());
    const auto frame = net::encode_shutdown();
    ASSERT_TRUE(client.send_raw(frame.data(), frame.size()));
    client.close();  // FIN chases the frame immediately
  }

  // Bounded waits so a regression fails the test instead of hanging it.
  EXPECT_TRUE(wait_until([&] { return !router.running(); }, 5.0));
  router.stop();  // cleanup no-op when the drain already finished
  // The router broadcast Shutdown to the shard before exiting.
  EXPECT_TRUE(wait_until([&] { return !shard.running(); }, 5.0));
  shard.stop();
}

// ------------------------------------------------------- stats merging

TEST(ClusterStatsMerge, ShardLabelMergesIntoExistingLabelSets) {
  EXPECT_EQ(with_shard_label("jobs_total", 3), "jobs_total{shard=\"3\"}");
  EXPECT_EQ(with_shard_label("f_total{type=\"submit\"}", 0),
            "f_total{shard=\"0\",type=\"submit\"}");
  EXPECT_EQ(with_shard_label("lat_bucket{kind=\"a\",le=\"+Inf\"}", 12),
            "lat_bucket{shard=\"12\",kind=\"a\",le=\"+Inf\"}");
  EXPECT_EQ(with_shard_label("odd{}", 1), "odd{shard=\"1\"}");
}

TEST(ClusterStatsMerge, OnlySummableSuffixesMerge) {
  EXPECT_TRUE(mergeable_stat("jobs_total"));
  EXPECT_TRUE(mergeable_stat("lat_seconds_count"));
  EXPECT_TRUE(mergeable_stat("lat_seconds_sum"));
  EXPECT_TRUE(mergeable_stat("lat_seconds_bucket{le=\"1\"}"));
  EXPECT_TRUE(mergeable_stat("frames_total{type=\"submit\"}"));
  EXPECT_FALSE(mergeable_stat("queue_depth"));      // gauge
  EXPECT_FALSE(mergeable_stat("slo_p99_seconds"));  // quantile gauge
  EXPECT_FALSE(mergeable_stat("totally_not"));      // suffix mid-name
}

TEST(ClusterStatsMerge, SumsAreExactAndEveryRowIsLabeled) {
  std::vector<std::pair<std::uint32_t, StatsRows>> shards;
  shards.push_back({0,
                    {{"jobs_total", 3},
                     {"depth", 5},
                     {"lat_bucket{le=\"1\"}", 2},
                     {"lat_bucket{le=\"+Inf\"}", 4}}});
  shards.push_back({2,
                    {{"jobs_total", 4},
                     {"depth", 7},
                     {"lat_bucket{le=\"1\"}", 9},
                     {"lat_bucket{le=\"+Inf\"}", 9}}});
  const StatsRows merged = merge_shard_stats(shards);
  auto get = [&](const std::string& name) -> double {
    for (const auto& [n, v] : merged)
      if (n == name) return v;
    ADD_FAILURE() << "missing " << name;
    return -1;
  };
  // Counter and histogram-bucket rows sum bucket-wise by exact name —
  // the shared compile-time ladder makes the merged histogram exact.
  EXPECT_EQ(get("jobs_total"), 7.0);
  EXPECT_EQ(get("lat_bucket{le=\"1\"}"), 11.0);
  EXPECT_EQ(get("lat_bucket{le=\"+Inf\"}"), 13.0);
  // The gauge is never summed (a merged queue depth is meaningless)…
  for (const auto& [n, v] : merged) EXPECT_NE(n, "depth");
  // …but every shard row, gauges included, reappears shard-labeled.
  EXPECT_EQ(get("depth{shard=\"0\"}"), 5.0);
  EXPECT_EQ(get("depth{shard=\"2\"}"), 7.0);
  EXPECT_EQ(get("jobs_total{shard=\"2\"}"), 4.0);
  // 3 merged sums + 8 labeled rows, merged block first (it must survive
  // wire-cap truncation; per-shard detail is what gets dropped).
  ASSERT_EQ(merged.size(), 11u);
  EXPECT_EQ(merged[0].first, "jobs_total");
  EXPECT_EQ(merged[1].first, "lat_bucket{le=\"1\"}");
}

TEST(ClusterStatsMerge, EmptyAndMixedShardsAreHandled) {
  EXPECT_TRUE(merge_shard_stats({}).empty());
  // One empty shard next to a live one: the empty shard contributes
  // nothing but does not derail the merge.
  std::vector<std::pair<std::uint32_t, StatsRows>> shards;
  shards.push_back({0, {}});
  shards.push_back({1, {{"jobs_total", 2}}});
  const StatsRows merged = merge_shard_stats(shards);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].first, "jobs_total");
  EXPECT_EQ(merged[0].second, 2.0);
  EXPECT_EQ(merged[1].first, "jobs_total{shard=\"1\"}");
  // Shards exposing disjoint metric sets (mixed kinds/versions): each
  // name merges over the shards that have it.
  shards.clear();
  shards.push_back({0, {{"a_total", 1}}});
  shards.push_back({1, {{"b_total", 5}}});
  const StatsRows mixed = merge_shard_stats(shards);
  auto get = [&](const std::string& name) -> double {
    for (const auto& [n, v] : mixed)
      if (n == name) return v;
    return -1;
  };
  EXPECT_EQ(get("a_total"), 1.0);
  EXPECT_EQ(get("b_total"), 5.0);
}

// ------------------------------------------------- observability plane

TEST(ClusterRouter, StatsFanOutMergesShardsWithLabels) {
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  Router router(router_over({&shard_a, &shard_b}));
  ASSERT_TRUE(router.start());

  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  ASSERT_EQ(client.call(lowrank_fixed_request(1, 7)).status,
            net::CallStatus::Ok);

  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  ASSERT_TRUE(stats->has("cluster_stale_shards"));
  EXPECT_EQ(stats->value("cluster_stale_shards"), 0.0);
  // Every shard reappears with a shard label, and the labeled submit
  // counters partition the one routed job.
  ASSERT_TRUE(stats->has("net_jobs_submitted_total{shard=\"0\"}"));
  ASSERT_TRUE(stats->has("net_jobs_submitted_total{shard=\"1\"}"));
  EXPECT_EQ(stats->value("net_jobs_submitted_total{shard=\"0\"}") +
                stats->value("net_jobs_submitted_total{shard=\"1\"}"),
            1.0);
  // Histogram buckets ride the fan-out per shard on the shared SLO
  // ladder (both shards live in this process, so kind fixed_rank has
  // observations in both replies).
  EXPECT_TRUE(stats->has("slo_latency_seconds_bucket{shard=\"0\","
                         "kind=\"fixed_rank\",le=\"+Inf\"}"));
  // The merged (unlabeled) shard sum appears once; the router's own
  // window rides beside it under cluster_slo_*, and no row name repeats.
  int same_name = 0;
  std::set<std::string> names;
  for (const auto& [n, v] : stats->metrics) {
    if (n == "slo_requests_total{kind=\"fixed_rank\"}") ++same_name;
    EXPECT_TRUE(names.insert(n).second) << n << " appears twice";
  }
  EXPECT_EQ(same_name, 1);
  EXPECT_EQ(stats->value("slo_requests_total{kind=\"fixed_rank\"}"), 1.0);
  EXPECT_EQ(stats->value("cluster_slo_requests_total{kind=\"fixed_rank\"}"),
            1.0);
  EXPECT_TRUE(stats->has("cluster_slo_latency_seconds_bucket{"
                         "kind=\"fixed_rank\",le=\"+Inf\"}"));

  router.stop();
  shard_a.stop();
  shard_b.stop();
}

// Two servers and a router in one process: every serving count is the
// instance's own, so an idle shard reads 0 and the router's merge sums
// each event exactly once. With profiling on, the same holds for the
// kernel rows: each shard reports the kernels its own workers ran.
TEST(ClusterRouter, StatsRowsArePerInstanceAndMergeOnce) {
  const bool was_profiling = obs::profiling_enabled();
  obs::set_profiling_enabled(true);
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  Router router(router_over({&shard_a, &shard_b}));
  ASSERT_TRUE(router.start());

  // One key, so every submit lands on the same shard.
  constexpr int kJobs = 5;
  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  for (int id = 1; id <= kJobs; ++id)
    ASSERT_EQ(client.call(lowrank_fixed_request(id, 7)).status,
              net::CallStatus::Ok);
  const bool a_busy = shard_a.stats().jobs_submitted > 0;
  const net::Server& busy = a_busy ? shard_a : shard_b;
  const net::Server& idle = a_busy ? shard_b : shard_a;
  ASSERT_EQ(busy.stats().jobs_submitted, std::uint64_t(kJobs));
  ASSERT_EQ(idle.stats().jobs_submitted, 0u);

  net::ClientOptions idle_opt;
  idle_opt.port = idle.port();
  net::Client direct(idle_opt);
  ASSERT_TRUE(direct.connect());
  const auto idle_stats = direct.stats();
  ASSERT_TRUE(idle_stats.has_value());
  EXPECT_EQ(idle_stats->value("net_jobs_submitted_total"), 0.0);
  EXPECT_EQ(idle_stats->value("net_jobs_completed_total"), 0.0);

  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  int submitted_rows = 0, live_rows = 0;
  for (const auto& [name, v] : stats->metrics) {
    if (name == "net_jobs_submitted_total") {
      ++submitted_rows;
      EXPECT_EQ(v, double(kJobs));
    }
    if (name == "cluster_shards_live") ++live_rows;
  }
  EXPECT_EQ(submitted_rows, 1);
  EXPECT_EQ(live_rows, 1);
  EXPECT_EQ(stats->value("cluster_shards_live"), 2.0);
  EXPECT_EQ(stats->value("cluster_submits_routed_total"), double(kJobs));

  // The busy shard ran the gemm calls, the idle one none, and the merge
  // counts each call once.
  for (const auto& [name, v] : idle_stats->metrics)
    EXPECT_NE(name.rfind("la_gemm", 0), 0u) << name;
  double busy_gemm = 0;
  for (const auto& [name, v] : busy.stats_rows())
    if (name == "la_gemm_calls_total") busy_gemm = v;
  EXPECT_GT(busy_gemm, 0.0);
  EXPECT_EQ(stats->value("la_gemm_calls_total"), busy_gemm);

  router.stop();
  shard_a.stop();
  shard_b.stop();
  obs::set_profiling_enabled(was_profiling);
}

TEST(ClusterRouter, ScrapeTimeoutDegradesToStaleCountWithoutEvicting) {
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  RouterOptions ro = router_over({&shard_a, &shard_b});
  ro.scrape_timeout_s = 0.0;  // every fan-out reply is late by definition
  Router router(ro);
  ASSERT_TRUE(router.start());

  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  // Degraded, not failed: the reply arrives with the router's own rows
  // and an honest staleness count instead of blocking or erroring.
  EXPECT_EQ(stats->value("cluster_stale_shards"), 2.0);
  EXPECT_TRUE(stats->has("cluster_submits_routed_total"));
  EXPECT_FALSE(stats->has("net_jobs_submitted_total{shard=\"0\"}"));
  // A scrape hiccup never charges the membership breaker: both shards
  // stay in the ring and keep serving.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(router.live_shards().size(), 2u);
  ASSERT_EQ(client.call(lowrank_fixed_request(1, 7)).status,
            net::CallStatus::Ok);

  router.stop();
  shard_a.stop();
  shard_b.stop();
}

TEST(ClusterRouter, DumpFanOutMergesFlightRecorders) {
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  Router router(router_over({&shard_a, &shard_b}));
  ASSERT_TRUE(router.start());

  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  ASSERT_EQ(client.call(lowrank_fixed_request(1, 9)).status,
            net::CallStatus::Ok);

  const auto dump = client.dump();
  ASSERT_TRUE(dump.has_value());
  EXPECT_NE(dump->find("\"stale_shards\":0"), std::string::npos);
  // Router postmortem + one section per shard.
  std::size_t sources = 0, pos = 0;
  while ((pos = dump->find("\"source\":", pos)) != std::string::npos) {
    ++sources;
    pos += 1;
  }
  EXPECT_EQ(sources, 3u);
  // The routed job's lifecycle events are in there (the shards share
  // this process's recorder), as is the Dump request itself.
  EXPECT_NE(dump->find("\"kind\":\"job_accepted\""), std::string::npos);
  EXPECT_NE(dump->find("\"kind\":\"job_completed\""), std::string::npos);
  EXPECT_NE(dump->find("\"kind\":\"dump_requested\""), std::string::npos);

  router.stop();
  shard_a.stop();
  shard_b.stop();
}

TEST(ClusterRouter, OneTraceIdSpansRouterAndShard) {
  auto& tr = obs::Tracer::global();
  tr.clear();
  tr.enable();

  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  Router router(router_over({&shard_a, &shard_b}));
  ASSERT_TRUE(router.start());

  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  const net::CallResult res = client.call(lowrank_fixed_request(1, 11));
  ASSERT_EQ(res.status, net::CallStatus::Ok);
  ASSERT_NE(res.trace_id, 0u);

  router.stop();
  shard_a.stop();
  shard_b.stop();

  // The client-minted id rides the forwarded Submit: the router's
  // routing span and the shard's submit/exec spans all chain under it.
  bool saw_route = false, saw_submit = false, saw_exec = false;
  for (const auto& ev : tr.events()) {
    if (ev.trace_id != res.trace_id) continue;
    if (std::string(ev.name) == "router.route") saw_route = true;
    if (std::string(ev.name) == "net.submit") saw_submit = true;
    if (std::string(ev.name) == "worker.exec") saw_exec = true;
  }
  EXPECT_TRUE(saw_route);
  EXPECT_TRUE(saw_submit);
  EXPECT_TRUE(saw_exec);

  tr.disable();
  tr.clear();
}

// ------------------------------------------- availability layer (§15)

// Hot-key replicated execution: with replicate_threshold = 1 every
// submit of the key runs on BOTH owner and successor. Both replicas may
// reply; the client must see exactly one result, and exactly one Cancel
// must go to the losing leg — verified via router stats, per-shard
// scheduler telemetry, and the flight recorder.
TEST(ClusterRouter, HedgedPairDeliversOneResultAndCancelsLoser) {
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  RouterOptions ro = router_over({&shard_a, &shard_b});
  ro.replicate_threshold = 1.0;
  Router router(ro);
  ASSERT_TRUE(router.start());

  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  const net::JobRequest req = lowrank_fixed_request(4242, 31);
  const net::CallResult res = client.call(req);
  ASSERT_EQ(res.status, net::CallStatus::Ok) << res.detail;
  ASSERT_EQ(res.header.status, runtime::JobStatus::Done) << res.header.error;
  ASSERT_EQ(res.tensors.size(), 2u);
  EXPECT_LT(fixed_rank_residual(req, res), 1e-8);

  // Both legs were submitted: the owner got the original tag, the
  // successor the "/hedge" copy (determinism makes their answers
  // bit-identical, so whichever wins is *the* answer).
  ASSERT_TRUE(wait_until(
      [&] {
        return shard_a.stats().jobs_submitted +
                   shard_b.stats().jobs_submitted >= 2;
      },
      5.0));
  EXPECT_GT(shard_a.stats().jobs_submitted, 0u);
  EXPECT_GT(shard_b.stats().jobs_submitted, 0u);

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.results_relayed, 1u);  // exactly one client result
  EXPECT_EQ(stats.hedges_fired, 1u);
  EXPECT_EQ(stats.hedge_cancels, 1u);  // exactly one loser cancelled
  EXPECT_EQ(stats.clients_dropped, 0u);
  EXPECT_EQ(stats.forward_errors, 0u);

  // The pair's lifecycle is in the flight recorder.
  bool saw_fired = false, saw_cancelled = false;
  for (const auto& ev : obs::Recorder::global().snapshot()) {
    if (ev.job_id != req.request_id) continue;
    if (ev.kind == obs::EventKind::HedgeFired) saw_fired = true;
    if (ev.kind == obs::EventKind::HedgeCancelled) saw_cancelled = true;
  }
  EXPECT_TRUE(saw_fired);
  EXPECT_TRUE(saw_cancelled);

  router.stop();
  shard_a.stop();
  shard_b.stop();
}

namespace {

/// Hedge-bucket burst cap (router.cpp's kHedgeBurstCap): the bucket
/// starts full, so a fresh router can hedge this many slow submits.
constexpr int kHedgeBurst = 5;

/// Shard 0's scheduler: every job sits 800 ms behind the `job_latency`
/// fault, far past the router's hedge trigger.
runtime::SchedulerOptions slow_sched() {
  fault::FaultConfig cfg;
  cfg.probability[static_cast<int>(fault::FaultKind::JobLatency)] = 1.0;
  cfg.latency_ms = 800;
  runtime::SchedulerOptions so = small_sched();
  so.injector = std::make_shared<fault::FaultInjector>(cfg, 1);
  return so;
}

}  // namespace

// A fresh router holds a full hedge budget: its very first submit, to
// a slow owner, is hedged onto the successor past the 50 ms floor.
TEST(ClusterRouter, FreshRouterHedgesItsFirstSlowSubmit) {
  runtime::Scheduler sched_a(slow_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  RouterOptions ro = router_over({&shard_a, &shard_b});
  ro.hedge = true;
  Router router(ro);
  ASSERT_TRUE(router.start());

  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  const net::JobRequest req =
      lowrank_fixed_request(1, seed_owned_by(0, ro.vnodes));
  const net::CallResult res = client.call(req);
  ASSERT_EQ(res.status, net::CallStatus::Ok) << res.detail;
  ASSERT_EQ(res.header.status, runtime::JobStatus::Done) << res.header.error;
  EXPECT_LT(fixed_rank_residual(req, res), 1e-8);

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.hedges_fired, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);
  EXPECT_EQ(stats.hedge_budget_exhausted, 0u);
  EXPECT_EQ(stats.results_relayed, 1u);
  // One client submit is one routed submit; the hedge leg only adds to
  // the successor's per-shard count.
  const auto scraped = client.stats();
  ASSERT_TRUE(scraped.has_value());
  EXPECT_EQ(scraped->value("cluster_submits_routed_total"), 1.0);
  EXPECT_EQ(scraped->value("cluster_shard_submits{shard=\"0\"}") +
                scraped->value("cluster_shard_submits{shard=\"1\"}"),
            2.0);

  router.stop();
  shard_a.stop();
  shard_b.stop();
}

// Latency hedging: with `hedge` armed, an exchange whose owner stays
// silent past the kind's p99 in the router's own SLO window (here the
// 50 ms floor: the warm-up jobs are cache hits) gets one duplicate on
// the successor, paid for from the token bucket. The bucket starts at
// its burst cap and each routed submit refills 0.05, so the burst
// drains after kHedgeBurst slow jobs and the next one is suppressed.
TEST(ClusterRouter, LatencyHedgeFiresPastOwnP99) {
  runtime::Scheduler sched_a(slow_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  RouterOptions ro = router_over({&shard_a, &shard_b});
  ro.hedge = true;
  Router router(ro);
  ASSERT_TRUE(router.start());

  // Warm shard 1's result cache directly, so the routed warm-ups below
  // are fast hits that fill the router's window without hedging.
  const std::uint64_t fast_seed = seed_owned_by(1, ro.vnodes);
  net::ClientOptions direct_opt;
  direct_opt.port = shard_b.port();
  net::Client direct(direct_opt);
  ASSERT_TRUE(direct.connect());
  ASSERT_EQ(direct.call(lowrank_fixed_request(1, fast_seed)).status,
            net::CallStatus::Ok);

  constexpr int kWarm = 10;
  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  for (int id = 1; id <= kWarm; ++id)
    ASSERT_EQ(client.call(lowrank_fixed_request(id, fast_seed)).status,
              net::CallStatus::Ok);
  const RouterStats warm = router.stats();
  EXPECT_EQ(warm.hedges_fired, 0u);

  // Each slow job (a fresh matrix, so no cache can answer it) is hedged
  // once: the fast successor wins, the slow owner's leg is cancelled.
  std::uint64_t slow_seed = 0;
  auto next_slow = [&](std::uint64_t id) {
    slow_seed = seed_owned_by(0, ro.vnodes, slow_seed + 1);
    return lowrank_fixed_request(id, slow_seed);
  };
  for (int i = 0; i < kHedgeBurst; ++i) {
    const net::JobRequest slow = next_slow(1000 + std::uint64_t(i));
    const net::CallResult res = client.call(slow);
    ASSERT_EQ(res.status, net::CallStatus::Ok) << res.detail;
    ASSERT_EQ(res.header.status, runtime::JobStatus::Done) << res.header.error;
    EXPECT_LT(fixed_rank_residual(slow, res), 1e-8);
    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.hedges_fired, std::uint64_t(i + 1));
    EXPECT_EQ(stats.hedge_wins, std::uint64_t(i + 1));
    EXPECT_EQ(stats.hedge_cancels, std::uint64_t(i + 1));
    EXPECT_EQ(stats.hedge_budget_exhausted, warm.hedge_budget_exhausted);
  }
  RouterStats stats = router.stats();
  EXPECT_EQ(stats.results_relayed, std::uint64_t(kWarm + kHedgeBurst));
  EXPECT_EQ(stats.forward_errors, 0u);

  // The burst is spent: the next slow job is not hedged.
  ASSERT_EQ(client.call(next_slow(1000 + kHedgeBurst)).status,
            net::CallStatus::Ok);
  stats = router.stats();
  EXPECT_EQ(stats.hedges_fired, std::uint64_t(kHedgeBurst));
  EXPECT_EQ(stats.hedge_budget_exhausted, warm.hedge_budget_exhausted + 1);
  EXPECT_EQ(stats.results_relayed, std::uint64_t(kWarm + kHedgeBurst + 1));

  router.stop();
  shard_a.stop();
  shard_b.stop();
}

// Planned drain: the victim streams its cache warmth to the ring
// successor before the router re-points the keyshare — zero jobs lost,
// and the hot key's next submit hits the successor's *warm* cache.
TEST(ClusterRouter, PlannedDrainHandsOffCacheToSuccessor) {
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  Router router(router_over({&shard_a, &shard_b}));
  ASSERT_TRUE(router.start());

  // Warm the victim (shard 0) with a key it owns.
  const std::uint64_t seed = seed_owned_by(0, RouterOptions{}.vnodes);
  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  const net::JobRequest req = lowrank_fixed_request(1, seed);
  ASSERT_EQ(client.call(req).status, net::CallStatus::Ok);
  ASSERT_EQ(shard_a.stats().jobs_submitted, 1u);
  const std::uint64_t succ_hits_before = sched_b.result_cache_stats().hits;

  net::DrainSummary sum;
  ASSERT_TRUE(router.drain(0, &sum));
  EXPECT_GT(sum.entries, 0u);  // at least the cached result moved
  EXPECT_GT(sum.bytes, 0u);
  EXPECT_EQ(sum.inflight, 0u);

  // The victim finishes and exits on its own; the router re-points the
  // keyshare only after the handoff proved complete.
  EXPECT_TRUE(wait_until([&] { return !shard_a.running(); }, 5.0));
  ASSERT_TRUE(wait_until(
      [&] {
        return router.live_shards() == std::vector<std::uint32_t>{1};
      },
      5.0));
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.drains_completed, 1u);
  EXPECT_EQ(stats.handoff_entries, sum.entries);

  // Same key again: served by the successor FROM CACHE (the handoff
  // carried the warmth — no recompute, no lost work).
  const net::CallResult res =
      client.call_with_retry(lowrank_fixed_request(2, seed));
  ASSERT_EQ(res.status, net::CallStatus::Ok) << res.detail;
  ASSERT_EQ(res.header.status, runtime::JobStatus::Done);
  EXPECT_GT(sched_b.result_cache_stats().hits, succ_hits_before);
  EXPECT_GT(shard_b.stats().handoff_in, 0u);

  // Drained shards are retired for good: no probe may readmit one (the
  // process is gone; its endpoint may be reused by anything).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(router.live_shards(), std::vector<std::uint32_t>{1});

  router.stop();
  shard_b.stop();
}

TEST(ClusterRouter, RemoteShutdownDrainsWholeCluster) {
  runtime::Scheduler sched_a(small_sched()), sched_b(small_sched());
  net::Server shard_a(sched_a, shard_opts()), shard_b(sched_b, shard_opts());
  ASSERT_TRUE(shard_a.start());
  ASSERT_TRUE(shard_b.start());
  RouterOptions ro = router_over({&shard_a, &shard_b});
  ro.allow_remote_shutdown = true;
  Router router(ro);
  ASSERT_TRUE(router.start());

  net::Client client(client_for(router));
  ASSERT_TRUE(client.connect());
  EXPECT_TRUE(client.send_shutdown());
  router.wait();
  EXPECT_FALSE(router.running());
  // The router broadcast Shutdown to every live shard before exiting.
  EXPECT_TRUE(wait_until(
      [&] { return !shard_a.running() && !shard_b.running(); }, 5.0));
}
