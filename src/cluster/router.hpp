// router.hpp — consistent-hash routing front-end for the sharded
// cluster (DESIGN.md §11).
//
// A second poll(2) event loop, one layer above net::Server and built on
// the same connection layer (net/conn.hpp: accept, buffers, framing,
// the loop's wake pipe): the router terminates client connections,
// decodes just enough of each Submit to compute its routing key
// (cluster::routing_key — a pure hash of the request's matrix
// identity), picks the owning shard on the hash ring, and forwards the
// original frame bytes to that shard over a pooled upstream
// connection. Result/Busy/Error frames stream back verbatim, so
// a client cannot tell a router from a single server — retry-after hints
// in Busy frames pass through untouched, and trace ids ride the
// forwarded Submit so shard-side spans chain under the client's trace.
//
// Membership is HealthCheck-driven: the loop probes every shard with the
// protocol v3 HealthCheck verb on a fixed cadence and feeds the verdicts
// (plus any forwarding failure) into a per-shard fault::CircuitBreaker.
// A breaker tripping Open removes the shard from the ring — bounded
// remapping moves only its keys to ring neighbors — and a later probe
// success re-adds it. Forwarding failures fail over in-line: an exchange
// whose upstream dies before anything was relayed is re-routed once to
// the key's new owner; one that already relayed frames drops the client
// connection instead (a half-forwarded result must look like a transport
// error, which the client's retry policy recovers, never a RemoteError,
// which it would trust).
//
// Observability plane (DESIGN.md §14): a Stats or Dump frame from a
// client fans out to every live shard over pooled upstream conns. Stats
// replies merge via cluster::merge_shard_stats — summable rows (incl.
// histogram buckets, which share fixed ladders, so the sums are exact)
// aggregate under their own name and every shard row reappears with a
// `shard="i"` label; shards that miss `scrape_timeout_s` are counted in
// `cluster_stale_shards` and the merge completes without them. Dump
// replies concatenate each shard's flight-recorder postmortem with the
// router's own into one JSON document for randla_postmortem.
//
// Availability layer (DESIGN.md §15):
//  - Hot-key replicated execution: a key whose decayed submit rate
//    crosses `replicate_threshold` is forwarded to BOTH the ring owner
//    and its successor; the first ResultHeader claims the client and the
//    loser is cancelled with the protocol v6 Cancel verb. Safe because
//    placement and execution are deterministic (Philox-seeded): both
//    replicas compute bit-identical factors, so whichever answers first
//    is *the* answer.
//  - Latency hedging: a non-replicated exchange whose owner has been
//    silent past the kind's p99 in the router's own SLO window
//    (exported as cluster_slo_*) fires one hedge to the successor,
//    bounded by a token bucket refilled at 0.05 per routed submit so
//    hedges never exceed that fraction of traffic.
//  - Planned drain: Router::drain() orders a shard to stream its cache
//    warmth to its ring successor (CacheHandoff frames), waits for the
//    DrainReply, and only then re-points the keyshare — zero jobs and
//    zero cache warmth lost.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/breaker.hpp"
#include "net/protocol.hpp"

namespace randla::cluster {

struct ShardEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct RouterOptions {
  std::string bind_addr = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (query with Router::port())
  std::vector<ShardEndpoint> shards;
  int max_connections = 128;
  std::size_t max_frame_bytes = std::size_t(1) << 26;
  int vnodes = 64;            ///< ring points per shard
  double probe_interval_s = 0.25;  ///< HealthCheck cadence per shard
  double probe_timeout_s = 1.0;    ///< unanswered probe = failure
  /// Per-shard breaker: consecutive probe/forward failures to evict the
  /// shard from the ring, and how long Open lasts before a probe may
  /// readmit it.
  fault::BreakerOptions breaker{/*failure_threshold=*/2,
                                /*open_cooldown_s=*/1.0};
  /// Cluster Stats/Dump fan-out: a shard that has not answered within
  /// this window is reported as stale (`cluster_stale_shards`) and the
  /// merge completes without it instead of failing or blocking.
  double scrape_timeout_s = 1.0;
  double idle_timeout_s = 60;   ///< close quiet client conns; ≤0 disables
  bool allow_remote_shutdown = false;  ///< Shutdown drains cluster + router
  double drain_timeout_s = 10;
  /// Hot-key replicated execution: a key whose decayed submit rate
  /// (exponential decay, ~10 s time constant) reaches this value is
  /// executed on both owner and successor, first result wins (0 = off).
  double replicate_threshold = 0;
  /// Latency hedging: fire one hedge to the successor when the owner has
  /// been silent past max(kind p99, 50 ms), at most ~5% of submits.
  bool hedge = false;
};

struct RouterStats {
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_refused = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t submits_routed = 0;
  std::uint64_t results_relayed = 0;  ///< exchanges ending in ResultEnd
  std::uint64_t busy_relayed = 0;     ///< shard Busy hints passed through
  std::uint64_t errors_relayed = 0;   ///< shard Error frames passed through
  std::uint64_t forward_errors = 0;   ///< upstream died mid-exchange
  std::uint64_t rerouted = 0;         ///< exchanges moved to a new owner
  std::uint64_t clients_dropped = 0;  ///< half-forwarded exchanges cut
  std::uint64_t probes_ok = 0;
  std::uint64_t probes_failed = 0;
  std::uint64_t membership_changes = 0;  ///< ring evictions + readmissions
  std::uint64_t hedges_fired = 0;        ///< replica + latency hedge legs
  std::uint64_t hedge_wins = 0;          ///< hedged leg delivered the result
  std::uint64_t hedge_cancels = 0;       ///< losing legs sent a Cancel
  std::uint64_t hedge_budget_exhausted = 0;  ///< hedges suppressed by budget
  std::uint64_t drains_completed = 0;    ///< planned drains (handoff done)
  std::uint64_t handoff_entries = 0;     ///< cache entries moved by drains
};

/// Live routing state of one shard (Stats exposition + tests).
struct ShardView {
  std::uint32_t shard = 0;
  bool in_ring = false;
  fault::BreakerState breaker = fault::BreakerState::Closed;
  std::uint64_t submits = 0;   ///< exchanges routed here (incl. replicas)
  std::uint64_t busy = 0;      ///< Busy frames this shard answered
  std::uint64_t failures = 0;  ///< probe + forward failures charged
};

class Router {
 public:
  explicit Router(RouterOptions opts);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind + listen + spawn the loop; false (with stderr detail) on bind
  /// failure. Idempotent once started.
  bool start();
  std::uint16_t port() const;
  /// Graceful: stop accepting, finish in-flight exchanges, flush, join.
  void stop();
  /// Block until the loop exits on its own (remote Shutdown frame).
  void wait();
  bool running() const;

  RouterStats stats() const;
  /// Snapshot of every configured shard's routing state.
  std::vector<ShardView> shard_views() const;
  /// Shard ids currently in the ring.
  std::vector<std::uint32_t> live_shards() const;

  /// Planned drain of `shard` (DESIGN.md §15): order it to stream its
  /// cache warmth to its ring successor, block until the DrainReply
  /// proves the handoff complete, then re-point the keyshare away from
  /// it (it finishes in-flight jobs and exits on its own). Callable from
  /// any thread while the router runs; false when the shard id is
  /// unknown, already out of the ring, or the drain round-trip fails.
  bool drain(std::uint32_t shard, net::DrainSummary* summary = nullptr);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace randla::cluster
