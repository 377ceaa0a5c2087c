#include "cluster/router.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/stats_merge.hpp"
#include "net/client.hpp"
#include "net/conn.hpp"
#include "net/protocol.hpp"
#include "net/socket_util.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace randla::cluster {

namespace {

/// A pipelining client may queue at most this many submits behind the
/// active exchange before the connection is poisoned (net::Client is
/// strictly serial, so any depth here is already unusual).
constexpr std::size_t kMaxPendingSubmits = 64;

/// Placement attempts per exchange. Each synchronous connect failure
/// charges the shard's breaker, so with failure_threshold = 2 the loop
/// provably either lands on a live shard or empties the ring.
constexpr int kMaxPlacementTries = 4;

/// Forget per-key hotness rates past this many distinct keys
/// (replication is a heuristic; unbounded exact rates are not worth the
/// RAM).
constexpr std::size_t kMaxHotKeys = 65536;

/// Time constant of the hot-key rate decay: a key must sustain its
/// submit rate on the ~10 s scale to stay replicated, so one burst does
/// not pin it hot forever.
constexpr double kHotDecayTauS = 10.0;

/// Hedge token-bucket burst cap: at most this many hedges can fire
/// back-to-back after a quiet stretch, regardless of accumulated credit.
constexpr double kHedgeBurstCap = 5.0;

/// Hedge token-bucket refill per routed submit; a hedge costs one token,
/// so hedge traffic is bounded at ~this fraction of submits.
constexpr double kHedgeBudgetRatio = 0.05;

/// Never hedge before this much elapsed time (guards cold-start p99=0).
constexpr double kHedgeFloorS = 0.05;

/// Idle upstream sockets kept pooled per shard.
constexpr std::size_t kMaxPoolIdle = 4;

}  // namespace

struct Router::Impl {
  RouterOptions opts;

  mutable std::mutex stats_mu;
  RouterStats stats;
  std::vector<ShardView> views_snapshot;  ///< refreshed by the loop

  /// This router's SLO window (submit to relayed ResultEnd/Error per
  /// job kind): exported as cluster_slo_*, and its p99 is the
  /// latency-hedge trigger. Loop thread only.
  obs::SloBook slo;

  // --- downstream (client side) ---------------------------------------
  struct PendingSubmit {
    std::vector<std::uint8_t> frame;  ///< full wire frame (header+payload)
    std::uint64_t key = 0;
    std::uint64_t request_id = 0;
    std::uint64_t trace_id = 0;
    std::uint8_t kind = 0;  ///< wire JobKind (SLO bucket for hedging)
    /// Pre-encoded "/hedge"-tagged copy when the key's decayed rate
    /// crossed replicate_threshold at submit time (empty = no replica).
    std::vector<std::uint8_t> replica_frame;
  };
  struct Down : net::FramedConn {
    std::uint64_t active_x = 0;  ///< exchange streaming to this client
    std::deque<PendingSubmit> pending;
  };
  std::map<std::uint64_t, Down> downs;
  std::uint64_t next_down_id = 1;

  // --- upstream (shard side) ------------------------------------------
  struct Up : net::FramedConn {
    std::uint32_t shard = 0;
    std::uint64_t x = 0;  ///< bound exchange (0 = idle or probe)
    bool probe = false;
    double probe_start = 0;
    std::uint64_t fanout = 0;  ///< bound Stats/Dump fan-out (0 = none)
  };
  std::map<std::uint64_t, Up> ups;
  std::uint64_t next_up_id = 1;

  /// One client Stats/Dump request fanned out to every live shard. The
  /// merge finalizes when the last shard answers or the deadline passes
  /// (unanswered shards are counted stale, never waited on forever).
  struct Fanout {
    std::uint64_t down = 0;   ///< requesting client conn (may drop away)
    bool dump = false;        ///< Dump verb (else Stats)
    double deadline = 0;
    std::map<std::uint64_t, std::uint32_t> pending;  ///< up id → shard
    std::vector<std::pair<std::uint32_t, StatsRows>> stats;
    std::vector<std::pair<std::uint32_t, std::string>> dumps;
    std::uint32_t stale = 0;
  };
  std::map<std::uint64_t, Fanout> fanouts;
  std::uint64_t next_fanout_id = 1;

  struct Exchange {
    /// Client conn the result streams to; 0 = detached (losing hedge
    /// leg or client gone): its frames are swallowed.
    std::uint64_t down = 0;
    std::uint64_t up = 0;
    std::uint32_t shard = 0;
    std::uint64_t key = 0;
    std::uint64_t request_id = 0;
    std::uint64_t trace_id = 0;
    bool forwarded = false;  ///< any frame already relayed downstream
    int reroutes = 0;
    std::vector<std::uint8_t> frame;  ///< submit frame for (re)send
    // Hedged-pair state (DESIGN.md §15): two legs linked by `partner`
    // race for the same client; the first ResultHeader claims it and the
    // loser is cancelled. Determinism makes either answer *the* answer.
    std::uint64_t partner = 0;   ///< twin exchange id (0 = sole)
    bool hedged_copy = false;    ///< this leg is the duplicate
    bool hedge_checked = false;  ///< latency-hedge decision already made
    std::uint8_t kind = 0;       ///< wire JobKind (SLO bucket)
    double started = 0;          ///< loop time the submit was queued
  };
  std::map<std::uint64_t, Exchange> exchanges;
  std::uint64_t next_x_id = 1;

  struct ShardState {
    ShardEndpoint ep;
    fault::CircuitBreaker breaker;
    bool in_ring = false;
    bool drained = false;  ///< planned drain done: never readmit
    std::uint64_t submits = 0;
    std::uint64_t busy = 0;
    std::uint64_t failures = 0;
    std::vector<std::uint64_t> idle;   ///< idle pooled upstream conn ids
    std::uint64_t probing_uid = 0;     ///< outstanding probe conn (0 = none)
    double last_probe = -1e18;
  };
  std::vector<ShardState> shards;
  HashRing ring;

  /// Decayed per-key submit rate (replication trigger).
  struct HotKey {
    double rate = 0;
    double last = 0;
  };
  std::unordered_map<std::uint64_t, HotKey> hot;
  std::deque<std::uint64_t> failed_ups;  ///< worklist (no recursion)

  /// Hedge budget: credited per routed submit, debited per hedge fired.
  /// Starts full, so a fresh router can hedge its first slow submits.
  double hedge_tokens = kHedgeBurstCap;

  /// Shards whose planned drain finished (DrainReply read by the control
  /// thread); the loop consumes this and re-points the keyshare.
  std::mutex ctl_mu;
  std::vector<std::uint32_t> drained_pending;

  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();

  net::LoopThread thread;  ///< last: destroying it stops the loop first

  explicit Impl(RouterOptions o)
      : opts(std::move(o)), ring(RingOptions{opts.vnodes}) {
    for (std::size_t i = 0; i < opts.shards.size(); ++i) {
      ShardState s;
      s.ep = opts.shards[i];
      s.breaker = fault::CircuitBreaker(opts.breaker);
      s.in_ring = true;
      shards.push_back(std::move(s));
      ring.add(static_cast<std::uint32_t>(i));
    }
    snapshot_views();
  }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  void bump(std::uint64_t RouterStats::* field, std::uint64_t by = 1) {
    std::lock_guard<std::mutex> lk(stats_mu);
    stats.*field += by;
  }

  // Event loop.
  void loop();
  void accept_ready();
  void snapshot_views();

  // Downstream.
  void read_down(std::uint64_t cid);
  void process_down_input(std::uint64_t cid);
  void dispatch_down(std::uint64_t cid, net::FrameType type,
                     const std::uint8_t* frame, std::size_t frame_len);
  void handle_submit(std::uint64_t cid, const std::uint8_t* frame,
                     std::size_t frame_len);
  void handle_scrape(std::uint64_t cid, bool dump);
  net::StatsReply local_stats();
  void finalize_fanout(std::uint64_t fid);
  void check_fanouts(double t);
  void handle_health(std::uint64_t cid);
  void relay_down(std::uint64_t cid, const std::uint8_t* frame,
                  std::size_t len);
  void drop_down(std::uint64_t cid);

  // Upstream + exchanges.
  void start_exchange(std::uint64_t cid, PendingSubmit ps);
  bool place(std::uint64_t xid);
  bool bind_to_shard(std::uint64_t xid, std::uint32_t shard);
  std::uint64_t take_upstream(std::uint32_t shard);
  void release_upstream(std::uint64_t uid);
  void read_up(std::uint64_t uid);
  void process_up_input(std::uint64_t uid);
  bool handle_up_frame(std::uint64_t uid, const net::FrameHeader& hdr,
                       const std::uint8_t* frame, std::size_t frame_len);
  void finish_exchange(std::uint64_t xid);
  void close_up(std::uint64_t uid);
  void fail_up(std::uint64_t uid) { failed_ups.push_back(uid); }
  void process_failed_ups();
  void handle_one_up_failure(std::uint64_t uid);

  // Hedging / replication (DESIGN.md §15).
  void start_replica(std::uint64_t primary_xid, std::vector<std::uint8_t> frame);
  void cancel_leg(std::uint64_t xid);
  void maybe_hedge(double t);
  void cancel_discard_exchanges();

  // Planned drain.
  bool drain_shard(std::uint32_t shard, net::DrainSummary* out);
  void retire_shard(std::uint32_t shard);

  // Membership.
  void shard_failure(std::uint32_t shard);
  void probe_ok(std::uint32_t shard);
  void maybe_probe(double t);
  void broadcast_shutdown();
};

// ---------------------------------------------------------------------

Router::Router(RouterOptions opts) : impl_(std::make_unique<Impl>(std::move(opts))) {}

Router::~Router() = default;

std::uint16_t Router::port() const { return impl_->thread.port; }

bool Router::running() const { return impl_->thread.alive.load(); }

RouterStats Router::stats() const {
  std::lock_guard<std::mutex> lk(impl_->stats_mu);
  return impl_->stats;
}

std::vector<ShardView> Router::shard_views() const {
  std::lock_guard<std::mutex> lk(impl_->stats_mu);
  return impl_->views_snapshot;
}

std::vector<std::uint32_t> Router::live_shards() const {
  std::lock_guard<std::mutex> lk(impl_->stats_mu);
  std::vector<std::uint32_t> out;
  for (const ShardView& v : impl_->views_snapshot)
    if (v.in_ring) out.push_back(v.shard);
  return out;
}

bool Router::start() {
  return impl_->thread.start(impl_->opts.bind_addr, impl_->opts.port,
                             "cluster", [this] { impl_->loop(); });
}

void Router::stop() { impl_->thread.stop(); }

void Router::wait() { impl_->thread.wait(); }

bool Router::drain(std::uint32_t shard, net::DrainSummary* summary) {
  return impl_->drain_shard(shard, summary);
}

/// Planned drain, run on the caller's thread: the Drain round-trip is a
/// blocking client exchange against the victim shard, and only its
/// *outcome* crosses into the event loop (via drained_pending + wake
/// signal). The successor is computed from the loop's last membership
/// snapshot — placement is a pure function of the members, so a
/// locally rebuilt ring coincides with the loop's without touching it.
bool Router::Impl::drain_shard(std::uint32_t shard, net::DrainSummary* out) {
  if (!thread.alive.load() || shard >= shards.size()) return false;
  HashRing local{RingOptions{opts.vnodes}};
  {
    std::lock_guard<std::mutex> lk(stats_mu);
    for (const ShardView& v : views_snapshot)
      if (v.in_ring) local.add(v.shard);
  }
  if (!local.contains(shard)) return false;
  net::DrainRequest d;
  if (const auto succ = local.successor(ring_point(shard, 0))) {
    d.host = shards[*succ].ep.host;
    d.port = shards[*succ].ep.port;
  }
  // No successor (single-shard ring): the victim still drains, it just
  // has nowhere to hand its warmth — d.port stays 0 and the shard skips
  // the handoff stream.
  net::ClientOptions co;
  co.host = shards[shard].ep.host;
  co.port = shards[shard].ep.port;
  co.recv_timeout_s = 30;  // handoff streams whole caches; be patient
  net::Client c(co);
  if (!c.connect()) return false;
  const auto sum = c.drain(d);
  if (!sum) return false;
  if (out) *out = *sum;
  bump(&RouterStats::drains_completed);
  bump(&RouterStats::handoff_entries, sum->entries);
  {
    std::lock_guard<std::mutex> lk(ctl_mu);
    drained_pending.push_back(shard);
  }
  thread.wake->signal();
  return true;
}

// ---------------------------------------------------------------------
// Event loop.

void Router::Impl::loop() {
  bool draining = false;
  double drain_start = 0;
  for (;;) {
    // Planned drains completed by the control thread: re-point the
    // keyshare now that the DrainReply proved the cache handoff done.
    {
      std::vector<std::uint32_t> done;
      {
        std::lock_guard<std::mutex> lk(ctl_mu);
        done.swap(drained_pending);
      }
      for (const std::uint32_t shard : done) retire_shard(shard);
    }
    if (thread.stop_requested.load() && !draining) {
      draining = true;
      drain_start = now();
      thread.close_listener();
      // Detached duplicate work (losing hedge legs) would
      // otherwise hold the drain open and then be torn down as forward
      // errors at the timeout; cancel it cleanly instead.
      cancel_discard_exchanges();
    }
    if (draining) {
      bool pending_writes = false;
      for (const auto& [id, d] : downs)
        if (d.has_output()) pending_writes = true;
      bool live_exchanges = !exchanges.empty() || !fanouts.empty();
      if ((!live_exchanges && !pending_writes) ||
          now() - drain_start > opts.drain_timeout_s)
        break;
    }

    std::vector<pollfd> fds;
    std::vector<std::pair<bool, std::uint64_t>> fd_ref;  // (upstream?, id)
    for (const auto& [id, d] : downs) {
      fds.push_back(d.poll_entry());
      fd_ref.emplace_back(false, id);
    }
    for (const auto& [id, u] : ups) {
      fds.push_back(u.poll_entry());
      fd_ref.emplace_back(true, id);
    }
    if (!thread.poll(fds, 20, [this] { accept_ready(); })) break;

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const auto [up, id] = fd_ref[i];
      if (!up) {
        if (!downs.count(id)) continue;
        if (fds[i].revents & (POLLERR | POLLNVAL)) {
          drop_down(id);
          continue;
        }
        if (fds[i].revents & (POLLIN | POLLHUP)) read_down(id);
        if (downs.count(id) && (fds[i].revents & POLLOUT) &&
            downs[id].flush().peer_gone)
          drop_down(id);
      } else {
        if (!ups.count(id)) continue;
        if (fds[i].revents & (POLLERR | POLLNVAL)) {
          fail_up(id);
          continue;
        }
        if (fds[i].revents & (POLLIN | POLLHUP)) read_up(id);
        if (ups.count(id) && (fds[i].revents & POLLOUT) &&
            ups[id].flush().peer_gone)
          fail_up(id);
      }
    }
    process_failed_ups();

    // Kick pending upstream writes that never saw a POLLOUT (a frame
    // queued this cycle on a fresh conn is flushed here, not next cycle).
    for (auto& [id, u] : ups)
      if (u.has_output() && u.flush().peer_gone) fail_up(id);
    process_failed_ups();

    const double t = now();
    if (!draining) maybe_probe(t);
    if (!draining && opts.hedge) maybe_hedge(t);
    check_fanouts(t);

    // Close flushed-poisoned and idle downstream conns.
    std::vector<std::uint64_t> doomed;
    for (auto& [id, d] : downs) {
      const bool flushed = !d.has_output();
      if (d.close_after_flush && flushed) doomed.push_back(id);
      else if (!draining && opts.idle_timeout_s > 0 && d.active_x == 0 &&
               d.pending.empty() && flushed &&
               t - d.last_active > opts.idle_timeout_s)
        doomed.push_back(id);
    }
    for (std::uint64_t id : doomed) drop_down(id);

    snapshot_views();
  }

  for (auto& [id, d] : downs) close(d.fd);
  downs.clear();
  for (auto& [id, u] : ups) close(u.fd);
  ups.clear();
  exchanges.clear();
  snapshot_views();
}

void Router::Impl::snapshot_views() {
  const double t = now();
  std::vector<ShardView> views;
  views.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    ShardView v;
    v.shard = static_cast<std::uint32_t>(i);
    v.in_ring = shards[i].in_ring;
    v.breaker = shards[i].breaker.state(t);
    v.submits = shards[i].submits;
    v.busy = shards[i].busy;
    v.failures = shards[i].failures;
    views.push_back(v);
  }
  std::lock_guard<std::mutex> lk(stats_mu);
  views_snapshot = std::move(views);
}

void Router::Impl::accept_ready() {
  const std::uint64_t refused = net::accept_pending(
      thread.listen_fd, opts.max_connections, downs.size(), [this](int fd) {
        Down d;
        d.fd = fd;
        d.last_active = now();
        downs.emplace(next_down_id++, std::move(d));
        bump(&RouterStats::conns_accepted);
      });
  if (refused > 0) bump(&RouterStats::conns_refused, refused);
}

// ---------------------------------------------------------------------
// Downstream.

void Router::Impl::read_down(std::uint64_t cid) {
  Down& d = downs[cid];
  const net::IoResult r = d.read(opts.max_frame_bytes);
  if (r.bytes > 0) d.last_active = now();
  process_down_input(cid);
  if (r.peer_gone) drop_down(cid);
}

void Router::Impl::process_down_input(std::uint64_t cid) {
  for (auto it = downs.find(cid); it != downs.end(); it = downs.find(cid)) {
    Down& d = it->second;
    net::Frame f;
    const net::HeaderStatus hs = d.next_frame(opts.max_frame_bytes, &f);
    if (hs != net::HeaderStatus::Ok) {
      if (hs != net::HeaderStatus::NeedMore) {
        bump(&RouterStats::protocol_errors);
        d.queue(net::malformed_frame_error(hs));
      }
      if (d.flush().peer_gone) drop_down(cid);
      return;
    }
    bump(&RouterStats::frames_in);
    dispatch_down(cid, f.hdr.type, f.data, f.size);
  }
}

void Router::Impl::dispatch_down(std::uint64_t cid, net::FrameType type,
                                 const std::uint8_t* frame,
                                 std::size_t frame_len) {
  Down& d = downs[cid];
  const std::uint8_t* payload = frame + net::kHeaderBytes;
  const std::size_t len = frame_len - net::kHeaderBytes;
  switch (type) {
    case net::FrameType::Submit:
      handle_submit(cid, frame, frame_len);
      return;
    case net::FrameType::Ping: {
      if (auto nonce = net::decode_ping(payload, len)) {
        d.queue(net::encode_pong(*nonce));
      } else {
        bump(&RouterStats::protocol_errors);
        d.queue(net::encode_error(net::ErrorReply{
            0, net::ErrorCode::BadFrame, "bad ping"}));
      }
      return;
    }
    case net::FrameType::Stats:
      handle_scrape(cid, /*dump=*/false);
      return;
    case net::FrameType::Dump:
      handle_scrape(cid, /*dump=*/true);
      return;
    case net::FrameType::HealthCheck:
      handle_health(cid);
      return;
    case net::FrameType::Shutdown:
      if (opts.allow_remote_shutdown) {
        // Cluster-wide drain: tell every live shard to drain, then drain
        // the router itself. The shards' own in-flight results still
        // stream back through exchanges already open.
        broadcast_shutdown();
        thread.stop_requested.store(true);
      } else {
        d.queue(net::encode_error(net::ErrorReply{
            0, net::ErrorCode::BadRequest, "shutdown not allowed"}));
      }
      return;
    default:
      bump(&RouterStats::protocol_errors);
      d.queue(net::encode_error(net::ErrorReply{
          0, net::ErrorCode::BadFrame, "unexpected frame type"}));
      d.close_after_flush = true;
      return;
  }
}

void Router::Impl::handle_submit(std::uint64_t cid, const std::uint8_t* frame,
                                 std::size_t frame_len) {
  Down& d = downs[cid];
  auto req = net::decode_submit(frame + net::kHeaderBytes,
                                frame_len - net::kHeaderBytes);
  if (!req) {
    bump(&RouterStats::protocol_errors);
    d.queue(net::encode_error(net::ErrorReply{
        0, net::ErrorCode::BadRequest, "malformed submit"}));
    return;
  }
  if (thread.stop_requested.load()) {
    d.queue(net::encode_error(net::ErrorReply{
        req->request_id, net::ErrorCode::ShuttingDown, "router draining"}));
    return;
  }
  // The router hop gets its own span under the client's trace id, so a
  // traced request chains client.call → router.route → net.submit.
  obs::Span span("router.route", "cluster", req->trace_id);
  PendingSubmit ps;
  ps.frame.assign(frame, frame + frame_len);
  ps.key = routing_key(*req);
  ps.request_id = req->request_id;
  ps.trace_id = req->trace_id;
  ps.kind = static_cast<std::uint8_t>(req->kind);

  // Routed traffic earns hedge credit: the token bucket bounds latency
  // hedges at ~kHedgeBudgetRatio of submits, burst-capped.
  if (opts.hedge)
    hedge_tokens = std::min(hedge_tokens + kHedgeBudgetRatio, kHedgeBurstCap);

  // Hot-key bookkeeping: a decayed rate drives replicated execution (a
  // sustained-hot key runs on both owner and successor, first result
  // wins), which also keeps the successor's caches warm for failover.
  if (opts.replicate_threshold > 0) {
    if (hot.size() > kMaxHotKeys) hot.clear();
    HotKey& h = hot[ps.key];
    const double t = now();
    if (h.last > 0) h.rate *= std::exp(-(t - h.last) / kHotDecayTauS);
    h.rate += 1.0;
    h.last = t;
    if (h.rate >= opts.replicate_threshold && ring.size() >= 2) {
      net::JobRequest copy = *req;
      copy.tag += "/hedge";  // telemetry marks the duplicate as intentional
      ps.replica_frame = net::encode_submit(copy);
    }
  }

  if (d.active_x != 0) {
    if (d.pending.size() >= kMaxPendingSubmits) {
      bump(&RouterStats::protocol_errors);
      d.queue(net::encode_error(net::ErrorReply{
          req->request_id, net::ErrorCode::BadRequest,
          "submit pipeline too deep"}));
      d.close_after_flush = true;
      return;
    }
    d.pending.push_back(std::move(ps));
    return;
  }
  start_exchange(cid, std::move(ps));
}

net::StatsReply Router::Impl::local_stats() {
  net::StatsReply s;
  auto& m = s.metrics;
  RouterStats st;
  {
    std::lock_guard<std::mutex> lk(stats_mu);
    st = stats;
  }
  // Each RouterStats event once, under its Prometheus `_total` name.
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"cluster_conns_accepted_total", st.conns_accepted},
      {"cluster_conns_refused_total", st.conns_refused},
      {"cluster_frames_in_total", st.frames_in},
      {"cluster_protocol_errors_total", st.protocol_errors},
      {"cluster_submits_routed_total", st.submits_routed},
      {"cluster_results_relayed_total", st.results_relayed},
      {"cluster_busy_relayed_total", st.busy_relayed},
      {"cluster_errors_relayed_total", st.errors_relayed},
      {"cluster_forward_errors_total", st.forward_errors},
      {"cluster_rerouted_total", st.rerouted},
      {"cluster_clients_dropped_total", st.clients_dropped},
      {"cluster_probes_ok_total", st.probes_ok},
      {"cluster_probes_failed_total", st.probes_failed},
      {"cluster_membership_changes_total", st.membership_changes},
      {"cluster_hedges_fired_total", st.hedges_fired},
      {"cluster_hedge_wins_total", st.hedge_wins},
      {"cluster_hedge_cancels_total", st.hedge_cancels},
      {"cluster_hedge_budget_exhausted_total", st.hedge_budget_exhausted},
      {"cluster_drains_completed_total", st.drains_completed},
      {"cluster_handoff_entries_total", st.handoff_entries},
  };
  for (const auto& [name, v] : counts) m.emplace_back(name, double(v));
  m.emplace_back("cluster_shards_total", double(shards.size()));
  m.emplace_back("cluster_shards_live", double(ring.size()));
  const double t = now();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string tag = "{shard=\"" + std::to_string(i) + "\"}";
    m.emplace_back("cluster_shard_up" + tag, shards[i].in_ring ? 1.0 : 0.0);
    m.emplace_back("cluster_shard_breaker_state" + tag,
                   double(static_cast<int>(shards[i].breaker.state(t))));
    m.emplace_back("cluster_shard_submits" + tag, double(shards[i].submits));
    m.emplace_back("cluster_shard_busy" + tag, double(shards[i].busy));
    m.emplace_back("cluster_shard_failures" + tag, double(shards[i].failures));
  }
  // The router's own SLO window, named apart from the shards' slo_* rows.
  for (auto& row : slo.snapshot("cluster_slo_").flatten(/*buckets=*/true))
    m.push_back(std::move(row));
  return s;
}

void Router::Impl::handle_scrape(std::uint64_t cid, bool dump) {
  // Fan the request out to every live shard; the reply is assembled in
  // finalize_fanout once the last shard answers or the deadline passes.
  const std::uint64_t fid = next_fanout_id++;
  Fanout f;
  f.down = cid;
  f.dump = dump;
  f.deadline = now() + opts.scrape_timeout_s;
  if (dump)
    obs::Recorder::global().record(obs::EventKind::DumpRequested, 0, 0,
                                   static_cast<std::int64_t>(cid));
  const auto frame =
      dump ? net::encode_dump_request() : net::encode_stats_request();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (!shards[i].in_ring) continue;
    const std::uint64_t uid = take_upstream(static_cast<std::uint32_t>(i));
    if (uid == 0) {
      // Unreachable right now: stale, and charged like any other
      // connect failure so a dead shard eventually leaves the ring.
      f.stale += 1;
      shard_failure(static_cast<std::uint32_t>(i));
      continue;
    }
    Up& u = ups[uid];
    u.fanout = fid;
    u.queue(frame);
    f.pending.emplace(uid, static_cast<std::uint32_t>(i));
  }
  const bool done = f.pending.empty();
  fanouts.emplace(fid, std::move(f));
  if (done) finalize_fanout(fid);
}

void Router::Impl::finalize_fanout(std::uint64_t fid) {
  auto it = fanouts.find(fid);
  if (it == fanouts.end()) return;
  Fanout f = std::move(it->second);
  fanouts.erase(it);
  auto dit = downs.find(f.down);
  if (dit == downs.end()) return;  // requester left; nothing to deliver
  Down& d = dit->second;

  if (f.dump) {
    // One JSON document: the router's own flight recorder first, then
    // each shard's postmortem verbatim (each is a complete object).
    std::string out = "{\"stale_shards\":";
    out += std::to_string(f.stale);
    out += ",\"sources\":[";
    out += obs::Recorder::global().dump_json();
    for (const auto& [shard, json] : f.dumps) {
      out += ',';
      out += json;
    }
    out += "]}";
    d.queue(net::encode_dump_reply(out));
    if (d.flush().peer_gone) drop_down(f.down);
    return;
  }

  net::StatsReply s = local_stats();
  auto& m = s.metrics;
  m.emplace_back("cluster_stale_shards", double(f.stale));
  // Merged aggregates lead, shard-labeled detail follows; the wire cap
  // therefore truncates detail, never cluster totals.
  for (auto& [name, v] : merge_shard_stats(f.stats)) {
    if (m.size() >= net::kMaxStatsEntries) break;
    if (name.size() > net::kMaxStatsNameBytes) continue;
    m.emplace_back(std::move(name), v);
  }
  d.queue(net::encode_stats_reply(s));
  if (d.flush().peer_gone) drop_down(f.down);
}

void Router::Impl::check_fanouts(double t) {
  std::vector<std::uint64_t> due;
  for (const auto& [fid, f] : fanouts)
    if (t >= f.deadline) due.push_back(fid);
  for (const std::uint64_t fid : due) {
    Fanout& f = fanouts[fid];
    // A shard that answered Submit traffic all along but missed the
    // scrape window is merely slow: count it stale and close the conn
    // without charging its breaker (the probe loop owns liveness).
    f.stale += static_cast<std::uint32_t>(f.pending.size());
    const std::map<std::uint64_t, std::uint32_t> pending =
        std::move(f.pending);
    f.pending.clear();
    for (const auto& [uid, shard] : pending) close_up(uid);
    finalize_fanout(fid);
  }
}

void Router::Impl::handle_health(std::uint64_t cid) {
  Down& d = downs[cid];
  net::HealthReply h;
  h.serving = !thread.stop_requested.load();
  h.total_devices = static_cast<std::uint32_t>(shards.size());
  h.healthy_devices = static_cast<std::uint32_t>(ring.size());
  std::size_t queued = 0;
  for (const auto& [id, dn] : downs) queued += dn.pending.size();
  h.queue_depth = static_cast<std::uint32_t>(queued);
  h.inflight = static_cast<std::uint32_t>(exchanges.size());
  for (std::size_t i = 0; i < shards.size(); ++i)
    h.devices.push_back(net::DeviceHealth{static_cast<std::uint32_t>(i),
                                          shards[i].in_ring,
                                          shards[i].submits, 0.0});
  d.queue(net::encode_health_reply(h));
}

void Router::Impl::relay_down(std::uint64_t cid, const std::uint8_t* frame,
                              std::size_t len) {
  auto it = downs.find(cid);
  if (it == downs.end()) return;
  it->second.queue(frame, len);
  if (it->second.flush().peer_gone) drop_down(cid);
}

void Router::Impl::drop_down(std::uint64_t cid) {
  auto it = downs.find(cid);
  if (it == downs.end()) return;
  // Detach the in-flight exchange: the upstream keeps streaming into the
  // void so its connection state machine stays frame-aligned, then the
  // conn returns to the pool.
  if (it->second.active_x != 0) {
    auto xit = exchanges.find(it->second.active_x);
    if (xit != exchanges.end()) {
      xit->second.down = 0;
    }
  }
  close(it->second.fd);
  downs.erase(it);
}

// ---------------------------------------------------------------------
// Upstream + exchanges.

void Router::Impl::start_exchange(std::uint64_t cid, PendingSubmit ps) {
  const std::uint64_t xid = next_x_id++;
  Exchange x;
  x.down = cid;
  x.key = ps.key;
  x.request_id = ps.request_id;
  x.trace_id = ps.trace_id;
  x.kind = ps.kind;
  x.started = now();
  x.frame = std::move(ps.frame);
  exchanges.emplace(xid, std::move(x));
  downs[cid].active_x = xid;
  if (!place(xid)) {
    // No live shard took it: surface a transport-style failure (drop the
    // conn) so the client's retry policy backs off and tries again.
    exchanges.erase(xid);
    if (downs.count(cid)) {
      downs[cid].active_x = 0;
      drop_down(cid);
      bump(&RouterStats::clients_dropped);
    }
    return;
  }
  if (!ps.replica_frame.empty())
    start_replica(xid, std::move(ps.replica_frame));
}

/// Launch the duplicate leg of a hedged pair on the key's successor and
/// link the two exchanges. Safe to skip silently: the primary is already
/// placed, so a replica that cannot bind just means no hedge this time.
void Router::Impl::start_replica(std::uint64_t primary_xid,
                                 std::vector<std::uint8_t> frame) {
  auto pit = exchanges.find(primary_xid);
  if (pit == exchanges.end()) return;
  const auto succ = ring.successor(pit->second.key);
  if (!succ || *succ == pit->second.shard) return;
  const std::uint64_t xid = next_x_id++;
  Exchange x;
  x.down = 0;  // until it wins the race, its frames are noise
  x.hedged_copy = true;
  x.partner = primary_xid;
  x.key = pit->second.key;
  x.request_id = pit->second.request_id;
  x.trace_id = pit->second.trace_id;
  x.kind = pit->second.kind;
  x.started = now();
  x.frame = std::move(frame);
  exchanges.emplace(xid, std::move(x));
  if (!bind_to_shard(xid, *succ)) {
    exchanges.erase(xid);
    return;
  }
  Exchange& p = exchanges[primary_xid];
  p.partner = xid;
  p.hedge_checked = true;  // a replicated pair never latency-hedges too
  bump(&RouterStats::hedges_fired);
  obs::Recorder::global().record(
      obs::EventKind::HedgeFired, exchanges[primary_xid].request_id,
      exchanges[primary_xid].trace_id,
      static_cast<std::int64_t>(exchanges[primary_xid].shard),
      static_cast<std::int64_t>(*succ));
}

/// Cancel the losing leg of a hedged pair: advisory Cancel to its shard
/// (the job may be dequeued before it runs), then let the leg drain as a
/// pure discard — its terminal frame releases the upstream conn while
/// keeping the conn frame-aligned.
void Router::Impl::cancel_leg(std::uint64_t xid) {
  auto it = exchanges.find(xid);
  if (it == exchanges.end()) return;
  Exchange& x = it->second;
  x.partner = 0;
  x.down = 0;
  if (x.up != 0) {
    auto uit = ups.find(x.up);
    if (uit != ups.end()) uit->second.queue(net::encode_cancel(x.request_id));
  }
  bump(&RouterStats::hedge_cancels);
  obs::Recorder::global().record(obs::EventKind::HedgeCancelled, x.request_id,
                                 x.trace_id,
                                 static_cast<std::int64_t>(x.shard));
}

/// Latency hedging: a sole client-facing exchange whose owner has been
/// silent past the kind's observed p99 gets one duplicate on the
/// successor, paid for from the token bucket. One decision per exchange
/// (hedge_checked), so a slow job is hedged at most once.
void Router::Impl::maybe_hedge(double t) {
  if (ring.size() < 2) return;
  std::vector<std::uint64_t> due;
  for (auto& [xid, x] : exchanges) {
    if (x.down == 0 || x.hedged_copy || x.partner != 0 ||
        x.hedge_checked || x.forwarded)
      continue;
    const int kind = std::min<int>(x.kind, obs::kNumSloKinds - 1);
    const double trigger = std::max(slo.p99(kind), kHedgeFloorS);
    if (t - x.started < trigger) continue;
    x.hedge_checked = true;
    if (hedge_tokens < 1.0) {
      bump(&RouterStats::hedge_budget_exhausted);
      continue;
    }
    hedge_tokens -= 1.0;
    due.push_back(xid);
  }
  for (const std::uint64_t xid : due) {
    auto it = exchanges.find(xid);
    if (it == exchanges.end()) continue;
    auto req = net::decode_submit(it->second.frame.data() + net::kHeaderBytes,
                                  it->second.frame.size() - net::kHeaderBytes);
    if (!req) continue;  // we encoded it; cannot happen, but stay safe
    req->tag += "/hedge";
    start_replica(xid, net::encode_submit(*req));
  }
}

/// Drain hygiene: detached duplicate legs (cancelled hedge copies) only
/// exist to warm caches — at router drain they are torn
/// down outright so they neither hold the drain window open nor get
/// miscounted as forward errors when their conns close under them.
void Router::Impl::cancel_discard_exchanges() {
  std::vector<std::uint64_t> doomed;
  for (const auto& [xid, x] : exchanges)
    if (x.down == 0) doomed.push_back(xid);
  for (const std::uint64_t xid : doomed) {
    auto it = exchanges.find(xid);
    if (it == exchanges.end()) continue;
    Exchange& x = it->second;
    if (x.partner != 0) {
      auto pit = exchanges.find(x.partner);
      if (pit != exchanges.end()) pit->second.partner = 0;
    }
    const std::uint64_t uid = x.up;
    exchanges.erase(it);
    if (uid != 0 && ups.count(uid)) {
      ups[uid].x = 0;
      close_up(uid);  // mid-exchange conn: not pool-reusable
    }
  }
}

bool Router::Impl::place(std::uint64_t xid) {
  Exchange& x = exchanges[xid];
  for (int tries = 0; tries < kMaxPlacementTries; ++tries) {
    const auto own = ring.owner(x.key);
    if (!own) return false;
    if (bind_to_shard(xid, *own)) return true;
    // bind_to_shard charged the breaker; a tripped breaker evicted the
    // shard, so the next owner() resolves against the updated ring.
  }
  return false;
}

bool Router::Impl::bind_to_shard(std::uint64_t xid, std::uint32_t shard) {
  const std::uint64_t uid = take_upstream(shard);
  if (uid == 0) {
    shard_failure(shard);
    return false;
  }
  Exchange& x = exchanges[xid];
  x.shard = shard;
  x.up = uid;
  Up& u = ups[uid];
  u.x = xid;
  u.queue(x.frame);
  shards[shard].submits += 1;
  bump(&RouterStats::submits_routed);
  return true;
}

/// Idle pooled conn for `shard`, or a fresh connect. 0 on failure (the
/// caller charges the breaker).
std::uint64_t Router::Impl::take_upstream(std::uint32_t shard) {
  ShardState& s = shards[shard];
  while (!s.idle.empty()) {
    const std::uint64_t uid = s.idle.back();
    s.idle.pop_back();
    if (ups.count(uid)) return uid;  // stale ids (closed conns) skipped
  }
  std::string err;
  const int fd = net::connect_tcp(s.ep.host, s.ep.port, &err);
  if (fd < 0) return 0;
  net::set_nonblocking(fd);
  Up u;
  u.fd = fd;
  u.shard = shard;
  const std::uint64_t uid = next_up_id++;
  ups.emplace(uid, std::move(u));
  return uid;
}

void Router::Impl::release_upstream(std::uint64_t uid) {
  auto it = ups.find(uid);
  if (it == ups.end()) return;
  Up& u = it->second;
  u.x = 0;
  u.probe = false;
  u.fanout = 0;
  ShardState& s = shards[u.shard];
  if (s.idle.size() >= kMaxPoolIdle || !s.in_ring) {
    close_up(uid);
    return;
  }
  s.idle.push_back(uid);
}

void Router::Impl::read_up(std::uint64_t uid) {
  const bool peer_gone = ups[uid].read(opts.max_frame_bytes).peer_gone;
  process_up_input(uid);
  if (peer_gone && ups.count(uid)) fail_up(uid);
}

void Router::Impl::process_up_input(std::uint64_t uid) {
  for (auto it = ups.find(uid); it != ups.end(); it = ups.find(uid)) {
    net::Frame f;
    const net::HeaderStatus hs =
        it->second.next_frame(opts.max_frame_bytes, &f);
    if (hs == net::HeaderStatus::NeedMore) return;
    // A shard speaking garbage or a reply nobody awaits: the conn is
    // desynced beyond recovery, so treat it as a forward error.
    if (hs != net::HeaderStatus::Ok ||
        !handle_up_frame(uid, f.hdr, f.data, f.size)) {
      fail_up(uid);
      return;
    }
  }
}

/// One complete frame from a shard. Returns false when the conn is
/// desynced beyond recovery (caller fails it).
bool Router::Impl::handle_up_frame(std::uint64_t uid,
                                   const net::FrameHeader& hdr,
                                   const std::uint8_t* frame,
                                   std::size_t frame_len) {
  Up& u = ups[uid];
  const std::uint8_t* payload = frame + net::kHeaderBytes;
  const std::size_t len = frame_len - net::kHeaderBytes;

  if (u.fanout != 0) {
    if (hdr.type == net::FrameType::Pong) return true;  // stale pong; wait on
    const std::uint64_t fid = u.fanout;
    u.fanout = 0;
    auto fit = fanouts.find(fid);
    if (fit == fanouts.end()) {
      // The fan-out already finalized (deadline); late reply, idle again.
      release_upstream(uid);
      return true;
    }
    Fanout& f = fit->second;
    f.pending.erase(uid);
    const std::uint32_t shard = u.shard;
    bool ok = false;
    if (f.dump && hdr.type == net::FrameType::DumpReply) {
      if (auto json = net::decode_dump_reply(payload, len)) {
        f.dumps.emplace_back(shard, std::move(*json));
        ok = true;
      }
    } else if (!f.dump && hdr.type == net::FrameType::StatsReply) {
      if (auto sr = net::decode_stats_reply(payload, len)) {
        f.stats.emplace_back(shard, std::move(sr->metrics));
        ok = true;
      }
    }
    if (!ok) f.stale += 1;  // wrong/undecodable reply: partial merge
    const bool done = f.pending.empty();
    if (ok) release_upstream(uid);
    if (done) finalize_fanout(fid);
    return ok;  // false desyncs the conn; caller closes it
  }

  if (u.probe) {
    if (hdr.type != net::FrameType::HealthReply) return false;
    auto h = net::decode_health_reply(payload, len);
    const std::uint32_t shard = u.shard;
    shards[shard].probing_uid = 0;
    u.probe = false;
    release_upstream(uid);
    if (h && h->serving) {
      bump(&RouterStats::probes_ok);
      probe_ok(shard);
    } else {
      // Draining (serving=false) or undecodable: stop routing there.
      bump(&RouterStats::probes_failed);
      shard_failure(shard);
    }
    return true;
  }

  if (u.x == 0) return false;  // unsolicited bytes on an idle conn
  auto xit = exchanges.find(u.x);
  if (xit == exchanges.end()) return false;
  Exchange& x = xit->second;

  // Hedged pair (DESIGN.md §15): the first ResultHeader on either leg
  // resolves the race. Determinism (Philox-seeded placement and
  // execution) makes both replicas' answers bit-identical, so whichever
  // leg answers first simply *is* the result; the loser gets a Cancel
  // and drains as a discard. A Busy/Error on one leg while its twin
  // still races is swallowed — the twin inherits the client.
  if (x.partner != 0) {
    const std::uint64_t pid = x.partner;
    auto pit = exchanges.find(pid);
    if (pit == exchanges.end()) {
      x.partner = 0;
    } else if (hdr.type == net::FrameType::ResultHeader) {
      Exchange& p = pit->second;
      if (x.hedged_copy) {
        // The duplicate won: it inherits the client; the primary
        // becomes the discard leg about to be cancelled.
        x.down = p.down;
        if (x.down != 0 && downs.count(x.down)) downs[x.down].active_x = u.x;
        p.down = 0;
      }
      x.partner = 0;
      cancel_leg(pid);
    } else if (hdr.type == net::FrameType::Busy ||
               hdr.type == net::FrameType::Error) {
      Exchange& p = pit->second;
      if (hdr.type == net::FrameType::Busy) shards[u.shard].busy += 1;
      if (x.down != 0) {
        p.down = x.down;
        if (downs.count(p.down)) downs[p.down].active_x = pid;
        x.down = 0;
      }
      p.partner = 0;
      x.partner = 0;
      finish_exchange(u.x);
      return true;
    }
  }

  switch (hdr.type) {
    case net::FrameType::ResultHeader:
    case net::FrameType::ResultChunk:
      if (x.down != 0) relay_down(x.down, frame, frame_len);
      x.forwarded = true;
      return true;
    case net::FrameType::ResultEnd:
      // Detached legs complete here too, but their frames are discarded
      // — only client-visible results count as relayed. Count before the
      // relay write so a client that has seen its ResultEnd never
      // observes a stats scrape missing it.
      if (x.down != 0) {
        bump(&RouterStats::results_relayed);
        if (x.hedged_copy) bump(&RouterStats::hedge_wins);
        slo.observe(std::min<int>(x.kind, obs::kNumSloKinds - 1),
                    now() - x.started, /*ok=*/true);
        relay_down(x.down, frame, frame_len);
      }
      x.forwarded = true;
      finish_exchange(u.x);
      return true;
    case net::FrameType::Busy:
      // The shard's retry-after hint passes through verbatim: it was
      // computed from that shard's queue depth and exec EMA, which is
      // exactly what the client should wait out before resubmitting
      // (the resubmission hashes back to the same shard).
      shards[u.shard].busy += 1;
      if (x.down != 0) {
        bump(&RouterStats::busy_relayed);
        relay_down(x.down, frame, frame_len);
      }
      x.forwarded = true;
      finish_exchange(u.x);
      return true;
    case net::FrameType::Error:
      if (x.down != 0) {
        bump(&RouterStats::errors_relayed);
        slo.observe(std::min<int>(x.kind, obs::kNumSloKinds - 1),
                    now() - x.started, /*ok=*/false);
        relay_down(x.down, frame, frame_len);
      }
      x.forwarded = true;
      finish_exchange(u.x);
      return true;
    case net::FrameType::Pong:
      return true;  // stale pong on a pooled conn; ignore
    default:
      return false;
  }
}

void Router::Impl::finish_exchange(std::uint64_t xid) {
  auto xit = exchanges.find(xid);
  if (xit == exchanges.end()) return;
  const std::uint64_t uid = xit->second.up;
  const std::uint64_t cid = xit->second.down;
  exchanges.erase(xit);
  if (uid != 0 && ups.count(uid)) release_upstream(uid);
  if (cid != 0) {
    auto dit = downs.find(cid);
    if (dit != downs.end()) {
      dit->second.active_x = 0;
      if (!dit->second.pending.empty()) {
        PendingSubmit next = std::move(dit->second.pending.front());
        dit->second.pending.pop_front();
        start_exchange(cid, std::move(next));
      }
    }
  }
}

void Router::Impl::close_up(std::uint64_t uid) {
  auto it = ups.find(uid);
  if (it == ups.end()) return;
  ShardState& s = shards[it->second.shard];
  for (auto idl = s.idle.begin(); idl != s.idle.end(); ++idl)
    if (*idl == uid) {
      s.idle.erase(idl);
      break;
    }
  if (s.probing_uid == uid) s.probing_uid = 0;
  close(it->second.fd);
  ups.erase(it);
}

void Router::Impl::process_failed_ups() {
  while (!failed_ups.empty()) {
    const std::uint64_t uid = failed_ups.front();
    failed_ups.pop_front();
    handle_one_up_failure(uid);
  }
}

void Router::Impl::handle_one_up_failure(std::uint64_t uid) {
  auto it = ups.find(uid);
  if (it == ups.end()) return;  // already closed by an earlier entry
  const std::uint32_t shard = it->second.shard;
  const bool was_probe = it->second.probe;
  const std::uint64_t xid = it->second.x;
  const std::uint64_t fid = it->second.fanout;
  close_up(uid);

  if (was_probe) {
    bump(&RouterStats::probes_failed);
    shard_failure(shard);
    return;
  }
  if (fid != 0) {
    // A scrape conn died: the shard is stale for this merge. Liveness
    // charging is left to probes/submits so a scrape hiccup alone never
    // evicts a shard that is still serving.
    auto fit = fanouts.find(fid);
    if (fit != fanouts.end()) {
      fit->second.pending.erase(uid);
      fit->second.stale += 1;
      if (fit->second.pending.empty()) finalize_fanout(fid);
    }
    return;
  }
  if (xid == 0) return;  // idle pooled conn died: normal churn, no charge

  auto xit = exchanges.find(xid);
  if (xit == exchanges.end()) return;
  Exchange& x = xit->second;
  x.up = 0;
  bump(&RouterStats::forward_errors);
  shard_failure(shard);

  if (x.partner != 0) {
    // One leg of a hedged pair died; the pair absorbs the failure.
    const std::uint64_t pid = x.partner;
    auto pit = exchanges.find(pid);
    x.partner = 0;
    if (pit != exchanges.end()) {
      Exchange& p = pit->second;
      p.partner = 0;
      if (x.down == 0) {
        // The losing/detached leg died: the pair degrades to a sole leg.
        finish_exchange(xid);
        return;
      }
      if (!x.forwarded) {
        // Client-facing leg died before relaying anything: the twin
        // inherits the client seamlessly.
        p.down = x.down;
        if (downs.count(p.down)) downs[p.down].active_x = pid;
        x.down = 0;
        finish_exchange(xid);
        return;
      }
      // Half-forwarded: fall through to the drop path (the twin keeps
      // draining as a discard leg).
    }
  }

  if (x.down == 0) {  // losing hedge leg / client gone: nothing depends on it
    finish_exchange(xid);
    return;
  }
  if (!x.forwarded && x.reroutes < 2) {
    // Nothing reached the client yet: the exchange can move wholesale to
    // the key's new owner (the ring may just have evicted this shard).
    x.reroutes += 1;
    if (place(xid)) {
      bump(&RouterStats::rerouted);
      return;
    }
  }
  // Half-forwarded (or out of options): cut the client connection so the
  // failure reads as a transport error — retried by policy — and never
  // as a trustworthy RemoteError.
  const std::uint64_t cid = x.down;
  finish_exchange(xid);
  if (cid != 0 && downs.count(cid)) {
    drop_down(cid);
    bump(&RouterStats::clients_dropped);
  }
}

// ---------------------------------------------------------------------
// Membership.

/// Keyshare re-point after a completed planned drain: the shard leaves
/// the ring for good (drained shards are never probed back in — the
/// process is exiting) while its in-flight exchanges keep streaming,
/// because the shard finishes those jobs before it goes.
void Router::Impl::retire_shard(std::uint32_t shard) {
  if (shard >= shards.size()) return;
  ShardState& s = shards[shard];
  s.drained = true;
  if (!s.in_ring) return;
  ring.remove(shard);
  s.in_ring = false;
  bump(&RouterStats::membership_changes);
  obs::Recorder::global().record(obs::EventKind::ShardDrained, 0, 0, shard,
                                 static_cast<std::int64_t>(ring.size()));
  for (const std::uint64_t uid : std::vector<std::uint64_t>(s.idle))
    close_up(uid);
}

void Router::Impl::shard_failure(std::uint32_t shard) {
  ShardState& s = shards[shard];
  s.failures += 1;
  const double t = now();
  s.breaker.record_failure(t);
  if (s.in_ring && s.breaker.state(t) == fault::BreakerState::Open) {
    ring.remove(shard);
    s.in_ring = false;
    bump(&RouterStats::membership_changes);
    obs::Recorder::global().record(obs::EventKind::ShardDown, 0, 0, shard,
                                   static_cast<std::int64_t>(ring.size()));
    // Every conn still pointing at the evicted shard is now suspect;
    // failing them here re-routes their exchanges immediately instead of
    // waiting for each socket to discover the death on its own.
    for (const auto& [uid, u] : ups)
      if (u.shard == shard && (u.x != 0 || u.probe || u.fanout != 0))
        fail_up(uid);
    for (const std::uint64_t uid : std::vector<std::uint64_t>(s.idle))
      close_up(uid);
  }
}

void Router::Impl::probe_ok(std::uint32_t shard) {
  ShardState& s = shards[shard];
  s.breaker.record_success();
  if (!s.in_ring && !s.drained) {
    ring.add(shard);
    s.in_ring = true;
    bump(&RouterStats::membership_changes);
    obs::Recorder::global().record(obs::EventKind::ShardUp, 0, 0, shard,
                                   static_cast<std::int64_t>(ring.size()));
  }
}

void Router::Impl::maybe_probe(double t) {
  for (std::size_t i = 0; i < shards.size(); ++i) {
    ShardState& s = shards[i];
    if (s.drained) continue;  // exiting on purpose; don't probe it back
    if (s.probing_uid != 0) {
      auto it = ups.find(s.probing_uid);
      if (it == ups.end()) {
        s.probing_uid = 0;
      } else if (t - it->second.probe_start > opts.probe_timeout_s) {
        fail_up(s.probing_uid);
      }
      continue;
    }
    if (t - s.last_probe < opts.probe_interval_s) continue;
    s.last_probe = t;
    const std::uint64_t uid = take_upstream(static_cast<std::uint32_t>(i));
    if (uid == 0) {
      bump(&RouterStats::probes_failed);
      shard_failure(static_cast<std::uint32_t>(i));
      continue;
    }
    Up& u = ups[uid];
    u.probe = true;
    u.probe_start = t;
    s.probing_uid = uid;
    u.queue(net::encode_health_check());
  }
  process_failed_ups();
}

void Router::Impl::broadcast_shutdown() {
  const auto frame = net::encode_shutdown();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (!shards[i].in_ring) continue;
    std::string err;
    const int fd = net::connect_tcp(shards[i].ep.host, shards[i].ep.port,
                                    &err);
    if (fd < 0) continue;
    ssize_t ignored = send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    (void)ignored;
    close(fd);
  }
}

}  // namespace randla::cluster
