#include "net/server.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <iterator>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/conn.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace randla::net {

namespace {

ortho::Scheme scheme_from_wire(std::uint8_t code) {
  switch (code) {
    case 0: return ortho::Scheme::CholQR;
    case 2: return ortho::Scheme::HHQR;
    default: return ortho::Scheme::CholQR2;
  }
}

// --- planned-drain cache handoff (DESIGN.md §15) ---------------------
// Scalar layouts per HandoffKind — the entry_from_* / install_handoff
// pair below is the single authority for them:
//   Result: [l, phases×7, flops×6, qrcp_stats×5, cholqr_fallbacks] = 20
//   Sketch: [phases×7, flops×6, cholqr_fallbacks]                  = 14
//   Rqrcp:  [rank, blocks, resketches, truncated, times×4, flops×4] = 12

void pack_phases(const rsvd::PhaseTimes& t, std::vector<double>& s) {
  s.insert(s.end(), {t.prng, t.sampling, t.gemm_iter, t.orth_iter, t.qrcp,
                     t.qr, t.comms});
}

void unpack_phases(const std::vector<double>& s, std::size_t& i,
                   rsvd::PhaseTimes& t) {
  t.prng = s[i++];
  t.sampling = s[i++];
  t.gemm_iter = s[i++];
  t.orth_iter = s[i++];
  t.qrcp = s[i++];
  t.qr = s[i++];
  t.comms = s[i++];
}

void pack_flops(const rsvd::PhaseFlops& f, std::vector<double>& s) {
  s.insert(s.end(),
           {f.prng, f.sampling, f.gemm_iter, f.orth_iter, f.qrcp, f.qr});
}

void unpack_flops(const std::vector<double>& s, std::size_t& i,
                  rsvd::PhaseFlops& f) {
  f.prng = s[i++];
  f.sampling = s[i++];
  f.gemm_iter = s[i++];
  f.orth_iter = s[i++];
  f.qrcp = s[i++];
  f.qr = s[i++];
}

CacheHandoffEntry entry_from_result(const runtime::ResultKey& k,
                                    const rsvd::FixedRankResult& v) {
  CacheHandoffEntry e;
  e.cache_kind = HandoffKind::Result;
  e.fp_hi = k.plan.matrix.hi;
  e.fp_lo = k.plan.matrix.lo;
  e.seed = k.plan.seed;
  e.q = k.plan.q;
  e.sampling = k.plan.sampling;
  e.power_ortho = k.plan.power_ortho;
  e.k = k.k;
  e.p = k.p;
  e.qrcp_block = k.qrcp_block;
  e.tensors.emplace_back("q", v.q);
  e.tensors.emplace_back("r", v.r);
  e.perm = v.perm;
  e.scalars.push_back(double(v.l));
  pack_phases(v.phases, e.scalars);
  pack_flops(v.flops, e.scalars);
  e.scalars.insert(e.scalars.end(),
                   {double(v.qrcp_stats.columns_factored),
                    double(v.qrcp_stats.norm_recomputes),
                    double(v.qrcp_stats.panels), v.qrcp_stats.flops_blas2,
                    v.qrcp_stats.flops_blas3, double(v.cholqr_fallbacks)});
  return e;
}

CacheHandoffEntry entry_from_sketch(const runtime::SketchKey& k,
                                    const runtime::SketchEntry& v) {
  CacheHandoffEntry e;
  e.cache_kind = HandoffKind::Sketch;
  e.fp_hi = k.matrix.hi;
  e.fp_lo = k.matrix.lo;
  e.seed = k.seed;
  e.q = k.q;
  e.sampling = k.sampling;
  e.power_ortho = k.power_ortho;
  e.tensors.emplace_back("b", v.b);
  pack_phases(v.phases, e.scalars);
  pack_flops(v.flops, e.scalars);
  e.scalars.push_back(double(v.cholqr_fallbacks));
  return e;
}

CacheHandoffEntry entry_from_rqrcp(const runtime::RqrcpKey& k,
                                   const qrcp::RqrcpResult<double>& v) {
  CacheHandoffEntry e;
  e.cache_kind = HandoffKind::Rqrcp;
  e.fp_hi = k.matrix.hi;
  e.fp_lo = k.matrix.lo;
  e.seed = k.seed;
  e.k = k.k;
  e.block = k.block;
  e.oversample = k.oversample;
  e.eps_bits = k.eps_bits;
  e.max_rank = k.max_rank;
  e.relative = k.relative;
  e.want_q = k.want_q;
  e.tensors.emplace_back("r1", v.r1);
  e.tensors.emplace_back("r2", v.r2);
  Matrix<double> rd(static_cast<index_t>(v.rdiag.size()), 1);
  std::copy(v.rdiag.begin(), v.rdiag.end(), rd.data());
  e.tensors.emplace_back("rdiag", std::move(rd));
  if (v.q.rows() > 0) e.tensors.emplace_back("q", v.q);
  e.perm = v.perm;
  const auto& st = v.stats;
  e.scalars = {double(st.rank),     double(st.blocks),
               double(st.resketches), st.truncated ? 1.0 : 0.0,
               st.sketch_s,         st.panel_s,
               st.update_s,         st.downdate_s,
               st.flops_sketch,     st.flops_panel,
               st.flops_update,     st.flops_downdate};
  return e;
}

/// Install a decoded handoff entry into the scheduler's caches. False on
/// a structurally wrong entry (tensor names/counts or scalar layout that
/// do not match the kind) — the receiving server treats that as a
/// protocol error, exactly like an undecodable frame.
bool install_handoff(runtime::Scheduler& sched, CacheHandoffEntry& e) {
  runtime::Fingerprint fp;
  fp.hi = e.fp_hi;
  fp.lo = e.fp_lo;
  switch (e.cache_kind) {
    case HandoffKind::Result: {
      if (e.tensors.size() != 2 || e.tensors[0].first != "q" ||
          e.tensors[1].first != "r" || e.scalars.size() != 20)
        return false;
      runtime::ResultKey key;
      key.plan.matrix = fp;
      key.plan.seed = e.seed;
      key.plan.q = e.q;
      key.plan.sampling = e.sampling;
      key.plan.power_ortho = e.power_ortho;
      key.k = e.k;
      key.p = e.p;
      key.qrcp_block = e.qrcp_block;
      auto v = std::make_shared<rsvd::FixedRankResult>();
      v->q = std::move(e.tensors[0].second);
      v->r = std::move(e.tensors[1].second);
      v->perm = std::move(e.perm);
      const auto& s = e.scalars;
      std::size_t i = 0;
      v->l = static_cast<index_t>(s[i++]);
      unpack_phases(s, i, v->phases);
      unpack_flops(s, i, v->flops);
      v->qrcp_stats.columns_factored = static_cast<index_t>(s[i++]);
      v->qrcp_stats.norm_recomputes = static_cast<index_t>(s[i++]);
      v->qrcp_stats.panels = static_cast<index_t>(s[i++]);
      v->qrcp_stats.flops_blas2 = s[i++];
      v->qrcp_stats.flops_blas3 = s[i++];
      v->cholqr_fallbacks = static_cast<int>(s[i++]);
      sched.install_result(key, std::move(v));
      return true;
    }
    case HandoffKind::Sketch: {
      if (e.tensors.size() != 1 || e.tensors[0].first != "b" ||
          e.scalars.size() != 14)
        return false;
      runtime::SketchKey key;
      key.matrix = fp;
      key.seed = e.seed;
      key.q = e.q;
      key.sampling = e.sampling;
      key.power_ortho = e.power_ortho;
      auto v = std::make_shared<runtime::SketchEntry>();
      v->b = std::move(e.tensors[0].second);
      const auto& s = e.scalars;
      std::size_t i = 0;
      unpack_phases(s, i, v->phases);
      unpack_flops(s, i, v->flops);
      v->cholqr_fallbacks = static_cast<int>(s[i++]);
      sched.install_sketch(key, std::move(v));
      return true;
    }
    case HandoffKind::Rqrcp: {
      if (e.tensors.size() < 3 || e.tensors.size() > 4 ||
          e.tensors[0].first != "r1" || e.tensors[1].first != "r2" ||
          e.tensors[2].first != "rdiag" || e.tensors[2].second.cols() != 1 ||
          (e.tensors.size() == 4 && e.tensors[3].first != "q") ||
          e.scalars.size() != 12)
        return false;
      runtime::RqrcpKey key;
      key.matrix = fp;
      key.seed = e.seed;
      key.k = e.k;
      key.block = e.block;
      key.oversample = e.oversample;
      key.eps_bits = e.eps_bits;
      key.max_rank = e.max_rank;
      key.relative = e.relative;
      key.want_q = e.want_q;
      auto v = std::make_shared<qrcp::RqrcpResult<double>>();
      v->r1 = std::move(e.tensors[0].second);
      v->r2 = std::move(e.tensors[1].second);
      const Matrix<double>& rd = e.tensors[2].second;
      v->rdiag.assign(rd.data(), rd.data() + rd.rows());
      if (e.tensors.size() == 4) v->q = std::move(e.tensors[3].second);
      v->perm = std::move(e.perm);
      const auto& s = e.scalars;
      v->stats.rank = static_cast<index_t>(s[0]);
      v->stats.blocks = static_cast<index_t>(s[1]);
      v->stats.resketches = static_cast<index_t>(s[2]);
      v->stats.truncated = s[3] != 0;
      v->stats.sketch_s = s[4];
      v->stats.panel_s = s[5];
      v->stats.update_s = s[6];
      v->stats.downdate_s = s[7];
      v->stats.flops_sketch = s[8];
      v->stats.flops_panel = s[9];
      v->stats.flops_update = s[10];
      v->stats.flops_downdate = s[11];
      sched.install_rqrcp(key, std::move(v));
      return true;
    }
  }
  return false;
}

/// net_frames_in_total{type=…} label of each ServerStats::frames_by_type
/// slot (slot = FrameType value; 0 = a type no client should send).
constexpr const char* kFrameLabels[] = {
    "other", "submit", "ping",   "shutdown", "stats",
    "health", "dump", "cancel", "drain",    "cache_handoff"};
static_assert(std::size(kFrameLabels) ==
              std::tuple_size_v<decltype(ServerStats::frames_by_type)>);

/// The Stats reply's per-instance rows: every ServerStats event once,
/// under its Prometheus `_total` name, then the scheduler's own rows,
/// which carry the scheduler's fault injector. The server's injector is
/// usually that same one; one of its own is folded into the same rows,
/// so each `fault_*` row still appears once.
obs::MetricRows instance_rows(const ServerStats& st,
                              const runtime::Scheduler& sched,
                              const fault::FaultInjector* injector) {
  obs::MetricRows m = {
      {"net_connections_total", double(st.conns_accepted)},
      {"net_conns_refused_total", double(st.conns_refused)},
      {"net_conns_idle_closed_total", double(st.conns_idle_closed)},
      {"net_decode_errors_total", double(st.protocol_errors)},
      {"net_jobs_submitted_total", double(st.jobs_submitted)},
      {"net_busy_total", double(st.jobs_busy)},
      {"net_jobs_completed_total", double(st.jobs_completed)},
      {"net_results_dropped_total", double(st.results_dropped)},
      {"net_jobs_cancelled_total", double(st.jobs_cancelled)},
      {"net_drains_total", double(st.drains)},
      {"net_handoff_entries_out_total", double(st.handoff_out)},
      {"net_handoff_entries_in_total", double(st.handoff_in)},
      {"net_bytes_in_total", double(st.bytes_in)},
      {"net_bytes_out_total", double(st.bytes_out)},
  };
  for (std::size_t t = 0; t < std::size(kFrameLabels); ++t)
    m.emplace_back(
        std::string("net_frames_in_total{type=\"") + kFrameLabels[t] + "\"}",
        double(st.frames_by_type[t]));
  obs::MetricRows sr = sched.stats_rows();
  m.insert(m.end(), std::make_move_iterator(sr.begin()),
           std::make_move_iterator(sr.end()));
  if (injector && injector != sched.options().injector.get()) {
    for (auto& [name, v] : injector->stats_rows()) {
      auto it = std::find_if(m.begin(), m.end(),
                             [&](const auto& row) { return row.first == name; });
      if (it != m.end())
        it->second += v;
      else
        m.emplace_back(std::move(name), v);
    }
  }
  return m;
}

}  // namespace

struct Server::Impl {
  runtime::Scheduler& sched;
  ServerOptions opts;

  mutable std::mutex stats_mu;
  ServerStats stats;

  struct Conn : FramedConn {
    std::uint64_t inflight = 0;
  };
  std::map<std::uint64_t, Conn> conns;  ///< id → connection (id never reused)
  std::uint64_t next_conn_id = 1;

  struct InFlight {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    std::uint64_t trace_id = 0;
    std::shared_ptr<runtime::JobHandle> handle;
    /// Peer sent a Cancel for this request (hedged-pair loser): answer
    /// Error(Cancelled) instead of streaming the finished factors.
    bool cancelled = false;
  };
  std::vector<InFlight> inflight;

  /// Planned drain in progress (Drain frame received): new submits get
  /// Busy — not a terminal error — so clients wait out the router's ring
  /// re-point and land on the successor with its freshly warmed cache.
  bool handoff_draining = false;

  /// Memoized generator-spec matrices (FIFO eviction): repeated specs
  /// share one FingerprintedMatrix, so re-generation and
  /// re-fingerprinting are paid once per distinct spec.
  std::map<std::string, runtime::MatrixHandle> matrix_cache;
  std::deque<std::string> matrix_order;

  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();

  LoopThread thread;  ///< last: destroying it stops the loop first

  Impl(runtime::Scheduler& s, ServerOptions o)
      : sched(s), opts(std::move(o)) {}

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  void bump(std::uint64_t ServerStats::* field, std::uint64_t by = 1) {
    std::lock_guard<std::mutex> lk(stats_mu);
    stats.*field += by;
  }
  ServerStats stats_snapshot() const {
    std::lock_guard<std::mutex> lk(stats_mu);
    return stats;
  }
  void count_frame(FrameType type) {
    const auto slot = static_cast<std::size_t>(type);
    std::lock_guard<std::mutex> lk(stats_mu);
    stats.frames_in += 1;
    stats.frames_by_type[slot < stats.frames_by_type.size() ? slot : 0] += 1;
  }

  void loop();
  void accept_ready();
  void read_ready(std::uint64_t cid);
  bool flush(Conn& c);
  void queue_frame(Conn& c, std::vector<std::uint8_t> frame);
  /// Count a malformed frame or request and answer it with a typed
  /// Error; `poison` closes the connection once the reply flushes.
  void reject(Conn& c, ErrorCode code, const char* what, bool poison);
  void process_input(std::uint64_t cid);
  void dispatch(std::uint64_t cid, FrameType type, const std::uint8_t* payload,
                std::size_t len);
  void handle_submit(std::uint64_t cid, const std::uint8_t* payload,
                     std::size_t len);
  void handle_stats(std::uint64_t cid, std::size_t len);
  void handle_health(std::uint64_t cid, std::size_t len);
  void handle_dump(std::uint64_t cid, std::size_t len);
  void handle_cancel(std::uint64_t cid, const std::uint8_t* payload,
                     std::size_t len);
  void handle_drain(std::uint64_t cid, const std::uint8_t* payload,
                    std::size_t len);
  void handle_cache_handoff(std::uint64_t cid, const std::uint8_t* payload,
                            std::size_t len);
  DrainSummary stream_handoff(const DrainRequest& d);
  runtime::MatrixHandle resolve_matrix(const MatrixSpec& spec);
  std::uint32_t retry_after_ms() const;
  void deliver_completions();
  void send_result(Conn& c, std::uint64_t request_id,
                   const runtime::JobOutcome& outcome);
  void drop_conn(std::uint64_t cid);
};

// ---------------------------------------------------------------------

Server::Server(runtime::Scheduler& sched, ServerOptions opts)
    : impl_(std::make_unique<Impl>(sched, std::move(opts))) {}

Server::~Server() = default;

std::uint16_t Server::port() const { return impl_->thread.port; }

bool Server::running() const { return impl_->thread.alive.load(); }

ServerStats Server::stats() const { return impl_->stats_snapshot(); }

obs::MetricRows Server::stats_rows() const {
  return instance_rows(stats(), impl_->sched, impl_->opts.injector.get());
}

bool Server::start() {
  return impl_->thread.start(impl_->opts.bind_addr, impl_->opts.port, "net",
                             [this] { impl_->loop(); });
}

void Server::stop() { impl_->thread.stop(); }

void Server::wait() { impl_->thread.wait(); }

// ---------------------------------------------------------------------

void Server::Impl::loop() {
  bool draining = false;
  double drain_start = 0;
  for (;;) {
    if (thread.stop_requested.load() && !draining) {
      draining = true;
      drain_start = now();
      thread.close_listener();
    }
    if (draining) {
      bool pending_writes = false;
      for (const auto& [id, c] : conns)
        if (c.has_output()) pending_writes = true;
      if ((inflight.empty() && !pending_writes) ||
          now() - drain_start > opts.drain_timeout_s)
        break;
    }

    std::vector<pollfd> fds;
    std::vector<std::uint64_t> ids;  // conn id per pollfd
    for (const auto& [id, c] : conns) {
      fds.push_back(c.poll_entry());
      ids.push_back(id);
    }
    // Finished jobs and stop() wake the loop through the self-pipe; the
    // tick only serves the idle and drain timeouts.
    if (!thread.poll(fds, 100, [this] { accept_ready(); })) break;

    for (std::size_t i = 0; i < fds.size(); ++i) {
      const std::uint64_t cid = ids[i];
      // Quiet, or dropped earlier this cycle.
      if (fds[i].revents == 0 || !conns.count(cid)) continue;
      if (fds[i].revents & (POLLERR | POLLNVAL)) {
        drop_conn(cid);
        continue;
      }
      if (fds[i].revents & (POLLIN | POLLHUP)) read_ready(cid);
      if (conns.count(cid) && (fds[i].revents & POLLOUT) && !flush(conns[cid]))
        drop_conn(cid);
    }

    deliver_completions();

    // Close connections that finished flushing after a protocol error,
    // and quiet ones past the idle timeout.
    std::vector<std::uint64_t> doomed;
    const double t = now();
    for (auto& [id, c] : conns) {
      const bool flushed = !c.has_output();
      if (c.close_after_flush && flushed) doomed.push_back(id);
      else if (!draining && opts.idle_timeout_s > 0 && c.inflight == 0 &&
               flushed && t - c.last_active > opts.idle_timeout_s) {
        doomed.push_back(id);
        bump(&ServerStats::conns_idle_closed);
      }
    }
    for (std::uint64_t id : doomed) drop_conn(id);
  }

  // Hard close of whatever remains (drain finished or timed out).
  for (auto& [id, c] : conns) {
    if (c.inflight > 0)
      bump(&ServerStats::results_dropped, c.inflight);
    close(c.fd);
  }
  conns.clear();
  inflight.clear();
}

void Server::Impl::accept_ready() {
  const std::uint64_t refused = accept_pending(
      thread.listen_fd, opts.max_connections, conns.size(), [this](int fd) {
        Conn c;
        c.fd = fd;
        c.last_active = now();
        conns.emplace(next_conn_id++, std::move(c));
        bump(&ServerStats::conns_accepted);
      });
  if (refused > 0) bump(&ServerStats::conns_refused, refused);
}

void Server::Impl::read_ready(std::uint64_t cid) {
  Conn& c = conns[cid];
  const IoResult r = c.read(opts.max_frame_bytes);
  if (r.bytes > 0) {
    c.last_active = now();
    bump(&ServerStats::bytes_in, r.bytes);
  }
  process_input(cid);
  if (r.peer_gone) drop_conn(cid);
}

void Server::Impl::process_input(std::uint64_t cid) {
  for (auto it = conns.find(cid); it != conns.end(); it = conns.find(cid)) {
    Conn& c = it->second;
    Frame f;
    const HeaderStatus hs = c.next_frame(opts.max_frame_bytes, &f);
    if (hs != HeaderStatus::Ok) {
      if (hs != HeaderStatus::NeedMore) {
        bump(&ServerStats::protocol_errors);
        queue_frame(c, malformed_frame_error(hs));
      }
      if (!flush(c)) drop_conn(cid);
      return;
    }
    // Injected connection reset: the peer's frame arrived intact but the
    // connection dies before dispatch (mid-request RST). Undelivered
    // results for this conn are dropped at completion time as usual.
    if (opts.injector && opts.injector->fire(fault::FaultKind::ConnReset)) {
      drop_conn(cid);
      return;
    }
    count_frame(f.hdr.type);
    dispatch(cid, f.hdr.type, f.payload(), f.hdr.payload_len);
  }
}

void Server::Impl::dispatch(std::uint64_t cid, FrameType type,
                            const std::uint8_t* payload, std::size_t len) {
  Conn& c = conns[cid];
  switch (type) {
    case FrameType::Submit:
      handle_submit(cid, payload, len);
      return;
    case FrameType::Ping: {
      if (auto nonce = decode_ping(payload, len)) {
        queue_frame(c, encode_pong(*nonce));
      } else {
        reject(c, ErrorCode::BadFrame, "bad ping", false);
      }
      return;
    }
    case FrameType::Shutdown:
      if (opts.allow_remote_shutdown) {
        thread.stop_requested.store(true);
      } else {
        queue_frame(c, encode_error(ErrorReply{0, ErrorCode::BadRequest,
                                               "shutdown not allowed"}));
      }
      return;
    case FrameType::Stats:
      handle_stats(cid, len);
      return;
    case FrameType::HealthCheck:
      handle_health(cid, len);
      return;
    case FrameType::Dump:
      handle_dump(cid, len);
      return;
    case FrameType::Cancel:
      handle_cancel(cid, payload, len);
      return;
    case FrameType::Drain:
      handle_drain(cid, payload, len);
      return;
    case FrameType::CacheHandoff:
      handle_cache_handoff(cid, payload, len);
      return;
    default:
      // A server→client frame type from a client: confused peer.
      reject(c, ErrorCode::BadFrame, "unexpected frame type", true);
      return;
  }
}

runtime::MatrixHandle Server::Impl::resolve_matrix(const MatrixSpec& spec) {
  const std::string key = spec_key(spec);
  if (!key.empty()) {
    if (auto it = matrix_cache.find(key); it != matrix_cache.end())
      return it->second;
  }
  // Inline specs decoded into an arena block skip materialize(): the
  // handle adopts the decoded bytes and the keepalive pins them for the
  // job's lifetime (including retries and failover requeues).
  auto handle = (spec.source == MatrixSource::Inline &&
                 !spec.inline_view.empty())
                    ? runtime::make_input(spec.inline_view)
                    : runtime::make_input(materialize(spec));
  if (!key.empty() && opts.matrix_cache_capacity > 0) {
    if (matrix_order.size() >= opts.matrix_cache_capacity) {
      matrix_cache.erase(matrix_order.front());
      matrix_order.pop_front();
    }
    matrix_cache.emplace(key, handle);
    matrix_order.push_back(key);
  }
  return handle;
}

std::uint32_t Server::Impl::retry_after_ms() const {
  const double depth = double(sched.queue_depth()) + 1.0;
  double exec = sched.recent_exec_s();
  if (exec <= 0) exec = 0.05;  // no sample yet: nominal 50 ms per job
  const double per_worker = depth * exec / double(sched.num_workers());
  const double ms = per_worker * 1000.0;
  return static_cast<std::uint32_t>(std::clamp(ms, 10.0, 30000.0));
}

void Server::Impl::handle_submit(std::uint64_t cid, const std::uint8_t* payload,
                                 std::size_t len) {
  Conn& c = conns[cid];
  // Decode inline tensor payloads straight into pool-owned arena blocks:
  // the job then runs on the decoded bytes with zero reassembly copies.
  auto req = decode_submit(payload, len, &sched.arena());
  if (!req) {
    reject(c, ErrorCode::BadRequest, "malformed submit", false);
    return;
  }
  // Covers matrix resolution + admission under the client's trace id.
  obs::Span span("net.submit", "net", req->trace_id);
  if (handoff_draining) {
    // Planned drain: the keyshare is moving to the successor. Busy (a
    // retryable verdict) rather than ShuttingDown (terminal) — the
    // client's retry loop waits out the ring re-point and the resubmit
    // lands on the successor, warm from the handoff.
    BusyReply b;
    b.request_id = req->request_id;
    b.queue_depth = static_cast<std::uint32_t>(sched.queue_depth());
    b.retry_after_ms = 50;
    queue_frame(c, encode_busy(b));
    bump(&ServerStats::jobs_busy);
    return;
  }
  if (thread.stop_requested.load()) {
    queue_frame(c, encode_error(ErrorReply{req->request_id,
                                           ErrorCode::ShuttingDown,
                                           "server draining"}));
    return;
  }

  runtime::Job job;
  job.deadline_s = req->deadline_s;
  job.tag = req->tag;
  job.trace_id = req->trace_id;
  try {
    runtime::MatrixHandle a = resolve_matrix(req->matrix);
    switch (req->kind) {
      case runtime::JobKind::FixedRank: {
        runtime::FixedRankJob fj;
        fj.a = std::move(a);
        fj.opts.k = req->k;
        fj.opts.p = req->p;
        fj.opts.q = req->q;
        fj.opts.seed = req->sample_seed;
        fj.opts.power_ortho = scheme_from_wire(req->power_ortho);
        job.payload = std::move(fj);
        break;
      }
      case runtime::JobKind::Adaptive: {
        runtime::AdaptiveJob aj;
        aj.a = std::move(a);
        aj.opts.epsilon = req->epsilon;
        aj.opts.relative = req->relative;
        aj.opts.l_init = req->l_init;
        aj.opts.l_inc = req->l_inc;
        aj.opts.l_max = req->l_max;
        aj.opts.q = req->q;
        aj.opts.seed = req->sample_seed;
        aj.opts.power_ortho = scheme_from_wire(req->power_ortho);
        job.payload = std::move(aj);
        break;
      }
      case runtime::JobKind::Qrcp: {
        runtime::QrcpJob qj;
        qj.a = std::move(a);
        qj.k = req->k;
        qj.block = req->block;
        job.payload = std::move(qj);
        break;
      }
      case runtime::JobKind::Rqrcp: {
        runtime::RqrcpJob rj;
        rj.a = std::move(a);
        rj.k = req->k;
        rj.opts.block = req->block;
        rj.opts.oversample = req->oversample;
        rj.opts.seed = req->sample_seed;
        rj.opts.want_q = req->want_q;
        rj.opts.epsilon = 0;  // fixed-rank mode
        job.payload = std::move(rj);
        break;
      }
      case runtime::JobKind::RqrcpAdaptive: {
        runtime::RqrcpJob rj;
        rj.a = std::move(a);
        rj.opts.epsilon = req->epsilon;
        rj.opts.relative = req->relative;
        rj.opts.max_rank = req->max_rank;
        rj.opts.block = req->block;
        rj.opts.oversample = req->oversample;
        rj.opts.seed = req->sample_seed;
        rj.opts.want_q = req->want_q;
        job.payload = std::move(rj);
        break;
      }
    }
  } catch (const std::exception& e) {
    queue_frame(c, encode_error(
                       ErrorReply{req->request_id, ErrorCode::BadRequest,
                                  e.what()}));
    return;
  }

  auto sub = sched.submit(std::move(job));
  if (sub.status != runtime::PushStatus::Ok) {
    if (sub.status == runtime::PushStatus::Closed) {
      queue_frame(c, encode_error(ErrorReply{req->request_id,
                                             ErrorCode::ShuttingDown,
                                             "scheduler closed"}));
    } else {
      BusyReply b;
      b.request_id = req->request_id;
      b.queue_depth = static_cast<std::uint32_t>(sched.queue_depth());
      b.retry_after_ms = retry_after_ms();
      queue_frame(c, encode_busy(b));
      bump(&ServerStats::jobs_busy);
    }
    return;
  }
  c.inflight += 1;
  sub.handle->on_done([w = thread.wake] { w->signal(); });
  inflight.push_back(
      Impl::InFlight{cid, req->request_id, req->trace_id, sub.handle});
  bump(&ServerStats::jobs_submitted);
}

void Server::Impl::handle_stats(std::uint64_t cid, std::size_t len) {
  Conn& c = conns[cid];
  if (len != 0) {
    reject(c, ErrorCode::BadFrame, "stats frame carries a payload", true);
    return;
  }
  // This server's and its scheduler's own counts: what load generators
  // cross-check their own accounting against.
  StatsReply s;
  s.metrics = instance_rows(stats_snapshot(), sched, opts.injector.get());
  queue_frame(c, encode_stats_reply(s));
}

void Server::Impl::handle_dump(std::uint64_t cid, std::size_t len) {
  Conn& c = conns[cid];
  if (len != 0) {
    reject(c, ErrorCode::BadFrame, "dump frame carries a payload", true);
    return;
  }
  auto& rec = obs::Recorder::global();
  rec.record(obs::EventKind::DumpRequested, 0, 0,
             static_cast<std::int64_t>(cid));
  queue_frame(c, encode_dump_reply(rec.dump_json()));
}

void Server::Impl::handle_health(std::uint64_t cid, std::size_t len) {
  Conn& c = conns[cid];
  if (len != 0) {
    reject(c, ErrorCode::BadFrame, "health frame carries a payload", true);
    return;
  }
  HealthReply h;
  h.serving = !thread.stop_requested.load();
  const auto fs = sched.fault_stats();
  h.total_devices = static_cast<std::uint32_t>(sched.num_workers());
  h.healthy_devices = static_cast<std::uint32_t>(
      fs.healthy_workers < 0 ? 0 : fs.healthy_workers);
  h.queue_depth = static_cast<std::uint32_t>(sched.queue_depth());
  h.inflight = static_cast<std::uint32_t>(
      sched.inflight() < 0 ? 0 : sched.inflight());
  h.watchdog_fired = fs.watchdog_fired;
  h.jobs_requeued = fs.jobs_requeued;
  h.faults_injected = opts.injector ? opts.injector->injected_total() : 0;
  for (const auto& d : sched.device_health())
    h.devices.push_back(DeviceHealth{static_cast<std::uint32_t>(d.device),
                                     d.healthy, d.jobs, d.modeled_s});
  queue_frame(c, encode_health_reply(h));
}

void Server::Impl::handle_cancel(std::uint64_t cid,
                                 const std::uint8_t* payload,
                                 std::size_t len) {
  Conn& c = conns[cid];
  const auto id = decode_cancel(payload, len);
  if (!id) {
    reject(c, ErrorCode::BadFrame, "bad cancel", true);
    return;
  }
  for (auto& f : inflight) {
    if (f.conn_id == cid && f.request_id == *id && !f.cancelled) {
      f.cancelled = true;
      bump(&ServerStats::jobs_cancelled);
      return;
    }
  }
  // Unknown request id: the result already streamed (its frames may be
  // in flight toward the peer right now). Cancellation is advisory —
  // nothing to do, and no reply either way: the job's own terminal frame
  // (result or Error(Cancelled)) is the only answer a Cancel ever gets.
}

void Server::Impl::handle_drain(std::uint64_t cid,
                                const std::uint8_t* payload,
                                std::size_t len) {
  Conn& c = conns[cid];
  const auto d = decode_drain(payload, len);
  if (!d) {
    reject(c, ErrorCode::BadFrame, "bad drain", true);
    return;
  }
  if (!opts.allow_remote_shutdown) {
    queue_frame(c, encode_error(ErrorReply{0, ErrorCode::BadRequest,
                                           "drain not allowed"}));
    return;
  }
  bump(&ServerStats::drains);
  // From this instant new submits are answered Busy (handle_submit):
  // the caches are about to be photographed, and any job accepted now
  // could finish after the handoff and strand its entry on a dying shard.
  handoff_draining = true;
  DrainSummary sum = stream_handoff(*d);
  sum.inflight = static_cast<std::uint32_t>(inflight.size());
  bump(&ServerStats::handoff_out, sum.entries);
  obs::Recorder::global().record(obs::EventKind::ShardDrained, 0, 0,
                                 static_cast<std::int64_t>(d->port),
                                 static_cast<std::int64_t>(sum.entries));
  queue_frame(c, encode_drain_reply(sum));
  // Enter the normal graceful stop: close the listener, finish in-flight
  // jobs, flush (the DrainReply above goes out with them), exit. The
  // router re-points the keyshare only after it reads the DrainReply, so
  // handoff-completion strictly precedes ownership transfer.
  thread.stop_requested.store(true);
}

DrainSummary Server::Impl::stream_handoff(const DrainRequest& d) {
  DrainSummary sum;
  if (d.port == 0) return sum;  // no successor: just drain, warmth dies
  ClientOptions copt;
  copt.host = d.host;
  copt.port = d.port;
  copt.recv_timeout_s = 5;
  Client peer(copt);
  if (!peer.connect()) return sum;
  bool alive = true;
  const auto ship = [&](const CacheHandoffEntry& e) {
    if (!alive) return;
    const auto frame = encode_cache_handoff(e);
    if (frame.empty()) {  // over the frame cap: drop, never ship junk
      ++sum.skipped;
      return;
    }
    if (!peer.send_raw(frame.data(), frame.size())) {
      alive = false;
      return;
    }
    ++sum.entries;
    sum.bytes += frame.size();
  };
  // snapshot() is MRU-first; stream in reverse (oldest first) so the
  // successor's LRU ends up in exactly the recency order ours had.
  const auto rs = sched.export_results();
  for (auto it = rs.rbegin(); it != rs.rend(); ++it)
    ship(entry_from_result(it->first, *it->second));
  const auto sk = sched.export_sketches();
  for (auto it = sk.rbegin(); it != sk.rend(); ++it)
    ship(entry_from_sketch(it->first, *it->second));
  const auto rq = sched.export_rqrcps();
  for (auto it = rq.rbegin(); it != rq.rend(); ++it)
    ship(entry_from_rqrcp(it->first, *it->second));
  // CacheHandoff frames carry no reply; a trailing Ping round-trip is
  // the flush barrier — the successor processes frames in order, so its
  // Pong proves every entry was installed before we report completion.
  if (alive) peer.ping(0x6472616eu /* "dran" */);
  return sum;
}

void Server::Impl::handle_cache_handoff(std::uint64_t cid,
                                        const std::uint8_t* payload,
                                        std::size_t len) {
  Conn& c = conns[cid];
  // Gated with remote shutdown: both let a peer rewrite server state.
  if (!opts.allow_remote_shutdown) {
    bump(&ServerStats::protocol_errors);
    queue_frame(c, encode_error(ErrorReply{0, ErrorCode::BadRequest,
                                           "handoff not allowed"}));
    c.close_after_flush = true;
    return;
  }
  auto e = decode_cache_handoff(payload, len);
  if (!e || !install_handoff(sched, *e)) {
    reject(c, ErrorCode::BadFrame, "bad cache handoff", true);
    return;
  }
  bump(&ServerStats::handoff_in);
  // No reply frame: the sender's Ping barrier is the synchronization.
}

void Server::Impl::deliver_completions() {
  for (auto it = inflight.begin(); it != inflight.end();) {
    if (!it->handle->done()) {
      ++it;
      continue;
    }
    const runtime::JobOutcome& outcome = it->handle->wait();
    auto cit = conns.find(it->conn_id);
    if (cit == conns.end()) {
      bump(&ServerStats::results_dropped);
    } else if (it->cancelled) {
      // Hedged-pair loser: a typed terminal frame instead of the result
      // stream keeps the connection frame-aligned for its next exchange.
      queue_frame(cit->second,
                  encode_error(ErrorReply{it->request_id,
                                          ErrorCode::Cancelled,
                                          "cancelled by peer"}));
      cit->second.inflight -= 1;
      if (!flush(cit->second)) drop_conn(it->conn_id);
    } else {
      obs::Span span("net.result", "net", it->trace_id);
      send_result(cit->second, it->request_id, outcome);
      cit->second.inflight -= 1;
      bump(&ServerStats::jobs_completed);
      if (!flush(cit->second)) drop_conn(it->conn_id);
    }
    it = inflight.erase(it);
  }
}

void Server::Impl::send_result(Conn& c, std::uint64_t request_id,
                               const runtime::JobOutcome& outcome) {
  ResultHeader h;
  h.request_id = request_id;
  h.status = outcome.status;
  h.kind = outcome.trace.kind;
  h.error = outcome.error;
  h.trace_json = runtime::to_json(outcome.trace);

  // Announce tensors and gather their contiguous storage for chunking.
  std::vector<const Matrix<double>*> tensors;
  Matrix<double> rdiag_m;  // wire backing for RqrcpResult::rdiag
  if (outcome.status == runtime::JobStatus::Done) {
    if (outcome.fixed_rank) {
      h.tensors.push_back({"q", outcome.fixed_rank->q.rows(),
                           outcome.fixed_rank->q.cols()});
      h.tensors.push_back({"r", outcome.fixed_rank->r.rows(),
                           outcome.fixed_rank->r.cols()});
      h.perm = outcome.fixed_rank->perm;
      tensors = {&outcome.fixed_rank->q, &outcome.fixed_rank->r};
    } else if (outcome.adaptive) {
      h.tensors.push_back({"basis", outcome.adaptive->basis.rows(),
                           outcome.adaptive->basis.cols()});
      tensors = {&outcome.adaptive->basis};
    } else if (outcome.qrcp) {
      h.tensors.push_back({"q", outcome.qrcp->q.rows(),
                           outcome.qrcp->q.cols()});
      h.tensors.push_back({"r1", outcome.qrcp->r1.rows(),
                           outcome.qrcp->r1.cols()});
      h.tensors.push_back({"r2", outcome.qrcp->r2.rows(),
                           outcome.qrcp->r2.cols()});
      h.perm = outcome.qrcp->perm;
      tensors = {&outcome.qrcp->q, &outcome.qrcp->r1, &outcome.qrcp->r2};
    } else if (outcome.rqrcp) {
      // rdiag always (the rank-revealing decay profile), R blocks always
      // (residual checks server truncation claims), Q only when asked.
      const auto& rq = *outcome.rqrcp;
      const index_t k = static_cast<index_t>(rq.rdiag.size());
      rdiag_m = Matrix<double>(k, 1);
      std::copy(rq.rdiag.begin(), rq.rdiag.end(), rdiag_m.data());
      h.tensors.push_back({"rdiag", k, 1});
      h.tensors.push_back({"r1", rq.r1.rows(), rq.r1.cols()});
      h.tensors.push_back({"r2", rq.r2.rows(), rq.r2.cols()});
      tensors = {&rdiag_m, &rq.r1, &rq.r2};
      if (rq.q.rows() > 0) {
        h.tensors.push_back({"q", rq.q.rows(), rq.q.cols()});
        tensors.push_back(&rq.q);
      }
      h.perm = rq.perm;
    }
  }
  queue_frame(c, encode_result_header(h));

  for (std::size_t t = 0; t < tensors.size(); ++t) {
    const Matrix<double>& m = *tensors[t];
    const double* data = m.data();
    const std::uint64_t total =
        std::uint64_t(m.rows()) * static_cast<std::uint64_t>(m.cols());
    for (std::uint64_t off = 0; off < total; off += kChunkElems) {
      ResultChunk chunk;
      chunk.request_id = request_id;
      chunk.tensor = static_cast<std::uint8_t>(t);
      chunk.offset = off;
      const std::uint64_t n = std::min<std::uint64_t>(kChunkElems, total - off);
      chunk.data.assign(data + off, data + off + n);
      queue_frame(c, encode_result_chunk(chunk));
    }
  }
  queue_frame(c, encode_result_end(request_id));
}

void Server::Impl::reject(Conn& c, ErrorCode code, const char* what,
                          bool poison) {
  bump(&ServerStats::protocol_errors);
  queue_frame(c, encode_error(ErrorReply{0, code, what}));
  if (poison) c.close_after_flush = true;
}

void Server::Impl::queue_frame(Conn& c, std::vector<std::uint8_t> frame) {
  if (opts.injector) {
    // Corrupted frame: flip a magic byte so the client *deterministically*
    // detects the damage (flipping payload bytes could silently corrupt
    // f64 data, which no length check would catch — the residual
    // verification would, but the client could not know to retry).
    if (opts.injector->fire(fault::FaultKind::FrameCorrupt) &&
        !frame.empty()) {
      frame[0] ^= 0xFF;
    }
    // Truncated frame: send only a prefix, then drop the connection once
    // it is flushed — the peer sees a frame that stops mid-payload.
    if (opts.injector->fire(fault::FaultKind::FrameTruncate) &&
        frame.size() > 1) {
      frame.resize(frame.size() / 2);
      c.close_after_flush = true;
    }
  }
  c.queue(frame);
}

bool Server::Impl::flush(Conn& c) {
  // Injected write delay: the socket stalls before draining (slow or
  // congested peer path). One decision per flush call, not per byte.
  if (opts.injector && c.has_output() &&
      opts.injector->fire(fault::FaultKind::WriteDelay)) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        opts.injector->config().write_delay_ms));
  }
  const IoResult r = c.flush();
  if (r.bytes > 0) bump(&ServerStats::bytes_out, r.bytes);
  return !r.peer_gone;
}

void Server::Impl::drop_conn(std::uint64_t cid) {
  auto it = conns.find(cid);
  if (it == conns.end()) return;
  close(it->second.fd);
  conns.erase(it);
  // In-flight jobs for this connection stay in `inflight`; their results
  // are discarded (and counted) when they complete.
}

}  // namespace randla::net
