// server.hpp — poll(2) event-loop TCP server exposing the serving
// runtime (DESIGN.md §8).
//
// One event-loop thread owns every socket: a non-blocking listener plus
// per-connection read/write buffers and a frame-boundary state machine,
// all from the connection layer shared with cluster::Router
// (net/conn.hpp).
// Complete Submit frames become runtime::Scheduler jobs; the loop polls
// in-flight handles between socket events and streams finished factors
// back as ResultHeader/Chunk/End sequences. Admission backpressure is
// typed: a PushStatus rejection turns into a Busy frame carrying the
// queue depth and a Retry-After-style hint derived from the scheduler's
// recent execution EMA — the request is never accepted-then-dropped.
//
// Lifecycle: start() binds/listens (port 0 picks an ephemeral port,
// readable via port()) and spawns the loop; stop() performs a graceful
// shutdown — stop accepting, let in-flight jobs finish, flush write
// buffers, then close (bounded by drain_timeout_s). A client may trigger
// the same drain remotely with a Shutdown frame when
// allow_remote_shutdown is set (loopback smoke tests use this).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "runtime/scheduler.hpp"

namespace randla::net {

struct ServerOptions {
  std::string bind_addr = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (query with Server::port())
  int max_connections = 64;
  double idle_timeout_s = 60;  ///< close quiet connections; ≤0 disables
  std::size_t max_frame_bytes = 1u << 26;
  bool allow_remote_shutdown = false;  ///< honor Shutdown frames
  double drain_timeout_s = 30;  ///< graceful-stop budget before hard close
  std::size_t matrix_cache_capacity = 32;  ///< memoized generator matrices
  /// Chaos testing (DESIGN.md §10): when set, the event loop injects
  /// connection resets at frame boundaries, corrupted/truncated outbound
  /// frames, and delayed writes per the injector's schedule.
  fault::InjectorPtr injector;
};

/// Per-instance serving counters: each event is counted here once and
/// exported once by Server::stats_rows (DESIGN.md §9).
struct ServerStats {
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_refused = 0;     ///< over max_connections
  std::uint64_t conns_idle_closed = 0;
  std::uint64_t frames_in = 0;
  /// frames_in by type: slot = the FrameType value of a client→server
  /// type (Submit = 1 … CacheHandoff = 9); slot 0 counts any other type.
  std::array<std::uint64_t, 10> frames_by_type{};
  std::uint64_t protocol_errors = 0;   ///< malformed frames / requests
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_busy = 0;         ///< shed with a Busy frame
  std::uint64_t jobs_completed = 0;    ///< results streamed back
  std::uint64_t results_dropped = 0;   ///< client vanished mid-job
  std::uint64_t jobs_cancelled = 0;    ///< answered Error(Cancelled) (v6)
  std::uint64_t drains = 0;            ///< planned Drain orders honored
  std::uint64_t handoff_out = 0;       ///< cache entries streamed to successor
  std::uint64_t handoff_in = 0;        ///< cache entries installed from a peer
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class Server {
 public:
  /// The scheduler outlives the server; the server never closes it.
  explicit Server(runtime::Scheduler& sched, ServerOptions opts = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the event loop. False (with stderr detail) on
  /// bind failure. Idempotent once started.
  bool start();
  /// Bound port (valid after a successful start()).
  std::uint16_t port() const;
  /// Graceful shutdown: drain in-flight jobs, flush, close, join.
  void stop();
  /// Block until the loop exits on its own (remote Shutdown frame).
  void wait();
  bool running() const;
  ServerStats stats() const;
  /// This server's Stats rows: every ServerStats count under its
  /// Prometheus name (`net_jobs_submitted_total`, `net_busy_total`,
  /// `net_frames_in_total{type="submit"}`, …), then the scheduler's
  /// Scheduler::stats_rows (kernel and fault rows included). Each fault
  /// injector's rows appear once, even when the server and scheduler
  /// share it. A Stats reply sends exactly these rows.
  obs::MetricRows stats_rows() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace randla::net
