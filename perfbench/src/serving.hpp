// serving.hpp — in-process serving stacks (one Scheduler + net::Server
// per shard on loopback, optionally a cluster::Router in front) and the
// probes that time the runtime, net and cluster layers from outside.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "runtime/scheduler.hpp"
#include "common.hpp"
#include "kernels.hpp"

namespace perfbench {

/// The ring a router over shards 0..shards−1 builds (default vnodes).
randla::cluster::HashRing shard_ring(int shards);

class Stack {
 public:
  Stack(int shards, const randla::runtime::SchedulerOptions& so);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Front the shards with a router; shard i is ring member i.
  void add_router(randla::cluster::RouterOptions ro);

  int shards() const { return static_cast<int>(servers_.size()); }
  randla::runtime::Scheduler& scheduler(int i) { return *scheds_[i]; }
  randla::net::Server& server(int i) { return *servers_[i]; }
  std::uint16_t shard_port(int i) const { return servers_[i]->port(); }
  randla::cluster::Router* router() { return router_.get(); }
  std::uint16_t router_port() const { return router_ ? router_->port() : 0; }
  /// Shard that owns `req` on the ring the router builds.
  int owner(const randla::net::JobRequest& req) const;

 private:
  std::vector<std::unique_ptr<randla::runtime::Scheduler>> scheds_;
  std::vector<std::unique_ptr<randla::net::Server>> servers_;
  std::unique_ptr<randla::cluster::Router> router_;
  randla::cluster::HashRing ring_;
};

/// randla_loadgen's request menu on an inline matrix: fixed-rank
/// (k = 16, p = 8, q = 1), adaptive (ε = 0.5 relative), truncated QP3
/// (k = 16), RQRCP (k = 16, explicit Q) and fixed-accuracy RQRCP
/// (ε = 1e-6 relative, rank ≤ 32, explicit Q). All but adaptive expect a
/// numerically rank-8 input ("lowrank" generator), so the residual checks
/// have teeth; adaptive runs on a "gaussian" one.
randla::net::JobRequest mix_request(randla::runtime::JobKind kind,
                                    const randla::Matrix<double>& a,
                                    std::uint64_t sample_seed);

/// `count` generator matrices (m×n) with seeds derived from `seed`.
std::vector<randla::Matrix<double>> make_pool(const char* generator, int count,
                                              randla::index_t m,
                                              randla::index_t n,
                                              std::uint64_t seed);

enum class Verdict { Ok, Failed, Wrong };

/// randla_loadgen's per-kind checks of a reply against the request's own
/// inline matrix: Failed for a transport error, Busy or failed job; Wrong
/// for a Done reply whose factors miss the residual or shape contract.
Verdict verify_reply(const randla::net::JobRequest& req,
                     const randla::net::CallResult& res,
                     randla::Matrix<double>& scratch);

/// The kernel-level op a fixed-rank or RQRCP mix request runs, on `a`,
/// with the mix's residual bound.
KernelCase kernel_case(const randla::net::JobRequest& req,
                       randla::ConstMatrixView<double> a);

/// A blocking client connected to 127.0.0.1:`port` (throws on failure).
std::unique_ptr<randla::net::Client> connect_client(std::uint16_t port);

/// Load-loop accounting, per client thread and merged.
struct ClientLoop {
  std::vector<double> lat;    ///< seconds of ops that passed their checks
  std::vector<double> lag;    ///< client time between a reply and the next send
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;   ///< errors, Busy after retries, failed checks
  std::uint64_t wrong = 0;    ///< replies that failed a check
  std::uint64_t checked = 0;  ///< replies that were checked
  double wall = 0;            ///< loop start to last reply

  void record(Verdict v, double seconds);
  /// Add to the report's op accounting; a wrong reply makes the run
  /// incorrect.
  void account(Report& rep) const;
};

/// One closed-loop op: its verdict and when its request went out and its
/// reply came back (checks run after `reply`, outside the latency).
struct OpTiming {
  Verdict verdict = Verdict::Failed;
  Clock::time_point send, reply;
  bool checked = false;
};

/// `clients` threads, each with its own connection to `port` and its
/// own check scratch, calling `op` back to back until `seconds` pass or
/// it has run `ops_per_client` times.
ClientLoop closed_loop(
    std::uint16_t port, int clients, double seconds,
    std::uint64_t ops_per_client,
    const std::function<OpTiming(randla::net::Client&,
                                 randla::Matrix<double>&)>& op);

/// Counter deltas of every shard (scheduler caches, worker busy time,
/// job traces, server bytes per served job) and of the router between
/// construction and report() — the runtime.*, net.bytes_* and cluster.*
/// per-layer metrics. `tail_pct` is the workload's tail percentile.
class Window {
 public:
  explicit Window(Stack& st);
  void report(int tail_pct, Report& rep) const;

 private:
  Stack& st_;
  Clock::time_point t0_;
  std::vector<std::size_t> traces0_;
  std::vector<double> busy0_;
  std::uint64_t hits0_ = 0, lookups0_ = 0, bytes_in0_ = 0, bytes_out0_ = 0,
                jobs0_ = 0;
  randla::cluster::RouterStats router0_;
};

/// One fixed-rank probe request: its wire form and the same matrix as a
/// local handle for the direct and scheduler entry points.
struct ProbeCase {
  randla::net::JobRequest req;
  randla::runtime::MatrixHandle a;
  double max_residual = 0;  ///< bound on ‖AP−QR‖_F/‖A‖_F of every reply
};

/// A fixed-rank mix request on `a` (a copy is kept as the local handle).
ProbeCase probe_case(const randla::Matrix<double>& a);

/// The same request timed at four stacked entry points — the direct
/// library call, Scheduler::submit→JobHandle::wait on the owning shard,
/// Client::call to the owning shard and Client::call through the router
/// — each with a fresh sampling seed so every call computes. Reports
/// runtime.overhead_ms, net.overhead_ms and cluster.router_overhead_ms as
/// differences of medians. Returns the number of calls that failed.
std::uint64_t probe_overheads(Stack& st, const std::vector<ProbeCase>& cases,
                              double budget_s, std::uint64_t seed,
                              Report& rep);

/// net.encode_submit_us / net.decode_submit_us (arena ingest) over the
/// workload's own request frames.
void probe_codec(const std::vector<randla::net::JobRequest>& reqs,
                 Report& rep);

}  // namespace perfbench
