#include "serving.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "la/blas3.hpp"
#include "la/norms.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "rsvd/rsvd.hpp"

namespace perfbench {

using namespace randla;

cluster::HashRing shard_ring(int shards) {
  cluster::HashRing ring(cluster::RingOptions{cluster::RouterOptions{}.vnodes});
  for (int i = 0; i < shards; ++i) ring.add(static_cast<std::uint32_t>(i));
  return ring;
}

Stack::Stack(int shards, const runtime::SchedulerOptions& so) {
  for (int i = 0; i < shards; ++i) {
    scheds_.push_back(std::make_unique<runtime::Scheduler>(so));
    servers_.push_back(std::make_unique<net::Server>(*scheds_.back()));
    if (!servers_.back()->start())
      throw std::runtime_error("shard server failed to start");
  }
}

Stack::~Stack() {
  if (router_) router_->stop();
  for (auto& s : servers_) s->stop();
}

void Stack::add_router(cluster::RouterOptions ro) {
  ro.shards.clear();
  for (int i = 0; i < shards(); ++i) ro.shards.push_back({"127.0.0.1", shard_port(i)});
  ring_ = shard_ring(shards());
  router_ = std::make_unique<cluster::Router>(std::move(ro));
  if (!router_->start()) throw std::runtime_error("router failed to start");
}

std::unique_ptr<net::Client> connect_client(std::uint16_t port) {
  net::ClientOptions co;
  co.port = port;
  auto c = std::make_unique<net::Client>(co);
  if (!c->connect()) throw std::runtime_error("connect failed: " + c->last_error());
  return c;
}

int Stack::owner(const net::JobRequest& req) const {
  if (ring_.empty()) return 0;
  return static_cast<int>(*ring_.owner(cluster::routing_key(req)));
}

net::JobRequest mix_request(runtime::JobKind kind, const Matrix<double>& a,
                            std::uint64_t sample_seed) {
  net::JobRequest req;
  req.kind = kind;
  req.matrix.source = net::MatrixSource::Inline;
  req.matrix.m = a.rows();
  req.matrix.n = a.cols();
  req.matrix.inline_data = Matrix<double>::copy_of(a.view());
  req.sample_seed = sample_seed;
  req.tag = "perfbench";
  req.k = 16;
  switch (kind) {
    case runtime::JobKind::FixedRank:
      req.p = 8;
      req.q = 1;
      break;
    case runtime::JobKind::Adaptive:
      req.epsilon = 0.5;
      req.relative = true;
      req.l_init = 8;
      req.l_inc = 8;
      req.l_max = std::min(a.rows(), a.cols()) / 2;
      break;
    case runtime::JobKind::Qrcp:
      req.block = 16;
      break;
    case runtime::JobKind::Rqrcp:
      req.block = 8;
      req.oversample = 8;
      req.want_q = true;
      break;
    case runtime::JobKind::RqrcpAdaptive:
      req.epsilon = 1e-6;
      req.relative = true;
      req.block = 8;
      req.oversample = 8;
      req.max_rank = 32;
      req.want_q = true;
      break;
  }
  return req;
}

std::vector<Matrix<double>> make_pool(const char* generator, int count,
                                      index_t m, index_t n,
                                      std::uint64_t seed) {
  std::vector<Matrix<double>> pool;
  for (int i = 0; i < count; ++i) {
    net::MatrixSpec spec;
    spec.generator = generator;
    spec.m = m;
    spec.n = n;
    spec.rank = 8;
    spec.seed = derive(seed, static_cast<std::uint64_t>(i)) >> 16;
    pool.push_back(net::materialize(spec));
  }
  return pool;
}

Verdict verify_reply(const net::JobRequest& req, const net::CallResult& res,
                     Matrix<double>& scratch) {
  if (res.status != net::CallStatus::Ok ||
      res.header.status != runtime::JobStatus::Done)
    return Verdict::Failed;
  const Matrix<double>& a = req.matrix.inline_data;
  const auto& t = res.tensors;
  const auto& perm = res.header.perm;
  auto within = [&](ConstMatrixView<double> q, ConstMatrixView<double> r,
                    double tol) {
    return factor_residual(a.view(), perm, q, r, scratch) <= tol
               ? Verdict::Ok
               : Verdict::Wrong;
  };
  switch (req.kind) {
    case runtime::JobKind::FixedRank:
      if (t.size() != 2) return Verdict::Wrong;
      return within(t[0].view(), t[1].view(), 1e-8);
    case runtime::JobKind::Adaptive:
      // As in randla_loadgen, the basis shape is the contract here; the ε
      // guarantee is covered by the adaptive unit tests.
      return t.size() == 1 && t[0].cols() == a.cols() && t[0].rows() >= 1
                 ? Verdict::Ok
                 : Verdict::Wrong;
    case runtime::JobKind::Qrcp: {
      // The leading k columns of a pivoted QR are exact, not approximate.
      if (t.size() != 3 || perm.size() != std::size_t(a.cols()))
        return Verdict::Wrong;
      Matrix<double> lead =
          permuted_leading_columns<double>(a.view(), perm, t[1].cols());
      blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0, t[0].view(),
                         t[1].view(), 1.0, lead.view());
      return norm_fro<double>(ConstMatrixView<double>(lead.view())) <=
                     1e-10 * norm_fro<double>(a.view())
                 ? Verdict::Ok
                 : Verdict::Wrong;
    }
    case runtime::JobKind::Rqrcp:
    case runtime::JobKind::RqrcpAdaptive: {
      // Tensor order on the wire: rdiag, r1, r2, q.
      if (t.size() != 4) return Verdict::Wrong;
      const index_t k = t[1].rows();
      if (req.kind == runtime::JobKind::Rqrcp ? k != req.k
                                              : (k < 1 || k > req.max_rank))
        return Verdict::Wrong;
      const Matrix<double> r = join_r(t[1].view(), t[2].view());
      const double tol =
          req.kind == runtime::JobKind::Rqrcp ? 1e-10 : 10 * req.epsilon;
      return within(t[3].view(), r.view(), tol);
    }
  }
  return Verdict::Wrong;
}

KernelCase kernel_case(const net::JobRequest& req, ConstMatrixView<double> a) {
  KernelCase c;
  c.a = a;
  c.rqrcp = req.kind == runtime::JobKind::Rqrcp;
  c.fr.k = req.k;
  c.fr.p = req.p;
  c.fr.q = req.q;
  c.fr.seed = req.sample_seed;
  c.rq.block = req.block;
  c.rq.oversample = req.oversample;
  c.rq.want_q = true;
  c.rq.seed = req.sample_seed;
  c.max_residual = c.rqrcp ? 1e-10 : 1e-8;
  return c;
}

ProbeCase probe_case(const Matrix<double>& a) {
  ProbeCase pc;
  pc.req = mix_request(runtime::JobKind::FixedRank, a, 0);
  pc.a = runtime::make_input(Matrix<double>::copy_of(a.view()));
  pc.max_residual = kernel_case(pc.req, a.view()).max_residual;
  return pc;
}

void ClientLoop::record(Verdict v, double seconds) {
  ++attempted;
  if (v == Verdict::Ok) lat.push_back(seconds);
  if (v != Verdict::Ok) ++failed;
  if (v == Verdict::Wrong) ++wrong;
}

void ClientLoop::account(Report& rep) const {
  rep.attempted += attempted;
  rep.failed += failed;
  if (wrong > 0) rep.invalid(std::to_string(wrong) + " replies failed checks");
}

ClientLoop closed_loop(std::uint16_t port, int clients, double seconds,
                       std::uint64_t ops_per_client,
                       const std::function<OpTiming(net::Client&,
                                                    Matrix<double>&)>& op) {
  ClientLoop total;
  std::mutex mu;
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      ClientLoop mine;
      try {
        const auto client = connect_client(port);
        Matrix<double> scratch;
        auto last = Clock::now();
        for (std::uint64_t n = 0;
             n < ops_per_client && seconds_since(t0) < seconds; ++n) {
          const OpTiming t = op(*client, scratch);
          mine.lag.push_back(std::chrono::duration<double>(t.send - last).count());
          mine.record(t.verdict,
                      std::chrono::duration<double>(t.reply - t.send).count());
          if (t.checked) ++mine.checked;
          last = t.reply;
        }
      } catch (const std::exception& e) {
        ++mine.attempted;
        ++mine.failed;
        std::fprintf(stderr, "perfbench: client failed: %s\n", e.what());
      }
      std::lock_guard<std::mutex> lk(mu);
      total.lat.insert(total.lat.end(), mine.lat.begin(), mine.lat.end());
      total.lag.insert(total.lag.end(), mine.lag.begin(), mine.lag.end());
      total.attempted += mine.attempted;
      total.failed += mine.failed;
      total.wrong += mine.wrong;
      total.checked += mine.checked;
      total.wall = std::max(total.wall, seconds_since(t0));
    });
  }
  for (auto& th : threads) th.join();
  return total;
}

namespace {

std::uint64_t result_hits(const runtime::Scheduler& s) {
  return s.result_cache_stats().hits + s.rqrcp_cache_stats().hits;
}
std::uint64_t result_lookups(const runtime::Scheduler& s) {
  const auto r = s.result_cache_stats();
  const auto q = s.rqrcp_cache_stats();
  return r.hits + r.misses + q.hits + q.misses;
}
double busy_seconds(const runtime::Scheduler& s) {
  double b = 0;
  for (const auto& w : s.worker_stats()) b += w.busy_s;
  return b;
}

}  // namespace

Window::Window(Stack& st) : st_(st), t0_(Clock::now()) {
  for (int i = 0; i < st.shards(); ++i) {
    runtime::Scheduler& s = st.scheduler(i);
    traces0_.push_back(s.telemetry().traces().size());
    busy0_.push_back(busy_seconds(s));
    hits0_ += result_hits(s);
    lookups0_ += result_lookups(s);
    const net::ServerStats ss = st.server(i).stats();
    bytes_in0_ += ss.bytes_in;
    bytes_out0_ += ss.bytes_out;
    jobs0_ += ss.jobs_completed;
  }
  if (st.router() != nullptr) router0_ = st.router()->stats();
}

void Window::report(int tail_pct, Report& rep) const {
  const double wall = seconds_since(t0_);
  std::vector<double> waits;
  double batch_sum = 0, batch_n = 0, busy = 0;
  std::uint64_t hits = 0, lookups = 0, bytes_in = 0, bytes_out = 0, jobs = 0;
  int workers = 0;
  for (int i = 0; i < st_.shards(); ++i) {
    runtime::Scheduler& s = st_.scheduler(i);
    const auto traces = s.telemetry().traces();
    for (std::size_t t = traces0_[i]; t < traces.size(); ++t) {
      const runtime::JobTrace& tr = traces[t];
      if (tr.status != runtime::JobStatus::Done) continue;
      waits.push_back(tr.queue_wait_s);
      if (tr.kind == runtime::JobKind::FixedRank &&
          tr.cache == runtime::CacheDisposition::Miss) {
        batch_sum += tr.batch_size;
        batch_n += 1;
      }
    }
    busy += busy_seconds(s) - busy0_[i];
    workers += s.num_workers();
    hits += result_hits(s);
    lookups += result_lookups(s);
    const net::ServerStats ss = st_.server(i).stats();
    bytes_in += ss.bytes_in;
    bytes_out += ss.bytes_out;
    jobs += ss.jobs_completed;
  }
  hits -= hits0_;
  lookups -= lookups0_;
  bytes_in -= bytes_in0_;
  bytes_out -= bytes_out0_;
  jobs -= jobs0_;
  const double per_job = jobs > 0 ? 1.0 / double(jobs) : 0;
  rep.add("runtime.queue_wait_p50_ms", median(waits) * 1e3, "ms");
  rep.add("runtime.queue_wait_tail_ms", tail(waits, tail_pct).value * 1e3, "ms");
  rep.add("runtime.batch_occupancy", batch_n > 0 ? batch_sum / batch_n : 1.0,
          "jobs");
  rep.add("runtime.result_cache_hit_ratio",
          lookups > 0 ? double(hits) / double(lookups) : 0, "ratio");
  rep.add("runtime.busy_ratio",
          workers > 0 && wall > 0 ? busy / (double(workers) * wall) : 0,
          "ratio");
  rep.add("net.bytes_in_per_op", double(bytes_in) * per_job, "B");
  rep.add("net.bytes_out_per_op", double(bytes_out) * per_job, "B");

  cluster::RouterStats r1, r0 = router0_;
  if (st_.router() != nullptr) r1 = st_.router()->stats();
  else r0 = r1;
  const double routed = double(r1.submits_routed - r0.submits_routed);
  const double per_routed = routed > 0 ? 1.0 / routed : 0;
  rep.add("cluster.replica_legs_per_op",
          double(r1.hedges_fired - r0.hedges_fired) * per_routed, "ratio");
  rep.add("cluster.hedge_cancels_per_op",
          double(r1.hedge_cancels - r0.hedge_cancels) * per_routed, "ratio");
  rep.add("cluster.forward_errors",
          double(r1.forward_errors - r0.forward_errors), "count");
}

std::uint64_t probe_overheads(Stack& st, const std::vector<ProbeCase>& cases,
                              double budget_s, std::uint64_t seed,
                              Report& rep) {
  if (st.router() == nullptr) throw std::logic_error("probe needs a router");
  std::vector<std::unique_ptr<net::Client>> shard_clients;
  for (int i = 0; i < st.shards(); ++i)
    shard_clients.push_back(connect_client(st.shard_port(i)));
  const auto via_router = connect_client(st.router_port());

  std::vector<double> direct, sched, client, routed;
  std::uint64_t failed = 0, n = 0;
  Matrix<double> scratch;
  auto ok_reply = [](const net::CallResult& r) {
    return r.status == net::CallStatus::Ok &&
           r.header.status == runtime::JobStatus::Done &&
           r.tensors.size() == 2;
  };
  // One untimed round first: connections, and generator-spec matrices
  // materialized in the shards' memo.
  const auto t0 = Clock::now();
  for (int round = 0; round < 3 || seconds_since(t0) < budget_s; ++round) {
    for (const ProbeCase& pc : cases) {
      const int owner = st.owner(pc.req);
      rsvd::FixedRankOptions o = kernel_case(pc.req, pc.a->view()).fr;

      o.seed = derive(seed, n++);
      auto t = Clock::now();
      const rsvd::FixedRankResult res = rsvd::fixed_rank(pc.a->view(), o);
      const double d_direct = seconds_since(t);

      o.seed = derive(seed, n++);
      runtime::Job job;
      job.payload = runtime::FixedRankJob{pc.a, o};
      t = Clock::now();
      const auto sub = st.scheduler(owner).submit(std::move(job));
      const runtime::JobOutcome& out = sub.handle->wait();
      const double d_sched = seconds_since(t);

      net::JobRequest req = pc.req;
      req.sample_seed = derive(seed, n++);
      t = Clock::now();
      const net::CallResult rc = shard_clients[owner]->call(req);
      const double d_client = seconds_since(t);

      req.sample_seed = derive(seed, n++);
      t = Clock::now();
      const net::CallResult rr = via_router->call(req);
      const double d_routed = seconds_since(t);

      auto close_enough = [&](const Permutation& perm, const Matrix<double>& q,
                              const Matrix<double>& r) {
        return factor_residual(pc.a->view(), perm, q.view(), r.view(),
                               scratch) <= pc.max_residual;
      };
      const bool ok =
          close_enough(res.perm, res.q, res.r) &&
          out.status == runtime::JobStatus::Done && out.fixed_rank &&
          close_enough(out.fixed_rank->perm, out.fixed_rank->q,
                       out.fixed_rank->r) &&
          ok_reply(rc) &&
          close_enough(rc.header.perm, rc.tensors[0], rc.tensors[1]) &&
          ok_reply(rr) &&
          close_enough(rr.header.perm, rr.tensors[0], rr.tensors[1]);
      if (round == 0) continue;  // warm-up round: not attempted, not timed
      rep.attempted += 4;
      if (!ok) {
        failed += 1;
        continue;
      }
      direct.push_back(d_direct);
      sched.push_back(d_sched);
      client.push_back(d_client);
      routed.push_back(d_routed);
    }
  }
  const double md = median(direct), ms = median(sched), mc = median(client),
               mr = median(routed);
  rep.add("runtime.overhead_ms", (ms - md) * 1e3, "ms");
  rep.add("net.overhead_ms", (mc - ms) * 1e3, "ms");
  rep.add("cluster.router_overhead_ms", (mr - mc) * 1e3, "ms");
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"rounds\":%zu,\"direct_ms\":%.4f,\"scheduler_ms\":%.4f,"
                "\"client_ms\":%.4f,\"router_ms\":%.4f}",
                direct.size(), md * 1e3, ms * 1e3, mc * 1e3, mr * 1e3);
  rep.note("entry_points", buf);
  return failed;
}

void probe_codec(const std::vector<net::JobRequest>& reqs, Report& rep) {
  runtime::Arena arena;
  constexpr int kReps = 200;
  double enc_s = 0, dec_s = 0;
  std::size_t count = 0;
  for (const net::JobRequest& req : reqs) {
    std::vector<std::uint8_t> frame;
    auto t = Clock::now();
    for (int r = 0; r < kReps; ++r) frame = net::encode_submit(req);
    enc_s += seconds_since(t);
    const std::uint8_t* payload = frame.data() + net::kHeaderBytes;
    const std::size_t size = frame.size() - net::kHeaderBytes;
    bool ok = true;
    t = Clock::now();
    for (int r = 0; r < kReps; ++r)
      ok = net::decode_submit(payload, size, &arena).has_value() && ok;
    dec_s += seconds_since(t);
    if (!ok) rep.invalid("decode_submit rejected an encoded request");
    count += kReps;
  }
  rep.add("net.encode_submit_us", enc_s / double(count) * 1e6, "us");
  rep.add("net.decode_submit_us", dec_s / double(count) * 1e6, "us");
}

}  // namespace perfbench
