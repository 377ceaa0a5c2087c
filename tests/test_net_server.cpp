// test_net_server.cpp — loopback integration tests for the poll(2)
// event-loop server: end-to-end factorization per job kind (with
// residual checks against locally materialized inputs), Busy
// backpressure under deliberate overload, malformed-frame handling,
// mid-stream disconnects, connection caps, idle timeouts, graceful
// drain, remote shutdown, and the completion wake (no lost wakes, no
// idle spin, no write to a retired wake fd). Plus unit tests, over a
// socketpair, for the connection layer the server shares with the
// router (net/conn.hpp): framing, backpressure and buffer shrinking.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hpp"

#include "la/blas3.hpp"
#include "la/norms.hpp"
#include "la/permutation.hpp"
#include "net/client.hpp"
#include "net/conn.hpp"
#include "net/server.hpp"
#include "net/socket_util.hpp"
#include "obs/trace.hpp"

using namespace randla;
using namespace randla::net;

namespace {

runtime::SchedulerOptions small_sched() {
  runtime::SchedulerOptions so;
  so.num_workers = 2;
  so.queue_capacity = 16;
  return so;
}

ClientOptions client_for(const Server& server) {
  ClientOptions copt;
  copt.port = server.port();
  copt.recv_timeout_s = 30;
  return copt;
}

JobRequest lowrank_fixed_request(std::uint64_t id, std::uint64_t seed) {
  JobRequest req;
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
  return req;
}

/// ‖A·P − Q·R‖_F/‖A‖_F with A rebuilt locally from the generator spec.
double fixed_rank_residual(const JobRequest& req, const CallResult& res) {
  MatrixSpec spec = req.matrix;
  spec.source = MatrixSource::Generator;
  const Matrix<double> a = materialize(spec);
  Matrix<double> resid(a.rows(), a.cols());
  apply_column_permutation<double>(a.view(), res.header.perm, resid.view());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0,
                     ConstMatrixView<double>(res.tensors[0].view()),
                     ConstMatrixView<double>(res.tensors[1].view()), 1.0,
                     resid.view());
  return norm_fro<double>(ConstMatrixView<double>(resid.view())) /
         norm_fro<double>(ConstMatrixView<double>(a.view()));
}

}  // namespace

TEST(NetServer, FixedRankLoopbackResidual) {
  runtime::Scheduler sched(small_sched());
  Server server(sched);
  ASSERT_TRUE(server.start());
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());

  const JobRequest req = lowrank_fixed_request(1, 11);
  const CallResult res = client.call(req);
  ASSERT_EQ(res.status, CallStatus::Ok) << res.detail;
  ASSERT_EQ(res.header.status, runtime::JobStatus::Done) << res.header.error;
  ASSERT_EQ(res.tensors.size(), 2u);
  EXPECT_EQ(res.tensors[0].rows(), 48);
  EXPECT_EQ(res.tensors[0].cols(), 8);
  EXPECT_EQ(res.tensors[1].rows(), 8);
  EXPECT_EQ(res.tensors[1].cols(), 24);
  ASSERT_EQ(res.header.perm.size(), 24u);
  EXPECT_TRUE(is_valid_permutation(res.header.perm));
  // Rank-4 input, rank-8 approximation: near-exact reconstruction.
  EXPECT_LT(fixed_rank_residual(req, res), 1e-8);
  EXPECT_FALSE(res.header.trace_json.empty());
  server.stop();
  EXPECT_EQ(server.stats().jobs_completed, 1u);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(NetServer, AdaptiveAndQrcpLoopback) {
  runtime::Scheduler sched(small_sched());
  Server server(sched);
  ASSERT_TRUE(server.start());
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());

  JobRequest areq;
  areq.request_id = 2;
  areq.kind = runtime::JobKind::Adaptive;
  areq.matrix.generator = "gaussian";
  areq.matrix.seed = 3;
  areq.matrix.m = 40;
  areq.matrix.n = 20;
  areq.epsilon = 0.5;
  areq.relative = true;
  areq.l_init = 4;
  areq.l_inc = 4;
  areq.l_max = 10;
  const CallResult ares = client.call(areq);
  ASSERT_EQ(ares.status, CallStatus::Ok) << ares.detail;
  ASSERT_EQ(ares.header.status, runtime::JobStatus::Done) << ares.header.error;
  ASSERT_EQ(ares.tensors.size(), 1u);
  EXPECT_EQ(ares.header.tensors[0].name, "basis");
  EXPECT_EQ(ares.tensors[0].cols(), 20);
  EXPECT_GE(ares.tensors[0].rows(), 1);

  JobRequest qreq;
  qreq.request_id = 3;
  qreq.kind = runtime::JobKind::Qrcp;
  qreq.matrix.generator = "lowrank";
  qreq.matrix.seed = 5;
  qreq.matrix.m = 36;
  qreq.matrix.n = 30;
  qreq.matrix.rank = 6;
  qreq.k = 10;
  qreq.block = 8;
  const CallResult qres = client.call(qreq);
  ASSERT_EQ(qres.status, CallStatus::Ok) << qres.detail;
  ASSERT_EQ(qres.header.status, runtime::JobStatus::Done) << qres.header.error;
  ASSERT_EQ(qres.tensors.size(), 3u);
  // Leading k columns of a pivoted QR are exact: (A·P)₁:k = Q·R1.
  const Matrix<double> a = materialize(qreq.matrix);
  Matrix<double> lead = permuted_leading_columns<double>(
      a.view(), qres.header.perm, qres.tensors[1].cols());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0,
                     ConstMatrixView<double>(qres.tensors[0].view()),
                     ConstMatrixView<double>(qres.tensors[1].view()), 1.0,
                     lead.view());
  EXPECT_LT(norm_fro<double>(ConstMatrixView<double>(lead.view())), 1e-10);
  server.stop();
}

TEST(NetServer, InlineMatrixLoopback) {
  runtime::Scheduler sched(small_sched());
  Server server(sched);
  ASSERT_TRUE(server.start());
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());

  JobRequest req = lowrank_fixed_request(4, 17);
  req.matrix.inline_data = materialize(req.matrix);
  req.matrix.source = MatrixSource::Inline;
  const CallResult res = client.call(req);
  ASSERT_EQ(res.status, CallStatus::Ok) << res.detail;
  ASSERT_EQ(res.header.status, runtime::JobStatus::Done) << res.header.error;
  // The inline payload equals the generator output, so the same
  // residual check applies.
  EXPECT_LT(fixed_rank_residual(req, res), 1e-8);
  server.stop();
}

TEST(NetServer, BusyUnderOverload) {
  runtime::SchedulerOptions so;
  so.num_workers = 1;
  so.queue_capacity = 1;
  so.enable_cache = false;  // every job executes for real
  runtime::Scheduler sched(so);
  Server server(sched);
  ASSERT_TRUE(server.start());

  // Pipeline a burst of Submit frames on one connection so the event loop
  // decodes them back-to-back: with one worker and queue capacity 1 the
  // excess must be shed as Busy no matter how the OS schedules the worker.
  // All jobs share one matrix spec so only the first submit pays the
  // materialization cost in the event loop; the rest are admitted in
  // microseconds while each job still executes for real (caches are off),
  // which forces the queue to overflow on every build, sanitized or not.
  constexpr int kJobs = 12;
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());
  std::vector<std::uint8_t> burst;
  for (int j = 0; j < kJobs; ++j) {
    JobRequest req;
    req.request_id = 100 + static_cast<std::uint64_t>(j);
    req.kind = runtime::JobKind::FixedRank;
    req.matrix.generator = "gaussian";
    req.matrix.seed = 7;  // one shared input: matrix cache absorbs all but
    req.matrix.m = 256;   // the first materialization
    req.matrix.n = 128;
    req.k = 16;
    req.p = 8;
    req.q = 4;
    const auto frame = encode_submit(req);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(client.send_raw(burst.data(), burst.size()));

  int busy = 0, ok = 0, other = 0;
  FrameHeader hdr;
  std::vector<std::uint8_t> payload;
  while (busy + ok + other < kJobs &&
         client.read_frame(&hdr, &payload)) {
    if (hdr.type == FrameType::Busy) {
      const auto b = decode_busy(payload.data(), payload.size());
      ASSERT_TRUE(b.has_value());
      EXPECT_GT(b->retry_after_ms, 0u);
      ++busy;
    } else if (hdr.type == FrameType::ResultHeader) {
      const auto h = decode_result_header(payload.data(), payload.size());
      ASSERT_TRUE(h.has_value());
      if (h->status == runtime::JobStatus::Done)
        ++ok;
      else
        ++other;
    } else if (hdr.type != FrameType::ResultChunk &&
               hdr.type != FrameType::ResultEnd) {
      ++other;
    }
  }

  EXPECT_EQ(other, 0);
  EXPECT_GT(busy, 0) << "expected Busy shedding with queue capacity 1";
  EXPECT_GT(ok, 0);
  EXPECT_EQ(busy + ok, kJobs);
  server.stop();
  EXPECT_EQ(server.stats().jobs_busy, static_cast<std::uint64_t>(busy));
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(NetServer, MalformedFrameGetsTypedErrorThenClose) {
  runtime::Scheduler sched(small_sched());
  Server server(sched);
  ASSERT_TRUE(server.start());
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());

  const std::uint8_t garbage[16] = {0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0,
                                    0,    0,    0,    0,    0, 0, 0, 0};
  ASSERT_TRUE(client.send_raw(garbage, sizeof garbage));
  FrameHeader hdr;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(client.read_frame(&hdr, &payload));
  EXPECT_EQ(hdr.type, FrameType::Error);
  const auto err = decode_error(payload.data(), payload.size());
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::BadFrame);
  // The poisoned connection is closed after the error flushes.
  EXPECT_FALSE(client.read_frame(&hdr, &payload));

  // The server itself is unharmed: a fresh connection works.
  Client fresh(client_for(server));
  ASSERT_TRUE(fresh.connect());
  EXPECT_TRUE(fresh.ping(99));
  server.stop();
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

TEST(NetServer, BadRequestGetsTypedError) {
  runtime::Scheduler sched(small_sched());
  Server server(sched);
  ASSERT_TRUE(server.start());
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());

  JobRequest req = lowrank_fixed_request(8, 1);
  req.matrix.generator = "no_such_generator";
  const CallResult res = client.call(req);
  ASSERT_EQ(res.status, CallStatus::RemoteError);
  EXPECT_EQ(res.error.code, ErrorCode::BadRequest);
  EXPECT_EQ(res.error.request_id, 8u);
  // Connection stays usable after a request-level (not frame-level) error.
  EXPECT_TRUE(client.ping(5));
  server.stop();
}

TEST(NetServer, MidStreamDisconnectSurvived) {
  runtime::Scheduler sched(small_sched());
  Server server(sched);
  ASSERT_TRUE(server.start());

  {
    Client client(client_for(server));
    ASSERT_TRUE(client.connect());
    // First half of a valid Submit frame, then vanish.
    const auto frame = encode_submit(lowrank_fixed_request(9, 2));
    ASSERT_TRUE(client.send_raw(frame.data(), frame.size() / 2));
    client.close();
  }
  {
    // A full job still round-trips afterwards.
    Client client(client_for(server));
    ASSERT_TRUE(client.connect());
    const CallResult res = client.call(lowrank_fixed_request(10, 2));
    EXPECT_EQ(res.status, CallStatus::Ok) << res.detail;
  }
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(NetServer, ConnectionCapRefusesWithTypedError) {
  runtime::Scheduler sched(small_sched());
  ServerOptions sopt;
  sopt.max_connections = 1;
  Server server(sched, sopt);
  ASSERT_TRUE(server.start());

  Client first(client_for(server));
  ASSERT_TRUE(first.connect());
  ASSERT_TRUE(first.ping(1));  // ensure the server registered it

  Client second(client_for(server));
  ASSERT_TRUE(second.connect());  // TCP accept succeeds, then refusal
  FrameHeader hdr;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(second.read_frame(&hdr, &payload));
  EXPECT_EQ(hdr.type, FrameType::Error);
  const auto err = decode_error(payload.data(), payload.size());
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::ServerFull);

  EXPECT_TRUE(first.ping(2));  // the admitted connection is unaffected
  server.stop();
  EXPECT_EQ(server.stats().conns_refused, 1u);
}

TEST(NetServer, IdleTimeoutClosesQuietConnections) {
  runtime::Scheduler sched(small_sched());
  ServerOptions sopt;
  sopt.idle_timeout_s = 0.2;
  Server server(sched, sopt);
  ASSERT_TRUE(server.start());

  Client client(client_for(server));
  ASSERT_TRUE(client.connect());
  ASSERT_TRUE(client.ping(1));
  // Go quiet; the server should close us within ~timeout + one poll tick.
  FrameHeader hdr;
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(client.read_frame(&hdr, &payload));  // EOF from idle close
  server.stop();
  EXPECT_EQ(server.stats().conns_idle_closed, 1u);
}

TEST(NetServer, GracefulStopDeliversInflightResult) {
  runtime::Scheduler sched(small_sched());
  Server server(sched);
  ASSERT_TRUE(server.start());
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());

  // A job big enough to still be running when stop() begins.
  JobRequest req;
  req.request_id = 12;
  req.kind = runtime::JobKind::FixedRank;
  req.matrix.generator = "gaussian";
  req.matrix.seed = 21;
  req.matrix.m = 512;
  req.matrix.n = 256;
  req.k = 24;
  req.p = 8;
  req.q = 3;
  const auto frame = encode_submit(req);
  ASSERT_TRUE(client.send_raw(frame.data(), frame.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  std::thread stopper([&] { server.stop(); });
  // The drain must still stream the finished result before closing.
  bool got_header = false, got_end = false;
  FrameHeader hdr;
  std::vector<std::uint8_t> payload;
  while (client.read_frame(&hdr, &payload)) {
    if (hdr.type == FrameType::ResultHeader) {
      const auto h = decode_result_header(payload.data(), payload.size());
      ASSERT_TRUE(h.has_value());
      EXPECT_EQ(h->request_id, 12u);
      EXPECT_EQ(h->status, runtime::JobStatus::Done) << h->error;
      got_header = true;
    } else if (hdr.type == FrameType::ResultEnd) {
      got_end = true;
    }
  }
  stopper.join();
  EXPECT_TRUE(got_header);
  EXPECT_TRUE(got_end);
  EXPECT_EQ(server.stats().jobs_completed, 1u);
  EXPECT_EQ(server.stats().results_dropped, 0u);
}

TEST(NetServer, RemoteShutdownDrainsAndExits) {
  runtime::Scheduler sched(small_sched());
  ServerOptions sopt;
  sopt.allow_remote_shutdown = true;
  Server server(sched, sopt);
  ASSERT_TRUE(server.start());
  EXPECT_TRUE(server.running());

  Client client(client_for(server));
  ASSERT_TRUE(client.connect());
  const CallResult res = client.call(lowrank_fixed_request(13, 3));
  ASSERT_EQ(res.status, CallStatus::Ok) << res.detail;
  ASSERT_TRUE(client.send_shutdown());
  server.wait();
  EXPECT_FALSE(server.running());
}

TEST(NetServer, ShutdownThenImmediateCloseStillHonored) {
  // Fire-and-forget shutdown: the frame and the FIN can land in the same
  // poll cycle, and the server must parse buffered frames before treating
  // the connection as gone (regression: the frame used to be discarded,
  // leaving a --linger server running forever).
  runtime::Scheduler sched(small_sched());
  ServerOptions sopt;
  sopt.allow_remote_shutdown = true;
  Server server(sched, sopt);
  ASSERT_TRUE(server.start());

  {
    Client client(client_for(server));
    ASSERT_TRUE(client.connect());
    const auto frame = encode_shutdown();
    ASSERT_TRUE(client.send_raw(frame.data(), frame.size()));
    client.close();  // FIN chases the frame immediately
  }

  // Bounded wait so a regression fails the test instead of hanging it.
  for (int i = 0; i < 200 && server.running(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_FALSE(server.running());
  server.stop();  // cleanup no-op when the drain already finished
}

TEST(NetServer, ShutdownRefusedWhenNotAllowed) {
  runtime::Scheduler sched(small_sched());
  Server server(sched);  // allow_remote_shutdown defaults to false
  ASSERT_TRUE(server.start());
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());
  ASSERT_TRUE(client.send_shutdown());
  FrameHeader hdr;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(client.read_frame(&hdr, &payload));
  EXPECT_EQ(hdr.type, FrameType::Error);
  EXPECT_TRUE(server.running());
  server.stop();
}

// ---------------------------------------------------------------------
// v2: stats scrape and trace propagation

TEST(NetServer, StatsFrameRoundTripLiveServer) {
  runtime::Scheduler sched(small_sched());
  Server server(sched);
  ASSERT_TRUE(server.start());
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());

  double sent = double(encode_stats_request().size());
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const JobRequest req = lowrank_fixed_request(id, id + 30);
    sent += double(encode_submit(req).size());
    const CallResult res = client.call(req);
    ASSERT_EQ(res.status, CallStatus::Ok) << res.detail;
  }

  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value()) << client.last_error();
  // The server's rows are its own counts, exact even though other tests
  // in this binary ran servers in the same process.
  EXPECT_EQ(stats->value("net_connections_total"), 1.0);
  EXPECT_EQ(stats->value("net_jobs_submitted_total"), 3.0);
  EXPECT_EQ(stats->value("net_jobs_completed_total"), 3.0);
  EXPECT_EQ(stats->value("net_busy_total"), 0.0);
  EXPECT_EQ(stats->value("net_decode_errors_total"), 0.0);
  EXPECT_EQ(stats->value("net_results_dropped_total"), 0.0);
  EXPECT_EQ(stats->value("net_frames_in_total{type=\"submit\"}"), 3.0);
  EXPECT_EQ(stats->value("net_frames_in_total{type=\"stats\"}"), 1.0);
  EXPECT_EQ(stats->value("net_frames_in_total{type=\"ping\"}"), 0.0);
  EXPECT_EQ(stats->value("net_bytes_in_total"), sent);
  EXPECT_GT(stats->value("net_bytes_out_total"), 0.0);
  // The scheduler's rows ride along, also per instance.
  EXPECT_EQ(stats->value("sched_num_workers"), 2.0);
  EXPECT_EQ(stats->value("sched_queue_capacity"), 16.0);
  EXPECT_EQ(stats->value("runtime_queue_depth"), 0.0);
  // A worker leaves in-flight before it fulfills the handle the server
  // streams from, so with every result in hand nothing counts here.
  EXPECT_EQ(stats->value("runtime_inflight"), 0.0);
  EXPECT_EQ(stats->value("fault_job_requeued_total"), 0.0);
  EXPECT_EQ(stats->value("fault_device_unhealthy"), 0.0);
  // Each event is exported once: no row name repeats.
  std::set<std::string> names;
  for (const auto& [name, v] : stats->metrics)
    EXPECT_TRUE(names.insert(name).second) << "duplicate row " << name;
  server.stop();
  // After the reply went out the in-process snapshot agrees with it.
  EXPECT_EQ(double(server.stats().bytes_in), sent);
  EXPECT_EQ(server.stats().frames_in, 4u);
}

// randla_loadgen's chaos setup: the server and its scheduler share one
// injector. A Stats reply carries its rows once, with only its own
// counts, though another injector in the process has fired.
TEST(NetServer, SharedInjectorRowsAppearOnceInStats) {
  fault::FaultConfig cfg;
  cfg.probability[static_cast<int>(fault::FaultKind::JobLatency)] = 1.0;
  cfg.latency_ms = 1;
  auto shared = std::make_shared<fault::FaultInjector>(cfg, 3);
  fault::FaultInjector other(cfg, 4);
  for (int i = 0; i < 5; ++i) other.fire(fault::FaultKind::JobLatency);
  runtime::SchedulerOptions so = small_sched();
  so.injector = shared;
  runtime::Scheduler sched(so);
  ServerOptions sopts;
  sopts.injector = shared;
  Server server(sched, sopts);
  ASSERT_TRUE(server.start());
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());
  ASSERT_EQ(client.call(lowrank_fixed_request(1, 41)).status, CallStatus::Ok);

  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value()) << client.last_error();
  int fault_rows = 0;
  std::set<std::string> names;
  for (const auto& [name, v] : stats->metrics) {
    EXPECT_TRUE(names.insert(name).second) << "duplicate row " << name;
    fault_rows += name == "fault_decisions_total" ||
                  name.rfind("fault_injected_total{", 0) == 0;
  }
  EXPECT_EQ(fault_rows, 1 + fault::kNumFaultKinds);
  EXPECT_EQ(stats->value("fault_injected_total{kind=\"job_latency\"}"), 1.0);
  server.stop();
  std::uint64_t decided = 0;
  for (int k = 0; k < fault::kNumFaultKinds; ++k)
    decided += shared->decisions(fault::FaultKind(k));
  EXPECT_GT(stats->value("fault_decisions_total"), 0.0);
  EXPECT_LE(stats->value("fault_decisions_total"), double(decided));
}

// A server with an injector of its own, beside its scheduler's, folds
// both into one row per fault series.
TEST(NetServer, ServerAndSchedulerInjectorsShareOneRowPerSeries) {
  fault::FaultConfig slow;
  slow.probability[static_cast<int>(fault::FaultKind::JobLatency)] = 1.0;
  slow.latency_ms = 1;
  runtime::SchedulerOptions so = small_sched();
  so.injector = std::make_shared<fault::FaultInjector>(slow, 5);
  runtime::Scheduler sched(so);
  ServerOptions sopts;
  sopts.injector = fault::make_injector("write_delay:1000000", 6);
  Server server(sched, sopts);
  ASSERT_TRUE(server.start());
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());
  ASSERT_EQ(client.call(lowrank_fixed_request(1, 43)).status, CallStatus::Ok);
  server.stop();  // no more decisions while the counts are compared

  const obs::MetricRows rows = server.stats_rows();
  std::set<std::string> names;
  double decisions = -1, job_latency = -1;
  for (const auto& [name, v] : rows) {
    EXPECT_TRUE(names.insert(name).second) << "duplicate row " << name;
    if (name == "fault_decisions_total") decisions = v;
    if (name == "fault_injected_total{kind=\"job_latency\"}") job_latency = v;
  }
  EXPECT_EQ(job_latency, 1.0);
  const double server_decided = sopts.injector->stats_rows().front().second;
  const double sched_decided = so.injector->stats_rows().front().second;
  EXPECT_GT(server_decided, 0.0);
  EXPECT_GT(sched_decided, 0.0);
  EXPECT_EQ(decisions, server_decided + sched_decided);
}

TEST(NetServer, TraceIdPropagatesThroughAllLayers) {
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();

  runtime::Scheduler sched(small_sched());
  Server server(sched);
  ASSERT_TRUE(server.start());
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());

  JobRequest req = lowrank_fixed_request(77, 5);
  req.trace_id = 0x5eed5eed5eed5eedull;
  const CallResult res = client.call(req);
  ASSERT_EQ(res.status, CallStatus::Ok) << res.detail;
  EXPECT_EQ(res.trace_id, req.trace_id);
  server.stop();  // joins the event loop; all spans are recorded

  bool saw_client = false, saw_submit = false, saw_wait = false,
       saw_exec = false, saw_rsvd = false, saw_result = false;
  for (const auto& ev : tracer.events()) {
    if (ev.trace_id != req.trace_id) continue;
    const std::string name = ev.name;
    if (name == "client.call") saw_client = true;
    if (name == "net.submit") saw_submit = true;
    if (name == "queue.wait") saw_wait = true;
    if (name == "worker.exec") saw_exec = true;
    if (name.rfind("rsvd.", 0) == 0) saw_rsvd = true;
    if (name == "net.result") saw_result = true;
  }
  EXPECT_TRUE(saw_client);
  EXPECT_TRUE(saw_submit);
  EXPECT_TRUE(saw_wait);
  EXPECT_TRUE(saw_exec);
  EXPECT_TRUE(saw_rsvd);
  EXPECT_TRUE(saw_result);

  tracer.disable();
  tracer.clear();
}

TEST(NetServer, MintedTraceIdWhenCallerLeavesZero) {
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();

  runtime::Scheduler sched(small_sched());
  Server server(sched);
  ASSERT_TRUE(server.start());
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());

  const JobRequest req = lowrank_fixed_request(78, 6);  // trace_id == 0
  const CallResult res = client.call(req);
  ASSERT_EQ(res.status, CallStatus::Ok) << res.detail;
  EXPECT_NE(res.trace_id, 0u);
  server.stop();

  bool saw_exec = false;
  for (const auto& ev : tracer.events())
    if (ev.trace_id == res.trace_id && std::string(ev.name) == "worker.exec")
      saw_exec = true;
  EXPECT_TRUE(saw_exec);

  tracer.disable();
  tracer.clear();
}

TEST(NetServer, StatsFrameWithPayloadIsProtocolError) {
  runtime::Scheduler sched(small_sched());
  Server server(sched);
  ASSERT_TRUE(server.start());
  Client client(client_for(server));
  ASSERT_TRUE(client.connect());

  const std::vector<std::uint8_t> bogus = {0xFF};
  const auto frame = encode_frame(FrameType::Stats, bogus);
  ASSERT_TRUE(client.send_raw(frame.data(), frame.size()));
  FrameHeader hdr;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(client.read_frame(&hdr, &payload));
  EXPECT_EQ(hdr.type, FrameType::Error);
  const auto err = decode_error(payload.data(), payload.size());
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::BadFrame);
  // The poisoned connection closes after the error flushes.
  EXPECT_FALSE(client.read_frame(&hdr, &payload));
  server.stop();
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

namespace {

/// User + system CPU seconds of the whole process so far.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

}  // namespace

// A finished job wakes the event loop through the self-pipe; only idle
// and drain timeouts wait for the 100 ms tick. Batched completions land
// in bursts, which is where a coalescing flag cleared at the wrong time
// swallows a wake and leaves every later reply waiting for the tick.
TEST(NetServer, CompletionWakeNeverWaitsForTheTick) {
  runtime::SchedulerOptions so = small_sched();
  so.batch_max = 4;
  runtime::Scheduler sched(so);
  Server server(sched);
  ASSERT_TRUE(server.start());

  constexpr int kClients = 4, kJobs = 100;
  std::vector<std::vector<double>> latency_ms(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Client client(client_for(server));
      if (!client.connect()) {
        failures.fetch_add(1);
        return;
      }
      for (int j = 0; j < kJobs; ++j) {
        JobRequest req;
        req.request_id = std::uint64_t(t * kJobs + j + 1);
        req.kind = runtime::JobKind::FixedRank;
        req.matrix.generator = "lowrank";
        req.matrix.seed = req.request_id;  // distinct: every job misses
        req.matrix.m = 32;
        req.matrix.n = 16;
        req.matrix.rank = 4;
        req.k = 4;
        req.p = 2;
        req.q = 0;
        const auto t0 = std::chrono::steady_clock::now();
        const CallResult res = client.call(req);
        latency_ms[t].push_back(std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count());
        if (res.status != CallStatus::Ok ||
            res.header.status != runtime::JobStatus::Done)
          failures.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  ASSERT_EQ(failures.load(), 0);

  std::vector<double> all;
  for (const auto& v : latency_ms) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), std::size_t(kClients * kJobs));
  std::sort(all.begin(), all.end());
  const double p95 = all[all.size() * 95 / 100];
  EXPECT_LT(p95, 50.0) << "p95 call latency " << p95
                       << " ms: completions are waiting for the tick";

  // Idle: no traffic, no jobs. A wake byte left undrained would make
  // poll() return at once forever and spin the loop on a core.
  const double cpu0 = process_cpu_s();
  const auto w0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - w0)
                          .count();
  const double share = (process_cpu_s() - cpu0) / wall;
  EXPECT_LT(share, 0.05) << "idle process used " << share
                         << " of a core";
  server.stop();
  EXPECT_EQ(server.stats().jobs_completed,
            std::uint64_t(kClients * kJobs));
}

// A job can finish after the server stopped. Its completion callback
// must then find the wake fd retired rather than write into whatever
// descriptor now carries that number.
TEST(NetServer, LateCompletionNeverWritesARetiredWakeFd) {
  fault::FaultConfig cfg;
  cfg.probability[static_cast<int>(fault::FaultKind::JobLatency)] = 1.0;
  cfg.latency_ms = 400;  // the job outlives the 0.05 s drain budget
  runtime::SchedulerOptions so = small_sched();
  so.injector = std::make_shared<fault::FaultInjector>(cfg, 1);
  runtime::Scheduler sched(so);
  {
    ServerOptions sopt;
    sopt.drain_timeout_s = 0.05;
    Server server(sched, sopt);
    ASSERT_TRUE(server.start());
    Client client(client_for(server));
    ASSERT_TRUE(client.connect());
    const auto frame = encode_submit(lowrank_fixed_request(5, 3));
    ASSERT_TRUE(client.send_raw(frame.data(), frame.size()));
    while (server.stats().jobs_submitted == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // One stop, from the destructor: a second stop() would leave the
    // wake's coalescing flag set, and the late callback would then skip
    // its write whether or not the fd was retired.
  }
  ASSERT_EQ(sched.inflight(), 1) << "the job finished before the stop";
  // Fresh descriptors take the lowest free numbers, which include the
  // ones the server's wake pipe just released. Socketpairs, not pipes:
  // a stray write to either end is readable at the other, while a pipe's
  // read end would swallow it with EBADF.
  int pairs[4][2];
  for (auto& sp : pairs) {
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    set_nonblocking(sp[0]);
    set_nonblocking(sp[1]);
  }
  sched.drain();  // the job completes and its callback runs now
  for (auto& sp : pairs) {
    for (int end = 0; end < 2; ++end) {
      char b;
      EXPECT_EQ(read(sp[end], &b, 1), -1)
          << "a late wake wrote to fd " << sp[1 - end];
      EXPECT_EQ(errno, EAGAIN);
    }
    close(sp[0]);
    close(sp[1]);
  }
}

// ---------------------------------------------------------------------
// The shared connection layer, driven over a socketpair.

namespace {

/// A FramedConn on one end of a non-blocking socketpair; the test plays
/// the remote side through `peer`.
struct ConnPair {
  FramedConn conn;
  int peer = -1;

  ConnPair() {
    int sp[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    set_nonblocking(sp[0]);
    set_nonblocking(sp[1]);
    conn.fd = sp[0];
    peer = sp[1];
  }
  ~ConnPair() {
    close(conn.fd);
    close(peer);
  }

  void send(const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(write(peer, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
};

/// A Ping header announcing `payload_len` bytes (LE u32 at byte 8).
std::vector<std::uint8_t> ping_header(std::uint32_t payload_len) {
  std::vector<std::uint8_t> h = encode_ping(1);
  h.resize(kHeaderBytes);
  for (int i = 0; i < 4; ++i)
    h[8 + i] = static_cast<std::uint8_t>(payload_len >> (8 * i));
  return h;
}

}  // namespace

TEST(NetConn, OneFrameFedAByteAtATimeGivesOneFrame) {
  ConnPair p;
  const auto frame = encode_ping(42);
  int frames = 0;
  for (std::uint8_t b : frame) {
    p.send({b});
    const IoResult r = p.conn.read(kMaxFrameBytes);
    EXPECT_EQ(r.bytes, 1u);
    EXPECT_FALSE(r.peer_gone);
    Frame f;
    while (p.conn.next_frame(kMaxFrameBytes, &f) == HeaderStatus::Ok) {
      ++frames;
      EXPECT_EQ(f.hdr.type, FrameType::Ping);
      EXPECT_EQ(f.size, frame.size());
      EXPECT_EQ(decode_ping(f.payload(), f.hdr.payload_len), 42u);
    }
  }
  EXPECT_EQ(frames, 1);
  EXPECT_TRUE(p.conn.rbuf.empty());
}

TEST(NetConn, TwoFramesInOneReadGiveTwo) {
  ConnPair p;
  auto bytes = encode_ping(1);
  const auto second = encode_ping(2);
  bytes.insert(bytes.end(), second.begin(), second.end());
  p.send(bytes);
  EXPECT_EQ(p.conn.read(kMaxFrameBytes).bytes, bytes.size());
  std::vector<std::uint64_t> nonces;
  Frame f;
  while (p.conn.next_frame(kMaxFrameBytes, &f) == HeaderStatus::Ok)
    nonces.push_back(*decode_ping(f.payload(), f.hdr.payload_len));
  EXPECT_EQ(nonces, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_TRUE(p.conn.rbuf.empty());
}

TEST(NetConn, OversizedHeaderReportsTooLarge) {
  ConnPair p;
  p.send(ping_header(1000));
  ASSERT_EQ(p.conn.read(64).bytes, kHeaderBytes);
  Frame f;
  const HeaderStatus hs = p.conn.next_frame(64, &f);
  EXPECT_EQ(hs, HeaderStatus::TooLarge);
  // The stream is desynced: the rest is discarded and no frame follows.
  EXPECT_TRUE(p.conn.close_after_flush);
  EXPECT_TRUE(p.conn.rbuf.empty());
  EXPECT_EQ(p.conn.next_frame(64, &f), HeaderStatus::NeedMore);
  const auto reply = malformed_frame_error(hs);
  const auto err = decode_error(reply.data() + kHeaderBytes,
                                reply.size() - kHeaderBytes);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::TooLarge);
}

TEST(NetConn, ReadStopsOnceAMaxFrameIsBuffered) {
  // max_frame_bytes + kHeaderBytes = 28: reading goes on while at most
  // that much is buffered, and stops once more is.
  constexpr std::size_t kMax = 16;
  ConnPair p;
  const std::vector<std::uint8_t> chunk(20, 0xAB);
  p.send(chunk);
  EXPECT_EQ(p.conn.read(kMax).bytes, 20u);
  p.send(chunk);
  EXPECT_EQ(p.conn.read(kMax).bytes, 20u);  // 20 ≤ 28 before this read
  p.send(chunk);
  const IoResult r = p.conn.read(kMax);  // 40 > 28: backpressure
  EXPECT_EQ(r.bytes, 0u);
  EXPECT_FALSE(r.peer_gone);
  EXPECT_EQ(p.conn.rbuf.size(), 40u);
}

TEST(NetConn, BuffersGiveUpCapacityOnceDrained) {
  constexpr std::size_t kBig = 4 * kBufShrinkBytes;
  ConnPair p;

  // Write side: one big reply, flushed while the peer reads it.
  p.conn.queue(std::vector<std::uint8_t>(kBig, 0x5A));
  EXPECT_GE(p.conn.wbuf.capacity(), kBig);
  std::vector<std::uint8_t> sink(65536);
  while (p.conn.has_output()) {
    ASSERT_FALSE(p.conn.flush().peer_gone);
    const ssize_t drained = read(p.peer, sink.data(), sink.size());
    (void)drained;
  }
  EXPECT_LE(p.conn.wbuf.capacity(), kBufShrinkBytes);

  // Read side: one big frame, parsed out, then nothing left buffered.
  std::vector<std::uint8_t> frame = ping_header(kBig);
  frame.resize(kHeaderBytes + kBig);
  std::size_t sent = 0;
  int frames = 0;
  Frame f;
  while (frames == 0) {
    if (sent < frame.size()) {
      const ssize_t n = write(p.peer, frame.data() + sent, frame.size() - sent);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    ASSERT_FALSE(p.conn.read(kMaxFrameBytes).peer_gone);
    while (p.conn.next_frame(kMaxFrameBytes, &f) == HeaderStatus::Ok) ++frames;
  }
  EXPECT_EQ(frames, 1);
  EXPECT_EQ(f.hdr.payload_len, kBig);
  EXPECT_TRUE(p.conn.rbuf.empty());
  EXPECT_LE(p.conn.rbuf.capacity(), kBufShrinkBytes);
}
