// test_fault.cpp — fault-injection plane (DESIGN.md §10): schedule DSL
// parsing, per-kind decision determinism, circuit-breaker transitions,
// full-jitter backoff bounds, and the scheduler's recovery machinery
// (device failover requeue, device death mid-job, injected stalls,
// watchdog cancellation of injected hangs).
#include "test_util.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/breaker.hpp"
#include "fault/injector.hpp"
#include "obs/recorder.hpp"
#include "runtime/scheduler.hpp"
#include "rsvd/rsvd.hpp"

namespace {

using namespace randla;
using namespace randla::fault;

TEST(ScheduleDsl, ParsesProbabilitiesAndSteps) {
  std::string err;
  auto cfg = parse_schedule("device_fail@0.05,conn_reset@0.02", &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_DOUBLE_EQ(cfg->probability[int(FaultKind::DeviceFail)], 0.05);
  EXPECT_DOUBLE_EQ(cfg->probability[int(FaultKind::ConnReset)], 0.02);
  EXPECT_DOUBLE_EQ(cfg->probability[int(FaultKind::WorkerHang)], 0.0);
  EXPECT_FALSE(cfg->empty());

  // Step lists: 1-based decision indices, stored sorted.
  cfg = parse_schedule("device_stall:10:3", &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  const auto& steps = cfg->steps[int(FaultKind::DeviceStall)];
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0], 3u);
  EXPECT_EQ(steps[1], 10u);

  // Empty schedule is a valid no-op config, but no injector comes of it.
  cfg = parse_schedule("", &err);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_TRUE(cfg->empty());
  EXPECT_EQ(make_injector("", 1), nullptr);
  EXPECT_EQ(make_injector("device_fail@0", 1), nullptr);
}

TEST(ScheduleDsl, RejectsMalformedEntries) {
  const char* bad[] = {
      "gpu_melt@0.5",        // unknown kind
      "device_fail",         // no '@' or ':'
      "device_fail@1.5",     // probability out of [0,1]
      "device_fail@-0.1",    // negative probability
      "device_fail@oops",    // non-numeric probability
      "device_fail@0.5:3",   // mixes '@' and ':'
      "device_fail:0",       // steps are 1-based
      "device_fail:2:x",     // non-numeric step
  };
  for (const char* dsl : bad) {
    std::string err;
    EXPECT_FALSE(parse_schedule(dsl, &err).has_value()) << dsl;
    EXPECT_FALSE(err.empty()) << dsl;
    EXPECT_EQ(make_injector(dsl, 1), nullptr) << dsl;
  }
}

// The n-th decision per kind is a pure function of (seed, kind, n): two
// injectors with the same seed and schedule replay the identical fire
// sequence, and a reseeded one diverges.
TEST(Injector, DeterministicPerSeedAndKind) {
  const auto cfg = *parse_schedule("conn_reset@0.5,device_stall@0.5");
  FaultInjector a(cfg, 42), b(cfg, 42), c(cfg, 43);
  constexpr int kDraws = 256;
  bool diverged = false;
  for (int i = 0; i < kDraws; ++i) {
    for (FaultKind k : {FaultKind::ConnReset, FaultKind::DeviceStall}) {
      const bool fa = a.fire(k);
      EXPECT_EQ(fa, b.fire(k));
      if (fa != c.fire(k)) diverged = true;
    }
  }
  EXPECT_TRUE(diverged);  // P(no divergence in 512 fair draws) ≈ 2^-512
  EXPECT_EQ(a.decisions(FaultKind::ConnReset), kDraws);
  EXPECT_EQ(a.injected(FaultKind::ConnReset), b.injected(FaultKind::ConnReset));
  EXPECT_EQ(a.injected_total(),
            a.injected(FaultKind::ConnReset) + a.injected(FaultKind::DeviceStall));
}

TEST(Injector, StepScheduleFiresAtExactIndices) {
  FaultInjector inj(*parse_schedule("worker_hang:2:5"), 7);
  std::vector<int> fired;
  for (int i = 1; i <= 8; ++i)
    if (inj.fire(FaultKind::WorkerHang)) fired.push_back(i);
  EXPECT_EQ(fired, (std::vector<int>{2, 5}));
  EXPECT_EQ(inj.injected(FaultKind::WorkerHang), 2u);
}

// Disabled decisions still consume indices, so an injector that sat out
// the first N decisions agrees with an always-on twin from N+1 onward.
TEST(Injector, DisabledDecisionsKeepSequenceAligned) {
  const auto cfg = *parse_schedule("conn_reset@0.5");
  FaultInjector on(cfg, 99), gated(cfg, 99);
  gated.set_enabled(false);
  for (int i = 0; i < 10; ++i) {
    on.fire(FaultKind::ConnReset);
    EXPECT_FALSE(gated.fire(FaultKind::ConnReset));  // quiesced
  }
  EXPECT_EQ(gated.injected_total(), 0u);
  gated.set_enabled(true);
  for (int i = 0; i < 30; ++i)
    EXPECT_EQ(on.fire(FaultKind::ConnReset), gated.fire(FaultKind::ConnReset));
}

// Each injector exports its own counts, every row from the start, so
// two injectors in one process never see each other's decisions.
TEST(Injector, StatsRowsCountOnlyThisInjector) {
  FaultInjector a(*parse_schedule("conn_reset:1:2"), 1);
  FaultInjector b(*parse_schedule("conn_reset@1"), 2);
  for (int i = 0; i < 3; ++i) a.fire(FaultKind::ConnReset);
  a.fire(FaultKind::WriteDelay);
  auto value = [](const randla::obs::MetricRows& rows, const std::string& n) {
    for (const auto& [name, v] : rows)
      if (name == n) return v;
    ADD_FAILURE() << "missing " << n;
    return -1.0;
  };
  const auto ra = a.stats_rows(), rb = b.stats_rows();
  ASSERT_EQ(ra.size(), std::size_t(1 + kNumFaultKinds));
  ASSERT_EQ(rb.size(), ra.size());
  EXPECT_EQ(value(ra, "fault_decisions_total"), 4.0);
  EXPECT_EQ(value(ra, "fault_injected_total{kind=\"conn_reset\"}"), 2.0);
  EXPECT_EQ(value(ra, "fault_injected_total{kind=\"write_delay\"}"), 0.0);
  for (int k = 0; k < kNumFaultKinds; ++k) {
    const std::string name = std::string("fault_injected_total{kind=\"") +
                             fault_kind_name(FaultKind(k)) + "\"}";
    EXPECT_EQ(value(rb, name), 0.0);
  }
  EXPECT_EQ(value(rb, "fault_decisions_total"), 0.0);
}

// Closed → Open → HalfOpen with externally-supplied time; one probe per
// half-open window; a probe success closes, a probe failure reopens.
TEST(Breaker, TransitionsWithSuppliedTime) {
  BreakerOptions bo;
  bo.failure_threshold = 3;
  bo.open_cooldown_s = 1.0;
  CircuitBreaker br(bo);

  EXPECT_EQ(br.state(0.0), BreakerState::Closed);
  EXPECT_TRUE(br.allow(0.0));
  br.record_failure(0.0);
  br.record_failure(0.1);
  EXPECT_EQ(br.state(0.1), BreakerState::Closed);  // under threshold
  EXPECT_EQ(br.consecutive_failures(), 2);
  br.record_failure(0.2);
  EXPECT_EQ(br.state(0.2), BreakerState::Open);

  EXPECT_FALSE(br.allow(0.5));  // cooldown not elapsed
  EXPECT_NEAR(br.retry_in(0.5), 0.7, 1e-12);

  EXPECT_TRUE(br.allow(1.3));   // cooldown over: admit exactly one probe
  EXPECT_EQ(br.state(1.3), BreakerState::HalfOpen);
  EXPECT_FALSE(br.allow(1.3));  // second caller waits for the probe
  br.record_failure(1.3);       // probe failed: back to Open
  EXPECT_EQ(br.state(1.4), BreakerState::Open);

  EXPECT_TRUE(br.allow(2.5));
  br.record_success();          // probe succeeded: fully Closed
  EXPECT_EQ(br.state(2.5), BreakerState::Closed);
  EXPECT_EQ(br.consecutive_failures(), 0);
  EXPECT_DOUBLE_EQ(br.retry_in(2.5), 0.0);

  // A success resets the consecutive-failure count in Closed too.
  br.record_failure(3.0);
  br.record_failure(3.1);
  br.record_success();
  br.record_failure(3.2);
  EXPECT_EQ(br.state(3.2), BreakerState::Closed);
}

// Regression: HalfOpen admission is a check-and-claim under one lock, so
// N threads racing allow() at the same instant get exactly ONE probe —
// the unsynchronized check-then-set admitted every concurrent caller,
// defeating the single-probe contract and hammering a recovering shard.
TEST(Breaker, HalfOpenAdmitsExactlyOneConcurrentProbe) {
  BreakerOptions bo;
  bo.failure_threshold = 1;
  bo.open_cooldown_s = 0.5;
  CircuitBreaker br(bo);
  br.record_failure(0.0);
  ASSERT_EQ(br.state(0.0), BreakerState::Open);

  constexpr int kThreads = 16;
  for (int round = 0; round < 20; ++round) {
    const double t = 1.0 + double(round);  // past cooldown each round
    std::atomic<int> admitted{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&, t] {
        while (!go.load()) {
        }
        if (br.allow(t)) admitted.fetch_add(1);
      });
    go.store(true);
    for (auto& th : threads) th.join();
    EXPECT_EQ(admitted.load(), 1) << "round " << round;
    EXPECT_EQ(br.state(t), BreakerState::HalfOpen);
    br.record_failure(t);  // probe fails: back to Open for the next round
  }
}

TEST(Backoff, FullJitterBoundedAndDeterministic) {
  BackoffOptions bo;
  bo.base_s = 0.02;
  bo.max_s = 1.0;
  bo.multiplier = 2.0;
  for (std::uint64_t seed : {1ull, 7ull, 123456789ull}) {
    double cap = bo.base_s;
    for (int attempt = 0; attempt < 12; ++attempt) {
      const double d = backoff_delay_s(bo, attempt, seed);
      EXPECT_GE(d, 0.0);
      EXPECT_LT(d, std::min(bo.max_s, cap) + 1e-15)
          << "attempt " << attempt << " seed " << seed;
      EXPECT_DOUBLE_EQ(d, backoff_delay_s(bo, attempt, seed));  // replayable
      cap *= bo.multiplier;
    }
  }
  // Different seeds decorrelate (the whole point of full jitter).
  bool differs = false;
  for (int attempt = 0; attempt < 12 && !differs; ++attempt)
    differs = backoff_delay_s(bo, attempt, 1) != backoff_delay_s(bo, attempt, 2);
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------
// Scheduler recovery: failover requeue and the watchdog.

runtime::Job small_job(const runtime::MatrixHandle& input, std::uint64_t seed) {
  rsvd::FixedRankOptions opts;
  opts.k = 8;
  opts.p = 4;
  opts.q = 1;
  opts.seed = seed;
  runtime::Job job;
  job.payload = runtime::FixedRankJob{input, opts};
  return job;
}

// An injected device death at pickup hands the in-flight job back to the
// queue; every job still completes on the survivor and the fault stats
// record exactly one device failure.
TEST(SchedulerFault, FailoverRequeuesToSurvivor) {
  runtime::SchedulerOptions so;
  so.num_workers = 2;
  so.injector = std::make_shared<FaultInjector>(
      *parse_schedule("device_fail:1"), 5);
  runtime::Scheduler sched(so);

  const auto input = runtime::make_input(
      randla::testing::random_matrix<double>(96, 64, 3));
  std::vector<std::shared_ptr<runtime::JobHandle>> handles;
  for (int i = 0; i < 8; ++i) {
    auto sub = sched.submit(small_job(input, 100 + std::uint64_t(i)));
    ASSERT_EQ(sub.status, runtime::PushStatus::Ok);
    handles.push_back(std::move(sub.handle));
  }
  for (const auto& h : handles)
    EXPECT_EQ(h->wait().status, runtime::JobStatus::Done) << h->wait().error;

  const auto fs = sched.fault_stats();
  EXPECT_EQ(fs.device_failures, 1u);
  EXPECT_EQ(fs.healthy_workers, 1);
  EXPECT_GE(fs.jobs_requeued, 1u);  // the job popped at death was handed off

  const auto health = sched.device_health();
  ASSERT_EQ(health.size(), 2u);
  int unhealthy = 0;
  for (const auto& d : health) unhealthy += d.healthy ? 0 : 1;
  EXPECT_EQ(unhealthy, 1);
}

// With every device dead the scheduler refuses new work instead of
// queueing jobs nothing will ever pop.
TEST(SchedulerFault, AllDevicesDeadClosesIntake) {
  runtime::SchedulerOptions so;
  so.num_workers = 2;
  runtime::Scheduler sched(so);
  sched.fail_device(0);
  sched.fail_device(1);
  EXPECT_EQ(sched.healthy_workers(), 0);

  const auto input = runtime::make_input(
      randla::testing::random_matrix<double>(64, 48, 4));
  auto sub = sched.submit(small_job(input, 9));
  EXPECT_EQ(sub.status, runtime::PushStatus::Closed);
  const auto& out = sub.handle->wait();
  EXPECT_EQ(out.status, runtime::JobStatus::Rejected);
  EXPECT_NE(out.error.find("no healthy devices"), std::string::npos)
      << out.error;
}

// worker_hang@1 wedges every execution; the watchdog must cancel it
// within its budget and surface a retryable watchdog error.
TEST(SchedulerFault, WatchdogCancelsInjectedHang) {
  runtime::SchedulerOptions so;
  so.num_workers = 1;
  so.injector =
      std::make_shared<FaultInjector>(*parse_schedule("worker_hang@1"), 6);
  so.watchdog_multiple = 2.0;  // budget = 2 × 0.25s grace ≪ 2s hang cap
  runtime::Scheduler sched(so);

  const auto input = runtime::make_input(
      randla::testing::random_matrix<double>(64, 48, 8));
  auto sub = sched.submit(small_job(input, 11));
  ASSERT_EQ(sub.status, runtime::PushStatus::Ok);
  const auto& out = sub.handle->wait();
  EXPECT_EQ(out.status, runtime::JobStatus::Failed);
  EXPECT_EQ(out.error.rfind("watchdog:", 0), 0u) << out.error;

  const auto fs = sched.fault_stats();
  EXPECT_GE(fs.watchdog_fired, 1u);
  EXPECT_EQ(fs.healthy_workers, 1);  // a hang is not a device death
}

// A hang that lands on a coalesced dispatch: the watchdog fires once for
// the whole dispatch, every member fails once with the watchdog error,
// and every handle is fulfilled so drain() returns.
TEST(SchedulerFault, WatchdogCancelsHangOnCoalescedDispatch) {
  // Dispatch 1 (the blocker) pays the latency while the backlog queues;
  // dispatch 2 (the coalesced backlog) hangs.
  auto cfg = *parse_schedule("job_latency:1,worker_hang:2");
  cfg.latency_ms = 200;
  runtime::SchedulerOptions so;
  so.num_workers = 1;
  so.batch_max = 4;
  so.injector = std::make_shared<FaultInjector>(cfg, 14);
  so.watchdog_multiple = 2.0;  // budget = 2 × 0.25s grace ≪ 2s hang cap
  runtime::Scheduler sched(so);

  const auto input = runtime::make_input(
      randla::testing::random_matrix<double>(64, 48, 14));
  auto blocker = small_job(input, 400);
  blocker.tag = "hangbatch/blocker";
  auto b = sched.submit(std::move(blocker));
  ASSERT_EQ(b.status, runtime::PushStatus::Ok);
  bool dispatched = false;
  for (int i = 0; i < 5000 && !dispatched; ++i) {
    for (const auto& e : obs::Recorder::global().snapshot())
      if (e.kind == obs::EventKind::JobDispatched &&
          std::string("hangbatch/blocker") == e.tag)
        dispatched = true;
    if (!dispatched) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(dispatched);

  constexpr int kMembers = 3;
  std::vector<std::shared_ptr<runtime::JobHandle>> handles;
  for (int i = 0; i < kMembers; ++i) {
    auto job = small_job(input, 410 + std::uint64_t(i));
    job.tag = "hangbatch/" + std::to_string(i);
    auto sub = sched.submit(std::move(job));
    ASSERT_EQ(sub.status, runtime::PushStatus::Ok);
    handles.push_back(std::move(sub.handle));
  }
  sched.drain();  // returns only once every handle is fulfilled

  EXPECT_EQ(b.handle->wait().status, runtime::JobStatus::Done)
      << b.handle->wait().error;
  for (const auto& h : handles) {
    ASSERT_TRUE(h->done());
    const auto& out = h->wait();
    EXPECT_EQ(out.status, runtime::JobStatus::Failed);
    EXPECT_EQ(out.error.rfind("watchdog:", 0), 0u) << out.error;
    EXPECT_EQ(out.trace.batch_size, kMembers);
  }
  for (int i = 0; i < kMembers; ++i) {
    int traces = 0;
    for (const auto& t : sched.telemetry().traces())
      if (t.tag == "hangbatch/" + std::to_string(i)) ++traces;
    EXPECT_EQ(traces, 1) << "member " << i;
  }
  const auto fs = sched.fault_stats();
  EXPECT_EQ(fs.watchdog_fired, 1u);
  EXPECT_EQ(fs.healthy_workers, 1);
  EXPECT_EQ(so.injector->injected(FaultKind::WorkerHang), 1u);
}

// device_stall@1 stalls every dispatch just before it runs: each job
// pays the stall and still completes, and a stall is not a death.
TEST(SchedulerFault, DeviceStallDelaysEveryDispatch) {
  auto cfg = *parse_schedule("device_stall@1");
  cfg.stall_ms = 2;
  runtime::SchedulerOptions so;
  so.num_workers = 2;
  so.injector = std::make_shared<FaultInjector>(cfg, 12);
  runtime::Scheduler sched(so);

  const auto input = runtime::make_input(
      randla::testing::random_matrix<double>(64, 48, 12));
  constexpr int kJobs = 6;
  std::vector<std::shared_ptr<runtime::JobHandle>> handles;
  for (int i = 0; i < kJobs; ++i) {
    auto sub = sched.submit(small_job(input, 200 + std::uint64_t(i)));
    ASSERT_EQ(sub.status, runtime::PushStatus::Ok);
    handles.push_back(std::move(sub.handle));
  }
  for (const auto& h : handles)
    EXPECT_EQ(h->wait().status, runtime::JobStatus::Done) << h->wait().error;
  sched.drain();

  std::uint64_t jobs_run = 0;
  for (const auto& ws : sched.worker_stats()) jobs_run += ws.jobs;
  EXPECT_EQ(jobs_run, std::uint64_t(kJobs));
  EXPECT_EQ(so.injector->injected(FaultKind::DeviceStall), jobs_run);
  const auto fs = sched.fault_stats();
  EXPECT_EQ(fs.healthy_workers, 2);
  EXPECT_EQ(fs.device_failures, 0u);
}

// fail_device() while a job executes: that job finishes and is delivered
// exactly once, never requeued; its worker retires at the next pickup,
// so every later job runs on the survivor.
TEST(SchedulerFault, FailDeviceMidJobDeliversOnceThenRetires) {
  auto cfg = *parse_schedule("job_latency:1");
  cfg.latency_ms = 300;  // holds the first job inside execute()
  runtime::SchedulerOptions so;
  so.num_workers = 2;
  so.injector = std::make_shared<FaultInjector>(cfg, 13);
  runtime::Scheduler sched(so);

  const auto input = runtime::make_input(
      randla::testing::random_matrix<double>(64, 48, 13));
  const std::string held_tag = "midjob/held";
  auto held = small_job(input, 300);
  held.tag = held_tag;
  auto sub = sched.submit(std::move(held));
  ASSERT_EQ(sub.status, runtime::PushStatus::Ok);

  // The JobDispatched event names the worker executing the held job.
  const auto tagged = [](obs::EventKind kind, const std::string& tag) {
    std::vector<obs::Event> out;
    for (const auto& e : obs::Recorder::global().snapshot())
      if (e.kind == kind && tag == e.tag) out.push_back(e);
    return out;
  };
  int victim = -1;
  for (int i = 0; i < 2000 && victim < 0; ++i) {
    const auto ev = tagged(obs::EventKind::JobDispatched, held_tag);
    if (!ev.empty()) {
      victim = static_cast<int>(ev.front().a);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_GE(victim, 0);
  ASSERT_FALSE(sub.handle->done());  // still inside the injected latency
  sched.fail_device(victim);

  const auto& out = sub.handle->wait();
  EXPECT_EQ(out.status, runtime::JobStatus::Done) << out.error;
  EXPECT_EQ(out.trace.worker, victim);

  const int survivor = 1 - victim;
  std::vector<std::shared_ptr<runtime::JobHandle>> later;
  for (int i = 0; i < 4; ++i) {
    auto next = sched.submit(small_job(input, 310 + std::uint64_t(i)));
    ASSERT_EQ(next.status, runtime::PushStatus::Ok);
    later.push_back(std::move(next.handle));
  }
  for (const auto& h : later) {
    EXPECT_EQ(h->wait().status, runtime::JobStatus::Done) << h->wait().error;
    EXPECT_EQ(h->wait().trace.worker, survivor);
  }
  sched.drain();

  int held_traces = 0;
  for (const auto& t : sched.telemetry().traces())
    if (t.tag == held_tag) ++held_traces;
  EXPECT_EQ(held_traces, 1);
  EXPECT_TRUE(tagged(obs::EventKind::JobRequeued, held_tag).empty());

  const auto fs = sched.fault_stats();
  EXPECT_EQ(fs.device_failures, 1u);
  EXPECT_EQ(fs.healthy_workers, 1);
}

}  // namespace
