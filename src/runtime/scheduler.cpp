#include "runtime/scheduler.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace randla::runtime {

namespace {

/// Next stabler power-iteration orthogonalization after a breakdown.
ortho::Scheme escalate(ortho::Scheme s) {
  switch (s) {
    case ortho::Scheme::CholQR: return ortho::Scheme::CholQR2;
    case ortho::Scheme::CholQR2: return ortho::Scheme::HHQR;
    default: return s;  // already unconditionally stable
  }
}

bool escalatable(ortho::Scheme s) {
  return s == ortho::Scheme::CholQR || s == ortho::Scheme::CholQR2;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Scheduler::Scheduler(SchedulerOptions opts)
    : opts_(std::move(opts)),
      queue_(opts_.queue_capacity),
      sketches_(opts_.enable_cache ? opts_.sketch_cache_capacity : 0),
      results_(opts_.enable_cache ? opts_.result_cache_capacity : 0),
      rqrcps_(opts_.enable_cache ? opts_.rqrcp_cache_capacity : 0),
      start_(std::chrono::steady_clock::now()) {
  const int n = std::max(1, opts_.num_workers);
  healthy_.store(n);
  slots_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) slots_.push_back(std::make_unique<ExecSlot>());
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
  if (opts_.watchdog_multiple > 0)
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

Scheduler::~Scheduler() {
  queue_.close();
  for (auto& w : workers_) w.join();
  watchdog_stop_.store(true);
  if (watchdog_.joinable()) watchdog_.join();
}

double Scheduler::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

int Scheduler::num_workers() const { return static_cast<int>(slots_.size()); }

std::vector<WorkerStats> Scheduler::worker_stats() const {
  std::vector<WorkerStats> out;
  for (int i = 0; i < num_workers(); ++i) {
    auto& slot = *slots_[static_cast<std::size_t>(i)];
    std::lock_guard<std::mutex> lk(slot.mu);
    out.push_back(WorkerStats{i, slot.jobs, slot.busy_s, slot.modeled_s});
  }
  return out;
}

BatchStats Scheduler::batch_stats() const {
  return BatchStats{batches_.load(), batched_jobs_.load()};
}

FaultStats Scheduler::fault_stats() const {
  FaultStats fs;
  fs.jobs_requeued = jobs_requeued_.load();
  fs.watchdog_fired = watchdog_fired_.load();
  fs.device_failures = device_failures_.load();
  fs.healthy_workers = healthy_.load();
  return fs;
}

obs::MetricRows Scheduler::stats_rows() const {
  const BatchStats bs = batch_stats();
  const FaultStats fs = fault_stats();
  const Arena::Stats as = arena_.stats();
  obs::MetricRows m = {
      {"runtime_queue_depth", double(queue_depth())},
      {"sched_queue_capacity", double(queue_capacity())},
      {"runtime_inflight", double(inflight())},
      {"sched_num_workers", double(num_workers())},
      {"sched_recent_exec_s", recent_exec_s()},
      {"sched_batch_max", double(opts_.batch_max)},
      {"runtime_batches_total", double(bs.dispatches)},
      {"runtime_batched_jobs_total", double(bs.batched_jobs)},
      {"fault_job_requeued_total", double(fs.jobs_requeued)},
      {"watchdog_fired_total", double(fs.watchdog_fired)},
      {"fault_device_unhealthy", double(num_workers() - fs.healthy_workers)},
      {"qrcp_sketch_seconds_total", qrcp_.sketch_s.load()},
      {"qrcp_panel_seconds_total", qrcp_.panel_s.load()},
      {"qrcp_update_seconds_total", qrcp_.update_s.load()},
      {"qrcp_downdate_seconds_total", qrcp_.downdate_s.load()},
      {"qrcp_resketch_total", double(qrcp_.resketches.load())},
      {"qrcp_degraded_total", double(qrcp_.degraded.load())},
      {"runtime_arena_alloc_total", double(as.allocs)},
      {"runtime_arena_reuse_total", double(as.reuses)},
  };
  const std::pair<const char*, CacheStats> caches[] = {
      {"sketch_cache", sketch_cache_stats()},
      {"result_cache", result_cache_stats()},
      {"rqrcp_cache", rqrcp_cache_stats()}};
  for (const auto& [cache, cs] : caches) {
    m.emplace_back(std::string(cache) + "_hits", double(cs.hits));
    m.emplace_back(std::string(cache) + "_misses", double(cs.misses));
    m.emplace_back(std::string(cache) + "_evictions", double(cs.evictions));
  }
  for (auto& row : telemetry_.metrics().flatten(/*include_buckets=*/true))
    m.push_back(std::move(row));
  for (auto& row : kernels_.rows()) m.push_back(std::move(row));
  if (opts_.injector)
    for (auto& row : opts_.injector->stats_rows()) m.push_back(std::move(row));
  return m;
}

std::vector<DeviceHealthInfo> Scheduler::device_health() const {
  std::vector<DeviceHealthInfo> out;
  for (int i = 0; i < num_workers(); ++i) {
    auto& slot = *slots_[static_cast<std::size_t>(i)];
    std::lock_guard<std::mutex> lk(slot.mu);
    out.push_back(
        DeviceHealthInfo{i, !slot.failed.load(), slot.jobs, slot.modeled_s});
  }
  return out;
}

void Scheduler::mark_device_failed(int widx) {
  if (slots_[static_cast<std::size_t>(widx)]->failed.exchange(true)) return;
  device_failures_.fetch_add(1);
  healthy_.fetch_sub(1);
}

void Scheduler::fail_device(int device) {
  if (device < 0 || device >= num_workers()) return;
  mark_device_failed(device);
  // The retiring worker may be parked in pop(); nothing to wake it with
  // short of work, and that is fine — it hands off or exits on its next
  // pop. But if every device is now dead, queued jobs must fail rather
  // than wait for a pop that will never happen.
  if (healthy_.load() == 0) drain_queue_no_workers();
}

void Scheduler::drain_queue_no_workers() {
  while (auto pending = queue_.try_pop())
    fail_pending(std::move(*pending), "no healthy devices");
}

void Scheduler::fail_pending(PendingJob pending, const std::string& why) {
  JobOutcome outcome;
  outcome.status = outcome.trace.status = JobStatus::Failed;
  outcome.error = outcome.trace.error = why;
  outcome.trace.queue_wait_s = now() - pending.submit_s;
  complete(std::move(pending), std::move(outcome));
}

void Scheduler::complete(PendingJob pending, JobOutcome outcome) {
  JobTrace& tr = outcome.trace;
  tr.job_id = pending.handle->id();
  tr.trace_id = pending.job.trace_id;
  tr.tag = std::move(pending.job.tag);
  tr.kind = job_kind(pending.job);
  tr.submit_s = pending.submit_s;
  if (tr.exec_s > 0) {
    std::lock_guard<std::mutex> lk(calib_mu_);
    exec_ema_s_ =
        exec_ema_s_ <= 0 ? tr.exec_s : 0.8 * exec_ema_s_ + 0.2 * tr.exec_s;
  }
  telemetry_.record(tr);
  pending.handle->fulfill(std::move(outcome));
  inflight_.fetch_sub(1);
  {
    std::lock_guard<std::mutex> lk(drain_mu_);  // pairs with drain()'s wait
  }
  drain_cv_.notify_all();
}

void Scheduler::handoff(PendingJob pending, int widx) {
  pending.excluded_devices |= 1u << (widx & 31);
  pending.resubmits += 1;
  // Survivors that may still run this job: healthy and not a previous
  // holder. (Failed devices' workers have retired, so in practice the
  // exclusion mask is a subset of the dead set; the check also guards
  // the window where a device died after being recorded.)
  int eligible = 0;
  for (int i = 0; i < num_workers(); ++i)
    if (!slots_[static_cast<std::size_t>(i)]->failed.load() &&
        !(pending.excluded_devices & (1u << (i & 31))))
      ++eligible;
  if (pending.resubmits > opts_.max_resubmits) {
    fail_pending(std::move(pending), "device failed; resubmit budget exhausted");
    return;
  }
  if (eligible == 0) {
    fail_pending(std::move(pending), "device failed; no eligible survivor");
    return;
  }
  // requeue_front consumes `pending` on success (a survivor may pop and
  // even finish it before we return), so capture what the recorder
  // needs first.
  const std::uint64_t requeued_id = pending.handle->id();
  const std::uint64_t requeued_trace = pending.job.trace_id;
  const int resubmits = pending.resubmits;
  const std::string tag = pending.job.tag;
  if (!queue_.requeue_front(pending)) {
    // Queue closed mid-shutdown: no survivor will ever pop this, so the
    // handle must still be fulfilled (callers may be blocked in wait()).
    fail_pending(std::move(pending), "device failed during shutdown");
    return;
  }
  jobs_requeued_.fetch_add(1);
  obs::Recorder::global().record(obs::EventKind::JobRequeued, requeued_id,
                                 requeued_trace, widx, resubmits, tag);
}

double Scheduler::calibration() const {
  std::lock_guard<std::mutex> lk(calib_mu_);
  return calib_real_per_modeled_;
}

double Scheduler::recent_exec_s() const {
  std::lock_guard<std::mutex> lk(calib_mu_);
  return exec_ema_s_;
}

void Scheduler::observe_calibration(double real_s, double modeled_s) {
  if (modeled_s <= 1e-12 || real_s <= 0) return;
  std::lock_guard<std::mutex> lk(calib_mu_);
  calib_real_per_modeled_ =
      0.8 * calib_real_per_modeled_ + 0.2 * (real_s / modeled_s);
}

SubmitResult Scheduler::submit(Job job) {
  auto handle = std::make_shared<JobHandle>(next_id_.fetch_add(1));
  PendingJob pending{std::move(job), handle, now()};
  // A worker may pop (and finish) an accepted job before try_push even
  // returns, so capture what the accept event needs first.
  const std::string tag = pending.job.tag;
  const JobKind kind = job_kind(pending.job);
  const std::uint64_t trace_id = pending.job.trace_id;

  // Count the job in-flight *before* pushing, for the same reason.
  inflight_.fetch_add(1);
  PushStatus st;
  if (healthy_.load() == 0) {
    // Every device is dead: nothing will ever pop, so shed at the door
    // exactly like a closed queue rather than stranding the job.
    st = PushStatus::Closed;
  } else {
    st = queue_.try_push(std::move(pending));
    // A push can race the last device's death; sweep so the job cannot
    // sit in a queue no worker will ever drain.
    if (st == PushStatus::Ok && healthy_.load() == 0)
      drain_queue_no_workers();
  }
  if (st == PushStatus::Ok)
    obs::Recorder::global().record(obs::EventKind::JobAccepted, handle->id(),
                                   trace_id, static_cast<std::int64_t>(kind),
                                   0, tag);
  if (st != PushStatus::Ok) {
    // Shed at the door (try_push left `pending` intact): fulfill now so
    // callers can wait() on every handle uniformly.
    JobOutcome outcome;
    outcome.status = outcome.trace.status = JobStatus::Rejected;
    outcome.error = outcome.trace.error =
        st == PushStatus::QueueFull ? "queue at high-water mark"
        : healthy_.load() == 0      ? "no healthy devices"
                                    : "scheduler shutting down";
    complete(std::move(pending), std::move(outcome));
  }
  return SubmitResult{st, std::move(handle)};
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lk(drain_mu_);
  drain_cv_.wait(lk, [this] { return inflight_.load() == 0; });
}

void Scheduler::worker_loop(int widx) {
  const la_prof::ScopedContext prof(la_prof::Context{.table = &kernels_});
  const auto& failed = slots_[static_cast<std::size_t>(widx)]->failed;
  for (;;) {
    auto pending = queue_.pop();
    if (!pending) return;

    // --- failover seam (DESIGN.md §10) --------------------------------
    // Injected device death is decided at job pickup, and never fires
    // when this is the last healthy device — chaos runs must degrade,
    // not go dark. An externally failed device (fail_device) is caught
    // by the same check, including one failed while this worker was
    // executing: that job was delivered, and the worker retires here.
    if (!failed.load() && opts_.injector && healthy_.load() > 1 &&
        opts_.injector->fire(fault::FaultKind::DeviceFail)) {
      mark_device_failed(widx);
    }
    if (failed.load()) {
      handoff(std::move(*pending), widx);
      // Retire. If this was the last worker standing, nothing will ever
      // pop again: fail the backlog so drain() cannot deadlock.
      if (healthy_.load() == 0) drain_queue_no_workers();
      return;
    }
    if (pending->excluded_devices & (1u << (widx & 31))) {
      // This device already failed this job once. Unreachable while the
      // mask only ever names dead devices (whose workers retired), but
      // cheap to guard: hand it back and let another worker take it.
      if (!queue_.requeue_front(*pending))
        fail_pending(std::move(*pending), "device failed during shutdown");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }

    // --- dispatch (DESIGN.md §7, §12) --------------------------------
    // The collector coalesces compatible queued FixedRank jobs behind
    // this one; a solo job is a batch of one.
    dispatch(collect_batch(std::move(*pending), widx), widx);
  }
}

void Scheduler::watchdog_loop() {
  // Poll the per-worker exec slots and flip the cancel token of any job
  // past its budget. Cancellation is cooperative: only code that polls
  // the token (today: injected hangs) actually stops — a real kernel
  // runs to completion, but the firing still lands in telemetry.
  while (!watchdog_stop_.load()) {
    const double t = now();
    for (auto& sp : slots_) {
      auto& slot = *sp;
      std::lock_guard<std::mutex> lk(slot.mu);
      if (!slot.cancel || slot.fired || slot.budget_s <= 0) continue;
      if (t - slot.started_s > slot.budget_s) {
        slot.cancel->store(true);
        slot.fired = true;
        watchdog_fired_.fetch_add(1);
        obs::Recorder::global().record(obs::EventKind::WatchdogFired,
                                       slot.job_id, 0,
                                       static_cast<std::int64_t>(&sp -
                                                                 &slots_[0]));
        // A watchdog firing is exactly the moment a postmortem is worth
        // having: snapshot the rings if the operator asked for one.
        if (const char* path = std::getenv("RANDLA_POSTMORTEM_PATH"))
          obs::Recorder::global().dump_to_file(path);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

double Scheduler::watchdog_budget(const Job& job) const {
  if (opts_.watchdog_multiple <= 0) return 0;  // disabled
  double d = job.deadline_s > 0 ? job.deadline_s : opts_.default_deadline_s;
  if (d <= 0) d = opts_.watchdog_grace_s;
  return opts_.watchdog_multiple * d;
}

std::shared_ptr<std::atomic<bool>> Scheduler::begin_dispatch(
    int widx, double budget_s, std::uint64_t job_id) {
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  auto& slot = *slots_[static_cast<std::size_t>(widx)];
  {
    std::lock_guard<std::mutex> lk(slot.mu);
    slot.cancel = cancel;
    slot.started_s = now();
    slot.budget_s = budget_s;
    slot.job_id = job_id;
    slot.fired = false;
  }
  // Transient stall injection: the device pauses (PCIe hiccup, thermal
  // throttle) and the dispatch still runs afterwards. The stall counts
  // against the watchdog budget but not toward busy seconds.
  if (opts_.injector && opts_.injector->fire(fault::FaultKind::DeviceStall))
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        opts_.injector->config().stall_ms));
  return cancel;
}

void Scheduler::end_dispatch(int widx, double busy_s, double modeled_s) {
  auto& slot = *slots_[static_cast<std::size_t>(widx)];
  std::lock_guard<std::mutex> lk(slot.mu);
  slot.cancel = nullptr;
  slot.started_s = -1;
  ++slot.jobs;
  slot.busy_s += busy_s;
  slot.modeled_s += modeled_s;
}

void Scheduler::execute(Member& m) {
  const Job& job = m.pending.job;
  // Installed on this thread so rsvd phase and kernel spans connect.
  obs::ScopedTraceId scoped(job.trace_id);
  obs::Span span("worker.exec", "runtime", job.trace_id);
  JobOutcome& outcome = m.outcome;
  JobTrace& trace = outcome.trace;
  // exec_s = this job's own wall time plus its flops-share of a shared
  // Step-1: summed over a dispatch it matches the real dispatch time, so
  // the EMA behind Retry-After stays honest.
  const double step1_s = m.fresh ? m.fresh->phases.total() : 0;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    if (const auto* fj = std::get_if<FixedRankJob>(&job.payload)) {
      outcome = finish_fixed_rank(*fj, m.plan, trace, std::move(m.fresh));
    } else if (const auto* aj = std::get_if<AdaptiveJob>(&job.payload)) {
      auto res = std::make_shared<rsvd::AdaptiveResult>(
          rsvd::adaptive_sample(aj->a->view(), aj->opts));
      trace.phases = res->phases;
      trace.flops = res->flops;
      trace.cholqr_fallbacks = res->cholqr_fallbacks;
      trace.q_requested = trace.q_used = aj->opts.q;
      const index_t final_l =
          res->trace.empty() ? aj->opts.l_init : res->trace.back().l;
      trace.modeled_s = model::estimate_random_sampling(
                            opts_.spec, aj->a->rows(), aj->a->cols(), final_l,
                            aj->opts.q)
                            .total();
      outcome.adaptive = std::move(res);
      outcome.status = trace.status = JobStatus::Done;
    } else if (const auto* rj = std::get_if<RqrcpJob>(&job.payload)) {
      outcome = run_rqrcp(*rj, trace, m.remaining_s);
    } else {
      const auto& qj = std::get<QrcpJob>(job.payload);
      rsvd::PhaseTimer t(trace.phases.qrcp, "rsvd.qrcp");
      auto fac = std::make_shared<qrcp::QrcpFactors<double>>(
          qrcp::qrcp_truncated<double>(qj.a->view(), qj.k, qj.block));
      trace.flops.qrcp = fac->stats.flops_blas2 + fac->stats.flops_blas3;
      trace.modeled_s =
          model::estimate_qp3(opts_.spec, qj.a->rows(), qj.a->cols(), qj.k)
              .seconds;
      outcome.qrcp = std::move(fac);
      outcome.status = trace.status = JobStatus::Done;
    }
  } catch (const std::exception& e) {
    outcome.status = trace.status = JobStatus::Failed;
    outcome.error = trace.error = e.what();
  }
  trace.exec_s = seconds_since(t0) + step1_s;
}

JobOutcome Scheduler::run_rqrcp(const RqrcpJob& rj, JobTrace& trace,
                                double remaining_s) {
  JobOutcome outcome;
  outcome.trace = trace;  // keep deadline fields already filled
  JobTrace& tr = outcome.trace;

  const index_t m = rj.a->rows();
  const index_t n = rj.a->cols();
  const bool adaptive = rj.opts.epsilon > 0;
  index_t kmax = adaptive ? std::min(m, n) : rj.k;
  if (adaptive && rj.opts.max_rank > 0) kmax = std::min(kmax, rj.opts.max_rank);

  // Both modes are deterministic functions of (A, options) — the Philox
  // sketch is seeded — so the full factorization caches like a result.
  const RqrcpKey key = make_rqrcp_key(rj.a->fingerprint(), rj.k, rj.opts);
  if (auto hit = rqrcps_.get(key)) {
    tr.cache = CacheDisposition::Result;
    tr.modeled_s = 0;  // nothing recomputed
    outcome.rqrcp = std::move(hit);
    outcome.status = tr.status = JobStatus::Done;
    return outcome;
  }

  // Graceful degradation: unlike fixed-rank (which sheds power
  // iterations), RQRCP truncates the pivot sweep — later blocks only
  // extend the factorization, so a shortened sweep still returns a
  // valid rank-r < k factorization instead of missing the deadline.
  index_t max_blocks = 0;  // 0 = unbounded
  const index_t block = std::max<index_t>(1, rj.opts.block);
  const index_t blocks_needed = (std::min(kmax, std::min(m, n)) + block - 1) / block;
  if (remaining_s > 0) {
    const double budget_modeled = remaining_s / calibration();
    const index_t fit = model::max_rqrcp_blocks_within(
        opts_.spec, m, n, kmax, rj.opts.block, rj.opts.oversample,
        budget_modeled);
    if (fit < blocks_needed) max_blocks = std::max<index_t>(1, fit);
  }

  auto res = std::make_shared<qrcp::RqrcpResult<double>>(
      adaptive ? qrcp::rqrcp_adaptive(rj.a->view(), rj.opts, max_blocks)
               : qrcp::rqrcp_truncated(rj.a->view(), rj.k, rj.opts,
                                       max_blocks));
  const qrcp::RqrcpStats& st = res->stats;
  tr.degraded = max_blocks > 0 && st.truncated;

  tr.phases.sampling = st.sketch_s;
  tr.phases.qrcp = st.panel_s;
  tr.phases.gemm_iter = st.update_s;
  tr.phases.orth_iter = st.downdate_s;
  tr.flops.sampling = st.flops_sketch;
  tr.flops.qrcp = st.flops_panel;
  tr.flops.gemm_iter = st.flops_update;
  tr.flops.orth_iter = st.flops_downdate;
  tr.modeled_s = model::estimate_rqrcp(opts_.spec, m, n,
                                       std::max<index_t>(1, st.rank),
                                       rj.opts.block, rj.opts.oversample)
                     .total();
  observe_calibration(st.total_s(), tr.modeled_s);

  qrcp_.sketch_s.fetch_add(st.sketch_s);
  qrcp_.panel_s.fetch_add(st.panel_s);
  qrcp_.update_s.fetch_add(st.update_s);
  qrcp_.downdate_s.fetch_add(st.downdate_s);
  qrcp_.resketches.fetch_add(static_cast<std::uint64_t>(st.resketches));
  if (tr.degraded) qrcp_.degraded.fetch_add(1);

  tr.cache =
      opts_.enable_cache ? CacheDisposition::Miss : CacheDisposition::None;
  // Degraded sweeps are *not* cached: the truncated factorization is a
  // deadline artifact, and serving it to an undeadlined resubmit of the
  // same request would silently return fewer pivots than asked for.
  if (!tr.degraded) rqrcps_.put(key, res);
  outcome.rqrcp = std::move(res);
  outcome.status = tr.status = JobStatus::Done;
  return outcome;
}

void Scheduler::degrade_to_fit(rsvd::FixedRankOptions& opts, index_t m,
                               index_t n, double remaining_s,
                               JobTrace& trace) const {
  // Graceful degradation: if the modeled plan does not fit the remaining
  // deadline budget, shed power iterations first — they dominate the
  // cost (each iteration re-pays the sampling GEMM twice) and only
  // refine accuracy, never the output shape.
  if (remaining_s > 0 && opts.q > 0) {
    const double budget_modeled = remaining_s / calibration();
    const index_t q_fit = model::max_power_iters_within(
        opts_.spec, m, n, opts.k + opts.p, opts.q, budget_modeled);
    if (q_fit < opts.q) {
      opts.q = q_fit;
      trace.degraded = true;
    }
  }
}

JobOutcome Scheduler::finish_fixed_rank(const FixedRankJob& fj,
                                        rsvd::FixedRankOptions opts,
                                        JobTrace& trace,
                                        std::shared_ptr<SketchEntry> fresh) {
  JobOutcome outcome;
  outcome.trace = trace;  // keep deadline fields already filled
  JobTrace& tr = outcome.trace;

  // Bounded retry: escalate the power-iteration orthogonalization while
  // the *sampling stage* reports CholQR breakdowns (the kernel already
  // rescued itself with HHQR, but the stabler scheme avoids the
  // breakdown entirely on the re-run). Cache hits are trusted as-is.
  // The ladder CholQR → CholQR2 → HHQR ends at an unconditionally
  // stable scheme, so the loop runs at most 2 retries.
  for (;;) {
    auto pass = fixed_rank_pass(fj, opts, tr, std::move(fresh));
    fresh = nullptr;  // a re-run must resample with the stabler scheme
    tr.q_used = opts.q;
    tr.cholqr_fallbacks = pass.res->cholqr_fallbacks;
    if (tr.cache != CacheDisposition::Result && pass.step1_fallbacks > 0 &&
        escalatable(opts.power_ortho)) {
      ++tr.retries;
      opts.power_ortho = escalate(opts.power_ortho);
      continue;
    }
    outcome.fixed_rank = std::move(pass.res);
    break;
  }
  // An escalated run cached itself under the escalated plan; publish it
  // under the *requested* plan too, so identical fragile requests are
  // served from cache instead of re-walking the retry ladder.
  if (tr.retries > 0 && opts_.enable_cache) {
    results_.put(make_result_key(fj.a->fingerprint(), fj.opts),
                 outcome.fixed_rank);
  }
  outcome.status = tr.status = JobStatus::Done;
  return outcome;
}

Scheduler::PassResult Scheduler::fixed_rank_pass(
    const FixedRankJob& fj, const rsvd::FixedRankOptions& opts,
    JobTrace& trace, std::shared_ptr<SketchEntry> fresh) {
  const auto a = fj.a->view();
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t l = opts.k + opts.p;
  const auto& fp = fj.a->fingerprint();
  PassResult out;

  // With caching disabled the ctor gave both caches capacity 0: every
  // get misses and every put is a no-op, so one code path serves both
  // modes; only the trace disposition differs.
  const ResultKey rkey = make_result_key(fp, opts);
  if (auto hit = results_.get(rkey)) {
    trace.cache = CacheDisposition::Result;
    trace.modeled_s = 0;  // nothing recomputed
    out.res = hit;
    return out;
  }

  const SketchKey skey = make_sketch_key(fp, opts);
  std::shared_ptr<const SketchEntry> sketch = sketches_.get(skey);
  std::shared_ptr<rsvd::FixedRankResult> res;
  const auto full_est =
      model::estimate_random_sampling(opts_.spec, m, n, l, opts.q);

  if (sketch && sketch->b.rows() >= l) {
    // Rank-refined or repeated request: Steps 2–3 only, on the cached
    // (possibly wider) sample. A wider B can only improve the subspace.
    // Step-1 breakdowns were settled when the sketch was computed.
    res = std::make_shared<rsvd::FixedRankResult>(
        rsvd::finish_from_sample(a, sketch->b.view(), opts.k,
                                 opts.qrcp_block));
    trace.cache = CacheDisposition::Sketch;
    trace.modeled_s = full_est.qrcp + full_est.qr;
  } else {
    // Miss (or a narrower sketch than needed): full Step 1 — either the
    // batched sample the collector handed in or a solo compute — then
    // publish it for later rank refinements and run Steps 2–3.
    std::shared_ptr<SketchEntry> entry;
    if (fresh && fresh->b.rows() >= l) {
      entry = std::move(fresh);
    } else {
      entry = std::make_shared<SketchEntry>();
      entry->b = rsvd::compute_sample(a, opts, &entry->phases, &entry->flops,
                                      &entry->cholqr_fallbacks);
    }
    sketches_.put(skey, entry);
    res = std::make_shared<rsvd::FixedRankResult>(
        rsvd::finish_from_sample(a, entry->b.view(), opts.k,
                                 opts.qrcp_block));
    res->phases += entry->phases;
    res->flops.prng += entry->flops.prng;
    res->flops.sampling += entry->flops.sampling;
    res->flops.gemm_iter += entry->flops.gemm_iter;
    res->flops.orth_iter += entry->flops.orth_iter;
    res->cholqr_fallbacks += entry->cholqr_fallbacks;
    out.step1_fallbacks = entry->cholqr_fallbacks;
    trace.cache = opts_.enable_cache ? CacheDisposition::Miss
                                     : CacheDisposition::None;
    trace.modeled_s = full_est.total();
    observe_calibration(res->phases.total(), trace.modeled_s);
  }

  trace.phases = res->phases;
  trace.flops = res->flops;
  results_.put(rkey, res);
  out.res = std::move(res);
  return out;
}

// ---------------------------------------------------------------------
// The batching collector and the one dispatch path (DESIGN.md §12)

std::vector<Scheduler::PendingJob> Scheduler::collect_batch(PendingJob first,
                                                            int widx) {
  std::vector<PendingJob> batch;
  batch.reserve(static_cast<std::size_t>(std::max(1, opts_.batch_max)));
  const auto* lead = std::get_if<FixedRankJob>(&first.job.payload);
  const bool leadable =
      lead != nullptr && lead->opts.sampling == rsvd::SamplingKind::Gaussian;
  const ortho::Scheme scheme =
      leadable ? lead->opts.power_ortho : ortho::Scheme::CholQR2;
  batch.push_back(std::move(first));
  if (!leadable || opts_.batch_max <= 1) return batch;

  // Compatibility = the batched Step-1 kernel's contract: FixedRank,
  // Gaussian sampling, one shared power-iteration scheme. Everything
  // else (k/p/q, shape, deadline) may differ per job.
  const auto compatible = [&](const PendingJob& p) {
    if (p.excluded_devices & (1u << (widx & 31))) return false;
    const auto* fj = std::get_if<FixedRankJob>(&p.job.payload);
    return fj != nullptr &&
           fj->opts.sampling == rsvd::SamplingKind::Gaussian &&
           fj->opts.power_ortho == scheme;
  };
  const auto t0 = std::chrono::steady_clock::now();
  while (batch.size() < static_cast<std::size_t>(opts_.batch_max)) {
    if (auto next = queue_.try_pop_if(compatible)) {
      batch.push_back(std::move(*next));
      continue;
    }
    // Size window not met: linger briefly for stragglers, then go with
    // what we have — batching must never cost more latency than it
    // saves, so the window stays well under one service time.
    if (seconds_since(t0) >= opts_.batch_linger_s) break;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return batch;
}

void Scheduler::dispatch(std::vector<PendingJob> batch, int widx) {
  const std::size_t count = batch.size();
  if (count > 1) {
    batches_.fetch_add(1);
    batched_jobs_.fetch_add(count);
  }

  // Queue wait ends here for every member (it includes the collector's
  // linger); its span is reconstructed from submit_s. One watchdog slot
  // guards the dispatch with the largest member budget, so a shared
  // dispatch is never cancelled earlier than its most patient member
  // would have been alone. The slot names the lead job; JobBatched
  // events tie the other members to the dispatch.
  const double dispatch_s = now();
  const auto dispatch_tp = std::chrono::steady_clock::now();
  std::vector<Member> members(count);
  double budget = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Member& m = members[i];
    m.pending = std::move(batch[i]);
    const Job& job = m.pending.job;
    JobTrace& tr = m.outcome.trace;
    tr.queue_wait_s = dispatch_s - m.pending.submit_s;
    tr.worker = widx;
    tr.batch_size = static_cast<int>(count);
    if (job.trace_id != 0 && obs::Tracer::global().enabled()) {
      const auto begin =
          start_ + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(m.pending.submit_s));
      obs::Tracer::global().record_complete(job.trace_id, "queue.wait",
                                            "runtime", begin, dispatch_tp);
    }
    obs::Recorder::global().record(
        count > 1 ? obs::EventKind::JobBatched : obs::EventKind::JobDispatched,
        m.pending.handle->id(), job.trace_id, widx,
        count > 1 ? static_cast<std::int64_t>(count) : 0, job.tag);
    budget = std::max(budget, watchdog_budget(job));
  }
  const auto cancel =
      begin_dispatch(widx, budget, members.front().pending.handle->id());
  const double t0 = now();

  // Admission: a member whose queue wait already spent its deadline
  // expires unrun; a live FixedRank plan sheds power iterations to fit
  // what is left. A member stays live while its status is Pending.
  bool live = false;
  for (Member& m : members) {
    const Job& job = m.pending.job;
    JobTrace& tr = m.outcome.trace;
    double deadline = job.deadline_s;
    if (deadline == 0) deadline = opts_.default_deadline_s;
    if (deadline < 0) deadline = 0;
    tr.deadline_s = deadline;
    if (deadline > 0 && tr.queue_wait_s >= deadline) {
      m.outcome.status = tr.status = JobStatus::Expired;
      m.outcome.error = tr.error = "deadline exceeded while queued";
      continue;
    }
    live = true;
    m.remaining_s = deadline > 0 ? deadline - tr.queue_wait_s : 0;
    if (const auto* fj = std::get_if<FixedRankJob>(&job.payload)) {
      m.plan = fj->opts;
      tr.q_requested = fj->opts.q;
      degrade_to_fit(m.plan, fj->a->rows(), fj->a->cols(), m.remaining_s, tr);
    }
  }

  // Injected faults fire once per dispatch (a batch is one launch), and
  // only when a member will run. Latency just delays the dispatch. A
  // hang spins until the watchdog cancels it, failing every live member
  // with a watchdog error that clients treat as retryable, or until the
  // hang cap lapses (so watchdog-less configurations cannot wedge) and
  // the dispatch proceeds.
  if (live && opts_.injector) {
    if (opts_.injector->fire(fault::FaultKind::JobLatency))
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          opts_.injector->config().latency_ms));
    if (opts_.injector->fire(fault::FaultKind::WorkerHang)) {
      const auto hang0 = std::chrono::steady_clock::now();
      const double cap_s = opts_.injector->config().hang_cap_s;
      for (;;) {
        if (cancel->load(std::memory_order_acquire)) {
          const double hung = seconds_since(hang0);
          for (Member& m : members) {
            if (m.outcome.status != JobStatus::Pending) continue;
            m.outcome.status = m.outcome.trace.status = JobStatus::Failed;
            m.outcome.error = m.outcome.trace.error =
                "watchdog: cancelled after exceeding execution budget";
            m.outcome.trace.exec_s = hung;
          }
          break;
        }
        if (seconds_since(hang0) >= cap_s) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  // One shared Step-1 for the live members that miss both caches, when
  // there are two or more of them; a lone miss samples inside
  // finish_fixed_rank exactly as a solo job does. Hits and shapes the
  // batched kernel rejects take the solo ladder, which reports the
  // precise error. The planning probes peek, so each member's own pass
  // counts its one cache lookup.
  std::vector<rsvd::SampleBatchItem> items;
  std::vector<Member*> sampled;
  for (Member& m : members) {
    const auto* fj = std::get_if<FixedRankJob>(&m.pending.job.payload);
    if (count < 2 || !fj || m.outcome.status != JobStatus::Pending) continue;
    const rsvd::FixedRankOptions& o = m.plan;
    const index_t l = o.k + o.p;
    if (o.k <= 0 || o.p < 0 || o.q < 0 ||
        l > std::min(fj->a->rows(), fj->a->cols()))
      continue;
    const auto& fp = fj->a->fingerprint();
    if (results_.peek(make_result_key(fp, o))) continue;
    const auto sketch = sketches_.peek(make_sketch_key(fp, o));
    if (sketch && sketch->b.rows() >= l) continue;
    rsvd::SampleBatchItem item;
    item.a = fj->a->view();
    item.opts = o;
    items.push_back(std::move(item));
    sampled.push_back(&m);
  }
  if (items.size() > 1) {
    try {
      rsvd::compute_samples_batched(items.data(),
                                    static_cast<index_t>(items.size()));
      for (std::size_t j = 0; j < items.size(); ++j) {
        auto fresh = std::make_shared<SketchEntry>();
        fresh->b = std::move(items[j].b);
        fresh->phases = items[j].phases;  // flops-share of the batch time
        fresh->flops = items[j].flops;
        fresh->cholqr_fallbacks = items[j].cholqr_fallbacks;
        sampled[j]->fresh = std::move(fresh);
      }
    } catch (...) {
      // Unreachable after the shape guards above, but a batch kernel
      // refusal must not fail N jobs: each member samples solo instead.
    }
  }

  for (Member& m : members)
    if (m.outcome.status == JobStatus::Pending) execute(m);
  double modeled = 0;
  for (const Member& m : members) modeled += m.outcome.trace.modeled_s;
  end_dispatch(widx, now() - t0, modeled);
  for (Member& m : members)
    complete(std::move(m.pending), std::move(m.outcome));
}

}  // namespace randla::runtime
