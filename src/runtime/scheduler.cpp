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

obs::Gauge queue_depth_gauge() {
  static obs::Gauge g = obs::Registry::global().gauge(
      "runtime_queue_depth", "jobs waiting in the admission queue");
  return g;
}

obs::Gauge inflight_gauge() {
  static obs::Gauge g = obs::Registry::global().gauge(
      "runtime_inflight", "jobs admitted but not yet fulfilled");
  return g;
}

obs::Counter requeued_counter() {
  static obs::Counter c = obs::Registry::global().counter(
      "fault_job_requeued_total", "jobs handed off from a failed device");
  return c;
}

obs::Gauge unhealthy_gauge() {
  static obs::Gauge g = obs::Registry::global().gauge(
      "fault_device_unhealthy", "devices currently marked failed");
  return g;
}

obs::Counter watchdog_counter() {
  static obs::Counter c = obs::Registry::global().counter(
      "watchdog_fired_total", "jobs cancelled for exceeding their budget");
  return c;
}

obs::Counter batches_counter() {
  static obs::Counter c = obs::Registry::global().counter(
      "runtime_batches_total", "coalesced dispatches (2+ jobs)");
  return c;
}

obs::Counter batched_jobs_counter() {
  static obs::Counter c = obs::Registry::global().counter(
      "runtime_batched_jobs_total", "jobs that rode a coalesced dispatch");
  return c;
}

obs::Gauge batch_occupancy_gauge() {
  static obs::Gauge g = obs::Registry::global().gauge(
      "runtime_batch_occupancy", "last dispatch size / batch_max");
  return g;
}

/// RQRCP engine metrics (fleet-wide, one counter per algorithm phase).
struct QrcpMetrics {
  obs::Counter sketch, panel, update, downdate, resketches, degraded;
};
QrcpMetrics& qrcp_metrics() {
  static QrcpMetrics m = [] {
    auto& g = obs::Registry::global();
    return QrcpMetrics{
        g.counter("qrcp_sketch_seconds_total", "RQRCP sketch B = ΩA"),
        g.counter("qrcp_panel_seconds_total", "RQRCP sketch QRCP + panel QR"),
        g.counter("qrcp_update_seconds_total", "RQRCP trailing updates"),
        g.counter("qrcp_downdate_seconds_total", "RQRCP sample downdates"),
        g.counter("qrcp_resketch_total", "downdate safeguard resketches"),
        g.counter("qrcp_degraded_total", "block sweeps truncated at deadline"),
    };
  }();
  return m;
}

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
  unhealthy_gauge().set(0);
  // Touch the fault/watchdog series so a Stats scrape carries them even
  // before the first failure (chaos CI asserts their presence).
  requeued_counter();
  watchdog_counter();
  batches_counter();
  batched_jobs_counter();
  batch_occupancy_gauge();
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
  const int left = healthy_.fetch_sub(1) - 1;
  unhealthy_gauge().set(double(num_workers() - left));
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
  queue_depth_gauge().set(double(queue_.size()));
}

void Scheduler::fail_pending(PendingJob pending, const std::string& why) {
  JobOutcome outcome;
  outcome.status = JobStatus::Failed;
  outcome.error = why;
  outcome.trace.status = JobStatus::Failed;
  outcome.trace.error = why;
  outcome.trace.tag = pending.job.tag;
  outcome.trace.kind = job_kind(pending.job);
  outcome.trace.submit_s = pending.submit_s;
  outcome.trace.queue_wait_s = now() - pending.submit_s;
  outcome.trace.job_id = pending.handle->id();
  outcome.trace.trace_id = pending.job.trace_id;
  telemetry_.record(outcome.trace);
  pending.handle->fulfill(std::move(outcome));
  inflight_.fetch_sub(1);
  inflight_gauge().set(double(inflight_.load()));
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
  requeued_counter().inc();
  obs::Recorder::global().record(obs::EventKind::JobRequeued, requeued_id,
                                 requeued_trace, widx, resubmits, tag);
  queue_depth_gauge().set(double(queue_.size()));
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
  const double submit_s = now();
  const std::string tag = job.tag;
  const JobKind kind = job_kind(job);
  const std::uint64_t trace_id = job.trace_id;

  // Count the job in-flight *before* pushing: a worker may fulfill it
  // (and decrement) before try_push even returns.
  inflight_.fetch_add(1);
  PushStatus st;
  if (healthy_.load() == 0) {
    // Every device is dead: nothing will ever pop, so shed at the door
    // exactly like a closed queue rather than stranding the job.
    st = PushStatus::Closed;
  } else {
    st = queue_.try_push(PendingJob{std::move(job), handle, submit_s});
    // A push can race the last device's death; sweep so the job cannot
    // sit in a queue no worker will ever drain.
    if (st == PushStatus::Ok && healthy_.load() == 0)
      drain_queue_no_workers();
  }
  if (st == PushStatus::Ok)
    obs::Recorder::global().record(obs::EventKind::JobAccepted, handle->id(),
                                   trace_id, static_cast<std::int64_t>(kind),
                                   0, tag);
  queue_depth_gauge().set(double(queue_.size()));
  inflight_gauge().set(double(inflight_.load()));
  if (st != PushStatus::Ok) {
    // Shed at the door: record the rejection and fulfill immediately so
    // callers can wait() on every handle uniformly.
    JobOutcome outcome;
    outcome.status = JobStatus::Rejected;
    outcome.error = st == PushStatus::QueueFull ? "queue at high-water mark"
                    : healthy_.load() == 0      ? "no healthy devices"
                                                : "scheduler shutting down";
    outcome.trace.status = JobStatus::Rejected;
    outcome.trace.tag = tag;
    outcome.trace.kind = kind;
    outcome.trace.submit_s = submit_s;
    outcome.trace.error = outcome.error;
    outcome.trace.job_id = handle->id();
    outcome.trace.trace_id = trace_id;
    telemetry_.record(outcome.trace);
    handle->fulfill(std::move(outcome));
    inflight_.fetch_sub(1);
    inflight_gauge().set(double(inflight_.load()));
    {
      std::lock_guard<std::mutex> lk(drain_mu_);  // pairs with drain()'s wait
    }
    drain_cv_.notify_all();
  }
  return SubmitResult{st, std::move(handle)};
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lk(drain_mu_);
  drain_cv_.wait(lk, [this] { return inflight_.load() == 0; });
}

void Scheduler::worker_loop(int widx) {
  const auto& failed = slots_[static_cast<std::size_t>(widx)]->failed;
  for (;;) {
    auto pending = queue_.pop();
    if (!pending) return;
    queue_depth_gauge().set(double(queue_.size()));

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

    // --- batching collector (DESIGN.md §12) ---------------------------
    // Coalesce compatible queued FixedRank jobs behind this one into a
    // single batched dispatch. A singleton batch falls through to the
    // solo path below unchanged.
    if (opts_.batch_max > 1) {
      auto batch = collect_batch(std::move(*pending), widx);
      if (batch.size() > 1) {
        run_batch(std::move(batch), widx);
        continue;
      }
      pending = std::move(batch.front());
    }

    const double queue_wait = now() - pending->submit_s;
    const std::uint64_t trace_id = pending->job.trace_id;
    if (trace_id != 0 && obs::Tracer::global().enabled()) {
      // The wait already happened; reconstruct its span from submit_s.
      const auto begin =
          start_ + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(pending->submit_s));
      obs::Tracer::global().record_complete(
          trace_id, "queue.wait", "runtime", begin,
          std::chrono::steady_clock::now());
    }

    obs::Recorder::global().record(obs::EventKind::JobDispatched,
                                   pending->handle->id(), trace_id, widx, 0,
                                   pending->job.tag);
    const auto cancel = begin_dispatch(widx, watchdog_budget(pending->job),
                                       pending->handle->id());
    const double t0 = now();
    JobOutcome outcome;
    {
      // Installed on this thread so rsvd phase and kernel spans connect.
      obs::ScopedTraceId scoped(trace_id);
      obs::Span span("worker.exec", "runtime", trace_id);
      outcome = execute(pending->job, widx, queue_wait, cancel);
    }
    end_dispatch(widx, now() - t0, outcome.trace.modeled_s);

    outcome.trace.job_id = pending->handle->id();
    outcome.trace.trace_id = trace_id;
    outcome.trace.tag = pending->job.tag;
    outcome.trace.kind = job_kind(pending->job);
    outcome.trace.submit_s = pending->submit_s;
    outcome.trace.queue_wait_s = queue_wait;
    outcome.trace.worker = widx;
    if (outcome.trace.exec_s > 0) {
      std::lock_guard<std::mutex> lk(calib_mu_);
      exec_ema_s_ = exec_ema_s_ <= 0
                        ? outcome.trace.exec_s
                        : 0.8 * exec_ema_s_ + 0.2 * outcome.trace.exec_s;
    }

    telemetry_.record(outcome.trace);
    pending->handle->fulfill(std::move(outcome));
    inflight_.fetch_sub(1);
    inflight_gauge().set(double(inflight_.load()));
    {
      std::lock_guard<std::mutex> lk(drain_mu_);  // pairs with drain()'s wait
    }
    drain_cv_.notify_all();
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
        watchdog_counter().inc();
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

JobOutcome Scheduler::execute(const Job& job, int widx, double queue_wait,
                              const std::shared_ptr<std::atomic<bool>>& cancel) {
  (void)widx;
  JobOutcome outcome;
  JobTrace& trace = outcome.trace;

  double deadline = job.deadline_s;
  if (deadline == 0) deadline = opts_.default_deadline_s;
  if (deadline < 0) deadline = 0;
  trace.deadline_s = deadline;

  if (deadline > 0 && queue_wait >= deadline) {
    outcome.status = trace.status = JobStatus::Expired;
    outcome.error = trace.error = "deadline exceeded while queued";
    return outcome;
  }
  const double remaining = deadline > 0 ? deadline - queue_wait : 0;

  if (opts_.injector) {
    // Transient latency: the job still runs, it just pays first.
    if (opts_.injector->fire(fault::FaultKind::JobLatency)) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          opts_.injector->config().latency_ms));
    }
    // Injected hang: spin-sleep until the watchdog cancels us or the
    // hang cap lapses (the latter keeps watchdog-less configurations
    // from wedging forever). Cancelled jobs report a watchdog failure,
    // which clients treat as retryable.
    if (opts_.injector->fire(fault::FaultKind::WorkerHang)) {
      const auto hang0 = std::chrono::steady_clock::now();
      const double cap_s = opts_.injector->config().hang_cap_s;
      for (;;) {
        if (cancel && cancel->load(std::memory_order_acquire)) {
          outcome.status = trace.status = JobStatus::Failed;
          outcome.error = trace.error =
              "watchdog: cancelled after exceeding execution budget";
          trace.exec_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - hang0)
                             .count();
          return outcome;
        }
        if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          hang0)
                .count() >= cap_s)
          break;  // hang over; the job proceeds normally
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  try {
    if (const auto* fj = std::get_if<FixedRankJob>(&job.payload)) {
      outcome = run_fixed_rank(*fj, trace, remaining);
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
      outcome = run_rqrcp(*rj, trace, remaining);
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
  trace.exec_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return outcome;
}

JobOutcome Scheduler::run_fixed_rank(const FixedRankJob& fj, JobTrace& trace,
                                     double remaining_s) {
  rsvd::FixedRankOptions opts = fj.opts;
  trace.q_requested = opts.q;
  degrade_to_fit(opts, fj.a->rows(), fj.a->cols(), remaining_s, trace);
  return finish_fixed_rank(fj, std::move(opts), trace, nullptr);
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

  auto& qm = qrcp_metrics();
  qm.sketch.add(st.sketch_s);
  qm.panel.add(st.panel_s);
  qm.update.add(st.update_s);
  qm.downdate.add(st.downdate_s);
  if (st.resketches > 0) qm.resketches.add(double(st.resketches));
  if (tr.degraded) qm.degraded.inc();

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
// Batching collector (DESIGN.md §12)

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
  if (!leadable) return batch;

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
  const auto cap = static_cast<std::size_t>(std::max(1, opts_.batch_max));
  while (batch.size() < cap) {
    if (auto next = queue_.try_pop_if(compatible)) {
      batch.push_back(std::move(*next));
      continue;
    }
    // Size window not met: linger briefly for stragglers, then go with
    // what we have — batching must never cost more latency than it
    // saves, so the window stays well under one service time.
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (waited >= opts_.batch_linger_s) break;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  queue_depth_gauge().set(double(queue_.size()));
  return batch;
}

void Scheduler::run_batch(std::vector<PendingJob> batch, int widx) {
  const std::size_t count = batch.size();
  const double dispatch_s = now();

  batches_.fetch_add(1);
  batched_jobs_.fetch_add(count);
  batches_counter().inc();
  batched_jobs_counter().add(double(count));
  batch_occupancy_gauge().set(double(count) /
                              double(std::max(1, opts_.batch_max)));

  // Per-job queue→dispatch latency (includes the collector's linger).
  std::vector<double> queue_wait(count);
  const auto dispatch_tp = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    queue_wait[i] = dispatch_s - batch[i].submit_s;
    const std::uint64_t tid = batch[i].job.trace_id;
    if (tid != 0 && obs::Tracer::global().enabled()) {
      const auto begin =
          start_ + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(batch[i].submit_s));
      obs::Tracer::global().record_complete(tid, "queue.wait", "runtime",
                                            begin, dispatch_tp);
    }
  }

  for (std::size_t i = 0; i < count; ++i)
    obs::Recorder::global().record(obs::EventKind::JobBatched,
                                   batch[i].handle->id(),
                                   batch[i].job.trace_id, widx,
                                   static_cast<std::int64_t>(count),
                                   batch[i].job.tag);
  // One watchdog slot guards the whole dispatch; the budget is the max
  // per-job budget so a shared batch is never cancelled earlier than its
  // most patient member would have been alone. A shared dispatch is
  // attributed to its lead job; the JobBatched events above tie the rest
  // of the batch to it.
  double budget = 0;
  for (const auto& p : batch)
    budget = std::max(budget, watchdog_budget(p.job));
  const auto cancel =
      begin_dispatch(widx, budget, batch.front().handle->id());
  const double t0 = now();
  std::vector<JobOutcome> outcomes(count);
  execute_batch(batch, queue_wait, outcomes, cancel);
  const auto done_tp = std::chrono::steady_clock::now();
  double modeled = 0;
  for (const auto& o : outcomes) modeled += o.trace.modeled_s;
  end_dispatch(widx, now() - t0, modeled);

  for (std::size_t i = 0; i < count; ++i) {
    JobOutcome& outcome = outcomes[i];
    PendingJob& p = batch[i];
    const std::uint64_t tid = p.job.trace_id;
    if (tid != 0 && obs::Tracer::global().enabled()) {
      // One exec span per member over the shared dispatch window.
      obs::Tracer::global().record_complete(tid, "worker.exec", "runtime",
                                            dispatch_tp, done_tp);
    }
    outcome.trace.job_id = p.handle->id();
    outcome.trace.trace_id = tid;
    outcome.trace.tag = p.job.tag;
    outcome.trace.kind = job_kind(p.job);
    outcome.trace.submit_s = p.submit_s;
    outcome.trace.queue_wait_s = queue_wait[i];
    outcome.trace.worker = widx;
    outcome.trace.batch_size = static_cast<int>(count);
    if (outcome.trace.exec_s > 0) {
      std::lock_guard<std::mutex> lk(calib_mu_);
      exec_ema_s_ = exec_ema_s_ <= 0
                        ? outcome.trace.exec_s
                        : 0.8 * exec_ema_s_ + 0.2 * outcome.trace.exec_s;
    }
    telemetry_.record(outcome.trace);
    p.handle->fulfill(std::move(outcome));
    inflight_.fetch_sub(1);
  }
  inflight_gauge().set(double(inflight_.load()));
  {
    std::lock_guard<std::mutex> lk(drain_mu_);  // pairs with drain()'s wait
  }
  drain_cv_.notify_all();
}

void Scheduler::execute_batch(std::vector<PendingJob>& batch,
                              const std::vector<double>& queue_wait,
                              std::vector<JobOutcome>& outcomes,
                              const std::shared_ptr<std::atomic<bool>>& cancel) {
  const std::size_t count = batch.size();

  // Injected faults fire once per dispatch — a batch is one "launch",
  // exactly like the solo path's single execute() call.
  if (opts_.injector) {
    if (opts_.injector->fire(fault::FaultKind::JobLatency)) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          opts_.injector->config().latency_ms));
    }
    if (opts_.injector->fire(fault::FaultKind::WorkerHang)) {
      const auto hang0 = std::chrono::steady_clock::now();
      const double cap_s = opts_.injector->config().hang_cap_s;
      for (;;) {
        if (cancel && cancel->load(std::memory_order_acquire)) {
          for (std::size_t i = 0; i < count; ++i) {
            auto& o = outcomes[i];
            o.status = o.trace.status = JobStatus::Failed;
            o.error = o.trace.error =
                "watchdog: cancelled after exceeding execution budget";
            o.trace.exec_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - hang0)
                                 .count();
          }
          return;
        }
        if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          hang0)
                .count() >= cap_s)
          break;  // hang over; the batch proceeds normally
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  // Per-job admission: deadline bookkeeping mirrors execute() exactly,
  // then jobs classify into (a) the shared batched Step-1 or (b) the
  // solo ladder (cache hits, shapes the batched kernel rejects).
  struct Plan {
    rsvd::FixedRankOptions opts;
    std::size_t item = SIZE_MAX;  ///< index into the batched Step-1 items
    bool done = false;            ///< expired before dispatch
  };
  std::vector<Plan> plans(count);
  std::vector<rsvd::SampleBatchItem> items;
  std::vector<std::size_t> item_job;  // item index → job index

  for (std::size_t i = 0; i < count; ++i) {
    const Job& job = batch[i].job;
    JobOutcome& outcome = outcomes[i];
    JobTrace& tr = outcome.trace;
    double deadline = job.deadline_s;
    if (deadline == 0) deadline = opts_.default_deadline_s;
    if (deadline < 0) deadline = 0;
    tr.deadline_s = deadline;
    if (deadline > 0 && queue_wait[i] >= deadline) {
      outcome.status = tr.status = JobStatus::Expired;
      outcome.error = tr.error = "deadline exceeded while queued";
      plans[i].done = true;
      continue;
    }
    const double remaining = deadline > 0 ? deadline - queue_wait[i] : 0;
    const auto& fj = std::get<FixedRankJob>(job.payload);
    plans[i].opts = fj.opts;
    tr.q_requested = fj.opts.q;
    degrade_to_fit(plans[i].opts, fj.a->rows(), fj.a->cols(), remaining, tr);

    const auto& opts = plans[i].opts;
    const index_t l = opts.k + opts.p;
    const index_t mn = std::min(fj.a->rows(), fj.a->cols());
    if (opts.k <= 0 || opts.p < 0 || opts.q < 0 || l > mn)
      continue;  // solo ladder reports the precise error
    const auto& fp = fj.a->fingerprint();
    if (results_.get(make_result_key(fp, opts)))
      continue;  // solo ladder re-hits the result cache for free
    const auto sketch = sketches_.get(make_sketch_key(fp, opts));
    if (sketch && sketch->b.rows() >= l)
      continue;  // Steps 2–3 only; there is no Step-1 to batch

    plans[i].item = items.size();
    item_job.push_back(i);
    rsvd::SampleBatchItem item;
    item.a = fj.a->view();
    item.opts = opts;
    items.push_back(std::move(item));
  }

  // One shared Step-1 for every cache-missing member.
  if (!items.empty()) {
    try {
      rsvd::compute_samples_batched(items.data(),
                                    static_cast<index_t>(items.size()));
    } catch (...) {
      // Unreachable after the shape guards above, but never let a batch
      // kernel refusal fail N jobs: fall back to the solo ladder each.
      for (const std::size_t j : item_job) plans[j].item = SIZE_MAX;
    }
  }

  // Per-job Steps 2–3, caches, and the retry ladder — the solo
  // machinery, with the batched sample injected as the first pass.
  for (std::size_t i = 0; i < count; ++i) {
    if (plans[i].done) continue;
    JobOutcome& outcome = outcomes[i];
    JobTrace& tr = outcome.trace;
    const auto& fj = std::get<FixedRankJob>(batch[i].job.payload);
    double step1_attr = 0;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      std::shared_ptr<SketchEntry> fresh;
      if (plans[i].item != SIZE_MAX) {
        auto& item = items[plans[i].item];
        fresh = std::make_shared<SketchEntry>();
        fresh->b = std::move(item.b);
        fresh->phases = item.phases;  // flops-share attributed batch time
        fresh->flops = item.flops;
        fresh->cholqr_fallbacks = item.cholqr_fallbacks;
        step1_attr = item.phases.total();
      }
      outcome = finish_fixed_rank(fj, plans[i].opts, tr, std::move(fresh));
    } catch (const std::exception& e) {
      outcome.status = tr.status = JobStatus::Failed;
      outcome.error = tr.error = e.what();
    }
    // exec_s = this job's own finishing wall time plus its flops-share
    // of the shared Step-1 wall — summed over the batch it matches the
    // real dispatch time, so the EMA behind Retry-After stays honest.
    outcome.trace.exec_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() +
        step1_attr;
  }
}

}  // namespace randla::runtime
