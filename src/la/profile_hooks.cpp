#include "la/profile_hooks.hpp"

#include <string>

#include "model/perfmodel.hpp"
#include "obs/trace.hpp"

namespace randla::la_prof {

namespace {

constexpr const char* kKernelNames[kNumKernels] = {
    "gemm", "gemm_batched", "syrk", "trsm", "trmm", "cholqr_panel_batched",
};

thread_local Context t_ctx;

}  // namespace

const char* kernel_name(Kernel k) {
  return kKernelNames[static_cast<std::size_t>(k)];
}

void KernelTable::record(Kernel k, double seconds, double flops,
                         long long inner, long long major) {
  Row& r = rows_[static_cast<std::size_t>(k)];
  r.seconds.fetch_add(seconds, std::memory_order_relaxed);
  r.flops.fetch_add(flops, std::memory_order_relaxed);
  r.calls.fetch_add(1, std::memory_order_release);
  if (seconds <= 0 || flops <= 0) return;
  const double achieved = flops / seconds / 1e9;
  r.gflops.store(achieved, std::memory_order_relaxed);
  if (inner > 0 && major > 0) {
    // Efficiency against what the calibrated K40c model predicts for
    // this shape — the paper's achieved-vs-peak lens (Fig. 5).
    const double predicted =
        model::gemm_gflops(model::DeviceSpec{}, index_t(inner),
                           index_t(major));
    if (predicted > 0)
      r.efficiency.store(achieved / predicted, std::memory_order_relaxed);
  }
}

obs::MetricRows KernelTable::rows() const {
  obs::MetricRows out;
  for (int i = 0; i < kNumKernels; ++i) {
    const Row& r = rows_[static_cast<std::size_t>(i)];
    const std::uint64_t calls = r.calls.load(std::memory_order_acquire);
    if (calls == 0) continue;
    const std::string base = std::string("la_") + kKernelNames[i];
    out.emplace_back(base + "_calls_total", double(calls));
    out.emplace_back(base + "_seconds_total",
                     r.seconds.load(std::memory_order_relaxed));
    out.emplace_back(base + "_flops_total",
                     r.flops.load(std::memory_order_relaxed));
    if (const double g = r.gflops.load(std::memory_order_relaxed); g >= 0)
      out.emplace_back(base + "_gflops", g);
    if (const double e = r.efficiency.load(std::memory_order_relaxed); e >= 0)
      out.emplace_back(base + "_efficiency_vs_model", e);
  }
  return out;
}

KernelTable& KernelTable::process_default() {
  static KernelTable table;
  return table;
}

Context current_context() { return t_ctx; }

ScopedContext::ScopedContext(Context ctx) : prev_(t_ctx) { t_ctx = ctx; }

ScopedContext::~ScopedContext() { t_ctx = prev_; }

KernelScope::KernelScope(Kernel kernel, double flops, long long inner,
                         long long major)
    : kernel_(kernel), flops_(flops), inner_(inner), major_(major) {
  if (!obs::profiling_enabled()) return;
  entered_ = true;
  armed_ = ++t_ctx.depth == 1;
  if (armed_) t0_ = std::chrono::steady_clock::now();
}

KernelScope::~KernelScope() {
  if (!entered_) return;
  --t_ctx.depth;
  if (!armed_) return;
  const auto t1 = std::chrono::steady_clock::now();
  KernelTable& table =
      t_ctx.table ? *t_ctx.table : KernelTable::process_default();
  table.record(kernel_, std::chrono::duration<double>(t1 - t0_).count(),
               flops_, inner_, major_);
  if (obs::Tracer::global().enabled()) {
    const std::uint64_t id = obs::current_trace_id();
    if (id != 0)
      obs::Tracer::global().record_complete(id, kernel_name(kernel_), "la",
                                            t0_, t1);
  }
}

}  // namespace randla::la_prof
