// profile_hooks.hpp — per-kernel profiling hooks for the BLAS-3 entry
// points (DESIGN.md §9).
//
// Each profiled kernel opens a KernelScope at entry; on destruction the
// scope adds one call, its wall seconds and its flops to a KernelTable
// row, sets the row's achieved Gflop/s, and for GEMM the efficiency
// against the calibrated K40c model's predicted rate. The table is the
// thread's current one: a scheduler points its workers at its own table
// (ScopedContext in the worker loop) and exports it through its
// stats_rows(); every other thread records into the process default
// table. When profiling is off (the default) a scope costs one relaxed
// atomic load; the hot loops themselves are never touched.
//
// Kernels nest (syrk tiles through gemm, and TSQR or batched CholQR
// reach gemm from pool chunks), so only the outermost kernel records.
// The nesting depth is thread-local, and parallel_ranges carries the
// caller's depth and table into every pool chunk, so a kernel reached
// from another kernel's chunk is nested on any lane, and one reached
// from a chunk of non-kernel code records into the caller's table.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace randla::la_prof {

/// The profiled kernels: one KernelTable row each, exported as
/// `la_<name>_*` with the name from kernel_name().
enum class Kernel : std::uint8_t {
  Gemm = 0,
  GemmBatched,
  Syrk,
  Trsm,
  Trmm,
  CholqrPanelBatched,
};
inline constexpr int kNumKernels = 6;

const char* kernel_name(Kernel k);  ///< "gemm", "gemm_batched", …

/// One owner's per-kernel counts. Thread-safe: any number of threads
/// may record while another reads rows().
class KernelTable {
 public:
  /// Add one outermost call. `inner`/`major` (GEMM only) feed the
  /// model-efficiency gauge; 0 skips it.
  void record(Kernel k, double seconds, double flops, long long inner,
              long long major);

  /// For each kernel that has recorded a call, in enum order:
  /// `la_<k>_calls_total`, `la_<k>_seconds_total`, `la_<k>_flops_total`,
  /// then the `la_<k>_gflops` gauge (last call) once one call had
  /// positive time and flops, and `la_gemm_efficiency_vs_model` once a
  /// GEMM had a model prediction.
  obs::MetricRows rows() const;

  /// The table of every thread that no scheduler has claimed.
  static KernelTable& process_default();

 private:
  struct Row {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<double> seconds{0}, flops{0};
    std::atomic<double> gflops{-1}, efficiency{-1};  ///< < 0: never set
  };
  std::array<Row, kNumKernels> rows_;
};

/// A thread's recording state: the table its outermost kernels record
/// into (null = the process default) and how many profiled kernels it
/// is inside.
struct Context {
  KernelTable* table = nullptr;
  int depth = 0;
};

Context current_context();

/// Installs a Context on this thread for the guard's lifetime and
/// restores the previous one after.
class ScopedContext {
 public:
  explicit ScopedContext(Context ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context prev_;
};

/// RAII guard for one kernel invocation. `flops` is the invocation's
/// useful flop count. `inner`/`major` (GEMM only) feed the
/// model-efficiency gauge; pass 0 to skip it.
class KernelScope {
 public:
  KernelScope(Kernel kernel, double flops, long long inner = 0,
              long long major = 0);
  ~KernelScope();
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  Kernel kernel_;
  double flops_;
  long long inner_, major_;
  bool entered_ = false;  ///< bumped the nesting depth (profiling was on)
  bool armed_ = false;    ///< outermost kernel: records on destruction
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace randla::la_prof
