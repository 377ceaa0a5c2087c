// Google-benchmark microbenchmarks of the kernels underneath every
// figure: GEMM (sampling), CholQR / HHQR (orthogonalization), truncated
// QP3 (the baseline), FFT (the alternative sampler), and the Philox
// Gaussian generator (PRNG phase).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "fft/fft.hpp"
#include "la/blas3.hpp"
#include "la/flops.hpp"
#include "la/householder.hpp"
#include "la/parallel.hpp"
#include "net/protocol.hpp"
#include "ortho/ortho.hpp"
#include "qrcp/qrcp.hpp"
#include "rng/gaussian.hpp"
#include "rsvd/rsvd.hpp"

namespace {

using namespace randla;

void BM_Gemm(benchmark::State& state) {
  const index_t l = state.range(0);
  const index_t m = 2000, n = 500;
  const Matrix<double> a = rng::gaussian_matrix<double>(l, m, 1);
  const Matrix<double> b = rng::gaussian_matrix<double>(m, n, 2);
  Matrix<double> c(l, n);
  for (auto _ : state) {
    blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), b.view(), 0.0,
                       c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      flops::gemm(l, n, m) * double(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

// Single-threaded square fp64 GEMM — the raw microkernel flop-rate
// reference the BENCH_kernels.json snapshot tracks across kernel
// changes (seed scalar 4×8 kernel: ~4 Gflop/s on the CI box).
void BM_GemmSquare1024(benchmark::State& state) {
  const index_t n = 1024;
  const index_t prev_threads = blas_num_threads();
  set_blas_num_threads(1);
  const Matrix<double> a = rng::gaussian_matrix<double>(n, n, 21);
  const Matrix<double> b = rng::gaussian_matrix<double>(n, n, 22);
  Matrix<double> c(n, n);
  for (auto _ : state) {
    blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), b.view(), 0.0,
                       c.view());
    benchmark::DoNotOptimize(c.data());
  }
  set_blas_num_threads(prev_threads);
  state.counters["Gflop/s"] = benchmark::Counter(
      flops::gemm(n, n, n) * double(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmSquare1024)->Unit(benchmark::kMillisecond);

// One CholQR or CholQR2 of an m×n panel per iteration (the input copy is
// untimed); the rate counts scheme_flops, the nominal volume.
void run_cholqr(benchmark::State& state, ortho::Scheme scheme, index_t m,
                index_t n) {
  const Matrix<double> a0 = rng::gaussian_matrix<double>(m, n, 3);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix<double> a = Matrix<double>::copy_of(a0.view());
    state.ResumeTiming();
    ortho::orthonormalize_columns<double>(scheme, a.view());
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      ortho::scheme_flops(scheme, m, n) * double(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_CholQrTall(benchmark::State& state) {
  run_cholqr(state, ortho::Scheme::CholQR, state.range(0), 64);
}
BENCHMARK(BM_CholQrTall)->Arg(2000)->Arg(8000);

// CholQR2 at factor_tall's Step-3 shape (10000×50), arg = pool threads.
// Real time, because the pool's lanes do the work.
void BM_CholQr2Tall(benchmark::State& state) {
  const index_t prev_threads = blas_num_threads();
  set_blas_num_threads(state.range(0));
  run_cholqr(state, ortho::Scheme::CholQR2, 10000, 50);
  set_blas_num_threads(prev_threads);
}
BENCHMARK(BM_CholQr2Tall)->Arg(1)->Arg(4)->UseRealTime()->Unit(
    benchmark::kMillisecond);

// The CholQR Gram G = AᵀA of a 10000×50 panel, arg = pool threads. The
// rate counts flops::syrk, the nominal n(n+1)·k.
void BM_SyrkTall(benchmark::State& state) {
  const index_t m = 10000, n = 50;
  const index_t prev_threads = blas_num_threads();
  set_blas_num_threads(state.range(0));
  const Matrix<double> a = rng::gaussian_matrix<double>(m, n, 11);
  Matrix<double> g(n, n);
  for (auto _ : state) {
    blas::syrk<double>(Uplo::Upper, Op::Trans, 1.0, a.view(), 0.0, g.view());
    benchmark::DoNotOptimize(g.data());
  }
  set_blas_num_threads(prev_threads);
  state.counters["Gflop/s"] = benchmark::Counter(
      flops::syrk(n, m) * double(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SyrkTall)->Arg(1)->Arg(4)->UseRealTime()->Unit(
    benchmark::kMillisecond);

void BM_HhqrTall(benchmark::State& state) {
  const index_t m = state.range(0), n = 64;
  const Matrix<double> a0 = rng::gaussian_matrix<double>(m, n, 4);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix<double> a = Matrix<double>::copy_of(a0.view());
    state.ResumeTiming();
    ortho::orthonormalize_columns<double>(ortho::Scheme::HHQR, a.view());
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_HhqrTall)->Arg(2000)->Arg(8000);

// Explicit Q from geqrf factors (m×k): the orgqr half of qr_explicit,
// which builds the exponent/power test matrices' singular vectors.
void BM_OrgqrTall(benchmark::State& state) {
  const index_t m = 8000, k = state.range(0);
  Matrix<double> f = rng::gaussian_matrix<double>(m, k, 8);
  std::vector<double> tau;
  lapack::geqrf<double>(f.view(), tau);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix<double> a = Matrix<double>::copy_of(f.view());
    state.ResumeTiming();
    lapack::orgqr<double>(a.view(), tau, k);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_OrgqrTall)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_Qp3Truncated(benchmark::State& state) {
  const index_t m = 1500, n = 300, k = state.range(0);
  const Matrix<double> a0 = rng::gaussian_matrix<double>(m, n, 5);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix<double> a = Matrix<double>::copy_of(a0.view());
    Permutation jpvt;
    std::vector<double> tau;
    state.ResumeTiming();
    qrcp::geqp3<double>(a.view(), jpvt, tau, k);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_Qp3Truncated)->Arg(16)->Arg(64);

void BM_FftSampleRows(benchmark::State& state) {
  const index_t m = 2048, n = 200, l = state.range(0);
  const Matrix<double> a = rng::gaussian_matrix<double>(m, n, 6);
  for (auto _ : state) {
    auto b = fft::fft_sample_rows<double>(a.view(), l, 7);
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_FftSampleRows)->Arg(32)->Arg(128);

void BM_GaussianFill(benchmark::State& state) {
  Matrix<double> omega(64, state.range(0));
  for (auto _ : state) {
    rng::fill_gaussian(omega.view(), 9);
    benchmark::DoNotOptimize(omega.data());
  }
  state.counters["elems/s"] = benchmark::Counter(
      double(omega.rows() * omega.cols()) * double(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GaussianFill)->Arg(2000)->Arg(8000)->Arg(10000);

// Batched vs looped GEMM at sampling shapes (ℓ×m · m×n): arg0 = batch
// count, arg1 = ℓ. Each problem alone sits below the parallel fan-out
// threshold; the batch flattens all (problem, tile) items into one
// sweep, so the aggregate rate is what the runtime's batching collector
// buys per dispatch (DESIGN.md §12).
void BM_GemmBatched(benchmark::State& state) {
  const index_t batch = state.range(0), l = state.range(1);
  const index_t m = 512, n = 128;
  std::vector<Matrix<double>> as, bs, cs;
  std::vector<blas::GemmProblem<double>> probs;
  for (index_t i = 0; i < batch; ++i) {
    as.push_back(rng::gaussian_matrix<double>(l, m, 100 + i));
    bs.push_back(rng::gaussian_matrix<double>(m, n, 200 + i));
    cs.emplace_back(l, n);
  }
  for (index_t i = 0; i < batch; ++i)
    probs.push_back({Op::NoTrans, Op::NoTrans, 1.0, 0.0, as[i].view(),
                     bs[i].view(), cs[i].view()});
  for (auto _ : state) {
    blas::gemm_batched<double>(probs.data(), batch);
    benchmark::DoNotOptimize(cs[0].data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      double(batch) * flops::gemm(l, n, m) * double(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmBatched)
    ->Args({1, 32})
    ->Args({4, 32})
    ->Args({8, 32})
    ->Args({16, 32})
    ->Args({8, 64})
    ->Args({16, 64});

// Looped reference at the same shapes — the rate BM_GemmBatched is
// measured against (same problems, one gemm call each).
void BM_GemmLooped(benchmark::State& state) {
  const index_t batch = state.range(0), l = state.range(1);
  const index_t m = 512, n = 128;
  std::vector<Matrix<double>> as, bs, cs;
  for (index_t i = 0; i < batch; ++i) {
    as.push_back(rng::gaussian_matrix<double>(l, m, 100 + i));
    bs.push_back(rng::gaussian_matrix<double>(m, n, 200 + i));
    cs.emplace_back(l, n);
  }
  for (auto _ : state) {
    for (index_t i = 0; i < batch; ++i)
      blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, as[i].view(),
                         bs[i].view(), 0.0, cs[i].view());
    benchmark::DoNotOptimize(cs[0].data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      double(batch) * flops::gemm(l, n, m) * double(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmLooped)->Args({8, 32})->Args({16, 32})->Args({16, 64});

void BM_FixedRankEndToEnd(benchmark::State& state) {
  const index_t m = 2000, n = 300;
  const Matrix<double> a = rng::gaussian_matrix<double>(m, n, 10);
  rsvd::FixedRankOptions opts;
  opts.k = 20;
  opts.p = 10;
  opts.q = state.range(0);
  for (auto _ : state) {
    auto res = rsvd::fixed_rank(a.view(), opts);
    benchmark::DoNotOptimize(res.q.data());
  }
}
BENCHMARK(BM_FixedRankEndToEnd)->Arg(0)->Arg(1);

// Submit-frame decode at ingest shapes, arg0 = m (n = m/2), with the
// arena wired in: dims/size-lie checks, one memcpy of the f64 payload
// into a leased 64-byte-aligned block, inline_view filled. bytes/s is
// the ingest ceiling per connection; ns/byte should track memcpy since
// the zero-copy path adds no second pass over the tensor.
void BM_DecodeSubmitInline(benchmark::State& state) {
  const index_t m = state.range(0), n = m / 2;
  net::JobRequest req;
  req.request_id = 1;
  req.matrix.source = net::MatrixSource::Inline;
  req.matrix.m = m;
  req.matrix.n = n;
  req.matrix.inline_data = rng::gaussian_matrix<double>(m, n, 11);
  const auto frame = net::encode_submit(req);
  const std::uint8_t* payload = frame.data() + net::kHeaderBytes;
  const std::size_t len = frame.size() - net::kHeaderBytes;
  runtime::Arena arena;
  for (auto _ : state) {
    auto decoded = net::decode_submit(payload, len, &arena);
    benchmark::DoNotOptimize(decoded->matrix.inline_view.view.data());
  }
  state.counters["bytes/s"] = benchmark::Counter(
      double(len) * double(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DecodeSubmitInline)->Arg(128)->Arg(512)->Arg(1024);

// The pre-arena path (decode into an owning Matrix) — the copy the
// zero-copy path deletes; same counter for a direct bytes/s comparison.
void BM_DecodeSubmitOwning(benchmark::State& state) {
  const index_t m = state.range(0), n = m / 2;
  net::JobRequest req;
  req.request_id = 1;
  req.matrix.source = net::MatrixSource::Inline;
  req.matrix.m = m;
  req.matrix.n = n;
  req.matrix.inline_data = rng::gaussian_matrix<double>(m, n, 11);
  const auto frame = net::encode_submit(req);
  const std::uint8_t* payload = frame.data() + net::kHeaderBytes;
  const std::size_t len = frame.size() - net::kHeaderBytes;
  for (auto _ : state) {
    auto decoded = net::decode_submit(payload, len);
    benchmark::DoNotOptimize(decoded->matrix.inline_data.data());
  }
  state.counters["bytes/s"] = benchmark::Counter(
      double(len) * double(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DecodeSubmitOwning)->Arg(512)->Arg(1024);

}  // namespace

// Custom main so every report (console and --benchmark_format=json)
// carries the compiled-in kernel ISA next to the flop rates.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("kernel_arch", randla::blas::kernel_arch());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
