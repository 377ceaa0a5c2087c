// Figure 9 — short-wide QR (ℓ = 64 rows, n sweep): CholQR vs HHQR.
// The paper reports CholQR speedups of up to 106.4× (average 72.9×)
// over HHQR for these shapes.
#include <cstdio>

#include "bench_util.hpp"
#include "model/perfmodel.hpp"
#include "ortho/ortho.hpp"
#include "rng/gaussian.hpp"

using namespace randla;

namespace {

double measure_rows(ortho::Scheme s, index_t l, index_t n) {
  const Matrix<double> b0 = rng::gaussian_matrix<double>(l, n, 21);
  Matrix<double> b = Matrix<double>::copy_of(b0.view());
  bench::WallTimer t;
  ortho::orthonormalize_rows<double>(s, b.view());
  const double dt = t.seconds();
  return ortho::scheme_flops(s, n, l) / dt * 1e-9;
}

}  // namespace

int main() {
  bench::print_header("Figure 9", "short-wide QR: CholQR vs HHQR (m=64)");
  const index_t l = 64;
  const model::DeviceSpec spec;

  // One untimed call of each scheme at the first point's shape starts
  // the worker pool and first-touches the packing buffers, which the
  // first timed point would otherwise pay for.
  for (ortho::Scheme s : {ortho::Scheme::CholQR, ortho::Scheme::HHQR})
    measure_rows(s, l, bench::scaled(2500, 256));

  std::printf("MEASURED (CPU, Gflop/s)\n");
  std::printf("%8s %10s %10s %10s\n", "n", "CholQR", "HHQR", "speedup");
  for (index_t n : {2500, 5000, 10000, 20000}) {
    const index_t ns = bench::scaled(n, 256);
    const double g_chol = measure_rows(ortho::Scheme::CholQR, l, ns);
    const double g_hh = measure_rows(ortho::Scheme::HHQR, l, ns);
    std::printf("%8lld %10.2f %10.2f %9.1fx\n", (long long)ns, g_chol, g_hh,
                g_chol / g_hh);
  }

  std::printf("\nMODELED (K40c, Gflop/s, paper dims)\n");
  std::printf("%8s %10s %10s %10s  (paper: up to 106.4x, avg 72.9x)\n", "n",
              "CholQR", "HHQR", "speedup");
  double max_sp = 0, sum_sp = 0;
  int count = 0;
  for (index_t n : {2500, 10000, 25000, 50000}) {
    const double t_chol = model::ortho_seconds(spec, ortho::Scheme::CholQR, l, n);
    const double t_hh = model::ortho_seconds(spec, ortho::Scheme::HHQR, l, n);
    const double fl = ortho::scheme_flops(ortho::Scheme::CholQR, n, l);
    const double fl_h = ortho::scheme_flops(ortho::Scheme::HHQR, n, l);
    const double sp = t_hh / t_chol;
    max_sp = std::max(max_sp, sp);
    sum_sp += sp;
    count++;
    std::printf("%8lld %10.1f %10.2f %9.1fx\n", (long long)n,
                fl / t_chol * 1e-9, fl_h / t_hh * 1e-9, sp);
  }
  std::printf("modeled speedup: max %.1fx avg %.1fx\n", max_sp,
              sum_sp / count);
  return 0;
}
