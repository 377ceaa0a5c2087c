// multigpu_scaling — strong scaling of random sampling over simulated
// devices (paper §4 and Fig. 15). The runtime executes the real kernels
// for each device in turn and charges each device a modeled K40c clock,
// so the printed scaling behaves like real concurrent GPUs even though
// the devices run one after another.
//
// Build & run:  ./examples/multigpu_scaling [m n max_devices]
#include <cstdio>
#include <cstdlib>

#include "rng/gaussian.hpp"
#include "rsvd/rsvd.hpp"
#include "sim/multi_gpu.hpp"

using namespace randla;

int main(int argc, char** argv) {
  const index_t m = argc > 1 ? std::atoll(argv[1]) : 12000;
  const index_t n = argc > 2 ? std::atoll(argv[2]) : 400;
  const int max_ng = argc > 3 ? std::atoi(argv[3]) : 4;

  std::printf("random sampling of a %lld x %lld Gaussian matrix, "
              "(k;p;q) = (54;10;1), on 1..%d simulated K40c devices\n\n",
              (long long)m, (long long)n, max_ng);
  const Matrix<double> a = rng::gaussian_matrix<double>(m, n, 99);

  rsvd::FixedRankOptions opts;
  opts.k = 54;
  opts.p = 10;
  opts.q = 1;

  std::printf("%4s %12s %9s %10s %8s   %s\n", "ng", "modeled(s)", "speedup",
              "comms(s)", "comms%", "phase breakdown (modeled s)");
  double t1 = 0;
  rsvd::FixedRankResult reference;
  for (int ng = 1; ng <= max_ng; ++ng) {
    sim::MultiDeviceContext ctx(ng);
    auto r = ctx.fixed_rank(a.view(), opts);
    if (ng == 1) {
      t1 = r.modeled_total;
      reference = std::move(r.result);
    }
    const auto& md = r.modeled;
    std::printf("%4d %12.5f %8.2fx %10.5f %7.1f%%   "
                "prng %.5f | sampl %.5f | gemm %.5f | orth %.5f | qrcp %.5f "
                "| qr %.5f\n",
                ng, r.modeled_total, t1 / r.modeled_total, md.comms,
                100.0 * md.comms / r.modeled_total, md.prng, md.sampling,
                md.gemm_iter, md.orth_iter, md.qrcp, md.qr);
    // The factorization itself is device-count independent (counter-based
    // PRNG) — verify against the 1-device run.
    if (ng > 1 && r.result.perm != reference.perm) {
      std::printf("!! pivot mismatch vs 1-device run\n");
      return 1;
    }
  }
  std::printf("\nSame pivots and factors on every device count — the\n"
              "counter-based PRNG makes the distribution bitwise-stable.\n");
  return 0;
}
