#include "kernels.hpp"

#include <cmath>

#include "la/blas3.hpp"
#include "la/flops.hpp"
#include "la/parallel.hpp"
#include "obs/trace.hpp"
#include "ortho/ortho.hpp"
#include "rng/gaussian.hpp"

namespace perfbench {

using namespace randla;

namespace {

constexpr const char* kCat = "perfbench";

// Power-iteration orthonormalization of the current rows, as
// rsvd::power_iteration does it on a fresh (j0 = 0) basis: one BOrth
// pass against the empty prefix, then the row scheme.
double orth_rows(MatrixView<double> x, ortho::Scheme scheme) {
  ortho::block_orth_rows<double>(
      ConstMatrixView<double>(x.block(0, 0, 0, x.cols())), x, /*passes=*/1);
  return ortho::orthonormalize_rows<double>(scheme, x).flops;
}

}  // namespace

SplitRun fixed_rank_split(ConstMatrixView<double> a,
                          const rsvd::FixedRankOptions& o) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t l = o.k + o.p;
  const auto start = Clock::now();
  SplitRun run;
  rsvd::PhaseFlops f;

  Matrix<double> omega;
  {
    obs::Span span("bench.omega", kCat);
    const auto t0 = Clock::now();
    omega = Matrix<double>(l, m);
    rng::fill_gaussian<double>(omega.view(), o.seed);
    run.t.omega = seconds_since(t0);
    f.prng += double(l) * double(m);
  }
  run.b = Matrix<double>(l, n);
  {
    obs::Span span("bench.sample_gemm", kCat);
    const auto t0 = Clock::now();
    blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0,
                       ConstMatrixView<double>(omega.view()), a, 0.0,
                       run.b.view());
    run.t.sample_gemm = seconds_since(t0);
    f.sampling += flops::gemm(l, n, m);
  }
  omega = Matrix<double>();

  if (o.q > 0) {
    Matrix<double> c(l, m);
    for (index_t it = 0; it < o.q; ++it) {
      {
        obs::Span span("bench.iter_orth", kCat);
        const auto t0 = Clock::now();
        f.orth_iter += orth_rows(run.b.view(), o.power_ortho);
        run.t.iter_orth += seconds_since(t0);
      }
      {
        obs::Span span("bench.iter_gemm", kCat);
        const auto t0 = Clock::now();
        blas::gemm<double>(Op::NoTrans, Op::Trans, 1.0,
                           ConstMatrixView<double>(run.b.view()), a, 0.0,
                           c.view());
        run.t.iter_gemm += seconds_since(t0);
        f.gemm_iter += flops::gemm(l, m, n);
      }
      {
        obs::Span span("bench.iter_orth", kCat);
        const auto t0 = Clock::now();
        f.orth_iter += orth_rows(c.view(), o.power_ortho);
        run.t.iter_orth += seconds_since(t0);
      }
      {
        obs::Span span("bench.iter_gemm", kCat);
        const auto t0 = Clock::now();
        blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0,
                           ConstMatrixView<double>(c.view()), a, 0.0,
                           run.b.view());
        run.t.iter_gemm += seconds_since(t0);
        f.gemm_iter += flops::gemm(l, n, m);
      }
    }
  }

  {
    obs::Span span("bench.finish", kCat);
    const auto t0 = Clock::now();
    run.res = rsvd::finish_from_sample(
        a, ConstMatrixView<double>(run.b.view()), o.k, o.qrcp_block);
    const double wall = seconds_since(t0);
    run.t.step2 = run.res.phases.qrcp;
    run.t.step3 = wall - run.t.step2;
  }
  run.res.flops.prng = f.prng;
  run.res.flops.sampling = f.sampling;
  run.res.flops.gemm_iter = f.gemm_iter;
  run.res.flops.orth_iter = f.orth_iter;
  run.wall = seconds_since(start);
  return run;
}

bool split_is_faithful(ConstMatrixView<double> a,
                       const rsvd::FixedRankOptions& o, const SplitRun& run) {
  const Matrix<double> b = rsvd::compute_sample(a, o);
  if (!same_bits(b.view(), run.b.view())) return false;
  const rsvd::FixedRankResult ref = rsvd::fixed_rank(a, o);
  const double fl = ref.flops.total();
  return same_bits(ref.q.view(), run.res.q.view()) &&
         same_bits(ref.r.view(), run.res.r.view()) &&
         ref.perm == run.res.perm &&
         std::abs(fl - run.res.flops.total()) <= 1e-12 * fl;
}

RqrcpRun rqrcp_timed(ConstMatrixView<double> a, index_t k,
                     const qrcp::RqrcpOptions& opts) {
  obs::Span span("bench.rqrcp", kCat);
  RqrcpRun run;
  const auto t0 = Clock::now();
  run.res = qrcp::rqrcp_truncated<double>(a, k, opts);
  run.wall = seconds_since(t0);
  return run;
}

CaseResult run_case(const KernelCase& c, bool check_split, LayerSamples& s,
                    Matrix<double>& scratch) {
  CaseResult out;
  const index_t m = c.a.rows();
  const index_t n = c.a.cols();
  if (c.rqrcp) {
    const RqrcpRun r = rqrcp_timed(c.a, c.fr.k, c.rq);
    const qrcp::RqrcpStats& st = r.res.stats;
    s.rq_sketch.push_back(st.sketch_s);
    s.rq_panel.push_back(st.panel_s);
    s.rq_update.push_back(st.update_s);
    s.rq_downdate.push_back(st.downdate_s);
    s.rq_other.push_back(r.wall - st.total_s());
    out.wall = r.wall;
    const Matrix<double> rr = join_r(r.res.r1.view(), r.res.r2.view());
    out.residual = factor_residual(c.a, r.res.perm, r.res.q.view(), rr.view(),
                                   scratch);
    return out;
  }
  const SplitRun r = fixed_rank_split(c.a, c.fr);
  const index_t l = c.fr.k + c.fr.p;
  s.omega.push_back(r.t.omega);
  s.sample_gemm.push_back(r.t.sample_gemm);
  if (c.fr.q > 0) {
    s.iter_gemm.push_back(r.t.iter_gemm);
    s.iter_orth.push_back(r.t.iter_orth);
  }
  s.step2.push_back(r.t.step2);
  s.step3.push_back(r.t.step3);
  s.normals_per_s.push_back(double(l) * double(m) / r.t.omega);
  s.sample_gflops.push_back(flops::gemm(l, n, m) / r.t.sample_gemm * 1e-9);
  s.flops.push_back(r.res.flops.total());
  out.wall = r.wall;
  out.residual = factor_residual(c.a, r.res.perm, r.res.q.view(),
                                 r.res.r.view(), scratch);
  s.max_residual = std::max(s.max_residual, out.residual);
  if (check_split) out.faithful = split_is_faithful(c.a, c.fr, r);
  return out;
}

void kernel_probe(const std::vector<KernelCase>& cases, double budget_s,
                  Report& rep) {
  LayerSamples s;
  Matrix<double> scratch;
  bool checked = false;
  const auto t0 = Clock::now();
  for (int pass = 0; pass == 0 || seconds_since(t0) < budget_s; ++pass) {
    for (const KernelCase& c : cases) {
      const bool check = !c.rqrcp && !checked;
      checked = checked || check;
      const CaseResult r = run_case(c, check, s, scratch);
      ++rep.attempted;
      if (!r.faithful) rep.invalid("layer split differs from rsvd::fixed_rank");
      if (!(r.residual <= c.max_residual)) {
        ++rep.failed;
        rep.invalid("kernel probe residual " + std::to_string(r.residual));
      }
    }
  }
  report_kernel_layers(s, rep);
}

void report_kernel_layers(const LayerSamples& s, Report& rep) {
  rep.add("rng.omega_ms", median(s.omega) * 1e3, "ms");
  rep.add("rng.normals_per_s", median(s.normals_per_s), "1/s");
  rep.add("la.sample_gemm_ms", median(s.sample_gemm) * 1e3, "ms");
  rep.add("la.sample_gemm_gflops", median(s.sample_gflops), "Gflop/s");
  rep.add("la.iter_gemm_ms", median(s.iter_gemm) * 1e3, "ms");
  rep.add("ortho.iter_orth_ms", median(s.iter_orth) * 1e3, "ms");
  rep.add("qrcp.step2_ms", median(s.step2) * 1e3, "ms");
  rep.add("qrcp.rqrcp_sketch_ms", median(s.rq_sketch) * 1e3, "ms");
  rep.add("qrcp.rqrcp_panel_ms", median(s.rq_panel) * 1e3, "ms");
  rep.add("qrcp.rqrcp_update_ms", median(s.rq_update) * 1e3, "ms");
  rep.add("qrcp.rqrcp_downdate_ms", median(s.rq_downdate) * 1e3, "ms");
  rep.add("qrcp.rqrcp_other_ms", median(s.rq_other) * 1e3, "ms");
  rep.add("rsvd.step3_ms", median(s.step3) * 1e3, "ms");
  rep.add("rsvd.flops", median(s.flops), "flop");
  rep.add("rsvd.residual", s.max_residual, "ratio");
}

void report_scaling(const std::vector<KernelCase>& cases, int reps,
                    Report& rep) {
  const index_t wide = blas_num_threads();
  struct Medians {
    double omega, sample_gemm, iter_gemm, iter_orth, step2, step3, rqrcp;
  };
  auto measure = [&](index_t threads) {
    set_blas_num_threads(threads);
    LayerSamples s;
    std::vector<double> rq;
    for (const KernelCase& c : cases) {
      for (int r = 0; r < reps; ++r) {
        if (c.rqrcp) {
          rq.push_back(rqrcp_timed(c.a, c.fr.k, c.rq).wall);
          continue;
        }
        const SplitRun sr = fixed_rank_split(c.a, c.fr);
        s.omega.push_back(sr.t.omega);
        s.sample_gemm.push_back(sr.t.sample_gemm);
        if (c.fr.q > 0) {
          s.iter_gemm.push_back(sr.t.iter_gemm);
          s.iter_orth.push_back(sr.t.iter_orth);
        }
        s.step2.push_back(sr.t.step2);
        s.step3.push_back(sr.t.step3);
      }
    }
    return Medians{median(s.omega),     median(s.sample_gemm),
                   median(s.iter_gemm), median(s.iter_orth),
                   median(s.step2),     median(s.step3),
                   median(rq)};
  };
  const Medians par = measure(wide);
  const Medians one = measure(1);
  set_blas_num_threads(wide);
  auto ratio = [](double serial, double parallel) {
    return parallel > 0 ? serial / parallel : 0.0;
  };
  rep.add("scaling.omega", ratio(one.omega, par.omega), "x");
  rep.add("scaling.sample_gemm", ratio(one.sample_gemm, par.sample_gemm), "x");
  rep.add("scaling.iter_gemm", ratio(one.iter_gemm, par.iter_gemm), "x");
  rep.add("scaling.iter_orth", ratio(one.iter_orth, par.iter_orth), "x");
  rep.add("scaling.step2", ratio(one.step2, par.step2), "x");
  rep.add("scaling.step3", ratio(one.step3, par.step3), "x");
  rep.add("scaling.rqrcp", ratio(one.rqrcp, par.rqrcp), "x");
  char buf[64];
  std::snprintf(buf, sizeof buf, "{\"threads\":%lld}",
                static_cast<long long>(wide));
  rep.note("scaling", buf);
}

}  // namespace perfbench
