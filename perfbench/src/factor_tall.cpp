// factor_tall — the paper's own experiment. A sequential, closed-loop
// library caller factors tall dense matrices (m = 10000, n = 1000, fp64,
// the Table-1 `exponent` spectrum σ_i = 10^(−i/10)), each 80 MB and so
// larger than the last-level cache. Ops cycle through three kinds, all
// at rank k = 50, each with a fresh Ω seed:
//   0  fixed-rank random sampling (Fig. 2), p = 10, q = 0;
//   1  the same with q = 1;
//   2  qrcp::rqrcp_truncated (explicit Q, so the op can be verified).
// Every op's factors are checked: ‖AP − QR‖_F / σ₁ must stay within
// kResidualMultiple · σ_{k+1}/σ₁. The check runs outside the op's timer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "data/test_matrices.hpp"
#include "la/blas3.hpp"
#include "la/norms.hpp"
#include "kernels.hpp"
#include "obs/trace.hpp"
#include "serving.hpp"

namespace perfbench {

using namespace randla;

namespace {

constexpr index_t kM = 10000;
constexpr index_t kN = 1000;
constexpr index_t kRank = 50;
constexpr index_t kOversample = 10;
constexpr int kMatrices = 2;
constexpr int kKinds = 3;
constexpr int kSetupReps = 3;
/// Sequential ops at ~45 ms plus the residual check give ~350 samples
/// in a 20 s run: p95 is the highest percentile with ≥10 beyond it.
constexpr int kTailPct = 95;
/// ‖AP − QR‖_F ≤ kResidualMultiple · σ_{k+1}. The best rank-k error is
/// 1.65 σ_{k+1} on this slowly decaying spectrum; observed worst cases
/// are ~50 σ_{k+1} for q = 0 sampling, ~11 for q = 1 and ~5 for RQRCP.
/// A factorization that lost the dominant subspace would sit near
/// ‖A‖_F ≈ 1.6·10⁵ σ_{k+1}, so the bound has margin on both sides.
constexpr double kResidualMultiple = 100;

struct Input {
  Matrix<double> a;
  std::uint64_t gen_seed = 0;  ///< data::exponent_matrix seed ("exponent" spec)
  double fro = 0;              ///< ‖A‖_F
  double sigma_k1 = 0;         ///< σ_{k+1}
};

/// ‖AP − QR‖_F from one pass over A, using
///   ‖AP − QR‖² = ‖A‖² − 2⟨(QᵀA)P, R⟩ + ⟨(QᵀQ)R, R⟩,
/// a third of the memory traffic of forming AP − QR (the check would
/// otherwise cost as much as the op it checks). The terms are O(‖A‖²)
/// and the result here ~10⁻⁷‖A‖², so fp64 still leaves ~8 digits; this
/// identity is only used where the residual is far above roundoff.
double residual_norm(ConstMatrixView<double> a, double a_fro,
                     const Permutation& perm, ConstMatrixView<double> q,
                     ConstMatrixView<double> r) {
  const index_t k = q.cols();
  const index_t n = a.cols();
  if (!is_valid_permutation(perm) || perm.size() != std::size_t(n) ||
      q.rows() != a.rows() || r.rows() != k || r.cols() != n)
    return INFINITY;
  Matrix<double> qta(k, n), qtq(k, k), gr(k, n);
  blas::gemm<double>(Op::Trans, Op::NoTrans, 1.0, q, a, 0.0, qta.view());
  blas::gemm<double>(Op::Trans, Op::NoTrans, 1.0, q, q, 0.0, qtq.view());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0,
                     ConstMatrixView<double>(qtq.view()), r, 0.0, gr.view());
  double cross = 0, quad = 0;
  for (index_t j = 0; j < n; ++j) {
    const index_t pj = perm[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < k; ++i) {
      cross += qta(i, pj) * r(i, j);
      quad += gr(i, j) * r(i, j);
    }
  }
  return std::sqrt(std::max(0.0, a_fro * a_fro - 2 * cross + quad));
}

std::vector<Input> make_inputs(std::uint64_t seed) {
  std::vector<Input> in(kMatrices);
  for (int i = 0; i < kMatrices; ++i) {
    Input& x = in[static_cast<std::size_t>(i)];
    x.gen_seed = derive(seed, 1000 + static_cast<std::uint64_t>(i)) >> 16;
    auto tm = data::exponent_matrix<double>(kM, kN, x.gen_seed);
    x.fro = norm_fro<double>(tm.a.view());
    x.sigma_k1 = tm.sigma[static_cast<std::size_t>(kRank)];
    x.a = std::move(tm.a);
  }
  return in;
}

KernelCase make_case(const std::vector<Input>& in, std::uint64_t seed,
                     std::uint64_t op) {
  KernelCase c;
  const int kind = static_cast<int>(op % kKinds);
  c.a = in[static_cast<std::size_t>((op / kKinds) % kMatrices)].a.view();
  c.rqrcp = kind == 2;
  c.fr.k = kRank;
  c.fr.p = kOversample;
  c.fr.q = kind == 1 ? 1 : 0;
  c.fr.seed = derive(seed, op);
  c.rq.seed = c.fr.seed;
  c.rq.want_q = true;
  return c;
}

const Input& input_of(const std::vector<Input>& in, std::uint64_t op) {
  return in[static_cast<std::size_t>((op / kKinds) % kMatrices)];
}

/// One op through the fused library entry point; returns its seconds
/// and sets *err to ‖AP − QR‖_F.
double run_fused(const KernelCase& c, double a_fro, double* err) {
  if (c.rqrcp) {
    const auto t0 = Clock::now();
    const auto res = qrcp::rqrcp_truncated<double>(c.a, c.fr.k, c.rq);
    const double s = seconds_since(t0);
    const Matrix<double> r = join_r(res.r1.view(), res.r2.view());
    *err = residual_norm(c.a, a_fro, res.perm, res.q.view(), r.view());
    return s;
  }
  const auto t0 = Clock::now();
  const auto res = rsvd::fixed_rank(c.a, c.fr);
  const double s = seconds_since(t0);
  *err = residual_norm(c.a, a_fro, res.perm, res.q.view(), res.r.view());
  return s;
}

struct Loop {
  std::vector<double> lat;   ///< op seconds
  std::vector<double> kind_lat[kKinds];  ///< the same, split by op kind
  std::vector<double> gaps;  ///< generator seconds between ops
  std::uint64_t next_op = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double worst[kKinds] = {};  ///< largest ‖E‖_F / σ_{k+1} per op kind
};

/// Closed loop for `seconds`, stopping only at a whole cycle of kinds so
/// every run measures the same mix. `split` routes fixed-rank ops
/// through the timed layer split (the traced path) and checks the first
/// op of each kind against the fused path.
void run_loop(const std::vector<Input>& in, std::uint64_t seed,
              double seconds, LayerSamples* split, Loop& lp, Report& rep) {
  Matrix<double> scratch;
  const auto t0 = Clock::now();
  auto last_end = Clock::now();
  int checked = 0;
  while (lp.next_op % kKinds != 0 || seconds_since(t0) < seconds) {
    const std::uint64_t op = lp.next_op++;
    const KernelCase c = make_case(in, seed, op);
    lp.gaps.push_back(seconds_since(last_end));
    const Input& x = input_of(in, op);
    double lat = 0, err = 0;  // op seconds, ‖AP − QR‖_F
    // With the Tracer on, each op is one trace, so the library's own
    // spans (rsvd phases, profiled BLAS kernels) record.
    obs::ScopedTraceId tid(
        obs::Tracer::global().enabled() ? obs::mint_trace_id() : 0);
    if (split != nullptr) {
      const bool check = !c.rqrcp && checked < 2;
      if (check) ++checked;
      const CaseResult r = run_case(c, check, *split, scratch);
      lat = r.wall;
      err = r.residual * x.fro;
      if (!r.faithful)
        rep.invalid("layer split differs from rsvd::fixed_rank (q=" +
                    std::to_string(c.fr.q) + ")");
    } else {
      lat = run_fused(c, x.fro, &err);
    }
    last_end = Clock::now();
    const double multiple = err / x.sigma_k1;
    double& worst = lp.worst[op % kKinds];
    worst = std::max(worst, multiple);
    ++lp.attempted;
    if (!(multiple <= kResidualMultiple)) {
      ++lp.failed;
      rep.invalid("factor_tall op " + std::to_string(op) + ": residual " +
                  std::to_string(multiple) + " sigma_k+1");
      continue;
    }
    lp.lat.push_back(lat);
    lp.kind_lat[op % kKinds].push_back(lat);
  }
  rep.attempted += lp.attempted;
  rep.failed += lp.failed;
}

/// Layer probes for the serving layers on this workload's requests: the
/// q = 0 op on matrix 0, sent as an "exponent" generator spec so the
/// 80 MB input never crosses the wire (the server materializes the same
/// matrix from the spec).
void probe_serving_layers(const std::vector<Input>& in, std::uint64_t seed,
                          double budget_s, Report& rep) {
  runtime::SchedulerOptions so;
  so.num_workers = 2;
  so.default_deadline_s = -1;
  Stack st(1, so);
  cluster::RouterOptions ro;
  st.add_router(ro);

  ProbeCase pc;
  pc.req.kind = runtime::JobKind::FixedRank;
  pc.req.matrix.generator = "exponent";
  pc.req.matrix.seed = in[0].gen_seed;
  pc.req.matrix.m = kM;
  pc.req.matrix.n = kN;
  pc.req.k = kRank;
  pc.req.p = kOversample;
  pc.req.q = 0;
  pc.req.tag = "perfbench/factor_tall";
  pc.a = runtime::make_input(Matrix<double>::copy_of(in[0].a.view()));
  pc.max_residual = kResidualMultiple * in[0].sigma_k1 / in[0].fro;

  Window w(st);
  rep.failed += probe_overheads(st, {pc}, budget_s, seed, rep);
  w.report(kTailPct, rep);
  probe_codec({pc.req}, rep);
}

}  // namespace

Report run_factor_tall(const Args& args) {
  Report rep;
  std::vector<Input> in;
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    in.clear();
    const auto t0 = Clock::now();
    in = make_inputs(args.seed);
    // Warm-up: one op of each kind (first-touch, pool start-up).
    double err = 0;
    for (std::uint64_t op = 0; op < kKinds; ++op)
      run_fused(make_case(in, args.seed ^ 0x5eedull, op), in[0].fro, &err);
    setup.push_back(seconds_since(t0));
  }
  const double rss0 = rss_mb();

  if (!args.trace) {
    Loop lp;
    run_loop(in, args.seed, args.seconds, nullptr, lp, rep);
    double busy = 0;
    for (double s : lp.lat) busy += s;
    report_end_to_end(lp.lat, busy > 0 ? double(lp.lat.size()) / busy : 0,
                      setup, kTailPct, rep);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"worst_multiple_of_sigma_k1\":[%.2f,%.2f,%.2f],"
                  "\"bound\":%.0f}",
                  lp.worst[0], lp.worst[1], lp.worst[2], kResidualMultiple);
    rep.note("residual", buf);
    std::snprintf(buf, sizeof buf,
                  "{\"rsvd_q0\":%.3f,\"rsvd_q1\":%.3f,\"rqrcp\":%.3f}",
                  median(lp.kind_lat[0]) * 1e3, median(lp.kind_lat[1]) * 1e3,
                  median(lp.kind_lat[2]) * 1e3);
    rep.note("kind_p50_ms", buf);
    return rep;
  }

  // Traced run: the fused loop untraced, then the same loop with the
  // Tracer on (trace.overhead_ratio compares the two), then the layer
  // split, then the scaling and serving-layer probes.
  Loop plain, traced, split;
  LayerSamples samples;
  run_loop(in, args.seed, args.seconds / 4, nullptr, plain, rep);
  obs::Tracer::global().enable();
  traced.next_op = plain.next_op;
  run_loop(in, args.seed, args.seconds / 4, nullptr, traced, rep);
  split.next_op = traced.next_op;
  run_loop(in, args.seed, args.seconds / 4, &samples, split, rep);
  obs::Tracer::global().disable();
  obs::Tracer::global().clear();
  const double rss1 = rss_mb();

  report_kernel_layers(samples, rep);
  std::vector<KernelCase> scale_cases;
  for (std::uint64_t op = 0; op < kKinds; ++op)
    scale_cases.push_back(make_case(in, args.seed ^ 0x5ca1eull, op));
  report_scaling(scale_cases, 2, rep);
  probe_serving_layers(in, args.seed, args.seconds / 6, rep);

  std::vector<double> gaps = plain.gaps;
  for (const Loop* lp : {&traced, &split})
    gaps.insert(gaps.end(), lp->gaps.begin(), lp->gaps.end());
  report_run_layers(gaps, rss1 - rss0, plain.lat, traced.lat, rep);
  return rep;
}

}  // namespace perfbench
