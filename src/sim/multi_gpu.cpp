#include "sim/multi_gpu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "la/blas3.hpp"
#include "la/cholesky.hpp"
#include "la/householder.hpp"
#include "la/flops.hpp"
#include "la/norms.hpp"
#include "ortho/ortho.hpp"
#include "qrcp/qrcp.hpp"
#include "rng/gaussian.hpp"

namespace randla::sim {

using rsvd::PhaseTimer;

MultiDeviceContext::MultiDeviceContext(int num_devices, model::DeviceSpec spec)
    : spec_(std::move(spec)) {
  if (num_devices <= 0)
    throw std::invalid_argument("MultiDeviceContext: need at least 1 device");
  devices_.reserve(static_cast<std::size_t>(num_devices));
  for (int i = 0; i < num_devices; ++i) devices_.emplace_back(i, spec_);
}

MultiDeviceContext::RowBlocks MultiDeviceContext::distribute_rows(
    ConstMatrixView<double> a) {
  const int ng = num_devices();
  RowBlocks rb;
  rb.rows = a.rows();
  rb.cols = a.cols();
  rb.offset.resize(static_cast<std::size_t>(ng) + 1);
  const index_t base = a.rows() / ng;
  const index_t extra = a.rows() % ng;
  index_t off = 0;
  for (int i = 0; i < ng; ++i) {
    rb.offset[static_cast<std::size_t>(i)] = off;
    off += base + (i < extra ? 1 : 0);
  }
  rb.offset[static_cast<std::size_t>(ng)] = off;
  rb.block.reserve(static_cast<std::size_t>(ng));
  for (int i = 0; i < ng; ++i) {
    const index_t r0 = rb.offset[static_cast<std::size_t>(i)];
    const index_t r1 = rb.offset[static_cast<std::size_t>(i) + 1];
    rb.block.push_back(
        Matrix<double>::copy_of(a.rows_range(r0, r1)));
  }
  return rb;
}

namespace {

// Bulk-synchronous helper: run `fn(i)` for every device in turn and
// return the largest modeled time any device charged for the step.
template <class Fn>
double parallel_step(std::vector<Device>& devices, Fn&& fn) {
  std::vector<double> before(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i)
    before[i] = devices[i].modeled_time();
  for (std::size_t i = 0; i < devices.size(); ++i) fn(static_cast<int>(i));
  double end = 0;
  for (const Device& d : devices) end = std::max(end, d.modeled_time());
  // Barrier semantics: every device's clock advances to the laggard's.
  for (Device& d : devices) d.advance_to(end);
  double step = 0;
  for (std::size_t i = 0; i < devices.size(); ++i)
    step = std::max(step, end - before[i]);
  return step;
}

}  // namespace

MultiDeviceContext::CholQrTimes MultiDeviceContext::multi_cholqr_columns(
    std::vector<Matrix<double>>& w_blocks, Matrix<double>* r_out) {
  const int ng = num_devices();
  if (static_cast<int>(w_blocks.size()) != ng)
    throw std::invalid_argument("multi_cholqr_columns: block count mismatch");
  const index_t k = w_blocks[0].cols();
  CholQrTimes times;

  // Step 1 (Fig. 4): local Gram blocks G(i) = W(i)ᵀ·W(i).
  std::vector<Matrix<double>> g(static_cast<std::size_t>(ng));
  times.device += parallel_step(devices_, [&](int i) {
    auto& wi = w_blocks[static_cast<std::size_t>(i)];
    auto& gi = g[static_cast<std::size_t>(i)];
    gi.resize(k, k);
    blas::syrk(Uplo::Upper, Op::Trans, 1.0,
               ConstMatrixView<double>(wi.view()), 0.0, gi.view());
    devices_[static_cast<std::size_t>(i)].charge(model::gemm_seconds(
        spec_, k, k, wi.rows()));
  });

  // Host: reduce G = Σ G(i) (gathered over PCIe), then Cholesky.
  Matrix<double> gram(k, k);
  for (int i = 0; i < ng; ++i) {
    const auto& gi = g[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < k; ++j)
      for (index_t r = 0; r <= j; ++r) gram(r, j) += gi(r, j);
    times.comms += model::transfer_seconds(spec_, double(k) * double(k));
  }
  times.host += model::host_seconds(spec_, flops::potrf(k));
  if (lapack::potrf(Uplo::Upper, gram.view()) != 0) {
    // CholQR breakdown: fall back to a host-side Householder pass on the
    // gathered matrix (rare; mirrors the single-device fallback).
    index_t rows = 0;
    for (auto& w : w_blocks) rows += w.rows();
    Matrix<double> full(rows, k);
    index_t off = 0;
    for (auto& w : w_blocks) {
      full.view().rows_range(off, off + w.rows()).copy_from(w.view());
      off += w.rows();
    }
    Matrix<double> rr(k, k);
    lapack::qr_explicit(full.view(), rr.view());
    off = 0;
    for (auto& w : w_blocks) {
      w.view().copy_from(
          ConstMatrixView<double>(full.view().rows_range(off, off + w.rows())));
      off += w.rows();
    }
    if (r_out) r_out->view().copy_from(ConstMatrixView<double>(rr.view()));
    times.comms +=
        2 * model::transfer_seconds(spec_, double(rows) * double(k));
    times.host += model::host_seconds(spec_, flops::geqrf(rows, k));
    return times;
  }
  if (r_out) {
    r_out->resize(k, k);
    for (index_t j = 0; j < k; ++j)
      for (index_t r = 0; r <= j; ++r) (*r_out)(r, j) = gram(r, j);
  }

  // Broadcast R̄ and solve locally: W(i) ← W(i)·R̄⁻¹.
  times.comms +=
      double(ng) * model::transfer_seconds(spec_, double(k) * double(k));
  times.device += parallel_step(devices_, [&](int i) {
    auto& wi = w_blocks[static_cast<std::size_t>(i)];
    blas::trsm(Side::Right, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 1.0,
               ConstMatrixView<double>(gram.view()), wi.view());
    devices_[static_cast<std::size_t>(i)].charge(
        flops::trsm(wi.rows(), k) /
        (model::gemm_gflops(spec_, k, wi.rows()) * 1e9));
  });
  return times;
}

MultiFixedRankResult MultiDeviceContext::fixed_rank(
    ConstMatrixView<double> a, const rsvd::FixedRankOptions& opts) {
  if (opts.sampling != rsvd::SamplingKind::Gaussian)
    throw std::invalid_argument(
        "MultiDeviceContext::fixed_rank: only Gaussian sampling is "
        "distributed (paper §4)");
  const int ng = num_devices();
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t l = opts.k + opts.p;
  if (l > std::min(m, n))
    throw std::invalid_argument("fixed_rank: k + p exceeds min(m, n)");

  MultiFixedRankResult out;
  auto& res = out.result;
  auto& modeled = out.modeled;

  // Distribute A (setup; the paper assumes A is already resident).
  RowBlocks ab = distribute_rows(a);

  // ---- Step 1a: each device generates its Ω(i) slice and samples.
  std::vector<Matrix<double>> omega(static_cast<std::size_t>(ng));
  std::vector<Matrix<double>> b_part(static_cast<std::size_t>(ng));
  {
    PhaseTimer t(res.phases.prng, "rsvd.prng");
    modeled.prng += parallel_step(devices_, [&](int i) {
      const index_t c = ab.block[static_cast<std::size_t>(i)].rows();
      auto& om = omega[static_cast<std::size_t>(i)];
      om.resize(l, c);
      // Column offset = global row offset ⇒ Ω identical to the
      // single-device run regardless of ng.
      rng::fill_gaussian(
          om.view(), opts.seed,
          static_cast<std::uint64_t>(ab.offset[static_cast<std::size_t>(i)]));
      devices_[static_cast<std::size_t>(i)].charge(
          model::prng_seconds(spec_, l, c));
    });
  }
  Matrix<double> b(l, n);
  {
    PhaseTimer t(res.phases.sampling, "rsvd.sampling");
    modeled.sampling += parallel_step(devices_, [&](int i) {
      auto& bp = b_part[static_cast<std::size_t>(i)];
      bp.resize(l, n);
      blas::gemm(Op::NoTrans, Op::NoTrans, 1.0,
                 ConstMatrixView<double>(omega[static_cast<std::size_t>(i)].view()),
                 ConstMatrixView<double>(ab.block[static_cast<std::size_t>(i)].view()),
                 0.0, bp.view());
      devices_[static_cast<std::size_t>(i)].charge(model::gemm_seconds(
          spec_, l, n, ab.block[static_cast<std::size_t>(i)].rows()));
    });
    // Host accumulation B = Σ B(i) (gather over PCIe).
    for (int i = 0; i < ng; ++i) {
      const auto& bp = b_part[static_cast<std::size_t>(i)];
      for (index_t j = 0; j < n; ++j)
        for (index_t r = 0; r < l; ++r) b(r, j) += bp(r, j);
      modeled.comms += model::transfer_seconds(spec_, double(l) * double(n));
    }
  }

  // ---- Step 1b: power iterations (paper §4 distribution).
  std::vector<Matrix<double>> c_part(static_cast<std::size_t>(ng));
  int fallbacks = 0;
  for (index_t it = 0; it < opts.q; ++it) {
    // Host QR of the short-wide B (ℓ×n): ℓ < n ≪ m, done on the CPU.
    {
      PhaseTimer t(res.phases.orth_iter, "rsvd.orth_iter");
      auto rep = ortho::orthonormalize_rows(opts.power_ortho, b.view());
      if (rep.fallback_used) fallbacks++;
      modeled.orth_iter += model::host_seconds(spec_, rep.flops);
    }
    // Broadcast the orthonormal B to every device.
    modeled.comms +=
        double(ng) * model::transfer_seconds(spec_, double(l) * double(n));

    // C(i) = B·A(i)ᵀ on each device.
    {
      PhaseTimer t(res.phases.gemm_iter, "rsvd.gemm_iter");
      modeled.gemm_iter += parallel_step(devices_, [&](int i) {
        const auto& ai = ab.block[static_cast<std::size_t>(i)];
        auto& cp = c_part[static_cast<std::size_t>(i)];
        cp.resize(l, ai.rows());
        blas::gemm(Op::NoTrans, Op::Trans, 1.0,
                   ConstMatrixView<double>(b.view()),
                   ConstMatrixView<double>(ai.view()), 0.0, cp.view());
        devices_[static_cast<std::size_t>(i)].charge(
            model::gemm_seconds(spec_, l, ai.rows(), n));
      });
    }

    // Multi-device CholQR of the row-distributed Cᵀ (Figure 4): local
    // Gram G(i) = C(i)·C(i)ᵀ, host reduce + Cholesky, broadcast, local
    // triangular solve C(i) ← R̄⁻ᵀ·C(i).
    {
      PhaseTimer t(res.phases.orth_iter, "rsvd.orth_iter");
      std::vector<Matrix<double>> g(static_cast<std::size_t>(ng));
      modeled.orth_iter += parallel_step(devices_, [&](int i) {
        auto& cp = c_part[static_cast<std::size_t>(i)];
        auto& gi = g[static_cast<std::size_t>(i)];
        gi.resize(l, l);
        blas::syrk(Uplo::Lower, Op::NoTrans, 1.0,
                   ConstMatrixView<double>(cp.view()), 0.0, gi.view());
        devices_[static_cast<std::size_t>(i)].charge(
            model::gemm_seconds(spec_, l, l, cp.cols()));
      });
      Matrix<double> gram(l, l);
      for (int i = 0; i < ng; ++i) {
        const auto& gi = g[static_cast<std::size_t>(i)];
        for (index_t j = 0; j < l; ++j)
          for (index_t r = j; r < l; ++r) gram(r, j) += gi(r, j);
        modeled.comms += model::transfer_seconds(spec_, double(l) * double(l));
      }
      modeled.orth_iter += model::host_seconds(spec_, flops::potrf(l));
      const bool chol_ok = lapack::potrf(Uplo::Lower, gram.view()) == 0;
      if (chol_ok) {
        modeled.comms += double(ng) * model::transfer_seconds(
                                          spec_, double(l) * double(l));
        modeled.orth_iter += parallel_step(devices_, [&](int i) {
          auto& cp = c_part[static_cast<std::size_t>(i)];
          blas::trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 1.0,
                     ConstMatrixView<double>(gram.view()), cp.view());
          devices_[static_cast<std::size_t>(i)].charge(
              flops::trsm(cp.cols(), l) /
              (model::gemm_gflops(spec_, l, cp.cols()) * 1e9));
        });
      } else {
        // Breakdown: gather C on the host, HHQR its transpose, scatter.
        fallbacks++;
        Matrix<double> c_full(l, m);
        for (int i = 0; i < ng; ++i) {
          const auto& cp = c_part[static_cast<std::size_t>(i)];
          c_full.view()
              .cols_range(ab.offset[static_cast<std::size_t>(i)],
                          ab.offset[static_cast<std::size_t>(i)] + cp.cols())
              .copy_from(ConstMatrixView<double>(cp.view()));
        }
        ortho::orthonormalize_rows(ortho::Scheme::HHQR, c_full.view());
        for (int i = 0; i < ng; ++i) {
          auto& cp = c_part[static_cast<std::size_t>(i)];
          cp.view().copy_from(ConstMatrixView<double>(c_full.view().cols_range(
              ab.offset[static_cast<std::size_t>(i)],
              ab.offset[static_cast<std::size_t>(i)] + cp.cols())));
        }
        modeled.comms +=
            2.0 * model::transfer_seconds(spec_, double(l) * double(m));
        modeled.orth_iter +=
            model::host_seconds(spec_, flops::geqrf(m, l) + flops::orgqr(m, l));
      }
    }

    // B = C·A = Σ C(i)·A(i): local partials, host reduction.
    {
      PhaseTimer t(res.phases.gemm_iter, "rsvd.gemm_iter");
      modeled.gemm_iter += parallel_step(devices_, [&](int i) {
        const auto& ai = ab.block[static_cast<std::size_t>(i)];
        auto& bp = b_part[static_cast<std::size_t>(i)];
        blas::gemm(Op::NoTrans, Op::NoTrans, 1.0,
                   ConstMatrixView<double>(c_part[static_cast<std::size_t>(i)].view()),
                   ConstMatrixView<double>(ai.view()), 0.0, bp.view());
        devices_[static_cast<std::size_t>(i)].charge(
            model::gemm_seconds(spec_, l, n, ai.rows()));
      });
      b.view().set_zero();
      for (int i = 0; i < ng; ++i) {
        const auto& bp = b_part[static_cast<std::size_t>(i)];
        for (index_t j = 0; j < n; ++j)
          for (index_t r = 0; r < l; ++r) b(r, j) += bp(r, j);
        modeled.comms += model::transfer_seconds(spec_, double(l) * double(n));
      }
    }
  }
  res.cholqr_fallbacks = fallbacks;

  // ---- Step 2: truncated QP3 of B on device 0 (paper §4).
  qrcp::QrcpFactors<double> fac;
  {
    PhaseTimer t(res.phases.qrcp, "rsvd.qrcp");
    modeled.comms += model::transfer_seconds(spec_, double(l) * double(n));
    fac = qrcp::qrcp_truncated(ConstMatrixView<double>(b.view()), opts.k,
                               opts.qrcp_block);
    devices_[0].charge(model::qp3_seconds(spec_, l, n, opts.k));
    const double end = devices_[0].modeled_time();
    for (Device& d : devices_) d.advance_to(end);
    modeled.qrcp += model::qp3_seconds(spec_, l, n, opts.k);
    res.qrcp_stats = fac.stats;
  }
  res.perm = fac.perm;

  // ---- Step 3: multi-device CholQR of the row-distributed A·P₁:k.
  {
    PhaseTimer t(res.phases.qr, "rsvd.qr");
    std::vector<Matrix<double>> w(static_cast<std::size_t>(ng));
    parallel_step(devices_, [&](int i) {
      const auto& ai = ab.block[static_cast<std::size_t>(i)];
      auto& wi = w[static_cast<std::size_t>(i)];
      wi.resize(ai.rows(), opts.k);
      for (index_t j = 0; j < opts.k; ++j)
        wi.view().col(j).copy_from(
            ai.view().col(fac.perm[static_cast<std::size_t>(j)]));
      // Column gather is bandwidth-class work.
      devices_[static_cast<std::size_t>(i)].charge(
          double(ai.rows()) * double(opts.k) * 8.0 /
          (spec_.mem_bw_gbps * 1e9));
    });
    Matrix<double> rbar(opts.k, opts.k);
    auto tq = multi_cholqr_columns(w, &rbar);
    modeled.qr += tq.device + tq.host;
    modeled.comms += tq.comms;

    // Materialize Q on the host (result delivery; not charged — the
    // factors would normally stay device-resident).
    res.q.resize(m, opts.k);
    for (int i = 0; i < ng; ++i) {
      res.q.view()
          .rows_range(ab.offset[static_cast<std::size_t>(i)],
                      ab.offset[static_cast<std::size_t>(i) + 1])
          .copy_from(ConstMatrixView<double>(w[static_cast<std::size_t>(i)].view()));
    }

    // Host assembly of R = R̄·(I_k  R̂₁⁻¹·R̂₂) — small triangular ops.
    Matrix<double> tmat = Matrix<double>::copy_of(fac.r2.view());
    if (tmat.cols() > 0) {
      blas::trsm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 1.0,
                 ConstMatrixView<double>(fac.r1.view()), tmat.view());
    }
    res.r.resize(opts.k, n);
    res.r.view().cols_range(0, opts.k).copy_from(
        ConstMatrixView<double>(rbar.view()));
    if (n > opts.k) {
      auto right = res.r.view().cols_range(opts.k, n);
      right.copy_from(ConstMatrixView<double>(tmat.view()));
      blas::trmm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 1.0,
                 ConstMatrixView<double>(rbar.view()), right);
    }
    modeled.qr += model::host_seconds(
        spec_, flops::trsm(n - opts.k, opts.k) +
                   double(opts.k) * double(opts.k) * double(n - opts.k));
  }

  res.l = l;
  out.modeled_total = modeled.total();
  return out;
}

}  // namespace randla::sim
