#include "la/householder.hpp"

#include <algorithm>
#include <cmath>

#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"

namespace randla::lapack {

template <class Real>
Real larfg(index_t n, Real& alpha, Real* x, index_t incx) {
  if (n <= 1) return Real(0);
  const Real xnorm = blas::nrm2(n - 1, x, incx);
  if (xnorm == Real(0)) return Real(0);

  // beta = -sign(alpha)·‖[alpha; x]‖, computed with hypot for safety.
  Real beta = std::hypot(alpha, xnorm);
  if (alpha > Real(0)) beta = -beta;
  const Real tau = (beta - alpha) / beta;
  blas::scal(n - 1, Real(1) / (alpha - beta), x, incx);
  alpha = beta;
  return tau;
}

template <class Real>
void larf(Side side, index_t vlen, const Real* v, index_t incv, Real tau,
          MatrixView<Real> c) {
  if (tau == Real(0) || c.empty()) return;
  if (side == Side::Left) {
    assert(vlen == c.rows());
    // w = Cᵀ v;  C ← C − τ·v·wᵀ.
    std::vector<Real> w(static_cast<std::size_t>(c.cols()));
    blas::gemv(Op::Trans, Real(1), ConstMatrixView<Real>(c), v, incv, Real(0),
               w.data(), index_t{1});
    blas::ger(-tau, v, incv, w.data(), index_t{1}, c);
  } else {
    assert(vlen == c.cols());
    // w = C v;  C ← C − τ·w·vᵀ.
    std::vector<Real> w(static_cast<std::size_t>(c.rows()));
    blas::gemv(Op::NoTrans, Real(1), ConstMatrixView<Real>(c), v, incv, Real(0),
               w.data(), index_t{1});
    blas::ger(-tau, w.data(), index_t{1}, v, incv, c);
  }
}

template <class Real>
void larft(ConstMatrixView<Real> v, const Real* tau, MatrixView<Real> t) {
  const index_t n = v.rows();
  const index_t k = v.cols();
  assert(t.rows() == k && t.cols() == k);
  t.set_zero();
  for (index_t i = 0; i < k; ++i) {
    const Real ti = tau[i];
    if (ti == Real(0)) {
      for (index_t j = 0; j <= i; ++j) t(j, i) = Real(0);
      continue;
    }
    // t(0:i, i) = −τᵢ · V(:, 0:i)ᵀ · vᵢ, exploiting the unit lower
    // trapezoidal structure: vᵢ is zero above row i and 1 at row i.
    for (index_t j = 0; j < i; ++j) {
      // dot of column j of V (rows i..n) with vᵢ (rows i..n), vᵢ[i] = 1.
      Real s = v(i, j);  // row i: vᵢ entry is implicit 1
      s += blas::dot(n - i - 1, v.col_ptr(j) + i + 1, index_t{1},
                     v.col_ptr(i) + i + 1, index_t{1});
      t(j, i) = -ti * s;
    }
    // t(0:i, i) ← T(0:i, 0:i) · t(0:i, i) (T is upper triangular).
    if (i > 0) {
      blas::trmm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, Real(1),
                 ConstMatrixView<Real>(t.block(0, 0, i, i)),
                 t.block(0, i, i, 1));
    }
    t(i, i) = ti;
  }
}

template <class Real>
void larfb_left(Op op, ConstMatrixView<Real> v, ConstMatrixView<Real> t,
                MatrixView<Real> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = v.cols();
  assert(v.rows() == m && t.rows() == k && t.cols() == k);
  if (k == 0 || c.empty()) return;

  // W = Vᵀ C with V unit lower trapezoidal:
  //   W = C(0:k,:) (triangle part applied as trmm) + V(k:m,:)ᵀ C(k:m,:).
  Matrix<Real> w(k, n);
  w.view().copy_from(c.block(0, 0, k, n));
  blas::trmm(Side::Left, Uplo::Lower, Op::Trans, Diag::Unit, Real(1),
             v.block(0, 0, k, k), w.view());
  if (m > k) {
    blas::gemm(Op::Trans, Op::NoTrans, Real(1), v.block(k, 0, m - k, k),
               ConstMatrixView<Real>(c.block(k, 0, m - k, n)), Real(1),
               w.view());
  }
  // W ← Tᵒᵖ W.
  blas::trmm(Side::Left, Uplo::Upper, op, Diag::NonUnit, Real(1), t, w.view());
  // C ← C − V W.
  if (m > k) {
    blas::gemm(Op::NoTrans, Op::NoTrans, Real(-1), v.block(k, 0, m - k, k),
               ConstMatrixView<Real>(w.view()), Real(1),
               c.block(k, 0, m - k, n));
  }
  blas::trmm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::Unit, Real(1),
             v.block(0, 0, k, k), w.view());
  for (index_t j = 0; j < n; ++j) {
    Real* cj = c.col_ptr(j);
    const Real* wj = w.data() + j * k;
    for (index_t i = 0; i < k; ++i) cj[i] -= wj[i];
  }
}

namespace {

// Unblocked QR on a panel (LAPACK geqr2).
template <class Real>
void geqr2(MatrixView<Real> a, Real* tau) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = std::min(m, n);
  for (index_t j = 0; j < k; ++j) {
    Real& ajj = a(j, j);
    tau[j] = larfg(m - j, ajj, a.col_ptr(j) + j + 1, index_t{1});
    if (j + 1 < n && tau[j] != Real(0)) {
      // Apply H to the trailing columns; temporarily set v₀ = 1.
      const Real saved = ajj;
      ajj = Real(1);
      larf(Side::Left, m - j, a.col_ptr(j) + j, index_t{1}, tau[j],
           a.block(j, j + 1, m - j, n - j - 1));
      ajj = saved;
    }
  }
}

}  // namespace

template <class Real>
void geqrf(MatrixView<Real> a, std::vector<Real>& tau) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = std::min(m, n);
  tau.assign(static_cast<std::size_t>(k), Real(0));
  constexpr index_t nb = 32;

  Matrix<Real> t(nb, nb);
  for (index_t j = 0; j < k; j += nb) {
    const index_t jb = std::min(nb, k - j);
    auto panel = a.block(j, j, m - j, jb);
    geqr2(panel, tau.data() + j);
    const index_t rest = n - (j + jb);
    if (rest > 0) {
      auto tb = t.block(0, 0, jb, jb);
      larft(ConstMatrixView<Real>(panel), tau.data() + j, tb);
      larfb_left(Op::Trans, ConstMatrixView<Real>(panel),
                 ConstMatrixView<Real>(tb), a.block(j, j + jb, m - j, rest));
    }
  }
}

namespace {

// Unblocked Q generation (LAPACK org2r): overwrite the k columns of `a`
// holding reflectors with the leading k columns of Q = H₀···H_{k−1},
// accumulating the reflectors backwards, one BLAS-2 larf per column.
template <class Real>
void org2r(MatrixView<Real> a, const Real* tau, index_t k) {
  const index_t m = a.rows();
  for (index_t j = k - 1; j >= 0; --j) {
    // Columns to the right (already formed) get H_j applied.
    if (j + 1 < k && tau[j] != Real(0)) {
      Real& ajj = a(j, j);
      const Real saved = ajj;
      ajj = Real(1);
      larf(Side::Left, m - j, a.col_ptr(j) + j, index_t{1}, tau[j],
           a.block(j, j + 1, m - j, k - j - 1));
      ajj = saved;
    }
    // Form column j of Q: H_j e_j = e_j − τ_j v_j.
    Real* cj = a.col_ptr(j);
    for (index_t i = 0; i < j; ++i) cj[i] = Real(0);
    const Real tj = tau[j];
    cj[j] = Real(1) - tj;
    for (index_t i = j + 1; i < m; ++i) cj[i] = -tj * cj[i];
    if (j == 0) break;
  }
}

// Zero rows [0, rows) of columns [col, col + ncols) of `a`.
template <class Real>
void zero_rows_above(MatrixView<Real> a, index_t rows, index_t col,
                     index_t ncols) {
  for (index_t j = col; j < col + ncols; ++j) {
    Real* cj = a.col_ptr(j);
    for (index_t i = 0; i < rows; ++i) cj[i] = Real(0);
  }
}

}  // namespace

template <class Real>
void orgqr(MatrixView<Real> a, const std::vector<Real>& tau, index_t k) {
  const index_t m = a.rows();
  assert(k <= static_cast<index_t>(tau.size()) && k <= a.cols() && k <= m);
  constexpr index_t nb = 32;

  // Blocked backward accumulation (LAPACK dorgqr). The last, possibly
  // partial, block of reflectors forms its columns unblocked; each
  // earlier block is applied to the columns already formed on its right
  // as one compact-WY update (larft + larfb: gemm/trmm on the pool),
  // then forms its own columns unblocked. Q's column j is zero above
  // the first row its reflectors touch, so rows above each block are
  // cleared explicitly.
  const index_t kk = ((k - 1) / nb) * nb;
  org2r(a.block(kk, kk, m - kk, k - kk), tau.data() + kk, k - kk);
  zero_rows_above(a, kk, kk, k - kk);
  if (kk == 0) return;

  Matrix<Real> t(nb, nb);
  for (index_t i = kk - nb; i >= 0; i -= nb) {
    auto v = a.block(i, i, m - i, nb);
    larft(ConstMatrixView<Real>(v), tau.data() + i, t.view());
    larfb_left(Op::NoTrans, ConstMatrixView<Real>(v),
               ConstMatrixView<Real>(t.view()),
               a.block(i, i + nb, m - i, k - i - nb));
    org2r(v, tau.data() + i, nb);
    zero_rows_above(a, i, i, nb);
  }
}

template <class Real>
void ormqr_left(Op op, ConstMatrixView<Real> a, const std::vector<Real>& tau,
                MatrixView<Real> c) {
  const index_t m = c.rows();
  const index_t k = static_cast<index_t>(tau.size());
  assert(a.rows() == m && a.cols() >= k);

  // Q = H₁···H_k. Qᵀ C applies H₁ first; Q C applies H_k first.
  std::vector<Real> v(static_cast<std::size_t>(m));
  auto apply = [&](index_t j) {
    if (tau[j] == Real(0)) return;
    // v = [zeros(j); 1; A(j+1:m, j)]
    for (index_t i = 0; i < j; ++i) v[static_cast<std::size_t>(i)] = Real(0);
    v[static_cast<std::size_t>(j)] = Real(1);
    for (index_t i = j + 1; i < m; ++i)
      v[static_cast<std::size_t>(i)] = a(i, j);
    larf(Side::Left, m, v.data(), index_t{1}, tau[j], c);
  };
  if (op == Op::Trans) {
    for (index_t j = 0; j < k; ++j) apply(j);
  } else {
    for (index_t j = k - 1; j >= 0; --j) {
      apply(j);
      if (j == 0) break;
    }
  }
}

template <class Real>
void qr_explicit(MatrixView<Real> a, MatrixView<Real> r) {
  const index_t n = a.cols();
  assert(a.rows() >= n && r.rows() == n && r.cols() == n);
  std::vector<Real> tau;
  geqrf(a, tau);
  r.set_zero();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) r(i, j) = a(i, j);
  orgqr(a, tau, n);
}

#define RANDLA_INSTANTIATE_HH(Real)                                            \
  template Real larfg<Real>(index_t, Real&, Real*, index_t);                   \
  template void larf<Real>(Side, index_t, const Real*, index_t, Real,          \
                           MatrixView<Real>);                                  \
  template void larft<Real>(ConstMatrixView<Real>, const Real*,                \
                            MatrixView<Real>);                                 \
  template void larfb_left<Real>(Op, ConstMatrixView<Real>,                    \
                                 ConstMatrixView<Real>, MatrixView<Real>);     \
  template void geqrf<Real>(MatrixView<Real>, std::vector<Real>&);             \
  template void orgqr<Real>(MatrixView<Real>, const std::vector<Real>&,        \
                            index_t);                                          \
  template void ormqr_left<Real>(Op, ConstMatrixView<Real>,                    \
                                 const std::vector<Real>&, MatrixView<Real>);  \
  template void qr_explicit<Real>(MatrixView<Real>, MatrixView<Real>);

RANDLA_INSTANTIATE_HH(float)
RANDLA_INSTANTIATE_HH(double)

#undef RANDLA_INSTANTIATE_HH

}  // namespace randla::lapack
