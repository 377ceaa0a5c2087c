// fingerprint.hpp — content fingerprints for the serving runtime's
// caches.
//
// The cache key must identify a matrix by *contents*, not by pointer:
// two users uploading the same A must hit the same cached sketch, and a
// reallocated buffer must not alias a stale entry. The digest runs at
// memory speed: sixteen independent multiply-rotate lanes absorb the
// entries' 64-bit words interleaved (word i feeds lane i mod 16), so
// the lanes' multiplies overlap instead of forming one dependent chain.
// The matrix is cut into fixed column blocks of about 2^15 entries
// hashed on the pool; each block's lanes and every block digest, in
// block order, are finalized through the library's Philox4x32 cipher.
// The block split depends on the shape alone, so the digest is a pure
// function of (rows, cols, the bit pattern of each entry in column-major
// order) — the same at any leading dimension and any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "la/matrix.hpp"

namespace randla::runtime {

/// 128-bit content hash.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Fingerprint& o) const {
    return hi == o.hi && lo == o.lo;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }

  std::string hex() const;
};

/// Fingerprint of a matrix's shape and contents (bit pattern of every
/// entry, column-major order). One pass over the entries; a matrix
/// larger than one column block fans out over the BLAS pool.
Fingerprint fingerprint_matrix(ConstMatrixView<double> a);

/// Fingerprint of a byte string through the same word lanes (bytes
/// packed 8 to a word, the tail zero-padded), with the length folded in
/// so padding cannot collide. The router keys generator specs with it.
Fingerprint fingerprint_bytes(std::string_view bytes);

/// An input matrix paired with its content fingerprint, shared between
/// jobs. The digest is computed on the first fingerprint() call — on a
/// scheduler worker, never on the server's loop thread that decoded the
/// upload — and memoized, so every job referencing the handle reuses
/// the digest (and therefore the cache lineage) for free.
class FingerprintedMatrix {
 public:
  explicit FingerprintedMatrix(Matrix<double> data)
      : data_(std::move(data)), view_(data_.view()) {}

  /// Zero-copy: adopt externally owned storage (e.g. the arena block
  /// the wire decoder filled). `keepalive` pins the bytes for the
  /// handle's lifetime — across cache inserts, retries, and failover —
  /// without this object ever copying them.
  FingerprintedMatrix(ConstMatrixView<double> view,
                      std::shared_ptr<const void> keepalive)
      : keepalive_(std::move(keepalive)), view_(view) {}

  // view_ points into data_ on the owning path; pin the object.
  FingerprintedMatrix(const FingerprintedMatrix&) = delete;
  FingerprintedMatrix& operator=(const FingerprintedMatrix&) = delete;

  ConstMatrixView<double> view() const { return view_; }
  index_t rows() const { return view_.rows(); }
  index_t cols() const { return view_.cols(); }
  /// Safe to call from several threads: the first caller hashes, the
  /// rest wait for it and read the same digest.
  const Fingerprint& fingerprint() const {
    std::call_once(fp_once_, [this] { fp_ = fingerprint_matrix(view_); });
    return fp_;
  }
  /// True when this handle runs on adopted (non-owned) storage.
  bool zero_copy() const { return keepalive_ != nullptr; }

 private:
  Matrix<double> data_;                    ///< owning path only
  std::shared_ptr<const void> keepalive_;  ///< zero-copy path only
  ConstMatrixView<double> view_;
  mutable std::once_flag fp_once_;
  mutable Fingerprint fp_;
};

}  // namespace randla::runtime
