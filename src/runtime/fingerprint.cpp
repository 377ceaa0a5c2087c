#include "runtime/fingerprint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "la/parallel.hpp"
#include "rng/philox.hpp"

namespace randla::runtime {

namespace {

// Sixteen lanes keep enough independent multiplies in flight to hide
// their latency, scalar or vectorized.
constexpr int kLanes = 16;
// Odd, so (h ^ w) · kMul is a bijection in w, and so is the rotation
// after it: a change to any one word always changes its lane's state.
constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
// Column blocks hold about this many entries. A 256×128 matrix is one
// block (hashed serially); larger inputs fan out over the pool.
constexpr index_t kBlockEntries = index_t{1} << 15;

// Finalization domains: block digests, matrix digests and byte-string
// digests never share a Philox key schedule.
constexpr std::uint64_t kBlockDomain = 0x626c6f636bull;  // "block"
constexpr std::uint64_t kMatrixDomain = 0x72616e646c61ull;  // "randla"
constexpr std::uint64_t kBytesDomain = 0x726f757465ull;  // "route"

/// 128-bit running state that absorbs one 64-bit word per 10-round
/// Philox block. Slow per word, so only lane states, block digests and
/// shape tags go through it — a handful of words per 2^15 entries.
struct PhiloxMix {
  std::uint64_t hi;
  std::uint64_t lo;
  std::uint64_t count = 0;

  explicit PhiloxMix(std::uint64_t domain)
      : hi(domain), lo(~domain * kMul) {}

  void absorb(std::uint64_t word) {
    // The word keys the cipher; the running state plus the position is
    // the plaintext block, so permuted inputs do not collide.
    const rng::Philox4x32::Counter c =
        rng::Philox4x32::at(/*seed=*/word ^ lo, /*stream=*/hi,
                            /*index=*/count);
    hi ^= (static_cast<std::uint64_t>(c[0]) << 32) | c[1];
    lo ^= (static_cast<std::uint64_t>(c[2]) << 32) | c[3];
    ++count;
  }
};

std::uint64_t load_word(const unsigned char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// Sixteen independent multiply-rotate chains over interleaved words.
/// Lane assignment follows the running word count, so absorbing a
/// stream in one call or in several (column by column) is the same.
class Lanes {
 public:
  Lanes() {
    // Distinct nonzero starts, so all-zero input leaves no lane at 0.
    for (int l = 0; l < kLanes; ++l)
      h_[l] = kMatrixDomain ^ (kMul * static_cast<std::uint64_t>(l + 1));
  }

  /// Absorb `count` 64-bit words starting at `data` (any alignment).
  void absorb(const void* data, std::size_t count) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t i = 0;
    // Finish the lane round an earlier call left open.
    for (; i < count && n_ % kLanes != 0; ++i, ++n_)
      h_[n_ % kLanes] = step(h_[n_ % kLanes], load_word(p + 8 * i));
    std::uint64_t s[kLanes];
    std::copy(h_, h_ + kLanes, s);
    for (; i + kLanes <= count; i += kLanes, n_ += kLanes)
      for (int l = 0; l < kLanes; ++l)
        s[l] = step(s[l], load_word(p + 8 * (i + l)));
    std::copy(s, s + kLanes, h_);
    for (; i < count; ++i, ++n_)
      h_[n_ % kLanes] = step(h_[n_ % kLanes], load_word(p + 8 * i));
  }

  /// Lanes in fixed order, then the word count and two tags, through
  /// Philox.
  Fingerprint digest(std::uint64_t domain, std::uint64_t tag0,
                     std::uint64_t tag1) const {
    PhiloxMix m(domain);
    for (const std::uint64_t h : h_) m.absorb(h);
    m.absorb(n_);
    m.absorb(tag0);
    m.absorb(tag1);
    return Fingerprint{m.hi, m.lo};
  }

 private:
  static std::uint64_t step(std::uint64_t h, std::uint64_t w) {
    // The multiply carries low bits up; the rotation brings the high
    // bits back down for the next multiply.
    h = (h ^ w) * kMul;
    return (h << 29) | (h >> 35);
  }

  std::uint64_t h_[kLanes];
  std::uint64_t n_ = 0;  ///< words absorbed so far
};

}  // namespace

std::string Fingerprint::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf);
}

Fingerprint fingerprint_matrix(ConstMatrixView<double> a) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  const index_t rows = a.rows(), cols = a.cols();
  const index_t per =
      std::max<index_t>(1, kBlockEntries / std::max<index_t>(rows, 1));
  const index_t nblocks = rows == 0 || cols == 0 ? 0 : (cols + per - 1) / per;
  // Block b's digest lands in words[2b], words[2b+1]; the split depends
  // on the shape alone, so the pool's lane count cannot move it.
  std::vector<std::uint64_t> words(2 * static_cast<std::size_t>(nblocks));
  parallel_ranges(nblocks, 1, [&](index_t b0, index_t b1) {
    for (index_t b = b0; b < b1; ++b) {
      const index_t j0 = b * per, j1 = std::min(cols, j0 + per);
      Lanes lanes;
      if (a.ld() == rows) {
        lanes.absorb(a.col_ptr(j0),
                     static_cast<std::size_t>((j1 - j0) * rows));
      } else {
        for (index_t j = j0; j < j1; ++j)
          lanes.absorb(a.col_ptr(j), static_cast<std::size_t>(rows));
      }
      const Fingerprint d =
          lanes.digest(kBlockDomain, static_cast<std::uint64_t>(b), 0);
      words[2 * static_cast<std::size_t>(b)] = d.hi;
      words[2 * static_cast<std::size_t>(b) + 1] = d.lo;
    }
  });
  Lanes top;
  top.absorb(words.data(), words.size());
  return top.digest(kMatrixDomain, static_cast<std::uint64_t>(rows),
                    static_cast<std::uint64_t>(cols));
}

Fingerprint fingerprint_bytes(std::string_view bytes) {
  const std::size_t full = bytes.size() / 8;
  std::uint64_t tail = 0;
  if (bytes.size() > 8 * full)
    std::memcpy(&tail, bytes.data() + 8 * full, bytes.size() - 8 * full);
  Lanes lanes;
  lanes.absorb(bytes.data(), full);
  lanes.absorb(&tail, 1);
  return lanes.digest(kBytesDomain, bytes.size(), 0);
}

}  // namespace randla::runtime
