// cache.hpp — LRU result/sketch cache for the serving runtime.
//
// Randomized sketching makes caching unusually profitable: the sketch
// B = Ω·A (plus its power-iteration refinement) carries essentially all
// of the O(mnℓ) GEMM cost, is a pure function of (A, seed, sampling
// plan), and serves *any* rank k ≤ ℓ through the cheap Steps 2–3
// (Duersch & Gu 1509.06820; Martinsson & Voronin 1503.07157). The
// runtime therefore caches at two levels:
//   * ResultCache — full factorizations keyed by the exact request
//     (matrix fingerprint + every option), for repeated requests;
//   * SketchCache — the sampled B keyed by the sampling plan only
//     (no k/qrcp_block), for rank-refined requests on the same A. One
//     entry per plan; a wider sketch (larger ℓ) replaces a narrower one
//     and serves any k ≤ ℓ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "qrcp/rqrcp.hpp"
#include "rsvd/rsvd.hpp"
#include "runtime/fingerprint.hpp"

namespace randla::runtime {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  double hit_rate() const {
    const double n = double(hits + misses);
    return n > 0 ? double(hits) / n : 0.0;
  }
};

/// Thread-safe LRU map with shared_ptr values. K needs operator== and a
/// Hash functor; capacity 0 disables the cache entirely.
template <class K, class V, class Hash>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  std::shared_ptr<const V> get(const K& key) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    order_.splice(order_.begin(), order_, it->second);
    ++stats_.hits;
    return it->second->second;
  }

  /// Look up without counting a hit or miss or touching recency: for
  /// planning a dispatch whose members then get() the same keys.
  std::shared_ptr<const V> peek(const K& key) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : it->second->second;
  }

  void put(const K& key, std::shared_ptr<const V> value) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    if (index_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++stats_.evictions;
      obs::Recorder::global().record(
          obs::EventKind::CacheEvicted, 0, 0,
          static_cast<std::int64_t>(capacity_),
          static_cast<std::int64_t>(stats_.evictions));
    }
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return index_.size();
  }

  /// Every live entry in recency order (front = most recently used).
  /// The planned-drain handoff streams this oldest-first so the
  /// receiving LRU ends up warmest-last-inserted (DESIGN.md §15).
  std::vector<std::pair<K, std::shared_ptr<const V>>> snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return {order_.begin(), order_.end()};
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

 private:
  using Entry = std::pair<K, std::shared_ptr<const V>>;
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> order_;  ///< front = most recently used
  std::unordered_map<K, typename std::list<Entry>::iterator, Hash> index_;
  CacheStats stats_;
};

/// Identity of a sampling plan: everything compute_sample depends on
/// except the sampling dimension ℓ (a wider sketch subsumes a narrower
/// one, so ℓ lives in the entry, not the key).
struct SketchKey {
  Fingerprint matrix;
  std::uint64_t seed = 0;
  index_t q = 0;
  std::uint8_t sampling = 0;     ///< rsvd::SamplingKind
  std::uint8_t power_ortho = 0;  ///< ortho::Scheme

  bool operator==(const SketchKey& o) const {
    return matrix == o.matrix && seed == o.seed && q == o.q &&
           sampling == o.sampling && power_ortho == o.power_ortho;
  }
};

struct SketchKeyHash {
  std::size_t operator()(const SketchKey& k) const {
    std::uint64_t h = k.matrix.hi ^ (k.matrix.lo * 0x9E3779B97F4A7C15ull);
    h ^= k.seed + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h ^= (std::uint64_t(k.q) << 16) ^ (std::uint64_t(k.sampling) << 8) ^
         k.power_ortho;
    return static_cast<std::size_t>(h);
  }
};

/// A cached sample B (ℓ×n) together with the Step-1 cost it saved.
struct SketchEntry {
  Matrix<double> b;
  rsvd::PhaseTimes phases;  ///< Step-1 real time originally spent
  rsvd::PhaseFlops flops;
  int cholqr_fallbacks = 0;
};

/// Full-request identity: sampling plan + the finishing options.
struct ResultKey {
  SketchKey plan;
  index_t k = 0;
  index_t p = 0;
  index_t qrcp_block = 0;

  bool operator==(const ResultKey& o) const {
    return plan == o.plan && k == o.k && p == o.p &&
           qrcp_block == o.qrcp_block;
  }
};

struct ResultKeyHash {
  std::size_t operator()(const ResultKey& k) const {
    std::size_t h = SketchKeyHash{}(k.plan);
    h ^= (std::size_t(k.k) << 20) ^ (std::size_t(k.p) << 10) ^
         std::size_t(k.qrcp_block);
    return h;
  }
};

SketchKey make_sketch_key(const Fingerprint& matrix,
                          const rsvd::FixedRankOptions& opts);
ResultKey make_result_key(const Fingerprint& matrix,
                          const rsvd::FixedRankOptions& opts);

/// Full-request identity of an RQRCP factorization. Both modes key here
/// (epsilon's bit pattern is 0 in fixed-rank mode), so an idempotent
/// resubmit after a dropped result is served from cache instead of
/// re-executing — the property the chaos gate's duplicate detector
/// relies on for the new job kinds.
struct RqrcpKey {
  Fingerprint matrix;
  std::uint64_t seed = 0;
  index_t k = 0;              ///< 0 in fixed-accuracy mode
  index_t block = 0;
  index_t oversample = 0;
  std::uint64_t eps_bits = 0; ///< bit pattern of epsilon (0 = fixed-rank)
  index_t max_rank = 0;
  bool relative = false;
  bool want_q = false;

  bool operator==(const RqrcpKey& o) const {
    return matrix == o.matrix && seed == o.seed && k == o.k &&
           block == o.block && oversample == o.oversample &&
           eps_bits == o.eps_bits && max_rank == o.max_rank &&
           relative == o.relative && want_q == o.want_q;
  }
};

struct RqrcpKeyHash {
  std::size_t operator()(const RqrcpKey& k) const {
    std::uint64_t h = k.matrix.hi ^ (k.matrix.lo * 0x9E3779B97F4A7C15ull);
    h ^= k.seed + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h ^= k.eps_bits + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h ^= (std::uint64_t(k.k) << 32) ^ (std::uint64_t(k.block) << 16) ^
         (std::uint64_t(k.oversample) << 8) ^ (std::uint64_t(k.max_rank) << 2) ^
         (std::uint64_t(k.relative) << 1) ^ std::uint64_t(k.want_q);
    return static_cast<std::size_t>(h);
  }
};

/// Key for a fixed-rank (k) or fixed-accuracy (k ignored) RQRCP request.
RqrcpKey make_rqrcp_key(const Fingerprint& matrix, index_t k,
                        const qrcp::RqrcpOptions& opts);

using SketchCache = LruCache<SketchKey, SketchEntry, SketchKeyHash>;
using ResultCache =
    LruCache<ResultKey, rsvd::FixedRankResult, ResultKeyHash>;
using RqrcpCache =
    LruCache<RqrcpKey, qrcp::RqrcpResult<double>, RqrcpKeyHash>;

}  // namespace randla::runtime
