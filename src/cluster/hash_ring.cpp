#include "cluster/hash_ring.hpp"

#include <algorithm>

#include "rng/philox.hpp"
#include "runtime/fingerprint.hpp"

namespace randla::cluster {

std::uint64_t ring_point(std::uint32_t shard, std::uint32_t replica) {
  const auto block = rng::Philox4x32::at(
      /*seed=*/shard, /*stream=*/0x72696e67ull /* "ring" */,
      /*index=*/replica);
  return (static_cast<std::uint64_t>(block[0]) << 32) | block[1];
}

void HashRing::add(std::uint32_t shard) {
  if (contains(shard)) return;
  members_.insert(std::lower_bound(members_.begin(), members_.end(), shard),
                  shard);
  const int n = std::max(1, opts_.vnodes);
  for (int r = 0; r < n; ++r)
    points_.emplace_back(ring_point(shard, static_cast<std::uint32_t>(r)),
                         shard);
  std::sort(points_.begin(), points_.end());
}

void HashRing::remove(std::uint32_t shard) {
  const auto m = std::lower_bound(members_.begin(), members_.end(), shard);
  if (m == members_.end() || *m != shard) return;
  members_.erase(m);
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [shard](const auto& p) {
                                 return p.second == shard;
                               }),
                points_.end());
}

bool HashRing::contains(std::uint32_t shard) const {
  return std::binary_search(members_.begin(), members_.end(), shard);
}

std::optional<std::uint32_t> HashRing::owner(std::uint64_t key) const {
  if (points_.empty()) return std::nullopt;
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const auto& p, std::uint64_t k) { return p.first < k; });
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->second;
}

std::optional<std::uint32_t> HashRing::successor(std::uint64_t key) const {
  if (members_.size() < 2) return std::nullopt;
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const auto& p, std::uint64_t k) { return p.first < k; });
  if (it == points_.end()) it = points_.begin();
  const std::uint32_t own = it->second;
  // Walk clockwise to the first point of a different shard; bounded by
  // the ring size, and guaranteed to terminate with ≥ 2 members.
  for (std::size_t step = 1; step <= points_.size(); ++step) {
    const auto& p = points_[(static_cast<std::size_t>(it - points_.begin()) +
                             step) %
                            points_.size()];
    if (p.second != own) return p.second;
  }
  return std::nullopt;
}

std::uint64_t routing_key(const net::JobRequest& req) {
  if (req.matrix.source == net::MatrixSource::Inline) {
    const runtime::Fingerprint fp =
        runtime::fingerprint_matrix(req.matrix.inline_data.view());
    return fp.hi ^ fp.lo;
  }
  // Generator spec: hash the canonical spec key (the same string the
  // server memoizes materialized matrices under).
  const runtime::Fingerprint fp =
      runtime::fingerprint_bytes(net::spec_key(req.matrix));
  return fp.hi ^ fp.lo;
}

}  // namespace randla::cluster
