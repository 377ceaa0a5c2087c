// test_cluster_ring.cpp — consistent-hash ring unit tests: placement
// determinism, vnode-driven balance across shards, exact bounded
// remapping on membership change (remove moves only the removed shard's
// keys, and they land on their pre-failure successor), add-back
// restoring the original layout, and routing-key stability for both
// inline and generator matrix specs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "rng/philox.hpp"

using namespace randla;
using namespace randla::cluster;

namespace {

constexpr int kShards = 4;
constexpr int kKeys = 10000;

/// Philox-derived sample keys on a stream disjoint from ring_point's, so
/// tests exercise placement rather than hash self-correlation.
std::vector<std::uint64_t> sample_keys(int count) {
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto block = rng::Philox4x32::at(
        /*seed=*/7, /*stream=*/0x6b657973ull /* "keys" */,
        /*index=*/static_cast<std::uint64_t>(i));
    keys.push_back((static_cast<std::uint64_t>(block[0]) << 32) | block[1]);
  }
  return keys;
}

HashRing ring_of(int shards, int vnodes) {
  RingOptions opts;
  opts.vnodes = vnodes;
  HashRing ring(opts);
  for (int s = 0; s < shards; ++s) ring.add(static_cast<std::uint32_t>(s));
  return ring;
}

std::map<std::uint32_t, int> owner_counts(const HashRing& ring,
                                          const std::vector<std::uint64_t>& keys) {
  std::map<std::uint32_t, int> counts;
  for (std::uint64_t k : keys) {
    const auto o = ring.owner(k);
    EXPECT_TRUE(o.has_value());
    ++counts[*o];
  }
  return counts;
}

net::JobRequest generator_request(const std::string& gen, std::uint64_t seed,
                                  index_t m, index_t n) {
  net::JobRequest req;
  req.matrix.source = net::MatrixSource::Generator;
  req.matrix.generator = gen;
  req.matrix.seed = seed;
  req.matrix.m = m;
  req.matrix.n = n;
  return req;
}

}  // namespace

TEST(ClusterRing, RingPointsAreDeterministic) {
  EXPECT_EQ(ring_point(0, 0), ring_point(0, 0));
  EXPECT_NE(ring_point(0, 0), ring_point(0, 1));
  EXPECT_NE(ring_point(0, 0), ring_point(1, 0));
}

TEST(ClusterRing, OwnerIndependentOfInsertionOrder) {
  RingOptions opts;
  opts.vnodes = 32;
  HashRing forward(opts), backward(opts);
  for (int s = 0; s < kShards; ++s) forward.add(static_cast<std::uint32_t>(s));
  for (int s = kShards - 1; s >= 0; --s)
    backward.add(static_cast<std::uint32_t>(s));
  for (std::uint64_t k : sample_keys(1000))
    EXPECT_EQ(forward.owner(k), backward.owner(k));
}

TEST(ClusterRing, EmptyAndSingleMemberEdges) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.owner(42).has_value());
  EXPECT_FALSE(ring.successor(42).has_value());
  ring.add(9);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.owner(42).value(), 9u);
  // A lone member has no distinct successor.
  EXPECT_FALSE(ring.successor(42).has_value());
  ring.add(9);  // idempotent
  EXPECT_EQ(ring.size(), 1u);
  ring.remove(3);  // absent: no-op
  EXPECT_EQ(ring.size(), 1u);
}

TEST(ClusterRing, UniformityAcrossFourShards) {
  const auto keys = sample_keys(kKeys);
  const auto counts = owner_counts(ring_of(kShards, 64), keys);
  ASSERT_EQ(counts.size(), static_cast<std::size_t>(kShards));
  // Everything here is deterministic, so the bound is a regression
  // tripwire, not a statistical test: 64 vnodes hold per-shard load to
  // well within ±25% of fair share (the measured spread is a few
  // percent; 1/√vnodes ≈ 12.5% relative arc-length deviation).
  const double expected = static_cast<double>(kKeys) / kShards;
  int total = 0;
  for (const auto& [shard, count] : counts) {
    EXPECT_GT(count, expected * 0.75) << "shard " << shard << " starved";
    EXPECT_LT(count, expected * 1.25) << "shard " << shard << " overloaded";
    total += count;
  }
  EXPECT_EQ(total, kKeys);
}

TEST(ClusterRing, VnodesImproveBalance) {
  const auto keys = sample_keys(kKeys);
  const auto spread = [&keys](int vnodes) {
    const auto counts = owner_counts(ring_of(kShards, vnodes), keys);
    int lo = kKeys, hi = 0;
    for (const auto& [shard, count] : counts) {
      (void)shard;
      lo = std::min(lo, count);
      hi = std::max(hi, count);
    }
    return hi - lo;
  };
  // One point per shard leaves arc lengths exponentially spread; 64
  // vnodes must strictly tighten the max-min gap.
  EXPECT_LT(spread(64), spread(1));
}

TEST(ClusterRing, RemovalRemapsOnlyTheRemovedShardsKeys) {
  const auto keys = sample_keys(kKeys);
  HashRing ring = ring_of(kShards, 64);

  std::vector<std::uint32_t> before, successor_before;
  before.reserve(keys.size());
  successor_before.reserve(keys.size());
  for (std::uint64_t k : keys) {
    before.push_back(ring.owner(k).value());
    successor_before.push_back(ring.successor(k).value());
  }

  constexpr std::uint32_t kVictim = 2;
  ring.remove(kVictim);
  EXPECT_FALSE(ring.contains(kVictim));

  int moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t after = ring.owner(keys[i]).value();
    if (before[i] != kVictim) {
      // The consistent-hashing contract, exactly: survivors keep every
      // key they owned.
      ASSERT_EQ(after, before[i]) << "key " << i << " moved off a survivor";
    } else {
      // Orphaned keys land on their pre-failure successor — the shard
      // hot-key replicas and drain handoff warm — never back on the
      // victim.
      ASSERT_EQ(after, successor_before[i]);
      ++moved;
    }
  }
  // The victim owned roughly a fair quarter of the keyspace.
  EXPECT_GT(moved, kKeys / kShards / 2);
  EXPECT_LT(moved, kKeys / kShards * 2);
}

TEST(ClusterRing, AddBackRestoresOriginalLayout) {
  const auto keys = sample_keys(kKeys);
  HashRing ring = ring_of(kShards, 64);
  std::vector<std::uint32_t> before;
  before.reserve(keys.size());
  for (std::uint64_t k : keys) before.push_back(ring.owner(k).value());

  ring.remove(1);
  ring.add(1);  // recovered shard readmitted

  for (std::size_t i = 0; i < keys.size(); ++i)
    ASSERT_EQ(ring.owner(keys[i]).value(), before[i]);
}

TEST(ClusterRing, SuccessorIsDistinctFromOwner) {
  HashRing ring = ring_of(kShards, 64);
  for (std::uint64_t k : sample_keys(1000)) {
    const auto own = ring.owner(k);
    const auto succ = ring.successor(k);
    ASSERT_TRUE(own.has_value());
    ASSERT_TRUE(succ.has_value());
    EXPECT_NE(*own, *succ);
  }
}

TEST(ClusterRing, RoutingKeyGeneratorSpecIdentity) {
  const net::JobRequest a = generator_request("lowrank", 11, 96, 48);
  net::JobRequest same = generator_request("lowrank", 11, 96, 48);
  // Fields outside the matrix spec must not shift placement: affinity is
  // a function of the input matrix, not the request envelope.
  same.request_id = 777;
  same.tag = "other";
  same.k = 32;
  EXPECT_EQ(routing_key(a), routing_key(same));

  EXPECT_NE(routing_key(a), routing_key(generator_request("lowrank", 12, 96, 48)));
  EXPECT_NE(routing_key(a), routing_key(generator_request("gaussian", 11, 96, 48)));
  EXPECT_NE(routing_key(a), routing_key(generator_request("lowrank", 11, 48, 96)));
}

TEST(ClusterRing, RoutingKeyInlineMatchesContent) {
  Matrix<double> m(4, 3);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 4; ++i) m(i, j) = 0.25 * double(i) - double(j);

  net::JobRequest a;
  a.matrix.source = net::MatrixSource::Inline;
  a.matrix.inline_data = m;
  a.matrix.m = 4;
  a.matrix.n = 3;

  net::JobRequest b = a;
  b.request_id = 99;  // envelope churn, same payload
  EXPECT_EQ(routing_key(a), routing_key(b));

  b.matrix.inline_data(2, 1) += 1e-9;  // any content change re-keys
  EXPECT_NE(routing_key(a), routing_key(b));
}
