// hash_ring.hpp — consistent-hash placement for the sharded cluster
// (DESIGN.md §11).
//
// Each shard contributes `vnodes` points to a 64-bit ring; a key is
// owned by the first point clockwise from it. Points are pure Philox
// hashes of (shard, replica), so the layout is deterministic across
// processes and restarts, and membership change has the consistent-
// hashing property the cluster's failover leans on: removing a shard
// reassigns exactly that shard's arcs (its keys scatter to ring
// neighbors) and moves nothing else, so the other shards' result/sketch
// caches keep their entire keyspace slice through the failure.
//
// Keys are 64-bit digests of the *request's matrix identity* — the
// Philox content fingerprint for inline payloads, the Philox hash of the
// generator spec key otherwise (the spec determines the materialized
// bits, so spec identity and content identity coincide for generator
// requests). Placement is therefore a pure function of the job's input
// matrix: every request for the same matrix lands on the same shard and
// its fingerprint-keyed caches see a stable slice of the keyspace.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/protocol.hpp"

namespace randla::cluster {

struct RingOptions {
  /// Virtual nodes per shard. More vnodes smooth the arc-length variance
  /// (relative imbalance ~ 1/√vnodes) at O(members·vnodes·log) lookup
  /// memory; 64 holds 4-shard imbalance to a few percent.
  int vnodes = 64;
};

/// Not thread-safe: the router's event-loop thread owns its ring, the
/// same way it owns its sockets.
class HashRing {
 public:
  explicit HashRing(RingOptions opts = {}) : opts_(opts) {}

  /// Idempotent; inserts `vnodes` points for the shard (at least one).
  /// The point set is a pure function of (shard, replica), so two
  /// routers over the same members agree without coordination.
  void add(std::uint32_t shard);
  /// Idempotent; removes exactly this shard's points (bounded remapping).
  void remove(std::uint32_t shard);
  bool contains(std::uint32_t shard) const;
  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  /// Current members, ascending.
  const std::vector<std::uint32_t>& members() const { return members_; }

  /// Owning shard for `key`: first ring point clockwise (wrapping).
  /// nullopt on an empty ring.
  std::optional<std::uint32_t> owner(std::uint64_t key) const;
  /// First *distinct* shard clockwise after the owner — the failover,
  /// replica and drain-handoff target. nullopt with fewer than two
  /// members.
  std::optional<std::uint32_t> successor(std::uint64_t key) const;

 private:
  RingOptions opts_;
  /// (point, shard), sorted by point. Philox makes collisions across
  /// distinct (shard, replica) pairs negligible; ties break by shard id.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
  std::vector<std::uint32_t> members_;  ///< sorted
};

/// Ring point for (shard, replica): one Philox4x32 block, keyed so the
/// point set is a fixed pseudo-random function of the ids.
std::uint64_t ring_point(std::uint32_t shard, std::uint32_t replica);

/// 64-bit routing key for a request (see file header): content
/// fingerprint for Inline matrices, spec-key hash for Generator specs.
std::uint64_t routing_key(const net::JobRequest& req);

}  // namespace randla::cluster
