#include "runtime/arena.hpp"

#include <algorithm>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

namespace randla::runtime {

namespace {

constexpr std::size_t kAlign = 64;
constexpr std::size_t kMinBucket = 256;  // bytes

// Power-of-two size classes keep the free lists small and make reuse
// hits common across the mixed shapes of a serving workload.
std::size_t bucket_bytes(std::size_t count) {
  std::size_t want = std::max(kMinBucket, count * sizeof(double));
  std::size_t b = kMinBucket;
  while (b < want) b <<= 1;
  return b;
}

void* aligned_alloc_block(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t{kAlign});
}

void aligned_free_block(void* p) {
  ::operator delete(p, std::align_val_t{kAlign});
}

}  // namespace

struct Arena::State {
  std::mutex mu;
  std::size_t max_free_bytes;
  std::uint64_t allocs = 0;
  std::uint64_t reuses = 0;
  std::uint64_t outstanding = 0;
  std::uint64_t leased_bytes = 0;
  std::uint64_t free_bytes = 0;
  std::unordered_map<std::size_t, std::vector<void*>> free_lists;

  explicit State(std::size_t cap) : max_free_bytes(cap) {}
  ~State() {
    for (auto& [bytes, blocks] : free_lists)
      for (void* p : blocks) aligned_free_block(p);
  }

  void release(void* p, std::size_t bytes) {
    bool park;
    {
      std::lock_guard<std::mutex> lk(mu);
      --outstanding;
      leased_bytes -= bytes;
      park = free_bytes + bytes <= max_free_bytes;
      if (park) {
        free_bytes += bytes;
        free_lists[bytes].push_back(p);
      }
    }
    if (!park) aligned_free_block(p);
  }
};

Arena::Arena(std::size_t max_free_bytes)
    : state_(std::make_shared<State>(max_free_bytes)) {}

std::shared_ptr<double> Arena::lease(std::size_t count) {
  const std::size_t bytes = bucket_bytes(count);
  void* p = nullptr;
  {
    std::lock_guard<std::mutex> lk(state_->mu);
    auto it = state_->free_lists.find(bytes);
    if (it != state_->free_lists.end() && !it->second.empty()) {
      p = it->second.back();
      it->second.pop_back();
      state_->free_bytes -= bytes;
      ++state_->reuses;
    } else {
      ++state_->allocs;
    }
    ++state_->outstanding;
    state_->leased_bytes += bytes;
  }
  if (p == nullptr) p = aligned_alloc_block(bytes);
  // The deleter co-owns the state, so leases may outlive the Arena.
  std::shared_ptr<State> state = state_;
  return std::shared_ptr<double>(static_cast<double*>(p),
                                 [state, bytes](double* q) {
                                   state->release(q, bytes);
                                 });
}

Arena::Stats Arena::stats() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  Stats s;
  s.allocs = state_->allocs;
  s.reuses = state_->reuses;
  s.outstanding = state_->outstanding;
  s.leased_bytes = state_->leased_bytes;
  s.free_bytes = state_->free_bytes;
  return s;
}

void Arena::trim() {
  std::unordered_map<std::size_t, std::vector<void*>> drop;
  {
    std::lock_guard<std::mutex> lk(state_->mu);
    drop.swap(state_->free_lists);
    state_->free_bytes = 0;
  }
  for (auto& [bytes, blocks] : drop)
    for (void* p : blocks) aligned_free_block(p);
}

}  // namespace randla::runtime
