// Test-local oracle for the sharded front-end (concurrent_sampler.h):
// the same S shard samplers built sequentially -- shard s seeded
// seed + s * kShardSeedStride, every item routed by its own salted hash
// -- and merged with the shard type's MergeMany into a fresh seed-1
// sampler. It shares nothing with ConcurrentSampler beyond the routing
// constants of shard_routing.h, so a front-end snapshot equal to its
// merge bit for bit shows the front-end's routing, seeding and fold are
// right, independently of how the front-end computes them.
#ifndef ATS_TESTS_SHARDED_REFERENCE_H_
#define ATS_TESTS_SHARDED_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ats/core/bottom_k.h"
#include "ats/core/random.h"
#include "ats/core/shard_routing.h"
#include "ats/samplers/sliding_window.h"
#include "ats/samplers/time_decay.h"

namespace ats {

template <typename Shard>
class ShardedReference {
 public:
  /// `make(seed)` builds one empty shard sampler.
  ShardedReference(size_t num_shards, uint64_t route_salt,
                   uint64_t seed, std::function<Shard(uint64_t)> make)
      : route_salt_(route_salt), make_(std::move(make)) {
    for (size_t s = 0; s < num_shards; ++s) {
      shards_.push_back(make_(seed + internal::kShardSeedStride * s));
    }
  }

  /// The shard `key` routes to; feed it through the shard's own API.
  Shard& ShardFor(uint64_t key) {
    return shards_[HashKey(key, route_salt_) % shards_.size()];
  }
  const Shard& shard(size_t s) const { return shards_[s]; }
  size_t num_shards() const { return shards_.size(); }

  /// The k-way merge of every shard into a fresh seed-1 sampler.
  Shard Merged() const {
    Shard merged = make_(1);
    std::vector<const Shard*> inputs;
    for (const Shard& shard : shards_) inputs.push_back(&shard);
    merged.MergeMany(inputs);
    return merged;
  }

 private:
  uint64_t route_salt_;
  std::function<Shard(uint64_t)> make_;
  std::vector<Shard> shards_;
};

inline ShardedReference<PrioritySampler> PriorityReference(
    size_t num_shards, size_t k, bool coordinated = true, uint64_t seed = 1) {
  return {num_shards, internal::kShardRouteSalt, seed,
          [k, coordinated](uint64_t s) {
            return PrioritySampler(k, s, coordinated);
          }};
}

inline ShardedReference<SlidingWindowSampler> WindowReference(
    size_t num_shards, size_t k, double window, uint64_t seed = 1) {
  return {num_shards, internal::kTimeAxisRouteSalt, seed,
          [k, window](uint64_t s) {
            return SlidingWindowSampler(k, window, s);
          }};
}

inline ShardedReference<TimeDecaySampler> DecayReference(size_t num_shards,
                                                         size_t k,
                                                         uint64_t seed = 1) {
  return {num_shards, internal::kTimeAxisRouteSalt, seed,
          [k](uint64_t s) { return TimeDecaySampler(k, s); }};
}

}  // namespace ats

#endif  // ATS_TESTS_SHARDED_REFERENCE_H_
