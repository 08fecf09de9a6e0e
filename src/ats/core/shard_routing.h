// Shared shard-routing constants for the sharded and concurrent
// front-ends. The sequential front-ends (ShardedSampler,
// ShardedWindowSampler, ShardedDecaySampler) and their concurrent
// counterparts (concurrent_sampler.h) must route keys identically and
// derive per-shard seeds identically: that is what makes a concurrent
// front-end bit-equivalent to its sequential sibling over the same
// stream, which the differential tests rely on.
#ifndef ATS_CORE_SHARD_ROUTING_H_
#define ATS_CORE_SHARD_ROUTING_H_

#include <cstdint>

namespace ats::internal {

// Salt for the shard-routing hash of the keyed front-ends. Distinct from
// the (salt-0) priority hash so the routing decision is independent of
// the priority value.
inline constexpr uint64_t kShardRouteSalt = 0x5ca1ab1e0ddba11ULL;

// Salt for the time-axis front-ends; distinct from every priority salt
// so routing never biases per-shard priorities.
inline constexpr uint64_t kTimeAxisRouteSalt = 0x7e11ca7a11afe77ULL;

// Per-shard seed stride: shard s of a front-end constructed with `seed`
// is seeded with seed + s * kShardSeedStride (the 64-bit golden ratio,
// so per-shard seeds never collide for realistic shard counts).
inline constexpr uint64_t kShardSeedStride = 0x9e3779b97f4a7c15ULL;

}  // namespace ats::internal

#endif  // ATS_CORE_SHARD_ROUTING_H_
