// The three workloads and the per-layer ladder.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "ats/cluster/cluster.h"
#include "common.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned nproc = 1;
  std::string out_dir;  // scratch + trace output, inside the checkout
};

// With config.trace false these set every end-to-end metric; with it
// true, an untraced half and a traced half run back to back and they set
// the per-layer metrics the traced half yields, plus bench.trace_overhead
// and the untraced half's query_p99_us and converge_s.
void RunSubsetSumConcurrent(const RunConfig& config, Result* result);
void RunDistinctFanin(const RunConfig& config, Result* result);
void RunWindowMonitor(const RunConfig& config, Result* result);

// The per-layer ladder: the workload's seeded streams replayed through
// each layer on its own. Sets every ladder-derived per-layer metric;
// metrics the traced workload run already set are left alone.
void RunLadder(const RunConfig& config, Result* result);

// distinct_fanin's cluster: Zipf keys, KMV k=4096, 8 agents under a
// fan-in-4 tree, the fixed chaos profile below, and checkpointing on
// the snapshot cadence into `checkpoint_dir`.
ats::cluster::ClusterConfig FaninConfig(uint64_t seed,
                                        const std::string& checkpoint_dir);
inline constexpr const char* kChaosProfile =
    "drop=0.05,dup=0.02,corrupt=0.02,truncate=0.01,delay=1-4,crash=0.01,"
    "down=8";

// Window length of window_monitor, in mean inter-arrival gaps: the
// window holds ~256x its k.
inline constexpr double kWindowLength = 65536.0;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
