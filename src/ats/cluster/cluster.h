// ClusterSim: the in-process distributed aggregation harness.
//
// N agent nodes ingest synthetic traffic (Zipf / Pitman-Yor / uniform,
// src/ats/workload) and ship cumulative KMV snapshots on a cadence up a
// configurable fan-in tree to a root aggregator, over a FaultyTransport
// that injects drop/duplicate/reorder/delay/corrupt/truncate faults
// deterministically from a seed. Agents can additionally crash (losing
// volatile state) and restart by replaying their durable key log.
//
// Everything runs on a simulated tick clock in ONE thread: a scenario is
// a pure function of its ClusterConfig, so a chaos run replays
// byte-for-byte (the CI determinism check relies on this), and the
// sanitizer legs exercise the protocol logic without scheduling noise.
//
// Per-tick order (fixed -- this ordering IS the determinism contract):
//   1. restarts due this tick (agents in id order)
//   2. ingest, while the ingest phase lasts (agents in id order)
//   3. crash draws, ingest phase only (agents in id order)
//   4. transport deliveries due this tick, acks sent as they are handled
//   5. cadence snapshot emission (agents, then interior aggregators)
//   6. outbox (re)transmissions due this tick
//
// Convergence: because snapshots are cumulative and the bottom-k union
// is idempotent / commutative / prefix-absorbing, ANY schedule of
// losses, duplicates, reorderings, and crash-replays that eventually
// delivers each node's final snapshot converges the root to the
// fault-free flat merge bit-exactly. The harness exposes that reference
// (FaultFreeRootFrame) plus exact-distinct ground truth for
// Horvitz-Thompson accuracy checks at intermediate steps.
#ifndef ATS_CLUSTER_CLUSTER_H_
#define ATS_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ats/cluster/node.h"
#include "ats/cluster/transport.h"
#include "ats/core/random.h"
#include "ats/workload/pitman_yor.h"
#include "ats/workload/zipf.h"

namespace ats::cluster {

struct ClusterConfig {
  uint64_t num_agents = 8;
  // Children per aggregator; 0 = flat (every agent under the root).
  uint64_t fan_in = 0;
  size_t k = 1024;
  uint64_t hash_salt = 0x5eed;
  uint64_t seed = 42;

  enum class Workload { kUniform, kZipf, kPitmanYor };
  Workload workload = Workload::kUniform;
  uint64_t universe = 1 << 16;  // uniform / zipf key space
  double zipf_s = 1.1;
  double py_beta = 0.5;

  uint64_t keys_per_tick = 64;  // per agent
  uint64_t ingest_ticks = 32;
  uint64_t snapshot_every = 4;  // cadence, in ticks

  FaultProfile faults;
  RetryPolicy retry;
  // Per-agent, per-ingest-tick crash probability (crashes stop with the
  // ingest phase so the drain terminates).
  double agent_crash_rate = 0.0;
  uint64_t crash_down_ticks = 8;

  // Durable checkpointing (persist/checkpoint.h): when every_epochs > 0
  // and a directory is given, each agent checkpoints its sketch on the
  // snapshot cadence once that many keys accumulated since the last
  // durable checkpoint, truncating its replay log to the uncovered
  // suffix; restarts then restore-and-replay the bounded tail. The
  // directory must exist and be writable; one file per agent.
  uint64_t checkpoint_every_epochs = 0;
  std::string checkpoint_dir;

  // Drain-phase safety valve for RunUntilQuiescent.
  uint64_t max_ticks = 1 << 16;
};

// Snapshot of cluster-wide accounting, for tests and the bench.
struct ClusterMetrics {
  TransportStats transport;
  RejectCounters root_rejects;
  uint64_t root_frames_applied = 0;
  uint64_t frames_enqueued = 0;
  uint64_t retransmissions = 0;
  uint64_t superseded_cancelled = 0;
  uint64_t superseded_bytes_saved = 0;
  // What a protocol that re-ships every live agent's full snapshot at
  // every cadence point (no acks, no change detection, no supersession)
  // would have put on the wire. The bench reports bytes_on_wire against
  // this baseline.
  uint64_t naive_reship_bytes = 0;
  uint64_t agent_crashes = 0;
  uint64_t ticks = 0;
  // Persistence-tier accounting (zero when checkpointing is disabled).
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_write_failures = 0;
  uint64_t checkpoint_restores = 0;
  uint64_t checkpoint_restore_failures = 0;
  // Live heap bytes across every node (agents + aggregators), per the
  // MemoryFootprint convention (util/memory.h).
  uint64_t node_memory_bytes = 0;
};

class ClusterSim {
 public:
  explicit ClusterSim(const ClusterConfig& config);

  // One simulated tick in the fixed order documented above.
  void Tick();

  // True once ingest is over, no agent is down, the transport is empty,
  // and every node has emitted and been acked for its final snapshot --
  // i.e. the root holds its terminal state.
  bool Quiescent() const;

  // Runs the ingest phase (config.ingest_ticks ticks).
  void RunIngest();

  // Ticks until Quiescent() or config.max_ticks elapse; returns whether
  // quiescence was reached.
  bool RunUntilQuiescent();

  bool IngestDone() const { return now_ >= config_.ingest_ticks; }
  uint64_t now() const { return now_; }

  const AggregatorNode& root() const { return *aggregators_.back(); }
  const std::vector<std::unique_ptr<AgentNode>>& agents() const {
    return agents_;
  }
  size_t num_aggregators() const { return aggregators_.size(); }

  ClusterMetrics Metrics() const;

  // ------------------------------ ground truth ------------------------

  // The fault-free reference: a flat MergeManyFrames over every agent's
  // full-history sketch, serialized. Chaos runs must converge the root
  // to these bytes exactly. Computed from the sim's shadow history, not
  // the agents' replay logs: with checkpointing enabled the logs are
  // truncated tails, while the reference needs the whole stream.
  std::string FaultFreeRootFrame() const;

  // Exact distinct count over every agent's full key history.
  uint64_t ExactDistinctTotal() const;

  // Exact distinct count over the history PREFIXES the root has applied
  // (history[0, applied_epoch) per agent) -- the coverage of the root's
  // current answer. Meaningful for the flat topology, where root epochs
  // are per-agent stream offsets.
  uint64_t ExactDistinctApplied() const;

  // Every key agent `id` ever ingested, in order (the sim-side shadow
  // of the agents' -- possibly truncated -- replay logs; ground truth
  // for the checkpointed chaos assertions).
  const std::vector<uint64_t>& History(uint64_t id) const {
    return history_[id];
  }

  // Live heap bytes across every node, per util/memory.h. Excludes the
  // sim's own bookkeeping (shadow history, workload generators).
  size_t NodeMemoryFootprint() const;

 private:
  void IngestTick();
  void CrashTick();
  void DeliverTick();
  void EmitTick();
  void SendTick();
  void Dispatch(const Delivery& delivery);

  ClusterConfig config_;
  uint64_t now_ = 0;
  FaultyTransport transport_;
  Xoshiro256 chaos_rng_;  // crash draws, independent of the transport
  std::vector<std::unique_ptr<AgentNode>> agents_;
  // Built bottom-up in level order; aggregators_.back() is the root.
  std::vector<std::unique_ptr<AggregatorNode>> aggregators_;
  // parent_of_[node id] = destination node id for upward frames.
  std::vector<uint64_t> parent_of_;
  // Workload state, one generator per agent (Zipf/PY are stateful; the
  // Zipf generators share one table).
  std::vector<ZipfGenerator> zipf_;
  std::vector<std::unique_ptr<PitmanYorStream>> pitman_yor_;
  std::vector<Xoshiro256> uniform_rng_;
  uint64_t naive_reship_bytes_ = 0;
  // Shadow of every agent's full key stream (appended in lockstep with
  // Ingest, which records keys even while the agent is down). The
  // ground-truth queries read this so they stay exact after the agents'
  // replay logs are truncated by checkpoints.
  std::vector<std::vector<uint64_t>> history_;
};

}  // namespace ats::cluster

#endif  // ATS_CLUSTER_CLUSTER_H_
