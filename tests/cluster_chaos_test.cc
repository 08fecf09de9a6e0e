// Chaos test matrix for the aggregation cluster (ISSUE 7 acceptance):
// sweeps fault profiles -- drop / duplicate / reorder / corrupt /
// truncate at rates up to 20%, plus agent crash/restart -- across flat
// and fan-in-tree topologies, asserting that
//   (a) with acks + retries, every scenario converges the root
//       BIT-EXACTLY to the fault-free flat merge of all agent logs,
//   (b) the root estimate stays within the Horvitz-Thompson confidence
//       bound of the exact distinct count over the applied coverage at
//       every intermediate step (graceful degradation, never a wrong
//       answer),
//   (c) corrupt/truncated frames are rejected with typed reasons and
//       never merged, and
//   (d) a fixed seed reproduces the entire run byte-identically.
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ats/cluster/cluster.h"
#include "ats/cluster/envelope.h"
#include "ats/persist/checkpoint.h"
#include "ats/sketch/kmv.h"

namespace ats::cluster {
namespace {

struct Scenario {
  const char* name;
  FaultProfile faults;
  double crash_rate = 0.0;
};

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> s;
  s.push_back({"fault_free", FaultProfile::None()});
  {
    FaultProfile p;
    p.drop_rate = 0.2;
    s.push_back({"drop20", p});
  }
  {
    FaultProfile p;
    p.duplicate_rate = 0.2;
    s.push_back({"duplicate20", p});
  }
  {
    FaultProfile p;
    p.max_delay_ticks = 9;  // jitter window: heavy reordering
    s.push_back({"reorder", p});
  }
  {
    FaultProfile p;
    p.corrupt_rate = 0.2;
    s.push_back({"corrupt20", p});
  }
  {
    FaultProfile p;
    p.truncate_rate = 0.2;
    s.push_back({"truncate20", p});
  }
  {
    FaultProfile p;
    p.drop_rate = 0.1;
    p.duplicate_rate = 0.1;
    p.corrupt_rate = 0.1;
    p.truncate_rate = 0.1;
    p.max_delay_ticks = 5;
    s.push_back({"mixed", p});
  }
  {
    FaultProfile p;
    p.drop_rate = 0.1;
    p.max_delay_ticks = 4;
    s.push_back({"drop_and_crash", p, /*crash_rate=*/0.02});
  }
  return s;
}

ClusterConfig BaseConfig(const Scenario& scenario, uint64_t num_agents,
                         uint64_t fan_in) {
  ClusterConfig config;
  config.num_agents = num_agents;
  config.fan_in = fan_in;
  config.k = 256;  // small k: the root saturates, exercising HT bounds
  config.seed = 0xc1a05;
  config.workload = ClusterConfig::Workload::kUniform;
  config.universe = 1 << 14;
  config.keys_per_tick = 64;
  config.ingest_ticks = 32;
  config.snapshot_every = 4;
  config.faults = scenario.faults;
  config.agent_crash_rate = scenario.crash_rate;
  config.crash_down_ticks = 6;
  return config;
}

// HT accuracy: exact while unsaturated; within 6n/sqrt(k) (~6 sigma of
// the bottom-k estimator's relative error) once saturated.
void ExpectWithinHtBound(const ClusterSim& sim, uint64_t exact,
                         const char* when) {
  const double est = sim.root().Estimate();
  if (!sim.root().merged().saturated()) {
    EXPECT_NEAR(est, static_cast<double>(exact), 1e-6) << when;
  } else {
    const double slack =
        6.0 * static_cast<double>(exact) /
        std::sqrt(static_cast<double>(sim.root().merged().k()));
    EXPECT_NEAR(est, static_cast<double>(exact), slack) << when;
  }
}

class ChaosMatrix : public ::testing::TestWithParam<Scenario> {};

TEST_P(ChaosMatrix, FlatTopologyConvergesBitExactlyWithAccurateInterim) {
  const Scenario& scenario = GetParam();
  ClusterSim sim(BaseConfig(scenario, /*num_agents=*/8, /*fan_in=*/0));

  // (b): at EVERY intermediate step the root answers from its last
  // consistent snapshot, and that answer is HT-accurate for the exact
  // distinct count over the coverage it claims (the applied prefixes).
  while (!sim.IngestDone()) {
    sim.Tick();
    ExpectWithinHtBound(sim, sim.ExactDistinctApplied(), "mid-ingest");
  }
  ASSERT_TRUE(sim.RunUntilQuiescent()) << scenario.name;

  // (a): bit-exact convergence to the fault-free flat merge.
  EXPECT_EQ(sim.root().SnapshotFrame(), sim.FaultFreeRootFrame())
      << scenario.name;
  ExpectWithinHtBound(sim, sim.ExactDistinctTotal(), "after quiescence");

  // Quiescence means no subtree is stale anymore.
  for (const SubtreeStaleness& s : sim.root().Staleness()) {
    EXPECT_EQ(s.epochs_behind(), 0u) << scenario.name;
    EXPECT_EQ(s.last_applied_epoch,
              sim.agents()[s.child_id]->log().size());
  }

  // (c): injected wire damage surfaces as typed, counted rejections --
  // and none of it ever reached the merged state (the bit-exact check
  // above is the strong form of "zero corrupt frames merged").
  const ClusterMetrics m = sim.Metrics();
  if (scenario.faults.corrupt_rate > 0.0) {
    EXPECT_GT(m.root_rejects.corrupt_body + m.root_rejects.bad_magic +
                  m.root_rejects.bad_version + m.root_rejects.truncated,
              0u);
  }
  if (scenario.faults.truncate_rate > 0.0) {
    EXPECT_GT(m.root_rejects.truncated, 0u);
  }
  if (scenario.faults.drop_rate > 0.0) {
    EXPECT_GT(m.retransmissions, 0u);  // retries did the healing
  }
  if (scenario.faults.duplicate_rate > 0.0) {
    EXPECT_GT(m.transport.duplicated, 0u);
    EXPECT_GT(m.root_rejects.duplicate_seq, 0u);
  }
  if (scenario.crash_rate > 0.0) {
    EXPECT_GT(m.agent_crashes, 0u);
  }
  EXPECT_EQ(m.root_rejects.payload_rejected, 0u)
      << "agents never produce poison frames";
}

TEST_P(ChaosMatrix, FanInTreeConvergesBitExactly) {
  const Scenario& scenario = GetParam();
  ClusterSim sim(BaseConfig(scenario, /*num_agents=*/12, /*fan_in=*/3));
  ASSERT_GT(sim.num_aggregators(), 1u);  // genuinely multi-level

  sim.RunIngest();
  ASSERT_TRUE(sim.RunUntilQuiescent()) << scenario.name;
  // Tree merge == flat merge, bit for bit: the bottom-k union is
  // associative and cumulative interior snapshots absorb their history.
  EXPECT_EQ(sim.root().SnapshotFrame(), sim.FaultFreeRootFrame())
      << scenario.name;
  ExpectWithinHtBound(sim, sim.ExactDistinctTotal(), "after quiescence");
}

TEST_P(ChaosMatrix, FixedSeedReproducesRunByteIdentically) {
  // (d): the whole scenario -- faults, crashes, retries, merges -- is a
  // pure function of the config. CI reruns one scenario and diffs the
  // serialized root state; this covers the full matrix.
  const Scenario& scenario = GetParam();
  const auto run = [&] {
    ClusterSim sim(BaseConfig(scenario, 8, 3));
    sim.RunIngest();
    EXPECT_TRUE(sim.RunUntilQuiescent());
    const ClusterMetrics m = sim.Metrics();
    return std::make_tuple(sim.root().SnapshotFrame(),
                           m.transport.bytes_on_wire,
                           m.transport.copies_transmitted, m.ticks,
                           m.retransmissions, m.agent_crashes);
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Cluster, ChaosMatrix,
                         ::testing::ValuesIn(Scenarios()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ---------------------------------------------------------------------
// Persistence tier under chaos (PR 8): the SAME fault matrix with
// durable checkpointing enabled. Logs stay bounded (truncated at every
// successful checkpoint), restarts restore-then-replay the suffix, and
// none of it may perturb the bit-exact convergence contract.

// A fresh, empty checkpoint directory per scenario: a stale file from a
// previous run covers a DIFFERENT key stream, and the whole point of
// the epoch-range consistency check is that such a file must never be
// restored -- so the tests start clean to make every restore meaningful.
std::string FreshCheckpointDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("ats_chaos_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// The fresh-sketch reference for one agent: the full shadow history,
// replayed in order. Restart-from-checkpoint-then-replay-suffix must be
// bit-identical to this (KMV state is a pure function of the key
// sequence and serialization is canonical).
std::string FullReplayFrame(const ClusterSim& sim, uint64_t id,
                            const ClusterConfig& config) {
  KmvSketch reference(config.k, 1.0, config.hash_salt);
  reference.AddKeys(sim.History(id));
  return reference.SerializeToString();
}

class CheckpointedChaosMatrix : public ::testing::TestWithParam<Scenario> {
};

TEST_P(CheckpointedChaosMatrix, ConvergesBitExactlyWithBoundedLogs) {
  const Scenario& scenario = GetParam();
  ClusterConfig config = BaseConfig(scenario, /*num_agents=*/8,
                                    /*fan_in=*/0);
  config.checkpoint_every_epochs = 256;
  config.checkpoint_dir =
      FreshCheckpointDir(std::string("flat_") + scenario.name);
  ClusterSim sim(config);

  sim.RunIngest();
  ASSERT_TRUE(sim.RunUntilQuiescent()) << scenario.name;

  // The convergence contract is unchanged by the persistence tier.
  EXPECT_EQ(sim.root().SnapshotFrame(), sim.FaultFreeRootFrame())
      << scenario.name;

  const ClusterMetrics m = sim.Metrics();
  EXPECT_GT(m.checkpoints_written, 0u);
  EXPECT_EQ(m.checkpoint_write_failures, 0u);
  EXPECT_GT(m.node_memory_bytes, 0u);
  // Every crash leads to exactly one restart, and every restart with
  // checkpointing configured attempts exactly one restore (a failure
  // here is the fail-closed full-log path, e.g. crashing before the
  // first checkpoint existed).
  EXPECT_EQ(m.checkpoint_restores + m.checkpoint_restore_failures,
            m.agent_crashes)
      << scenario.name;

  const uint64_t total_keys = config.keys_per_tick * config.ingest_ticks;
  for (const auto& agent : sim.agents()) {
    // Epochs are global stream offsets: truncation must not lose count.
    EXPECT_EQ(agent->epoch(), sim.History(agent->id()).size());
    EXPECT_EQ(agent->epoch(), total_keys);
    // The durable log is BOUNDED: truncated at each checkpoint, it holds
    // only the suffix since the last one -- never the whole stream.
    EXPECT_LT(agent->log().size(), total_keys) << scenario.name;
    EXPECT_EQ(agent->epochs_since_checkpoint(), agent->log().size());
    EXPECT_LE(agent->epochs_since_checkpoint(),
              config.checkpoint_every_epochs +
                  config.snapshot_every * config.keys_per_tick);
    // And the recovered/levelled sketch matches the full-history replay
    // bit for bit.
    EXPECT_EQ(agent->sketch().SerializeToString(),
              FullReplayFrame(sim, agent->id(), config))
        << scenario.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Cluster, CheckpointedChaosMatrix,
                         ::testing::ValuesIn(Scenarios()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(ClusterCheckpoint, RestartFromCheckpointIsBitIdenticalToFullReplay) {
  // Forces the restore path deterministically: run a checkpointed,
  // fault-free cluster, then crash an agent BY HAND after checkpoints
  // exist and restart it. The recovered sketch must be bit-identical to
  // a fresh full-history replay, and the restore (not the full-log
  // fallback) must be what produced it.
  ClusterConfig config;
  config.num_agents = 4;
  config.k = 256;
  config.seed = 0xd00d;
  config.keys_per_tick = 64;
  config.ingest_ticks = 16;
  config.snapshot_every = 4;
  config.checkpoint_every_epochs = 128;
  config.checkpoint_dir = FreshCheckpointDir("manual_restart");
  ClusterSim sim(config);
  sim.RunIngest();

  AgentNode& agent = *sim.agents()[0];
  ASSERT_GT(agent.checkpoints_written(), 0u);
  ASSERT_LT(agent.log().size(), agent.epoch()) << "log must be truncated";

  const std::string expected = FullReplayFrame(sim, 0, config);
  ASSERT_EQ(agent.sketch().SerializeToString(), expected)
      << "pre-crash state is the full-stream sketch";

  agent.Crash(sim.now(), /*down_ticks=*/0);
  EXPECT_NE(agent.sketch().SerializeToString(), expected)
      << "volatile state must actually be lost";
  agent.MaybeRestart(sim.now());

  EXPECT_EQ(agent.checkpoint_restores(), 1u)
      << "recovery must come from the checkpoint, not the full log";
  EXPECT_EQ(agent.checkpoint_restore_failures(), 0u);
  EXPECT_EQ(agent.sketch().SerializeToString(), expected)
      << "restore + bounded-suffix replay == full replay, bit for bit";
}

TEST(ClusterCheckpoint, CadenceCheckpointCarriesTheOutboxSnapshot) {
  // One serialization per agent per cadence point: the checkpoint the
  // disk gets and the snapshot the outbox enqueued cover the same stream
  // position, so they must be the same payload bytes. Checked at every
  // cadence point of a fixed-seed checkpointed chaos run under a fan-in
  // tree (crashes included, so restored agents are covered too).
  ClusterConfig config = BaseConfig(Scenarios().back(), /*num_agents=*/8,
                                    /*fan_in=*/4);
  ASSERT_GT(config.agent_crash_rate, 0.0);
  config.checkpoint_every_epochs = config.snapshot_every * config.keys_per_tick;
  config.checkpoint_dir = FreshCheckpointDir("cadence_payload");
  ClusterSim sim(config);

  uint64_t compared = 0;
  while (!sim.IngestDone() || !sim.Quiescent()) {
    ASSERT_LT(sim.now(), config.max_ticks);
    std::vector<uint64_t> written_before;
    for (const auto& agent : sim.agents()) {
      written_before.push_back(agent->checkpoints_written());
    }
    sim.Tick();
    for (const auto& agent : sim.agents()) {
      if (agent->checkpoints_written() == written_before[agent->id()]) {
        continue;
      }
      SCOPED_TRACE("agent " + std::to_string(agent->id()) + " tick " +
                   std::to_string(sim.now()));
      ASSERT_EQ(sim.now() % config.snapshot_every, 0u)
          << "checkpoints are written at cadence points only";
      persist::CheckpointReader reader;
      ASSERT_EQ(persist::CheckpointReader::Open(
                    agent->checkpoint_policy().path, &reader,
                    persist::OpenMode::kBuffered),
                persist::CheckpointFault::kNone);
      EnvelopeView sent;
      ASSERT_EQ(DecodeEnvelope(agent->outbox().newest_envelope(), &sent),
                FrameFault::kNone);
      EXPECT_EQ(sent.epoch, reader.epoch());
      EXPECT_EQ(sent.payload, reader.payload());
      ++compared;
    }
  }
  const ClusterMetrics m = sim.Metrics();
  EXPECT_EQ(compared, m.checkpoints_written);
  EXPECT_GT(m.checkpoints_written, 0u);
  EXPECT_GT(m.checkpoint_restores, 0u);
  EXPECT_EQ(sim.root().SnapshotFrame(), sim.FaultFreeRootFrame());
  // The naive re-ship baseline is counted from frame lengths
  // (KmvSketch::SerializedSize), not built frames; the pinned count is
  // the sum of the built frames' sizes for this run.
  EXPECT_EQ(m.naive_reship_bytes, 466372u);
}

TEST(ClusterCheckpoint, MissingCheckpointFailsClosedToFullLogReplay) {
  // With checkpointing configured but no file yet (crash before the
  // first cadence point), recovery must fall back to replaying the
  // whole durable log -- and still rebuild the exact sketch.
  ClusterConfig config;
  config.num_agents = 2;
  config.k = 128;
  config.seed = 0xfee1;
  config.keys_per_tick = 32;
  config.ingest_ticks = 8;
  config.snapshot_every = 2;
  config.checkpoint_every_epochs = 1 << 20;  // never reached
  config.checkpoint_dir = FreshCheckpointDir("never_written");
  ClusterSim sim(config);
  sim.RunIngest();

  AgentNode& agent = *sim.agents()[0];
  ASSERT_EQ(agent.checkpoints_written(), 0u);
  const std::string expected = FullReplayFrame(sim, 0, config);

  agent.Crash(sim.now(), /*down_ticks=*/0);
  agent.MaybeRestart(sim.now());

  EXPECT_EQ(agent.checkpoint_restores(), 0u);
  EXPECT_EQ(agent.checkpoint_restore_failures(), 1u);
  EXPECT_EQ(agent.last_restore_fault(),
            persist::CheckpointFault::kIoError);
  EXPECT_EQ(agent.sketch().SerializeToString(), expected);
}

// The graceful-degradation contract in isolation: a root that has heard
// nothing still answers (zero), and staleness names what is missing.
TEST(ClusterDegradation, QueriesNeverFailAndStalenessIsHonest) {
  ClusterConfig config;
  config.num_agents = 4;
  config.k = 128;
  config.seed = 7;
  config.keys_per_tick = 32;
  config.ingest_ticks = 16;
  config.snapshot_every = 4;
  // Everything is dropped: the root stays at its initial snapshot.
  config.faults.drop_rate = 1.0;
  config.max_ticks = 200;
  ClusterSim sim(config);
  sim.RunIngest();
  EXPECT_EQ(sim.root().Estimate(), 0.0);  // an answer, not an error
  EXPECT_EQ(sim.ExactDistinctApplied(), 0u);
  EXPECT_FALSE(sim.RunUntilQuiescent());  // it can never drain

  // Staleness is only knowable per child once SOMETHING arrives; with a
  // total blackout the root has no children yet -- the query still
  // answers, reporting an empty coverage map.
  EXPECT_TRUE(sim.root().Staleness().empty());
}

TEST(ClusterDegradation, StalenessReportsEpochGapUnderPartialBlackout) {
  ClusterConfig config;
  config.num_agents = 2;
  config.k = 128;
  config.seed = 11;
  config.keys_per_tick = 16;
  config.ingest_ticks = 8;
  config.snapshot_every = 2;
  ClusterSim sim(config);
  sim.RunIngest();
  ASSERT_TRUE(sim.RunUntilQuiescent());

  // Hand the root a newer-epoch frame whose payload is poison: the
  // root learns the sender has MORE data (newest_seen advances) but
  // cannot apply it -- the gap is reported rather than papered over.
  auto& root = const_cast<AggregatorNode&>(sim.root());
  KmvSketch ghost(128, 1.0, config.hash_salt);
  const std::vector<uint64_t> keys = {1, 2, 3};
  ghost.AddKeys(keys);
  std::string poison = ghost.SerializeToString();
  poison[poison.size() / 2] ^= 0x04;
  const uint64_t applied_before = root.AppliedEpoch(0);
  const auto outcome = root.Receive(
      EncodeEnvelope(EnvelopeKind::kData, /*sender=*/0,
                     /*incarnation=*/9, /*seq=*/0,
                     /*epoch=*/applied_before + 1000, poison));
  EXPECT_EQ(outcome.kind, ReceiveOutcome::Kind::kPayloadRejected);
  bool found = false;
  for (const SubtreeStaleness& s : sim.root().Staleness()) {
    if (s.child_id != 0) continue;
    found = true;
    EXPECT_EQ(s.newest_seen_epoch, applied_before + 1000);
    EXPECT_EQ(s.last_applied_epoch, applied_before);
    EXPECT_EQ(s.epochs_behind(), 1000u);
    EXPECT_EQ(s.oldest_missing_epoch(), applied_before + 1);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ats::cluster
