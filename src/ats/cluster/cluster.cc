#include "ats/cluster/cluster.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "ats/util/check.h"

namespace ats::cluster {

namespace {
// Per-agent stream seeds, decorrelated from the transport/chaos seeds.
uint64_t AgentSeed(uint64_t base, uint64_t agent_id) {
  return base + 0x9e3779b97f4a7c15ull * (agent_id + 1);
}
}  // namespace

ClusterSim::ClusterSim(const ClusterConfig& config)
    : config_(config),
      transport_(config.faults, config.seed),
      chaos_rng_(config.seed ^ 0xc8a05c3a5ull) {
  ATS_CHECK(config.num_agents >= 1);
  ATS_CHECK(config.snapshot_every >= 1);

  agents_.reserve(config.num_agents);
  history_.resize(config.num_agents);
  const bool checkpoints = config.checkpoint_every_epochs > 0 &&
                           !config.checkpoint_dir.empty();
  // One immutable CDF-plus-guide table serves every Zipf agent.
  const std::shared_ptr<const ZipfTable> zipf_table =
      config.workload == ClusterConfig::Workload::kZipf
          ? ZipfTable::Make(config.universe, config.zipf_s)
          : nullptr;
  for (uint64_t id = 0; id < config.num_agents; ++id) {
    agents_.push_back(std::make_unique<AgentNode>(
        id, config.k, config.hash_salt, config.retry));
    if (checkpoints) {
      agents_.back()->ConfigureCheckpoint(
          {config.checkpoint_dir + "/agent_" + std::to_string(id) + ".ckp",
           config.checkpoint_every_epochs});
    }
    switch (config.workload) {
      case ClusterConfig::Workload::kZipf:
        zipf_.emplace_back(zipf_table, AgentSeed(config.seed, id));
        break;
      case ClusterConfig::Workload::kPitmanYor:
        pitman_yor_.push_back(std::make_unique<PitmanYorStream>(
            config.py_beta, AgentSeed(config.seed, id)));
        break;
      case ClusterConfig::Workload::kUniform:
        uniform_rng_.emplace_back(AgentSeed(config.seed, id));
        break;
    }
  }

  // Build the fan-in tree bottom-up: group the current level's node ids
  // under fresh aggregators until one remains -- the root. fan_in == 0
  // (or >= the level size) collapses to the flat topology.
  std::vector<uint64_t> level(config.num_agents);
  for (uint64_t id = 0; id < config.num_agents; ++id) level[id] = id;
  parent_of_.assign(config.num_agents, 0);
  uint64_t next_id = config.num_agents;
  do {
    const uint64_t fan_in =
        config.fan_in == 0 ? level.size()
                           : std::min<uint64_t>(config.fan_in, level.size());
    std::vector<uint64_t> next_level;
    for (size_t base = 0; base < level.size(); base += fan_in) {
      const uint64_t agg_id = next_id++;
      aggregators_.push_back(std::make_unique<AggregatorNode>(
          agg_id, config.k, config.hash_salt, config.retry));
      parent_of_.push_back(0);  // patched when this node gets a parent
      for (size_t i = base; i < std::min(base + fan_in, level.size()); ++i) {
        parent_of_[level[i]] = agg_id;
      }
      next_level.push_back(agg_id);
    }
    level = std::move(next_level);
  } while (level.size() > 1);
}

void ClusterSim::Tick() {
  ++now_;
  for (auto& agent : agents_) agent->MaybeRestart(now_);
  if (now_ <= config_.ingest_ticks) {
    IngestTick();
    CrashTick();
  }
  DeliverTick();
  if (now_ % config_.snapshot_every == 0) EmitTick();
  SendTick();
}

void ClusterSim::IngestTick() {
  std::vector<uint64_t> keys(config_.keys_per_tick);
  for (uint64_t id = 0; id < config_.num_agents; ++id) {
    for (auto& key : keys) {
      switch (config_.workload) {
        case ClusterConfig::Workload::kZipf:
          key = zipf_[id].Next();
          break;
        case ClusterConfig::Workload::kPitmanYor:
          key = pitman_yor_[id]->Next();
          break;
        case ClusterConfig::Workload::kUniform:
          key = uniform_rng_[id].NextBelow(config_.universe);
          break;
      }
    }
    agents_[id]->Ingest(keys);
    history_[id].insert(history_[id].end(), keys.begin(), keys.end());
  }
}

void ClusterSim::CrashTick() {
  if (config_.agent_crash_rate <= 0.0) return;
  // One draw per agent per tick regardless of state, so the draw
  // sequence -- and therefore every downstream fault -- is a pure
  // function of the seed.
  for (auto& agent : agents_) {
    const bool crash = chaos_rng_.NextDouble() < config_.agent_crash_rate;
    if (crash && !agent->down()) {
      agent->Crash(now_, config_.crash_down_ticks);
    }
  }
}

void ClusterSim::DeliverTick() {
  for (const Delivery& d : transport_.DeliverDue(now_)) Dispatch(d);
}

void ClusterSim::Dispatch(const Delivery& delivery) {
  if (delivery.to < config_.num_agents) {
    agents_[delivery.to]->Receive(delivery.bytes);
    return;
  }
  const size_t index = delivery.to - config_.num_agents;
  ATS_CHECK(index < aggregators_.size());
  ReceiveOutcome outcome = aggregators_[index]->Receive(delivery.bytes);
  if (outcome.send_ack) {
    // Acks ride the same faulty transport: a lost ack is what exercises
    // the sender-retry + receiver-re-ack path.
    transport_.Send(outcome.ack_to, std::move(outcome.ack_bytes), now_);
  }
}

void ClusterSim::EmitTick() {
  for (auto& agent : agents_) {
    // Checkpoints ride the same cadence: the snapshot the parent gets
    // and the one the disk gets cover the same stream position, so they
    // share one serialization.
    agent->OnCadence(now_);
    // Naive re-ship baseline: a protocol with no acks, no change
    // detection, and no supersession ships every live node's (agents
    // AND interior relays) full snapshot at every cadence point, for as
    // long as the cluster runs -- without acks it never learns that the
    // receiver is up to date, so re-shipping is its only way to bound
    // staleness against possible loss. Counted from the frame length
    // alone: no frame is built to be measured.
    if (!agent->down() && agent->epoch() > 0) {
      naive_reship_bytes_ +=
          kEnvelopeOverhead + agent->sketch().SerializedSize();
    }
  }
  // Interior aggregators (every one but the root) relay upward.
  for (size_t i = 0; i + 1 < aggregators_.size(); ++i) {
    aggregators_[i]->EmitSnapshotIfAdvanced(now_);
    if (aggregators_[i]->merged_epoch() > 0) {
      naive_reship_bytes_ +=
          kEnvelopeOverhead + aggregators_[i]->merged().SerializedSize();
    }
  }
}

void ClusterSim::SendTick() {
  for (auto& agent : agents_) {
    for (std::string& bytes : agent->CollectDue(now_)) {
      transport_.Send(parent_of_[agent->id()], std::move(bytes), now_);
    }
  }
  for (size_t i = 0; i + 1 < aggregators_.size(); ++i) {
    for (std::string& bytes : aggregators_[i]->CollectDue(now_)) {
      transport_.Send(parent_of_[aggregators_[i]->id()], std::move(bytes),
                      now_);
    }
  }
}

bool ClusterSim::Quiescent() const {
  if (!IngestDone() || !transport_.Idle()) return false;
  for (const auto& agent : agents_) {
    if (agent->HasPendingWork()) return false;
  }
  for (size_t i = 0; i + 1 < aggregators_.size(); ++i) {
    if (aggregators_[i]->HasPendingWork()) return false;
  }
  return true;
}

void ClusterSim::RunIngest() {
  while (now_ < config_.ingest_ticks) Tick();
}

bool ClusterSim::RunUntilQuiescent() {
  while (now_ < config_.max_ticks) {
    if (Quiescent()) return true;
    Tick();
  }
  return Quiescent();
}

ClusterMetrics ClusterSim::Metrics() const {
  ClusterMetrics m;
  m.transport = transport_.stats();
  m.root_rejects = root().rejects();
  m.root_frames_applied = root().frames_applied();
  for (const auto& agent : agents_) {
    m.frames_enqueued += agent->outbox().frames_enqueued();
    m.retransmissions += agent->outbox().retransmissions();
    m.superseded_cancelled += agent->outbox().superseded_cancelled();
    m.superseded_bytes_saved += agent->outbox().superseded_bytes_saved();
    m.agent_crashes += agent->crashes();
    m.checkpoints_written += agent->checkpoints_written();
    m.checkpoint_write_failures += agent->checkpoint_write_failures();
    m.checkpoint_restores += agent->checkpoint_restores();
    m.checkpoint_restore_failures += agent->checkpoint_restore_failures();
  }
  for (size_t i = 0; i + 1 < aggregators_.size(); ++i) {
    const FrameOutbox& box = aggregators_[i]->outbox();
    m.frames_enqueued += box.frames_enqueued();
    m.retransmissions += box.retransmissions();
    m.superseded_cancelled += box.superseded_cancelled();
    m.superseded_bytes_saved += box.superseded_bytes_saved();
  }
  m.naive_reship_bytes = naive_reship_bytes_;
  m.ticks = now_;
  m.node_memory_bytes = NodeMemoryFootprint();
  return m;
}

size_t ClusterSim::NodeMemoryFootprint() const {
  size_t total = 0;
  for (const auto& agent : agents_) total += agent->MemoryFootprint();
  for (const auto& agg : aggregators_) total += agg->MemoryFootprint();
  return total;
}

std::string ClusterSim::FaultFreeRootFrame() const {
  std::vector<std::string> frames;
  frames.reserve(agents_.size());
  for (const auto& agent : agents_) {
    KmvSketch sketch(config_.k, 1.0, config_.hash_salt);
    sketch.AddKeys(history_[agent->id()]);
    frames.push_back(sketch.SerializeToString());
  }
  std::vector<std::string_view> views(frames.begin(), frames.end());
  KmvSketch reference(config_.k, 1.0, config_.hash_salt);
  ATS_CHECK(reference.MergeManyFrames(views));
  return reference.SerializeToString();
}

uint64_t ClusterSim::ExactDistinctTotal() const {
  std::unordered_set<uint64_t> distinct;
  for (const auto& history : history_) {
    distinct.insert(history.begin(), history.end());
  }
  return distinct.size();
}

uint64_t ClusterSim::ExactDistinctApplied() const {
  std::unordered_set<uint64_t> distinct;
  for (const auto& agent : agents_) {
    const uint64_t applied = root().AppliedEpoch(agent->id());
    const auto& history = history_[agent->id()];
    ATS_CHECK(applied <= history.size());
    distinct.insert(history.begin(), history.begin() + applied);
  }
  return distinct.size();
}

}  // namespace ats::cluster
