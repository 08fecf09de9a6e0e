// Cluster nodes: the agent (local ingest + snapshot sender) and the
// aggregator (dedup + validate-before-mutate merge + graceful-degradation
// queries), glued by the FrameOutbox ack/retry/backoff protocol.
//
// Protocol summary
// ----------------
// Agents ingest local traffic into a KMV sketch and, on a cadence, ship
// the CUMULATIVE snapshot up the tree inside a sequence-numbered
// envelope. Cumulative snapshots are what make the protocol self-healing
// under loss: the bottom-k union is idempotent and prefix-absorbing
// (merging a stale snapshot into a newer merge changes nothing), so a
// dropped frame needs no dedicated repair -- any LATER snapshot from the
// same sender carries everything the lost one did. Retries exist to
// bound staleness, not to recover data.
//
//   * Senders keep unacked envelopes in a FrameOutbox and retransmit
//     with capped exponential backoff. Enqueueing a newer snapshot
//     CANCELS unacked older ones (superseded: the new frame absorbs
//     them), which is what keeps bytes-on-wire near one frame per
//     cadence instead of one per attempt.
//   * Aggregators ack every structurally valid data envelope -- applied,
//     duplicate, or stale -- because the ack, not the apply, is what
//     stops the retry loop. Damaged envelopes (kTruncated/kCorruptBody/
//     kBadMagic/kBadVersion) are counted per cause and NOT acked: for a
//     short read or flipped byte the sender's intact retransmission will
//     land. A structurally sound envelope whose PAYLOAD sketch frame
//     fails validation is poison -- no retransmission can fix what the
//     sender itself produced -- so it is acked (to stop the retry), but
//     counted and never merged.
//   * Application is transactional per frame (MergeManyFrames validates
//     everything before mutating), and duplicates/stale frames are
//     skipped idempotently, so the aggregator's merged sketch is ALWAYS
//     a consistent merge of some set of cumulative snapshots. Queries
//     never fail; partial failure surfaces as per-subtree staleness
//     (frames applied vs newest epoch seen, oldest missing epoch), not
//     as wrong answers.
//
// Crash/restart: a crashed agent loses its volatile state (sketch +
// outbox). On restart it replays its durable local key log (the upstream
// ingest log survives the process), reconstructs the identical sketch,
// and continues with a bumped incarnation so in-flight acks and
// duplicates from the previous life are not mistaken for the new one.
#ifndef ATS_CLUSTER_NODE_H_
#define ATS_CLUSTER_NODE_H_

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ats/cluster/envelope.h"
#include "ats/persist/checkpoint.h"
#include "ats/sketch/kmv.h"
#include "ats/util/memory.h"
#include "ats/util/serialize.h"

namespace ats::cluster {

// Retransmission schedule: first retry after `initial_backoff_ticks`,
// doubling per attempt, capped at `max_backoff_ticks`. Retries continue
// until the frame is acked or superseded by a newer snapshot.
struct RetryPolicy {
  uint64_t initial_backoff_ticks = 4;
  uint64_t max_backoff_ticks = 64;
};

// Durable checkpoint cadence for an agent (persist/checkpoint.h). When
// configured, the agent atomically rewrites `path` with its cumulative
// sketch once at least `every_epochs` keys accumulated since the last
// durable checkpoint, then truncates its replay log to the uncovered
// suffix -- which is what bounds both the log's memory and the replay
// work a restart performs. An empty path or every_epochs == 0 disables
// checkpointing (the agent falls back to the unbounded full-log replay).
struct CheckpointPolicy {
  std::string path;
  uint64_t every_epochs = 0;

  bool enabled() const { return every_epochs > 0 && !path.empty(); }
};

// Per-cause rejection counters (FrameFault-keyed) plus the idempotent
// skip counters. `payload_rejected` counts poison frames: envelope
// intact, sketch payload invalid, acked but never merged.
struct RejectCounters {
  uint64_t truncated = 0;
  uint64_t bad_magic = 0;
  uint64_t bad_version = 0;
  uint64_t corrupt_body = 0;
  uint64_t payload_rejected = 0;
  uint64_t duplicate_seq = 0;
  uint64_t stale_epoch = 0;

  uint64_t envelope_rejected() const {
    return truncated + bad_magic + bad_version + corrupt_body;
  }
  void CountEnvelopeFault(FrameFault fault);
};

// Unacked snapshot envelopes awaiting acknowledgment, retried with
// capped exponential backoff; superseded entries are cancelled.
class FrameOutbox {
 public:
  FrameOutbox(uint64_t node_id, const RetryPolicy& policy)
      : node_id_(node_id), policy_(policy) {}

  // Wraps the cumulative snapshot `payload` covering stream position
  // `epoch` in a fresh-sequence envelope, cancels unacked entries with
  // older epochs (the new snapshot absorbs them), and schedules the
  // first transmission at `now`.
  void EnqueueSnapshot(uint64_t epoch, std::string_view payload,
                       uint64_t now);

  // Envelopes due for (re)transmission at `now`; each collected entry
  // schedules its next retry with doubled (capped) backoff.
  std::vector<std::string> CollectDue(uint64_t now);

  // Processes an ack; returns true if it matched an unacked entry.
  // Acks for another incarnation or an unknown seq are ignored.
  bool HandleAck(const EnvelopeView& ack);

  // Crash: volatile state is lost; the next life acks/dedups under a
  // fresh incarnation.
  void Reset(uint64_t new_incarnation);

  bool empty() const { return pending_.empty(); }
  uint64_t incarnation() const { return incarnation_; }
  // The most recently enqueued envelope still awaiting its ack (empty
  // when none): what the outbox keeps retransmitting for the newest
  // snapshot. Views the outbox's own copy; valid until the next
  // non-const call.
  std::string_view newest_envelope() const {
    return pending_.empty() ? std::string_view()
                            : std::string_view(pending_.rbegin()->second.bytes);
  }

  // Lifetime counters (survive Reset): unique frames enqueued,
  // retransmissions beyond the first send, frames cancelled as
  // superseded, and the payload bytes those cancellations never re-sent.
  uint64_t frames_enqueued() const { return frames_enqueued_; }
  uint64_t retransmissions() const { return retransmissions_; }
  uint64_t superseded_cancelled() const { return superseded_cancelled_; }
  uint64_t superseded_bytes_saved() const { return superseded_bytes_saved_; }

  // Live heap bytes of the unacked entries (util/memory.h convention):
  // the pending map's modeled nodes plus each entry's envelope bytes.
  size_t MemoryFootprint() const {
    size_t total = TreeFootprint(pending_);
    for (const auto& [seq, p] : pending_) total += p.bytes.size();
    return total;
  }

 private:
  struct Pending {
    std::string bytes;  // full envelope, ready to retransmit verbatim
    uint64_t epoch = 0;
    uint64_t next_send = 0;
    uint64_t backoff = 0;
    bool sent_once = false;
  };

  uint64_t node_id_;
  RetryPolicy policy_;
  uint64_t incarnation_ = 0;
  uint64_t next_seq_ = 0;
  std::map<uint64_t, Pending> pending_;  // keyed by seq
  uint64_t frames_enqueued_ = 0;
  uint64_t retransmissions_ = 0;
  uint64_t superseded_cancelled_ = 0;
  uint64_t superseded_bytes_saved_ = 0;
};

// Per-subtree staleness as seen by an aggregator: how far behind this
// child's applied state is relative to the newest epoch the aggregator
// has SEEN from it (even in frames it skipped or could not apply).
struct SubtreeStaleness {
  uint64_t child_id = 0;
  uint64_t frames_applied = 0;
  uint64_t last_applied_epoch = 0;
  uint64_t newest_seen_epoch = 0;
  // First stream position not yet reflected in the merged answer.
  uint64_t oldest_missing_epoch() const { return last_applied_epoch + 1; }
  uint64_t epochs_behind() const {
    return newest_seen_epoch > last_applied_epoch
               ? newest_seen_epoch - last_applied_epoch
               : 0;
  }
};

// Outcome of AggregatorNode::Receive, including the ack (if any) the
// caller must transmit back to `ack_to`.
struct ReceiveOutcome {
  enum class Kind {
    kApplied,           // new epoch, merged transactionally
    kDuplicateSeq,      // retransmission of an already-seen envelope
    kStaleEpoch,        // valid but older than the applied snapshot
    kEnvelopeRejected,  // typed fault counted; NOT acked (retry-able)
    kPayloadRejected,   // poison sketch frame: acked, counted, not merged
    kIgnored,           // an ack or foreign-kind message
  };
  Kind kind = Kind::kIgnored;
  FrameFault fault = FrameFault::kNone;
  bool send_ack = false;
  uint64_t ack_to = 0;
  std::string ack_bytes;
};

// The local sampling node: durable key log + KMV sketch + outbox, plus
// (when configured) cadence checkpointing of the sketch so recovery
// replays a bounded log tail instead of the full history.
class AgentNode {
 public:
  AgentNode(uint64_t id, size_t k, uint64_t hash_salt,
            const RetryPolicy& policy);

  // Enables checkpoint-on-cadence + restart-from-checkpoint. Call once,
  // before any checkpoint could be due; the path must be writable.
  void ConfigureCheckpoint(CheckpointPolicy policy) {
    checkpoint_policy_ = std::move(policy);
  }

  // Appends keys to the durable log; sketches them unless crashed
  // (the log models the upstream ingest pipeline, which outlives the
  // process -- restart replays it).
  void Ingest(std::span<const uint64_t> keys);

  // Checkpoint-on-cadence: when configured, up, and at least
  // `every_epochs` keys past the last durable checkpoint, atomically
  // rewrites the checkpoint file with the cumulative sketch at the
  // current epoch and truncates the replay log to empty (the checkpoint
  // now covers every logged key). A write failure leaves the log -- and
  // therefore durability -- unchanged, and is only counted.
  void MaybeCheckpoint();

  // Serializes the cumulative snapshot into the outbox if the stream
  // advanced since the last emission (no-op while down or idle).
  void EmitSnapshotIfAdvanced(uint64_t now);

  // One cadence point: EmitSnapshotIfAdvanced(now) then MaybeCheckpoint(),
  // sharing ONE serialization of the sketch. Both cover the same stream
  // position, so the outbox snapshot and the checkpoint payload are the
  // same bytes; serializing twice would only repeat the work.
  void OnCadence(uint64_t now);

  // Envelopes due for (re)transmission; empty while down.
  std::vector<std::string> CollectDue(uint64_t now) {
    return down_ ? std::vector<std::string>{} : outbox_.CollectDue(now);
  }

  // Processes an incoming message (acks). Ignored while down.
  void Receive(std::string_view bytes);

  // Fault injection: the process dies, losing sketch + outbox.
  void Crash(uint64_t now, uint64_t down_ticks);
  // Restarts once the outage elapses, under a bumped incarnation.
  // With a configured checkpoint: restore the last durable checkpoint
  // (mapped, with the buffered read as fallback), then
  // replay only the log suffix past its epoch. Any checkpoint fault --
  // torn file, flipped byte, wrong family, missing file -- fails closed
  // to a full replay of the remaining durable log. Both paths rebuild
  // state bit-identical to the lost sketch: KMV state is a pure
  // function of the key sequence, and the checkpoint IS the sketch of
  // the truncated prefix.
  void MaybeRestart(uint64_t now);

  bool down() const { return down_; }
  uint64_t id() const { return id_; }
  // Stream position: keys ingested so far. Epochs remain GLOBAL log
  // offsets after truncation: log_ holds [log_base_, epoch()).
  uint64_t epoch() const { return log_base_ + log_.size(); }
  const std::vector<uint64_t>& log() const { return log_; }
  // First stream position still present in the replay log == the epoch
  // the on-disk checkpoint covers (0 before any checkpoint).
  uint64_t log_base() const { return log_base_; }
  const KmvSketch& sketch() const { return sketch_; }
  const FrameOutbox& outbox() const { return outbox_; }
  uint64_t last_emitted_epoch() const { return last_emitted_epoch_; }
  // True when the node still owes its parent a snapshot or an ack.
  bool HasPendingWork() const {
    return down_ || !outbox_.empty() || last_emitted_epoch_ < epoch();
  }
  uint64_t crashes() const { return crashes_; }

  // --- Checkpoint observability --------------------------------------

  const CheckpointPolicy& checkpoint_policy() const {
    return checkpoint_policy_;
  }
  // Keys ingested since the last durable checkpoint: the replay-tail
  // bound a crash right now would pay.
  uint64_t epochs_since_checkpoint() const {
    return epoch() - checkpoint_epoch_;
  }
  uint64_t checkpoint_epoch() const { return checkpoint_epoch_; }
  uint64_t checkpoints_written() const { return checkpoints_written_; }
  uint64_t checkpoint_write_failures() const {
    return checkpoint_write_failures_;
  }
  uint64_t checkpoint_restores() const { return checkpoint_restores_; }
  uint64_t checkpoint_restore_failures() const {
    return checkpoint_restore_failures_;
  }
  // Typed reason of the most recent failed restore (kNone when every
  // restore so far succeeded).
  persist::CheckpointFault last_restore_fault() const {
    return last_restore_fault_;
  }

  // Live heap bytes of the node (util/memory.h convention): sketch,
  // replay log, and unacked outbox entries. Visibly drops when a
  // checkpoint truncates the log.
  size_t MemoryFootprint() const {
    return sketch_.MemoryFootprint() + VectorFootprint(log_) +
           outbox_.MemoryFootprint();
  }

 private:
  bool SnapshotDue() const { return !down_ && epoch() != last_emitted_epoch_; }
  bool CheckpointDue() const {
    return !down_ && checkpoint_policy_.enabled() &&
           epochs_since_checkpoint() >= checkpoint_policy_.every_epochs;
  }
  // The halves of a cadence point, given the serialized sketch.
  void EnqueueSnapshot(std::string_view payload, uint64_t now);
  void WriteCheckpoint(std::string_view payload);

  uint64_t id_;
  size_t k_;
  uint64_t hash_salt_;
  KmvSketch sketch_;
  std::vector<uint64_t> log_;
  FrameOutbox outbox_;
  uint64_t last_emitted_epoch_ = 0;
  bool down_ = false;
  uint64_t restart_at_ = 0;
  uint64_t crashes_ = 0;
  // Checkpoint state: log_ holds stream positions [log_base_, epoch());
  // everything before log_base_ lives only in the durable checkpoint
  // file, whose covered epoch is checkpoint_epoch_ (== log_base_ except
  // transiently never: truncation happens in the same step as the
  // successful write).
  CheckpointPolicy checkpoint_policy_;
  uint64_t log_base_ = 0;
  uint64_t checkpoint_epoch_ = 0;
  uint64_t checkpoints_written_ = 0;
  uint64_t checkpoint_write_failures_ = 0;
  uint64_t checkpoint_restores_ = 0;
  uint64_t checkpoint_restore_failures_ = 0;
  persist::CheckpointFault last_restore_fault_ =
      persist::CheckpointFault::kNone;
};

// The merge node: validates, dedups, and transactionally applies child
// snapshots; answers queries from the last consistent merged state; and
// (when interior) ships its own cumulative snapshot upward through the
// same outbox protocol.
class AggregatorNode {
 public:
  AggregatorNode(uint64_t id, size_t k, uint64_t hash_salt,
                 const RetryPolicy& policy);

  // Handles one incoming message. Data envelopes are classified with
  // typed reasons, deduped by (sender, incarnation, seq), gated on
  // epoch monotonicity, and applied all-or-nothing through
  // KmvSketch::MergeManyFrames; acks are routed to the outbox. The
  // returned outcome carries the ack to transmit, if any.
  ReceiveOutcome Receive(std::string_view bytes);

  // Interior nodes: enqueue a cumulative snapshot of the merged sketch
  // when any child advanced since the last emission.
  void EmitSnapshotIfAdvanced(uint64_t now);
  std::vector<std::string> CollectDue(uint64_t now) {
    return outbox_.CollectDue(now);
  }

  // --- Graceful-degradation queries: never fail, report staleness ----

  // Distinct-count estimate from the last consistent merged snapshot
  // (0 before any frame has been applied -- an answer, not an error).
  double Estimate() const {
    return merged_.size() == 0 ? 0.0 : merged_.Estimate();
  }
  // Per-child staleness, in child-id order.
  std::vector<SubtreeStaleness> Staleness() const;
  // Sum of applied child epochs: the stream coverage of the answer.
  uint64_t merged_epoch() const;

  const KmvSketch& merged() const { return merged_; }
  std::string SnapshotFrame() const { return merged_.SerializeToString(); }
  const RejectCounters& rejects() const { return rejects_; }
  uint64_t frames_applied() const { return frames_applied_; }
  uint64_t id() const { return id_; }
  const FrameOutbox& outbox() const { return outbox_; }
  uint64_t last_emitted_epoch() const { return last_emitted_epoch_; }
  bool HasPendingWork() const {
    return !outbox_.empty() || last_emitted_epoch_ < merged_epoch();
  }
  // Applied epoch for one child (0 if never heard from).
  uint64_t AppliedEpoch(uint64_t child_id) const;

  // Live heap bytes of the node (util/memory.h convention): merged
  // sketch, per-child dedup state, and unacked outbox entries.
  size_t MemoryFootprint() const {
    size_t total = merged_.MemoryFootprint() + TreeFootprint(children_) +
                   outbox_.MemoryFootprint();
    for (const auto& [id, child] : children_) {
      total += TreeFootprint(child.seen);
    }
    return total;
  }

 private:
  struct ChildState {
    uint64_t frames_applied = 0;
    uint64_t last_applied_epoch = 0;
    uint64_t newest_seen_epoch = 0;
    // Seen (incarnation, seq) pairs, for duplicate detection + re-ack.
    std::set<std::pair<uint64_t, uint64_t>> seen;
  };

  uint64_t id_;
  KmvSketch merged_;
  std::map<uint64_t, ChildState> children_;  // deterministic iteration
  RejectCounters rejects_;
  uint64_t frames_applied_ = 0;
  FrameOutbox outbox_;
  uint64_t last_emitted_epoch_ = 0;
};

}  // namespace ats::cluster

#endif  // ATS_CLUSTER_NODE_H_
