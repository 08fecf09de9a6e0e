#include "ats/cluster/node.h"

#include <algorithm>

#include "ats/util/check.h"

namespace ats::cluster {

void RejectCounters::CountEnvelopeFault(FrameFault fault) {
  switch (fault) {
    case FrameFault::kTruncated:
      ++truncated;
      break;
    case FrameFault::kBadMagic:
      ++bad_magic;
      break;
    case FrameFault::kBadVersion:
      ++bad_version;
      break;
    case FrameFault::kCorruptBody:
      ++corrupt_body;
      break;
    case FrameFault::kNone:
      break;
  }
}

// ---------------------------------------------------------------- outbox

void FrameOutbox::EnqueueSnapshot(uint64_t epoch, std::string_view payload,
                                  uint64_t now) {
  // Cancel superseded entries first: a cumulative snapshot at a higher
  // epoch absorbs every older one (bottom-k union is prefix-absorbing),
  // so retrying them would only burn wire bytes.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.epoch < epoch) {
      ++superseded_cancelled_;
      superseded_bytes_saved_ += it->second.bytes.size();
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  Pending p;
  p.bytes = EncodeEnvelope(EnvelopeKind::kData, node_id_, incarnation_,
                           next_seq_, epoch, payload);
  p.epoch = epoch;
  p.next_send = now;
  p.backoff = policy_.initial_backoff_ticks;
  pending_.emplace(next_seq_, std::move(p));
  ++next_seq_;
  ++frames_enqueued_;
}

std::vector<std::string> FrameOutbox::CollectDue(uint64_t now) {
  std::vector<std::string> due;
  for (auto& [seq, p] : pending_) {
    if (p.next_send > now) continue;
    due.push_back(p.bytes);
    if (p.sent_once) ++retransmissions_;
    p.sent_once = true;
    p.next_send = now + p.backoff;
    p.backoff = std::min(p.backoff * 2, policy_.max_backoff_ticks);
  }
  return due;
}

bool FrameOutbox::HandleAck(const EnvelopeView& ack) {
  if (ack.incarnation != incarnation_) return false;  // a previous life
  return pending_.erase(ack.seq) > 0;
}

void FrameOutbox::Reset(uint64_t new_incarnation) {
  pending_.clear();
  incarnation_ = new_incarnation;
  next_seq_ = 0;  // seqs are scoped per incarnation
}

// ----------------------------------------------------------------- agent

AgentNode::AgentNode(uint64_t id, size_t k, uint64_t hash_salt,
                     const RetryPolicy& policy)
    : id_(id),
      k_(k),
      hash_salt_(hash_salt),
      sketch_(k, 1.0, hash_salt),
      outbox_(id, policy) {}

void AgentNode::Ingest(std::span<const uint64_t> keys) {
  log_.insert(log_.end(), keys.begin(), keys.end());
  if (!down_) sketch_.AddKeys(keys);
}

void AgentNode::EmitSnapshotIfAdvanced(uint64_t now) {
  if (SnapshotDue()) EnqueueSnapshot(sketch_.SerializeToString(), now);
}

void AgentNode::MaybeCheckpoint() {
  if (CheckpointDue()) WriteCheckpoint(sketch_.SerializeToString());
}

void AgentNode::OnCadence(uint64_t now) {
  const bool snapshot = SnapshotDue();
  const bool checkpoint = CheckpointDue();
  if (!snapshot && !checkpoint) return;
  const std::string payload = sketch_.SerializeToString();
  if (snapshot) EnqueueSnapshot(payload, now);
  if (checkpoint) WriteCheckpoint(payload);
}

void AgentNode::EnqueueSnapshot(std::string_view payload, uint64_t now) {
  outbox_.EnqueueSnapshot(epoch(), payload, now);
  last_emitted_epoch_ = epoch();
}

void AgentNode::Receive(std::string_view bytes) {
  if (down_) return;  // the wire delivered to a dead process
  EnvelopeView view;
  if (DecodeEnvelope(bytes, &view) != FrameFault::kNone) return;
  if (view.kind == EnvelopeKind::kAck) outbox_.HandleAck(view);
}

void AgentNode::WriteCheckpoint(std::string_view payload) {
  if (persist::CheckpointWriter::Write(checkpoint_policy_.path,
                                       persist::SchemeKind::kKmv, epoch(),
                                       payload) !=
      persist::CheckpointFault::kNone) {
    // Durability is unchanged: the previous checkpoint (if any) and the
    // full replay log both survive, so recovery still works -- it just
    // replays a longer tail.
    ++checkpoint_write_failures_;
    return;
  }
  ++checkpoints_written_;
  checkpoint_epoch_ = epoch();
  // The durable file now covers every logged key: the replay log only
  // needs the (empty) suffix past it. This truncation is what bounds
  // log_ growth and the replay work a restart performs.
  log_base_ = epoch();
  log_.clear();
}

void AgentNode::Crash(uint64_t now, uint64_t down_ticks) {
  if (down_) return;
  down_ = true;
  restart_at_ = now + down_ticks;
  ++crashes_;
  // Volatile state dies with the process; the durable log survives.
  sketch_ = KmvSketch(k_, 1.0, hash_salt_);
  last_emitted_epoch_ = 0;
}

void AgentNode::MaybeRestart(uint64_t now) {
  if (!down_ || now < restart_at_) return;
  down_ = false;
  outbox_.Reset(outbox_.incarnation() + 1);
  // Recovery: restore the durable checkpoint when one is configured and
  // every validation layer passes, then replay only the bounded log
  // suffix past its epoch. The rebuilt sketch is bit-identical to the
  // lost one either way -- KMV state is a pure function of the key
  // sequence, and the checkpoint is the (canonically serialized) sketch
  // of the stream prefix it covers.
  size_t replay_from = 0;  // offset into log_
  if (checkpoint_policy_.enabled()) {
    KmvSketch restored(k_, 1.0, hash_salt_);
    uint64_t restored_epoch = 0;
    const persist::CheckpointFault fault = persist::RestoreFromCheckpoint(
        checkpoint_policy_.path, persist::SchemeKind::kKmv, &restored,
        &restored_epoch);
    const bool consistent = fault == persist::CheckpointFault::kNone &&
                            restored.k() == k_ &&
                            restored.hash_salt() == hash_salt_ &&
                            restored_epoch >= log_base_ &&
                            restored_epoch <= epoch();
    if (consistent) {
      sketch_ = std::move(restored);
      replay_from = restored_epoch - log_base_;
      ++checkpoint_restores_;
    } else {
      // Fail closed: ignore the bad file entirely and replay the whole
      // remaining durable log onto the fresh sketch Crash() installed.
      last_restore_fault_ = fault;
      ++checkpoint_restore_failures_;
    }
  }
  sketch_.AddKeys(std::span<const uint64_t>(log_).subspan(replay_from));
}

// ------------------------------------------------------------ aggregator

AggregatorNode::AggregatorNode(uint64_t id, size_t k, uint64_t hash_salt,
                               const RetryPolicy& policy)
    : id_(id), merged_(k, 1.0, hash_salt), outbox_(id, policy) {}

ReceiveOutcome AggregatorNode::Receive(std::string_view bytes) {
  ReceiveOutcome out;
  EnvelopeView view;
  const FrameFault fault = DecodeEnvelope(bytes, &view);
  if (fault != FrameFault::kNone) {
    // Damaged in transit (or foreign). Counted per cause, NOT acked:
    // silence is what makes the sender retransmit the intact bytes.
    rejects_.CountEnvelopeFault(fault);
    out.kind = ReceiveOutcome::Kind::kEnvelopeRejected;
    out.fault = fault;
    return out;
  }
  if (view.kind == EnvelopeKind::kAck) {
    outbox_.HandleAck(view);
    out.kind = ReceiveOutcome::Kind::kIgnored;
    return out;
  }

  ChildState& child = children_[view.sender];
  child.newest_seen_epoch = std::max(child.newest_seen_epoch, view.epoch);
  const auto ack = [&] {
    out.send_ack = true;
    out.ack_to = view.sender;
    out.ack_bytes = EncodeEnvelope(EnvelopeKind::kAck, id_,
                                   view.incarnation, view.seq, view.epoch,
                                   {});
  };

  if (!child.seen.emplace(view.incarnation, view.seq).second) {
    // A retransmission or wire duplicate of an envelope already handled.
    // Re-ack: the previous ack may have been the casualty.
    ++rejects_.duplicate_seq;
    out.kind = ReceiveOutcome::Kind::kDuplicateSeq;
    ack();
    return out;
  }
  if (view.epoch <= child.last_applied_epoch) {
    // Valid but already absorbed by a newer cumulative snapshot (e.g. a
    // delayed copy arriving after its successor). Ack so the sender
    // stops retrying; merging it would be a no-op anyway.
    ++rejects_.stale_epoch;
    out.kind = ReceiveOutcome::Kind::kStaleEpoch;
    ack();
    return out;
  }

  // Validate-before-mutate: MergeManyFrames vets the whole payload frame
  // before touching merged_, so a poison payload leaves the merged state
  // byte-identical.
  const std::string_view frame[] = {view.payload};
  if (!merged_.MergeManyFrames(frame)) {
    // The envelope arrived intact, so these bytes are what the sender
    // MEANT to send: no retransmission can fix them. Ack to stop the
    // retry loop; count with the typed payload reason; never merge.
    ++rejects_.payload_rejected;
    out.kind = ReceiveOutcome::Kind::kPayloadRejected;
    out.fault = KmvSketch::DiagnoseFrame(view.payload);
    ack();
    return out;
  }
  child.last_applied_epoch = view.epoch;
  ++child.frames_applied;
  ++frames_applied_;
  out.kind = ReceiveOutcome::Kind::kApplied;
  ack();
  return out;
}

void AggregatorNode::EmitSnapshotIfAdvanced(uint64_t now) {
  const uint64_t epoch = merged_epoch();
  if (epoch == last_emitted_epoch_) return;
  outbox_.EnqueueSnapshot(epoch, merged_.SerializeToString(), now);
  last_emitted_epoch_ = epoch;
}

std::vector<SubtreeStaleness> AggregatorNode::Staleness() const {
  std::vector<SubtreeStaleness> result;
  result.reserve(children_.size());
  for (const auto& [id, child] : children_) {
    SubtreeStaleness s;
    s.child_id = id;
    s.frames_applied = child.frames_applied;
    s.last_applied_epoch = child.last_applied_epoch;
    s.newest_seen_epoch = child.newest_seen_epoch;
    result.push_back(s);
  }
  return result;
}

uint64_t AggregatorNode::merged_epoch() const {
  uint64_t sum = 0;
  for (const auto& [id, child] : children_) {
    sum += child.last_applied_epoch;
  }
  return sum;
}

uint64_t AggregatorNode::AppliedEpoch(uint64_t child_id) const {
  const auto it = children_.find(child_id);
  return it == children_.end() ? 0 : it->second.last_applied_epoch;
}

}  // namespace ats::cluster
