// Unit tests for the cluster wire protocol: ENV1 envelope encode/decode
// with typed fault classification, the FrameOutbox ack/retry/backoff
// schedule with supersession, the aggregator's dedup / re-ack / stale /
// poison handling, agent crash-replay recovery, and transport
// determinism.
#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ats/cluster/cluster.h"
#include "ats/cluster/envelope.h"
#include "ats/cluster/node.h"
#include "ats/cluster/transport.h"
#include "ats/sketch/kmv.h"

namespace ats::cluster {
namespace {

std::string SketchFrame(const std::vector<uint64_t>& keys, size_t k = 64,
                        uint64_t salt = 7) {
  KmvSketch sketch(k, 1.0, salt);
  sketch.AddKeys(keys);
  return sketch.SerializeToString();
}

// A KMV2 frame with its first two entries swapped and the checksum
// repaired: every field stays in range, only the canonical ascending
// entry order is broken, so the damage reaches the body validator.
std::string SwapFirstTwoEntries(std::string frame) {
  constexpr size_t kEntries = 48;  // header + five u64/f64 fields
  constexpr size_t kStride = 16;   // (priority f64, key u64)
  std::swap_ranges(frame.begin() + kEntries,
                   frame.begin() + kEntries + kStride,
                   frame.begin() + kEntries + kStride);
  const size_t body = frame.size() - sizeof(uint32_t);
  const uint32_t sum = FrameChecksum(std::string_view(frame).substr(0, body));
  std::memcpy(frame.data() + body, &sum, sizeof(sum));
  return frame;
}

TEST(Envelope, RoundTripsDataAndAck) {
  const std::string payload = "not interpreted by the envelope";
  const std::string bytes = EncodeEnvelope(EnvelopeKind::kData, /*sender=*/3,
                                           /*incarnation=*/2, /*seq=*/17,
                                           /*epoch=*/4096, payload);
  EXPECT_EQ(bytes.size(), kEnvelopeOverhead + payload.size());
  EnvelopeView view;
  ASSERT_EQ(DecodeEnvelope(bytes, &view), FrameFault::kNone);
  EXPECT_EQ(view.kind, EnvelopeKind::kData);
  EXPECT_EQ(view.sender, 3u);
  EXPECT_EQ(view.incarnation, 2u);
  EXPECT_EQ(view.seq, 17u);
  EXPECT_EQ(view.epoch, 4096u);
  EXPECT_EQ(view.payload, payload);

  const std::string ack =
      EncodeEnvelope(EnvelopeKind::kAck, 9, 2, 17, 4096, {});
  ASSERT_EQ(DecodeEnvelope(ack, &view), FrameFault::kNone);
  EXPECT_EQ(view.kind, EnvelopeKind::kAck);
  EXPECT_TRUE(view.payload.empty());
}

TEST(Envelope, ClassifiesTypedFaults) {
  const std::string bytes =
      EncodeEnvelope(EnvelopeKind::kData, 1, 0, 0, 10, "payload");
  EnvelopeView view;

  // Every strict prefix is a short read.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(DecodeEnvelope(std::string_view(bytes).substr(0, len), &view),
              FrameFault::kTruncated)
        << "prefix length " << len;
  }
  // Foreign magic.
  std::string bad = bytes;
  bad[0] ^= 0xff;
  EXPECT_EQ(DecodeEnvelope(bad, &view), FrameFault::kBadMagic);
  // Future version (patch the checksum so only the version is at fault).
  bad = EncodeEnvelope(EnvelopeKind::kData, 1, 0, 0, 10, "payload");
  {
    const uint32_t future = kEnvelopeVersion + 1;
    std::memcpy(bad.data() + 4, &future, sizeof(future));
    const uint32_t checksum = FrameChecksum(
        std::string_view(bad).substr(0, bad.size() - sizeof(uint32_t)));
    std::memcpy(bad.data() + bad.size() - sizeof(uint32_t), &checksum,
                sizeof(checksum));
  }
  EXPECT_EQ(DecodeEnvelope(bad, &view), FrameFault::kBadVersion);
  // Flipped payload byte: checksum mismatch.
  bad = bytes;
  bad[kEnvelopeHeaderSize] ^= 0x01;
  EXPECT_EQ(DecodeEnvelope(bad, &view), FrameFault::kCorruptBody);
  // Trailing junk past the declared length.
  bad = bytes + "x";
  EXPECT_EQ(DecodeEnvelope(bad, &view), FrameFault::kCorruptBody);
}

TEST(FrameOutbox, RetriesWithCappedExponentialBackoff) {
  RetryPolicy policy;
  policy.initial_backoff_ticks = 4;
  policy.max_backoff_ticks = 16;
  FrameOutbox outbox(/*node_id=*/0, policy);
  outbox.EnqueueSnapshot(/*epoch=*/10, "snap", /*now=*/0);

  // Expected send ticks: 0, then +4, +8, +16, +16 (capped), ...
  std::vector<uint64_t> sends;
  for (uint64_t now = 0; now <= 60; ++now) {
    if (!outbox.CollectDue(now).empty()) sends.push_back(now);
  }
  EXPECT_EQ(sends, (std::vector<uint64_t>{0, 4, 12, 28, 44, 60}));
  EXPECT_EQ(outbox.retransmissions(), 5u);
}

TEST(FrameOutbox, AckClearsAndSupersessionCancels) {
  FrameOutbox outbox(/*node_id=*/0, RetryPolicy{});
  outbox.EnqueueSnapshot(10, "old snapshot", 0);
  // The newer cumulative snapshot absorbs the unacked older one.
  outbox.EnqueueSnapshot(20, "newer", 1);
  EXPECT_EQ(outbox.superseded_cancelled(), 1u);
  const auto due = outbox.CollectDue(1);
  ASSERT_EQ(due.size(), 1u);  // only the epoch-20 frame survives
  EnvelopeView view;
  ASSERT_EQ(DecodeEnvelope(due[0], &view), FrameFault::kNone);
  EXPECT_EQ(view.epoch, 20u);

  // Acks from another incarnation are ignored; the matching one clears.
  EnvelopeView stale_ack = view;
  stale_ack.incarnation = view.incarnation + 1;
  EXPECT_FALSE(outbox.HandleAck(stale_ack));
  EXPECT_TRUE(outbox.HandleAck(view));
  EXPECT_FALSE(outbox.HandleAck(view));  // already cleared
  EXPECT_TRUE(outbox.empty());
}

TEST(Aggregator, AppliesDedupsAndReAcks) {
  const RetryPolicy policy;
  AggregatorNode root(/*id=*/100, /*k=*/64, /*salt=*/7, policy);
  const std::vector<uint64_t> keys = {1, 2, 3, 4, 5};
  const std::string env = EncodeEnvelope(EnvelopeKind::kData, /*sender=*/0,
                                         /*incarnation=*/0, /*seq=*/0,
                                         /*epoch=*/5, SketchFrame(keys));

  auto first = root.Receive(env);
  EXPECT_EQ(first.kind, ReceiveOutcome::Kind::kApplied);
  ASSERT_TRUE(first.send_ack);
  EXPECT_EQ(first.ack_to, 0u);
  EnvelopeView ack;
  ASSERT_EQ(DecodeEnvelope(first.ack_bytes, &ack), FrameFault::kNone);
  EXPECT_EQ(ack.kind, EnvelopeKind::kAck);
  EXPECT_EQ(ack.seq, 0u);
  EXPECT_EQ(ack.epoch, 5u);

  // A retransmission (the first ack may have been lost) is deduped by
  // (incarnation, seq) but STILL acked, and the merged state is
  // untouched.
  const std::string before = root.SnapshotFrame();
  auto dup = root.Receive(env);
  EXPECT_EQ(dup.kind, ReceiveOutcome::Kind::kDuplicateSeq);
  EXPECT_TRUE(dup.send_ack);
  EXPECT_EQ(root.SnapshotFrame(), before);
  EXPECT_EQ(root.rejects().duplicate_seq, 1u);

  // A delayed OLDER snapshot (fresh seq, stale epoch) is acked but not
  // merged: the applied epoch-5 snapshot already absorbs it.
  const std::vector<uint64_t> prefix = {1, 2, 3};
  auto stale = root.Receive(EncodeEnvelope(EnvelopeKind::kData, 0, 0,
                                           /*seq=*/1, /*epoch=*/3,
                                           SketchFrame(prefix)));
  EXPECT_EQ(stale.kind, ReceiveOutcome::Kind::kStaleEpoch);
  EXPECT_TRUE(stale.send_ack);
  EXPECT_EQ(root.SnapshotFrame(), before);
  EXPECT_EQ(root.AppliedEpoch(0), 5u);
}

TEST(Aggregator, CountsEnvelopeFaultsPerCauseWithoutAcking) {
  AggregatorNode root(100, 64, 7, RetryPolicy{});
  const std::string env = EncodeEnvelope(EnvelopeKind::kData, 0, 0, 0, 5,
                                         SketchFrame({1, 2, 3}));
  const std::string before = root.SnapshotFrame();

  std::string bad = env.substr(0, kEnvelopeHeaderSize / 2);
  EXPECT_EQ(root.Receive(bad).kind,
            ReceiveOutcome::Kind::kEnvelopeRejected);
  bad = env;
  bad[1] ^= 0x40;  // magic
  EXPECT_FALSE(root.Receive(bad).send_ack);
  bad = env;
  bad[env.size() - 2] ^= 0x10;  // checksum byte
  EXPECT_EQ(root.Receive(bad).fault, FrameFault::kCorruptBody);

  EXPECT_EQ(root.rejects().truncated, 1u);
  EXPECT_EQ(root.rejects().bad_magic, 1u);
  EXPECT_EQ(root.rejects().corrupt_body, 1u);
  EXPECT_EQ(root.rejects().envelope_rejected(), 3u);
  EXPECT_EQ(root.frames_applied(), 0u);
  EXPECT_EQ(root.SnapshotFrame(), before);
}

TEST(Aggregator, PoisonPayloadIsAckedCountedNeverMerged) {
  AggregatorNode root(100, 64, 7, RetryPolicy{});
  // Seed some applied state so "unchanged" is a non-trivial assertion.
  root.Receive(EncodeEnvelope(EnvelopeKind::kData, 0, 0, 0, 3,
                              SketchFrame({1, 2, 3})));
  const std::string before = root.SnapshotFrame();

  // A structurally valid envelope around a damaged sketch frame: the
  // sender itself produced these bytes, so no retry can help -- ack to
  // stop the loop, count, never merge.
  std::string frame = SketchFrame({4, 5, 6});
  frame[frame.size() / 2] ^= 0x08;
  auto outcome = root.Receive(
      EncodeEnvelope(EnvelopeKind::kData, 0, 0, /*seq=*/1, /*epoch=*/6,
                     frame));
  EXPECT_EQ(outcome.kind, ReceiveOutcome::Kind::kPayloadRejected);
  EXPECT_TRUE(outcome.send_ack);
  EXPECT_EQ(root.rejects().payload_rejected, 1u);
  EXPECT_EQ(root.SnapshotFrame(), before);
  EXPECT_EQ(root.AppliedEpoch(0), 3u);  // epoch did not advance
}

TEST(Aggregator, NonCanonicalPayloadIsCorruptBody) {
  AggregatorNode root(100, 64, 7, RetryPolicy{});
  root.Receive(EncodeEnvelope(EnvelopeKind::kData, 0, 0, 0, 3,
                              SketchFrame({1, 2, 3})));
  const std::string before = root.SnapshotFrame();

  // An intact envelope around a checksum-valid KMV2 frame whose entries
  // are out of order: MergeManyFrames rejects it, and the reported fault
  // comes from the same validator, so it names the cause.
  auto outcome = root.Receive(
      EncodeEnvelope(EnvelopeKind::kData, 0, 0, /*seq=*/1, /*epoch=*/6,
                     SwapFirstTwoEntries(SketchFrame({4, 5, 6}))));
  EXPECT_EQ(outcome.kind, ReceiveOutcome::Kind::kPayloadRejected);
  EXPECT_TRUE(outcome.send_ack);
  EXPECT_EQ(outcome.fault, FrameFault::kCorruptBody);
  EXPECT_EQ(root.rejects().payload_rejected, 1u);
  EXPECT_EQ(root.SnapshotFrame(), before);
  EXPECT_EQ(root.AppliedEpoch(0), 3u);
}

TEST(Agent, CrashLosesVolatileStateAndReplayRebuildsBitIdentically) {
  AgentNode agent(/*id=*/0, /*k=*/64, /*salt=*/7, RetryPolicy{});
  std::vector<uint64_t> keys(100);
  for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = i * 17;
  agent.Ingest(keys);
  agent.EmitSnapshotIfAdvanced(/*now=*/0);
  const std::string healthy = agent.sketch().SerializeToString();

  agent.Crash(/*now=*/1, /*down_ticks=*/4);
  EXPECT_TRUE(agent.down());
  EXPECT_TRUE(agent.CollectDue(2).empty());  // dead processes don't send
  // Ingest continues upstream while the process is down: the durable
  // log grows, the volatile sketch does not.
  agent.Ingest(std::vector<uint64_t>{9999});
  agent.MaybeRestart(/*now=*/3);  // too early
  EXPECT_TRUE(agent.down());
  agent.MaybeRestart(/*now=*/5);
  EXPECT_FALSE(agent.down());
  EXPECT_EQ(agent.outbox().incarnation(), 1u);

  // Replay covers the full log, including keys that arrived while down.
  KmvSketch reference(64, 1.0, 7);
  reference.AddKeys(agent.log());
  EXPECT_EQ(agent.sketch().SerializeToString(),
            reference.SerializeToString());
  EXPECT_NE(agent.sketch().SerializeToString(), healthy);
  // The post-restart snapshot is emitted under the new incarnation.
  agent.EmitSnapshotIfAdvanced(/*now=*/6);
  auto due = agent.CollectDue(6);
  ASSERT_EQ(due.size(), 1u);
  EnvelopeView view;
  ASSERT_EQ(DecodeEnvelope(due[0], &view), FrameFault::kNone);
  EXPECT_EQ(view.incarnation, 1u);
  EXPECT_EQ(view.epoch, agent.log().size());
}

TEST(Transport, SameSeedReproducesIdenticalDeliverySchedule) {
  FaultProfile chaos;
  chaos.drop_rate = 0.2;
  chaos.duplicate_rate = 0.2;
  chaos.corrupt_rate = 0.2;
  chaos.truncate_rate = 0.1;
  chaos.max_delay_ticks = 6;

  const auto run = [&] {
    FaultyTransport transport(chaos, /*seed=*/99);
    Xoshiro256 payload_rng(5);
    std::vector<std::pair<uint64_t, std::string>> delivered;
    for (uint64_t now = 0; now < 200; ++now) {
      std::string msg(16 + payload_rng.NextBelow(64), '\0');
      for (auto& c : msg) {
        c = static_cast<char>(payload_rng.NextBelow(256));
      }
      transport.Send(now % 3, std::move(msg), now);
      for (const Delivery& d : transport.DeliverDue(now)) {
        delivered.emplace_back(d.to, d.bytes);
      }
    }
    return delivered;
  };
  EXPECT_EQ(run(), run());
}

TEST(Transport, FaultFreeProfileDeliversEverythingOnce) {
  FaultyTransport transport(FaultProfile::None(), 1);
  for (int i = 0; i < 50; ++i) transport.Send(0, "m", /*now=*/0);
  EXPECT_EQ(transport.DeliverDue(/*now=*/1).size(), 50u);
  EXPECT_TRUE(transport.Idle());
  EXPECT_EQ(transport.stats().copies_transmitted, 50u);
  EXPECT_EQ(transport.stats().dropped, 0u);
}

}  // namespace
}  // namespace ats::cluster
