// Tests for sketch serialization (ats/util/serialize.h plumbing through
// KmvSketch and LcsSketch): round trips, cross-node merge-after-ship, and
// corrupt-input rejection.
#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "ats/core/bottom_k.h"
#include "ats/core/random.h"
#include "ats/sketch/group_distinct.h"
#include "ats/sketch/kmv.h"
#include "ats/sketch/lcs_merge.h"
#include "ats/sketch/theta.h"
#include "ats/util/serialize.h"
#include "tests/wire_reference.h"

namespace ats {
namespace {

TEST(ByteIo, RoundTripsPodValues) {
  ByteWriter w;
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteDouble(3.14159);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.ReadDouble().value(), 3.14159);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(r.ReadU32().has_value());  // truncation detected
}

TEST(KmvSerialize, RoundTripPreservesEverything) {
  KmvSketch sketch(64, 1.0, 7);
  for (uint64_t i = 0; i < 5000; ++i) sketch.AddKey(i);
  const std::string bytes = sketch.SerializeToString();
  const auto restored = KmvSketch::Deserialize(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->k(), sketch.k());
  EXPECT_EQ(restored->hash_salt(), sketch.hash_salt());
  EXPECT_DOUBLE_EQ(restored->Threshold(), sketch.Threshold());
  EXPECT_EQ(restored->size(), sketch.size());
  EXPECT_DOUBLE_EQ(restored->Estimate(), sketch.Estimate());
  EXPECT_EQ(restored->saturated(), sketch.saturated());
}

TEST(KmvSerialize, RestoredSketchKeepsIngesting) {
  KmvSketch sketch(32, 1.0, 3);
  for (uint64_t i = 0; i < 1000; ++i) sketch.AddKey(i);
  auto restored = KmvSketch::Deserialize(sketch.SerializeToString());
  ASSERT_TRUE(restored.has_value());
  // Continue the stream on the restored sketch and on the original: they
  // must stay identical.
  for (uint64_t i = 1000; i < 3000; ++i) {
    sketch.AddKey(i);
    restored->AddKey(i);
  }
  EXPECT_DOUBLE_EQ(restored->Estimate(), sketch.Estimate());
  EXPECT_DOUBLE_EQ(restored->Threshold(), sketch.Threshold());
}

TEST(KmvSerialize, ShippedSketchesMerge) {
  KmvSketch a(64, 1.0, 9), b(64, 1.0, 9), whole(64, 1.0, 9);
  for (uint64_t i = 0; i < 4000; ++i) {
    whole.AddKey(i);
    (i % 2 ? a : b).AddKey(i);
  }
  auto a2 = KmvSketch::Deserialize(a.SerializeToString());
  auto b2 = KmvSketch::Deserialize(b.SerializeToString());
  ASSERT_TRUE(a2 && b2);
  a2->Merge(*b2);
  EXPECT_DOUBLE_EQ(a2->Estimate(), whole.Estimate());
}

TEST(KmvSerialize, RejectsCorruptInput) {
  KmvSketch sketch(16, 1.0, 1);
  for (uint64_t i = 0; i < 100; ++i) sketch.AddKey(i);
  std::string bytes = sketch.SerializeToString();

  EXPECT_FALSE(KmvSketch::Deserialize("").has_value());
  EXPECT_FALSE(KmvSketch::Deserialize("garbage").has_value());
  // Truncated payload.
  EXPECT_FALSE(
      KmvSketch::Deserialize(std::string_view(bytes).substr(0, 20))
          .has_value());
  // Flipped magic.
  std::string bad = bytes;
  bad[0] ^= 0x5a;
  EXPECT_FALSE(KmvSketch::Deserialize(bad).has_value());
  // Trailing junk.
  EXPECT_FALSE(KmvSketch::Deserialize(bytes + "x").has_value());
}

TEST(LcsSerialize, RoundTripAndChainedMerge) {
  KmvSketch a(64, 1.0, 5), b(64, 1.0, 5);
  for (uint64_t i = 0; i < 3000; ++i) a.AddKey(i);
  for (uint64_t i = 2000; i < 6000; ++i) b.AddKey(i);

  LcsSketch la = LcsSketch::FromKmv(a);
  const auto shipped = LcsSketch::Deserialize(la.SerializeToString());
  ASSERT_TRUE(shipped.has_value());
  EXPECT_DOUBLE_EQ(shipped->Estimate(), la.Estimate());
  EXPECT_EQ(shipped->size(), la.size());

  // Merge after shipping equals merging locally.
  LcsSketch local = la;
  local.Merge(LcsSketch::FromKmv(b));
  LcsSketch remote = *shipped;
  remote.Merge(LcsSketch::FromKmv(b));
  EXPECT_DOUBLE_EQ(remote.Estimate(), local.Estimate());
}

TEST(LcsSerialize, RejectsCorruptInput) {
  KmvSketch a(16, 1.0, 2);
  for (uint64_t i = 0; i < 200; ++i) a.AddKey(i);
  const std::string bytes = LcsSketch::FromKmv(a).SerializeToString();
  EXPECT_FALSE(LcsSketch::Deserialize("").has_value());
  EXPECT_FALSE(
      LcsSketch::Deserialize(std::string_view(bytes).substr(0, 10))
          .has_value());
  EXPECT_FALSE(LcsSketch::Deserialize(bytes + "zz").has_value());
  // KMV bytes are not LCS bytes.
  KmvSketch k(16, 1.0, 2);
  k.AddKey(1);
  EXPECT_FALSE(LcsSketch::Deserialize(k.SerializeToString()).has_value());
}

// --- The common MergeableSketch interface -----------------------------

// Compile-time contract: every shipped sketch satisfies the concept.
static_assert(MergeableSketch<KmvSketch>);
static_assert(MergeableSketch<LcsSketch>);
static_assert(MergeableSketch<ThetaSketch>);
static_assert(MergeableSketch<GroupDistinctSketch>);
static_assert(MergeableSketch<BottomK<uint64_t>>);
static_assert(MergeableSketch<PrioritySampler>);

TEST(SketchHeader, RoundTripAndVersionGate) {
  ByteWriter w;
  WriteSketchHeader(w, 0x41424344, 2);
  {
    ByteReader r(w.bytes());
    EXPECT_TRUE(ReadSketchHeader(r, 0x41424344, 2));
    EXPECT_TRUE(r.AtEnd());
  }
  {
    ByteReader r(w.bytes());  // foreign magic
    EXPECT_FALSE(ReadSketchHeader(r, 0x44434241, 2));
  }
  {
    ByteReader r(w.bytes());  // reader too old for version 2
    EXPECT_FALSE(ReadSketchHeader(r, 0x41424344, 1));
  }
  {
    ByteReader r(w.bytes());  // one reader per version: no older frames
    EXPECT_FALSE(ReadSketchHeader(r, 0x41424344, 3));
  }
}

// --- The frame checksum ----------------------------------------------

// The first n bytes of 00 01 02 ... (byte i is i mod 256).
std::string CountingBytes(size_t n) {
  std::string bytes(n, '\0');
  for (size_t i = 0; i < n; ++i) bytes[i] = static_cast<char>(i % 256);
  return bytes;
}

TEST(FrameChecksum, KnownAnswersFromWireFormat) {
  // docs/WIRE_FORMAT.md "Frame checksum" test vectors: every tail length
  // of a 32-byte block (n = 0..31), then a full block plus a tail.
  constexpr std::array<uint32_t, 41> kVectors = {
      0x764f86ca, 0x45cb76aa, 0xfaf37de3, 0x13f4c1ae, 0xe1e9a2e0,
      0x10201a9c, 0x97e22a6a, 0x92090aed, 0xb4bdfec7, 0x829cef0a,
      0xd1f8b8f5, 0x634b46cc, 0x846739be, 0x65d3867d, 0x60a8971e,
      0xc27ecd01, 0x3f30d816, 0x3f416d88, 0x6b501b30, 0xa17b2150,
      0xc2a52bb6, 0xe0deb0d2, 0xe9d9be25, 0x3b191f1b, 0x657a006c,
      0x7f78dcaf, 0x2958ff01, 0xdd283d96, 0x1863b1db, 0x64814518,
      0x63304958, 0x61890fbf, 0x95d5357b, 0x4b1fa6a1, 0xb4bc24db,
      0x643750bd, 0x7b13efe7, 0x78880657, 0x81cf2658, 0xe7f5e2b6,
      0xc1516c7f};
  for (size_t n = 0; n < kVectors.size(); ++n) {
    const std::string bytes = CountingBytes(n);
    EXPECT_EQ(FrameChecksum(bytes), kVectors[n]) << "n = " << n;
    EXPECT_EQ(wire_reference::Checksum(bytes), kVectors[n]) << "n = " << n;
  }
}

TEST(FrameChecksum, EveryByteValueAtEveryPositionIsCaught) {
  // A change confined to one 4-byte word always alters the checksum, so
  // every one of the 255 other values of every byte of a ~300-byte frame
  // (checksum bytes included) is rejected.
  KmvSketch sketch(16, 1.0, 9);
  for (uint64_t i = 0; i < 1000; ++i) sketch.AddKey(i);
  std::string frame = sketch.SerializeToString();
  ASSERT_EQ(frame.size(), 308u);
  ASSERT_TRUE(CheckedFrameBody(frame).has_value());
  size_t accepted = 0;
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    for (int x = 1; x < 256; ++x) {
      frame[pos] = static_cast<char>(frame[pos] ^ x);
      accepted += CheckedFrameBody(frame).has_value();
      frame[pos] = static_cast<char>(frame[pos] ^ x);
    }
  }
  EXPECT_EQ(accepted, 0u);
}

TEST(FrameChecksum, KmvFrameFlipsTruncationsAndWordSwapsAreCaught) {
  // A k = 256 KMV2 frame: every bit flip, every strict prefix, and every
  // swap of two unequal 8-byte words of the body (133,902 swaps) fails
  // the checksum.
  KmvSketch sketch(256, 1.0, 7);
  Xoshiro256 rng(1);
  for (int i = 0; i < 20000; ++i) sketch.AddKey(rng.Next());
  std::string frame = sketch.SerializeToString();
  ASSERT_EQ(frame.size(), 52u + 16u * 256u);
  ASSERT_TRUE(CheckedFrameBody(frame).has_value());

  size_t accepted_flips = 0;
  for (size_t bit = 0; bit < 8 * frame.size(); ++bit) {
    const char mask = static_cast<char>(1 << (bit % 8));
    frame[bit / 8] ^= mask;
    accepted_flips += CheckedFrameBody(frame).has_value();
    frame[bit / 8] ^= mask;
  }
  EXPECT_EQ(accepted_flips, 0u);

  size_t accepted_prefixes = 0;
  for (size_t len = 0; len < frame.size(); ++len) {
    accepted_prefixes +=
        CheckedFrameBody(std::string_view(frame).substr(0, len)).has_value();
  }
  EXPECT_EQ(accepted_prefixes, 0u);

  const size_t body = frame.size() - sizeof(uint32_t);
  const size_t words = body / 8;
  size_t swaps = 0;
  size_t accepted_swaps = 0;
  for (size_t a = 0; a < words; ++a) {
    for (size_t b = a + 1; b < words; ++b) {
      char* wa = frame.data() + 8 * a;
      char* wb = frame.data() + 8 * b;
      if (std::equal(wa, wa + 8, wb)) continue;
      std::swap_ranges(wa, wa + 8, wb);
      ++swaps;
      accepted_swaps += CheckedFrameBody(frame).has_value();
      std::swap_ranges(wa, wa + 8, wb);
    }
  }
  EXPECT_GT(swaps, words * (words - 1) / 2 * 9 / 10);
  EXPECT_EQ(accepted_swaps, 0u);
}

TEST(ThetaSerialize, StreamModeRoundTrip) {
  ThetaSketch sketch(64, 5);
  for (uint64_t i = 0; i < 3000; ++i) sketch.AddKey(i);
  const auto restored = ThetaSketch::Deserialize(sketch.SerializeToString());
  ASSERT_TRUE(restored.has_value());
  EXPECT_FALSE(restored->union_mode());
  EXPECT_DOUBLE_EQ(restored->Theta(), sketch.Theta());
  EXPECT_EQ(restored->size(), sketch.size());
  EXPECT_DOUBLE_EQ(restored->Estimate(), sketch.Estimate());
}

TEST(ThetaSerialize, UnionModeRoundTripAndMerge) {
  ThetaSketch a(64, 5), b(64, 5);
  for (uint64_t i = 0; i < 2000; ++i) a.AddKey(i);
  for (uint64_t i = 1500; i < 4000; ++i) b.AddKey(i);

  // Pairwise Merge matches the n-way Union rule.
  ThetaSketch merged = a;
  merged.Merge(b);
  const ThetaSketch unioned = ThetaSketch::Union({&a, &b});
  EXPECT_DOUBLE_EQ(merged.Theta(), unioned.Theta());
  EXPECT_EQ(merged.size(), unioned.size());
  EXPECT_DOUBLE_EQ(merged.Estimate(), unioned.Estimate());

  // Union results ship too.
  const auto restored =
      ThetaSketch::Deserialize(merged.SerializeToString());
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->union_mode());
  EXPECT_DOUBLE_EQ(restored->Theta(), merged.Theta());
  EXPECT_DOUBLE_EQ(restored->Estimate(), merged.Estimate());
}

TEST(ThetaSerialize, SelfMergeIsANoOp) {
  ThetaSketch sketch(32, 2);
  for (uint64_t i = 0; i < 1000; ++i) sketch.AddKey(i);
  const double estimate_before = sketch.Estimate();
  sketch.Merge(sketch);
  EXPECT_DOUBLE_EQ(sketch.Estimate(), estimate_before);
}

TEST(ThetaSerialize, RejectsCorruptInput) {
  ThetaSketch sketch(16, 1);
  for (uint64_t i = 0; i < 300; ++i) sketch.AddKey(i);
  const std::string bytes = sketch.SerializeToString();
  EXPECT_FALSE(ThetaSketch::Deserialize("").has_value());
  EXPECT_FALSE(ThetaSketch::Deserialize(
                   std::string_view(bytes).substr(0, 11))
                   .has_value());
  EXPECT_FALSE(ThetaSketch::Deserialize(bytes + "??").has_value());
  std::string bad = bytes;
  bad[2] ^= 0x11;  // magic
  EXPECT_FALSE(ThetaSketch::Deserialize(bad).has_value());
  // Theta bytes are not KMV bytes and vice versa.
  EXPECT_FALSE(KmvSketch::Deserialize(bytes).has_value());
}

TEST(KmvSerialize, InitialThresholdSurvivesRoundTrip) {
  // Grouped sketches serialize with a sub-1 initial threshold; saturation
  // state must survive (saturated == threshold < initial threshold).
  KmvSketch sketch(8, /*initial_threshold=*/0.25, /*hash_salt=*/3);
  uint64_t key = 0;
  while (!sketch.saturated()) sketch.AddKey(key++);
  const auto restored = KmvSketch::Deserialize(sketch.SerializeToString());
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->saturated());
  EXPECT_DOUBLE_EQ(restored->Threshold(), sketch.Threshold());
  EXPECT_DOUBLE_EQ(restored->Estimate(), sketch.Estimate());
}

TEST(PrioritySamplerSerialize, RoundTripContinuesRngStream) {
  // An independent-mode sampler must continue the exact same priority
  // stream after a round trip: feed both copies the same suffix and
  // expect bit-identical thresholds and samples.
  PrioritySampler original(32, /*seed=*/9, /*coordinated=*/false);
  Xoshiro256 weights(41);
  for (uint64_t i = 0; i < 2000; ++i) {
    original.Add(i, 1.0 + weights.NextDouble());
  }
  auto restored =
      PrioritySampler::Deserialize(original.SerializeToString());
  ASSERT_TRUE(restored.has_value());
  EXPECT_DOUBLE_EQ(restored->Threshold(), original.Threshold());

  Xoshiro256 more_weights(43);
  for (uint64_t i = 2000; i < 5000; ++i) {
    const double w = 1.0 + more_weights.NextDouble();
    original.Add(i, w);
    restored->Add(i, w);
  }
  EXPECT_DOUBLE_EQ(restored->Threshold(), original.Threshold());
  EXPECT_EQ(restored->size(), original.size());
}

TEST(PrioritySamplerSerialize, MergeOfShippedDisjointSamplersIsExact) {
  // Coordinated samplers over disjoint key ranges, shipped and merged,
  // equal the single sampler over the union.
  PrioritySampler a(64, 1, true), b(64, 1, true), whole(64, 1, true);
  Xoshiro256 weights(47);
  for (uint64_t i = 0; i < 4000; ++i) {
    const double w = 1.0 + weights.NextDouble();
    whole.Add(i, w);
    (i % 2 ? a : b).Add(i, w);
  }
  auto a2 = PrioritySampler::Deserialize(a.SerializeToString());
  auto b2 = PrioritySampler::Deserialize(b.SerializeToString());
  ASSERT_TRUE(a2 && b2);
  a2->Merge(*b2);
  EXPECT_DOUBLE_EQ(a2->Threshold(), whole.Threshold());
  EXPECT_EQ(a2->size(), whole.size());
}

TEST(KmvSerialize, HostileCapacityFieldDoesNotAbort) {
  // A frame whose k field claims 2^60 entries (with a recomputed frame
  // checksum, so it passes integrity) must not make the receiver try to
  // reserve 2^60 slots: deserialization stays allocation-bounded.
  KmvSketch sketch(16, 1.0, 1);
  for (uint64_t i = 0; i < 100; ++i) sketch.AddKey(i);
  std::string bytes = sketch.SerializeToString();

  // Patch k (u64 at offset 8, after the magic/version header) and redo
  // the trailing checksum.
  const uint64_t huge_k = uint64_t{1} << 60;
  std::memcpy(bytes.data() + 8, &huge_k, sizeof(huge_k));
  std::string body = bytes.substr(0, bytes.size() - 4);
  const uint32_t checksum = FrameChecksum(body);
  std::memcpy(bytes.data() + body.size(), &checksum, sizeof(checksum));

  const auto restored = KmvSketch::Deserialize(bytes);
  ASSERT_TRUE(restored.has_value());  // a huge capacity is legal...
  EXPECT_EQ(restored->k(), size_t{1} << 60);
  EXPECT_EQ(restored->size(), sketch.size());  // ...entries are bounded
  EXPECT_DOUBLE_EQ(restored->Threshold(), sketch.Threshold());
}

TEST(BottomKSerialize, HostileCapacityFieldDoesNotAbort) {
  // Same guarantee for the generic bottom-k frame, which now backs a
  // compaction store with a 2k candidate buffer: a header claiming
  // k = 2^60 must not make the receiver eagerly reserve 2k slots
  // (internal::kMaxEagerReserve caps every up-front reservation), and the
  // restored store must keep ingesting correctly.
  BottomK<uint64_t> sketch(16);
  Xoshiro256 rng(5);
  for (uint64_t i = 0; i < 200; ++i) sketch.Offer(rng.NextDoubleOpenZero(), i);
  std::string bytes = sketch.SerializeToString();

  // Patch k (u64 at offset 8, after the magic/version header) and redo
  // the trailing checksum.
  const uint64_t huge_k = uint64_t{1} << 60;
  std::memcpy(bytes.data() + 8, &huge_k, sizeof(huge_k));
  std::string body = bytes.substr(0, bytes.size() - 4);
  const uint32_t checksum = FrameChecksum(body);
  std::memcpy(bytes.data() + body.size(), &checksum, sizeof(checksum));

  const auto restored = BottomK<uint64_t>::Deserialize(bytes);
  ASSERT_TRUE(restored.has_value());  // a huge capacity is legal...
  EXPECT_EQ(restored->k(), size_t{1} << 60);
  EXPECT_EQ(restored->size(), sketch.size());  // ...entries are bounded
  EXPECT_DOUBLE_EQ(restored->Threshold(), sketch.Threshold());
  // The (never-compacting, k >> stream) store still accepts below the
  // shipped threshold and rejects at or above it.
  auto patched = *restored;
  const double threshold = patched.Threshold();
  EXPECT_FALSE(patched.Offer(threshold, 777));
  EXPECT_TRUE(patched.Offer(threshold / 2, 778));
}

TEST(KmvSerialize, SingleFlippedByteAnywhereIsRejected) {
  // The frame checksum catches corruption that field validation cannot
  // (e.g. a flipped bit inside the k field still yields a plausible k).
  KmvSketch sketch(16, 1.0, 1);
  for (uint64_t i = 0; i < 100; ++i) sketch.AddKey(i);
  const std::string bytes = sketch.SerializeToString();
  for (size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::string bad = bytes;
    bad[pos] ^= 0x10;
    EXPECT_FALSE(KmvSketch::Deserialize(bad).has_value())
        << "flip at " << pos;
  }
}

TEST(PrioritySamplerSerialize, RejectsAllZeroRngState) {
  // An all-zero Xoshiro256 state is the generator's invalid fixed point;
  // a frame carrying it (with a recomputed checksum) must be rejected,
  // not produce a sampler with a degenerate priority stream.
  PrioritySampler sampler(8, /*seed=*/3, /*coordinated=*/false);
  for (uint64_t i = 0; i < 50; ++i) sampler.Add(i, 1.0);
  std::string bytes = sampler.SerializeToString();
  // RNG words start after the 8-byte header + 4-byte coordinated flag.
  std::memset(bytes.data() + 12, 0, 4 * sizeof(uint64_t));
  std::string body = bytes.substr(0, bytes.size() - 4);
  const uint32_t checksum = FrameChecksum(body);
  std::memcpy(bytes.data() + body.size(), &checksum, sizeof(checksum));
  EXPECT_FALSE(PrioritySampler::Deserialize(bytes).has_value());
}

}  // namespace
}  // namespace ats
