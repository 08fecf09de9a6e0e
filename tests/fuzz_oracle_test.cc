// Randomized oracle tests: long random operation sequences checked
// against brute-force reference implementations and structural
// invariants. These sweep parts of the state space the targeted unit
// tests do not reach (interleaved merges, saturation boundaries,
// adversarial weight sequences, hostile wire bytes against randomized
// sampler states across every frame family).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ats/baselines/varopt.h"
#include "ats/cluster/envelope.h"
#include "ats/cluster/node.h"
#include "ats/core/bottom_k.h"
#include "ats/core/simd/simd_dispatch.h"
#include "ats/persist/checkpoint.h"
#include "ats/samplers/budget_sampler.h"
#include "ats/samplers/multi_objective.h"
#include "ats/samplers/multi_stratified.h"
#include "ats/samplers/sliding_window.h"
#include "ats/samplers/time_decay.h"
#include "ats/samplers/variance_sized.h"
#include "ats/sketch/group_distinct.h"
#include "ats/sketch/kmv.h"
#include "ats/sketch/lcs_merge.h"
#include "ats/sketch/theta.h"
#include "ats/util/stats.h"
#include "tests/conformance/structural_mutations.h"

namespace ats {
namespace {

class FuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSweep, BottomKMatchesBruteForceUnderRandomMerges) {
  Xoshiro256 rng(GetParam());
  const size_t k = 1 + rng.NextBelow(12);
  // Random number of shards, random offers, then a random merge order.
  const size_t shards = 2 + rng.NextBelow(4);
  std::vector<BottomK<uint64_t>> sketches(shards, BottomK<uint64_t>(k));
  std::vector<double> all;
  uint64_t id = 0;
  for (int op = 0; op < 600; ++op) {
    const double p = rng.NextDoubleOpenZero();
    all.push_back(p);
    sketches[rng.NextBelow(shards)].Offer(p, id++);
  }
  // Merge in random order.
  while (sketches.size() > 1) {
    const size_t a = rng.NextBelow(sketches.size());
    size_t b = rng.NextBelow(sketches.size());
    while (b == a) b = rng.NextBelow(sketches.size());
    sketches[std::min(a, b)].Merge(sketches[std::max(a, b)]);
    sketches.erase(sketches.begin() +
                   static_cast<std::ptrdiff_t>(std::max(a, b)));
  }
  std::sort(all.begin(), all.end());
  const auto& merged = sketches[0];
  ASSERT_EQ(merged.size(), std::min(k, all.size()));
  const auto entries = merged.SortedEntries();
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_DOUBLE_EQ(entries[i].priority, all[i]);
  }
  if (all.size() > k) {
    EXPECT_DOUBLE_EQ(merged.Threshold(), all[k]);
  }
}

TEST_P(FuzzSweep, KmvMatchesExactDistinctOracle) {
  Xoshiro256 rng(GetParam() * 31 + 5);
  const size_t k = 8 + rng.NextBelow(64);
  KmvSketch sketch(k, 1.0, GetParam());
  std::set<uint64_t> oracle;
  // Duplicates, bursts, and re-visits.
  for (int op = 0; op < 3000; ++op) {
    const uint64_t key = rng.NextBelow(700);
    sketch.AddKey(key);
    oracle.insert(key);
    // Invariants at every step:
    ASSERT_LE(sketch.size(), k);
    ASSERT_LE(sketch.size(), oracle.size());
  }
  // Unsaturated => exact; saturated => within 6 standard errors.
  if (!sketch.saturated()) {
    EXPECT_DOUBLE_EQ(sketch.Estimate(), double(oracle.size()));
  } else {
    const double n = double(oracle.size());
    EXPECT_NEAR(sketch.Estimate(), n, 6.0 * n / std::sqrt(double(k)));
  }
}

TEST_P(FuzzSweep, LcsMergeOrderInvariance) {
  // LCS merges must commute and associate: any merge order over the same
  // sketches yields the same estimate.
  const uint64_t salt = GetParam() + 1;
  Xoshiro256 rng(GetParam() * 17 + 3);
  std::vector<LcsSketch> parts;
  for (int s = 0; s < 5; ++s) {
    KmvSketch sketch(16 + rng.NextBelow(32), 1.0, salt);
    const int n = 100 + static_cast<int>(rng.NextBelow(2000));
    for (int i = 0; i < n; ++i) {
      sketch.AddKey(rng.NextBelow(5000));
    }
    parts.push_back(LcsSketch::FromKmv(sketch));
  }
  LcsSketch forward;
  for (const auto& p : parts) forward.Merge(p);
  LcsSketch backward;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    backward.Merge(*it);
  }
  // Pairwise tree order.
  LcsSketch left = parts[0], right = parts[3];
  left.Merge(parts[1]);
  left.Merge(parts[2]);
  right.Merge(parts[4]);
  left.Merge(right);
  EXPECT_DOUBLE_EQ(forward.Estimate(), backward.Estimate());
  EXPECT_DOUBLE_EQ(forward.Estimate(), left.Estimate());
  EXPECT_EQ(forward.size(), backward.size());
}

TEST_P(FuzzSweep, VarOptInvariantsUnderAdversarialWeights) {
  Xoshiro256 rng(GetParam() * 101 + 7);
  const size_t k = 5 + rng.NextBelow(20);
  VarOptSampler sampler(k, GetParam() + 9);
  double total = 0.0;
  double prev_tau = 0.0;
  for (int op = 0; op < 1500; ++op) {
    // Adversarial mix: occasional huge weights, runs of tiny ones.
    double w;
    const uint64_t kind = rng.NextBelow(10);
    if (kind == 0) {
      w = 1e6 * rng.NextDoubleOpenZero();
    } else if (kind < 4) {
      w = 1e-6 * rng.NextDoubleOpenZero();
    } else {
      w = rng.NextDoubleOpenZero();
    }
    total += w;
    sampler.Add(static_cast<uint64_t>(op), w);
    ASSERT_LE(sampler.size(), k);
    ASSERT_GE(sampler.Tau(), prev_tau - 1e-12);  // tau monotone
    prev_tau = sampler.Tau();
    ASSERT_NEAR(sampler.EstimateTotal(), total, 1e-6 * total);
  }
}

TEST_P(FuzzSweep, MultiStratifiedInvariantsUnderRandomStreams) {
  Xoshiro256 rng(GetParam() * 13 + 1);
  const size_t dims = 1 + rng.NextBelow(3);
  const size_t k = 2 + rng.NextBelow(6);
  MultiStratifiedSampler sampler(dims, k, GetParam() + 2);
  for (uint64_t i = 0; i < 2000; ++i) {
    MultiStratifiedSampler::StrataKeys strata(dims);
    for (auto& s : strata) s = rng.NextBelow(6);
    sampler.Add(i, strata, 1.0);
    if (i % 97 == 96) sampler.ShrinkToBudget(3 * k);
  }
  // Invariants: every sampled entry has priority below its composite
  // threshold and positive inclusion probability.
  for (const auto& e : sampler.Sample()) {
    ASSERT_LT(e.priority, e.threshold);
    ASSERT_GT(e.InclusionProbability(), 0.0);
  }
}

// --- Hostile-input parity, table-driven over every frame kind ---------
//
// The hostility contract -- every strict prefix and every single-bit
// corruption of a valid frame must fail cleanly through BOTH parse
// paths (eager Deserialize and zero-copy DeserializeView), and an
// invalid frame inside a MergeManyFrames fan-in must leave the target
// byte-identical -- is enforced over RANDOMIZED sampler states for
// every registered frame kind. Adding a wire format means adding ONE
// registry row; the sweep then covers it at every seed automatically.
// (tools/check_wire_docs.py separately fails CI if a registered magic
// has no WIRE_FORMAT.md section.)

SlidingWindowSampler RandomWindowSampler(uint64_t seed) {
  Xoshiro256 rng(seed);
  SlidingWindowSampler sampler(/*k=*/8, /*window=*/1.0, seed + 99);
  const int arrivals = 30 + static_cast<int>(rng.NextBelow(120));
  double time = 0.0;
  for (int i = 0; i < arrivals; ++i) {
    time += 0.02 * rng.NextDoubleOpenZero();
    sampler.Arrive(time, seed * 100000 + static_cast<uint64_t>(i));
  }
  return sampler;
}

TimeDecaySampler RandomDecaySampler(uint64_t seed) {
  Xoshiro256 rng(seed);
  TimeDecaySampler sampler(/*k=*/8, seed + 7);
  const int items = 30 + static_cast<int>(rng.NextBelow(120));
  double time = 0.0;
  for (int i = 0; i < items; ++i) {
    time += 0.05 * rng.NextDoubleOpenZero();
    sampler.Add(seed * 100000 + static_cast<uint64_t>(i),
                std::exp(0.5 * rng.NextGaussian()), 1.0, time);
  }
  return sampler;
}

BottomK<uint64_t> RandomBottomK(uint64_t seed) {
  Xoshiro256 rng(seed);
  BottomK<uint64_t> sketch(8);
  const int offers = 30 + static_cast<int>(rng.NextBelow(120));
  for (int i = 0; i < offers; ++i) {
    sketch.Offer(rng.NextDoubleOpenZero(),
                 seed * 100000 + static_cast<uint64_t>(i));
  }
  return sketch;
}

PrioritySampler RandomPrioritySampler(uint64_t seed) {
  Xoshiro256 rng(seed);
  PrioritySampler sampler(/*k=*/8, seed + 3,
                          /*coordinated=*/seed % 2 == 0);
  const int items = 30 + static_cast<int>(rng.NextBelow(120));
  for (int i = 0; i < items; ++i) {
    sampler.Add(seed * 100000 + static_cast<uint64_t>(i),
                std::exp(0.5 * rng.NextGaussian()));
  }
  return sampler;
}

KmvSketch RandomKmvSketch(uint64_t seed) {
  Xoshiro256 rng(seed);
  KmvSketch sketch(8, 1.0, /*hash_salt=*/0x5eed);
  const int keys = 30 + static_cast<int>(rng.NextBelow(120));
  for (int i = 0; i < keys; ++i) sketch.AddKey(rng.Next());
  return sketch;
}

MultiStratifiedSampler RandomStratifiedSampler(uint64_t seed) {
  Xoshiro256 rng(seed);
  MultiStratifiedSampler sampler(/*num_dimensions=*/2, /*k=*/4, seed + 5);
  const int items = 30 + static_cast<int>(rng.NextBelow(80));
  for (int i = 0; i < items; ++i) {
    const uint64_t key = seed * 100000 + static_cast<uint64_t>(i);
    sampler.Add(key, {key % 3, key % 5}, 1.0 + rng.NextDouble());
  }
  return sampler;
}

VarianceSizedSampler RandomVarianceSampler(uint64_t seed) {
  Xoshiro256 rng(seed);
  VarianceSizedSampler sampler(/*delta_squared=*/0.5, seed + 11);
  const int items = 30 + static_cast<int>(rng.NextBelow(80));
  for (int i = 0; i < items; ++i) {
    const double weight = std::exp(0.5 * rng.NextGaussian());
    sampler.Add(seed * 100000 + static_cast<uint64_t>(i), weight, weight);
  }
  return sampler;
}

MultiObjectiveSampler RandomObjectiveSampler(uint64_t seed) {
  Xoshiro256 rng(seed);
  MultiObjectiveSampler sampler(/*num_objectives=*/2, /*k=*/6, seed + 13);
  const int items = 30 + static_cast<int>(rng.NextBelow(80));
  for (int i = 0; i < items; ++i) {
    sampler.Add(seed * 100000 + static_cast<uint64_t>(i),
                {std::exp(0.4 * rng.NextGaussian()),
                 std::exp(0.4 * rng.NextGaussian())},
                1.0 + rng.NextDouble());
  }
  return sampler;
}

BudgetSampler RandomBudgetSampler(uint64_t seed) {
  Xoshiro256 rng(seed);
  BudgetSampler sampler(/*budget=*/12.0, seed + 17);
  const int items = 30 + static_cast<int>(rng.NextBelow(80));
  for (int i = 0; i < items; ++i) {
    sampler.Add(seed * 100000 + static_cast<uint64_t>(i),
                /*size=*/0.5 + rng.NextDoubleOpenZero(),
                /*value=*/rng.NextDouble(),
                /*weight=*/std::exp(0.5 * rng.NextGaussian()));
  }
  return sampler;
}

// One registered frame kind: how to build a randomized valid frame and
// how to run each parse path. `reserialize` is the eager parse followed
// by SerializeToString (empty when the parse fails), `diagnose` the
// family's typed DiagnoseFrame. `check_merge_fail_closed` feeds a good
// and a rejected frame through MergeManyFrames and asserts the target
// stays byte-identical (all-or-nothing).
struct FrameKindEntry {
  const char* name;
  std::function<std::string(uint64_t)> make_frame;
  std::function<bool(std::string_view)> parse_eager;
  std::function<bool(std::string_view)> parse_view;
  std::function<std::string(std::string_view)> reserialize;
  std::function<FrameFault(std::string_view)> diagnose;
  std::function<void(uint64_t, const std::string&, const std::string&)>
      check_merge_fail_closed;
};

template <typename Sketch, typename MakeSampler>
FrameKindEntry RegisterFrameKind(const char* name, MakeSampler make) {
  FrameKindEntry entry;
  entry.name = name;
  entry.make_frame = [make](uint64_t seed) {
    return make(seed).SerializeToString();
  };
  entry.parse_eager = [](std::string_view bytes) {
    return Sketch::Deserialize(bytes).has_value();
  };
  entry.parse_view = [](std::string_view bytes) {
    return Sketch::DeserializeView(bytes).has_value();
  };
  entry.reserialize = [](std::string_view bytes) {
    const auto sketch = Sketch::Deserialize(bytes);
    return sketch ? sketch->SerializeToString() : std::string();
  };
  entry.diagnose = [](std::string_view bytes) {
    return Sketch::DiagnoseFrame(bytes);
  };
  entry.check_merge_fail_closed = [make](uint64_t seed,
                                         const std::string& good,
                                         const std::string& corrupt) {
    Sketch target = make(seed);
    const std::string before = target.SerializeToString();
    const std::vector<std::string_view> frames{good, corrupt};
    EXPECT_FALSE(target.MergeManyFrames(frames));
    EXPECT_EQ(target.SerializeToString(), before);
  };
  return entry;
}

// The registry: one row per versioned frame kind. Shape parameters are
// FIXED per row (only contents are randomized) so the frames in a
// MergeManyFrames fan-in are always merge-compatible.
std::vector<FrameKindEntry> FrameKindRegistry() {
  return {
      RegisterFrameKind<KmvSketch>("KMV2", RandomKmvSketch),
      RegisterFrameKind<BottomK<uint64_t>>("BTK2", RandomBottomK),
      RegisterFrameKind<PrioritySampler>("PSM2", RandomPrioritySampler),
      RegisterFrameKind<SlidingWindowSampler>("SWN1", RandomWindowSampler),
      RegisterFrameKind<TimeDecaySampler>("TDK1", RandomDecaySampler),
      RegisterFrameKind<MultiStratifiedSampler>("MSS1",
                                                RandomStratifiedSampler),
      RegisterFrameKind<VarianceSizedSampler>("VSZ1",
                                              RandomVarianceSampler),
      RegisterFrameKind<MultiObjectiveSampler>("MOB1",
                                               RandomObjectiveSampler),
      RegisterFrameKind<BudgetSampler>("BGT1", RandomBudgetSampler),
  };
}

// Every strict prefix and every single-bit flip of `frame` must be
// rejected by both `parse_eager` and `parse_view` (every step of the
// frame checksum is a bijection of its lane state and of its input word,
// so ANY change confined to one 4-byte word alters it); the intact frame
// must parse through both.
template <typename ParseEager, typename ParseView>
void ExpectHostileBytesFailCleanly(const std::string& frame,
                                   ParseEager&& parse_eager,
                                   ParseView&& parse_view) {
  for (size_t len = 0; len < frame.size(); ++len) {
    const std::string_view prefix(frame.data(), len);
    EXPECT_FALSE(parse_eager(prefix)) << "prefix length " << len;
    EXPECT_FALSE(parse_view(prefix)) << "prefix length " << len;
  }
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    std::string bad = frame;
    bad[pos] = static_cast<char>(bad[pos] ^ (1 << (pos % 8)));
    EXPECT_FALSE(parse_eager(bad)) << "flipped bit in byte " << pos;
    EXPECT_FALSE(parse_view(bad)) << "flipped bit in byte " << pos;
  }
  EXPECT_TRUE(parse_eager(frame));
  EXPECT_TRUE(parse_view(frame));
}

TEST_P(FuzzSweep, RegisteredFrameKindsHostileBytesFailCleanly) {
  for (const FrameKindEntry& entry : FrameKindRegistry()) {
    SCOPED_TRACE(entry.name);
    const std::string frame = entry.make_frame(GetParam() * 37 + 11);
    ExpectHostileBytesFailCleanly(frame, entry.parse_eager,
                                  entry.parse_view);
    std::string corrupt = frame;
    corrupt[corrupt.size() / 2] =
        static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x10);
    entry.check_merge_fail_closed(GetParam() * 41 + 3, frame, corrupt);
  }
}

TEST_P(FuzzSweep, RegisteredFrameKindsStructuralMutationsAgreeAcrossParsers) {
  // The bit flips above are stopped by the checksum before any field
  // validator runs. The conformance kit's checksum-repairing structural
  // mutations (word +-1, swaps, copies -- count fields included) reach
  // the validators of every registered kind at randomized states: eager,
  // view and DiagnoseFrame must agree on each mutation, an accepted one
  // must be canonical (re-serialize to itself), and a rejected one must
  // leave a MergeManyFrames target byte-identical.
  for (const FrameKindEntry& entry : FrameKindRegistry()) {
    SCOPED_TRACE(entry.name);
    const std::string frame = entry.make_frame(GetParam() * 59 + 17);
    const std::vector<std::string> mutations =
        conformance::StructuralMutations(frame);
    ASSERT_FALSE(mutations.empty());
    size_t rejected = 0;
    for (size_t i = 0; i < mutations.size(); ++i) {
      const std::string& m = mutations[i];
      ASSERT_TRUE(CheckedFrameBody(m).has_value()) << "mutation " << i;
      const bool eager = entry.parse_eager(m);
      const bool view = entry.parse_view(m);
      const FrameFault fault = entry.diagnose(m);
      EXPECT_EQ(eager, view) << "mutation " << i;
      EXPECT_EQ(fault == FrameFault::kNone, view) << "mutation " << i;
      if (eager) {
        EXPECT_EQ(entry.reserialize(m), m)
            << "mutation " << i << " parsed but is not canonical";
        continue;
      }
      EXPECT_NE(fault, FrameFault::kTruncated) << "mutation " << i;
      ++rejected;
      if (i % 7 == 0) {
        entry.check_merge_fail_closed(GetParam() * 61 + 5, frame, m);
      }
    }
    // The validators were reached: some checksum-valid frames failed.
    EXPECT_GT(rejected, 0u);
  }
}

TEST_P(FuzzSweep, RegisteredFrameKindsRejectTruncatedMergeTails) {
  // A truncated (not bit-flipped) frame in the fan-in: the same
  // all-or-nothing contract, hitting the length-validation paths
  // rather than the checksum.
  for (const FrameKindEntry& entry : FrameKindRegistry()) {
    SCOPED_TRACE(entry.name);
    const std::string frame = entry.make_frame(GetParam() * 53 + 29);
    std::string corrupt = frame;
    corrupt.resize(corrupt.size() - 1 - GetParam() % 8);
    EXPECT_FALSE(entry.parse_eager(corrupt));
    EXPECT_FALSE(entry.parse_view(corrupt));
  }
}

// FNV-1a-32, the checksum that version-1 frames carried.
uint32_t VersionOneChecksum(std::string_view bytes) {
  uint32_t h = 2166136261u;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

using ChecksumFn = uint32_t (*)(std::string_view);

// `frame` with its version field (bytes 4..8) set to 1 and its trailing
// checksum recomputed by `checksum`.
std::string AsVersionOne(std::string frame, ChecksumFn checksum) {
  const uint32_t version = 1;
  std::memcpy(frame.data() + 4, &version, sizeof(version));
  const size_t body = frame.size() - sizeof(uint32_t);
  const uint32_t sum = checksum(std::string_view(frame).substr(0, body));
  std::memcpy(frame.data() + body, &sum, sizeof(sum));
  return frame;
}

TEST_P(FuzzSweep, VersionOneFramesAreTypedBadVersionOnEveryReader) {
  // One reader per family: a version-1 header is a protocol mismatch
  // (kBadVersion), never a corrupt body, whether it carries the FNV-1a
  // tail it was written with or a tail that is valid under the current
  // checksum. The nullopt parsers reject it too.
  const ChecksumFn tails[] = {VersionOneChecksum, FrameChecksum};
  for (const FrameKindEntry& entry : FrameKindRegistry()) {
    SCOPED_TRACE(entry.name);
    const std::string frame = entry.make_frame(GetParam() * 67 + 19);
    ASSERT_EQ(entry.diagnose(frame), FrameFault::kNone);
    for (const ChecksumFn tail : tails) {
      const std::string old = AsVersionOne(frame, tail);
      EXPECT_EQ(entry.diagnose(old), FrameFault::kBadVersion);
      EXPECT_FALSE(entry.parse_eager(old));
      EXPECT_FALSE(entry.parse_view(old));
    }
  }
  // The families without a view or a typed diagnosis: Theta, LCS and
  // grouped distinct reject through their one eager parser.
  Xoshiro256 rng(GetParam() * 71 + 23);
  ThetaSketch theta(16, 3);
  KmvSketch kmv(16, 1.0, 3);
  GroupDistinctSketch grouped(/*m=*/2, /*k=*/8, /*hash_salt=*/3);
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = rng.Next();
    theta.AddKey(key);
    kmv.AddKey(key);
    grouped.Add(key % 5, key);
  }
  const LcsSketch lcs = LcsSketch::FromKmv(kmv);
  for (const ChecksumFn tail : tails) {
    EXPECT_FALSE(ThetaSketch::Deserialize(
                     AsVersionOne(theta.SerializeToString(), tail))
                     .has_value());
    EXPECT_FALSE(
        LcsSketch::Deserialize(AsVersionOne(lcs.SerializeToString(), tail))
            .has_value());
    EXPECT_FALSE(GroupDistinctSketch::Deserialize(
                     AsVersionOne(grouped.SerializeToString(), tail))
                     .has_value());
  }

  // The envelope and the checkpoint wrap a current frame; only their
  // own version field is set to 1.
  KmvSketch sketch(8, 1.0, /*hash_salt=*/0x5eed);
  for (int i = 0; i < 100; ++i) sketch.AddKey(rng.Next());
  const std::string payload = sketch.SerializeToString();
  const std::string envelope = cluster::EncodeEnvelope(
      cluster::EnvelopeKind::kData, /*sender=*/3, /*incarnation=*/0,
      /*seq=*/GetParam(), /*epoch=*/100, payload);
  const std::string image = persist::EncodeCheckpoint(
      persist::SchemeKind::kKmv, /*epoch=*/100, payload);
  for (const ChecksumFn tail : tails) {
    cluster::EnvelopeView view;
    EXPECT_EQ(cluster::DecodeEnvelope(AsVersionOne(envelope, tail), &view),
              FrameFault::kBadVersion);
    EXPECT_EQ(persist::DecodeCheckpoint(AsVersionOne(image, tail), nullptr),
              persist::CheckpointFault::kBadVersion);
  }
}

TEST_P(FuzzSweep, VectorizedIngestMatchesScalarDispatchAtEverySeed) {
  // The randomized KMV + decay workloads, replayed through every SIMD
  // dispatch level the host supports: the resulting sampler state must
  // be byte-identical to the forced-scalar run (the kernels are pinned
  // bit-exact in simd_kernels_test.cc; this sweeps them through the full
  // randomized ingest paths -- batched hashing, block pre-filter,
  // log-key columns -- under hostile sizes and duplicate patterns).
  std::vector<simd::SimdLevel> levels = {simd::SimdLevel::kScalar};
  if (simd::DetectedSimdLevel() >= simd::SimdLevel::kSse2)
    levels.push_back(simd::SimdLevel::kSse2);
  if (simd::DetectedSimdLevel() >= simd::SimdLevel::kAvx2)
    levels.push_back(simd::SimdLevel::kAvx2);

  std::string kmv_ref, decay_ref;
  for (simd::SimdLevel level : levels) {
    simd::ScopedSimdLevel scoped(level);

    Xoshiro256 rng(GetParam() * 71 + 13);
    const size_t k = 8 + rng.NextBelow(64);
    KmvSketch sketch(k, 1.0, GetParam());
    std::vector<uint64_t> keys(500 + rng.NextBelow(600));
    for (auto& key : keys) key = rng.NextBelow(900);
    // Uneven batch splits exercise every block-tail length.
    size_t i = 0;
    while (i < keys.size()) {
      const size_t len =
          std::min(keys.size() - i, 1 + rng.NextBelow(150));
      sketch.AddKeys(std::span(keys.data() + i, len));
      i += len;
    }

    TimeDecaySampler decay(1 + rng.NextBelow(40), GetParam() * 7 + 1);
    std::vector<TimeDecaySampler::TimedItem> items(
        300 + rng.NextBelow(400));
    double t = 0.0;
    for (size_t j = 0; j < items.size(); ++j) {
      t += rng.NextDouble();
      items[j] = {j, 0.0625 + rng.NextDouble() * 16.0, 1.0, t};
    }
    decay.AddBatch(items);

    const std::string kmv_state = sketch.SerializeToString();
    const std::string decay_state = decay.SerializeToString();
    if (level == simd::SimdLevel::kScalar) {
      kmv_ref = kmv_state;
      decay_ref = decay_state;
    } else {
      EXPECT_EQ(kmv_state, kmv_ref)
          << "level=" << simd::SimdLevelName(level);
      EXPECT_EQ(decay_state, decay_ref)
          << "level=" << simd::SimdLevelName(level);
    }
  }
}

TEST_P(FuzzSweep, EnvelopeHostileBytesFailClosedWithTypedReasons) {
  // The cluster envelope (ENV1) under the same hostility contract as
  // the sketch frames, strengthened: every strict prefix and every
  // single-bit flip must not merely FAIL but fail with the RIGHT typed
  // reason for the byte region it damages, and an aggregator fed every
  // hostile mutation must keep its merged state byte-identical.
  Xoshiro256 rng(GetParam() * 101 + 13);
  KmvSketch payload_sketch(4 + rng.NextBelow(12), 1.0, /*salt=*/21);
  const int keys = 30 + static_cast<int>(rng.NextBelow(200));
  for (int i = 0; i < keys; ++i) payload_sketch.AddKey(rng.Next());
  const std::string payload = payload_sketch.SerializeToString();
  const std::string frame = cluster::EncodeEnvelope(
      cluster::EnvelopeKind::kData, /*sender=*/5, /*incarnation=*/0,
      /*seq=*/rng.NextBelow(100), /*epoch=*/keys, payload);

  // An aggregator with applied state: the victim for the sweep. Seed it
  // with a DIFFERENT sender so the hostile frames target fresh state.
  cluster::AggregatorNode victim(/*id=*/900, payload_sketch.k(),
                                 /*salt=*/21, cluster::RetryPolicy{});
  ASSERT_EQ(victim
                .Receive(cluster::EncodeEnvelope(
                    cluster::EnvelopeKind::kData, /*sender=*/1, 0, 0,
                    /*epoch=*/keys, payload))
                .kind,
            cluster::ReceiveOutcome::Kind::kApplied);
  const std::string before = victim.SnapshotFrame();
  uint64_t hostile_inputs = 0;

  const auto expect_fault = [&](std::string_view bytes, FrameFault want,
                                const char* what, size_t pos) {
    cluster::EnvelopeView view;
    EXPECT_EQ(cluster::DecodeEnvelope(bytes, &view), want)
        << what << " at byte " << pos;
    const auto outcome = victim.Receive(bytes);
    EXPECT_EQ(outcome.kind,
              cluster::ReceiveOutcome::Kind::kEnvelopeRejected)
        << what << " at byte " << pos;
    EXPECT_EQ(outcome.fault, want) << what << " at byte " << pos;
    EXPECT_FALSE(outcome.send_ack);
    ++hostile_inputs;
  };

  // Every strict prefix is a short read.
  for (size_t len = 0; len < frame.size(); ++len) {
    expect_fault(std::string_view(frame.data(), len),
                 FrameFault::kTruncated, "prefix", len);
  }

  // Every single-bit flip classifies by the byte region it lands in.
  constexpr size_t kLenOffset = 44;  // payload_len field, per the spec
  const size_t checksum_pos = cluster::kEnvelopeHeaderSize + payload.size();
  ByteReader len_reader(
      std::string_view(frame).substr(kLenOffset, sizeof(uint64_t)));
  const uint64_t declared_len = *len_reader.ReadU64();
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    const int bit = static_cast<int>(pos % 8);
    std::string bad = frame;
    bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
    FrameFault want;
    if (pos < 4) {
      want = FrameFault::kBadMagic;
    } else if (pos < 8) {
      want = FrameFault::kBadVersion;
    } else if (pos < kLenOffset) {
      // kind / sender / incarnation / seq / epoch: caught by the kind
      // range check or the whole-envelope checksum.
      want = FrameFault::kCorruptBody;
    } else if (pos < cluster::kEnvelopeHeaderSize) {
      // payload_len: growing the declared length claims bytes that
      // never arrived (a short read); shrinking it leaves trailing
      // junk past the checksum (framing corruption).
      const uint64_t shift = 8 * (pos - kLenOffset) + bit;
      const bool grew = shift < 64 && !((declared_len >> shift) & 1);
      want = grew ? FrameFault::kTruncated : FrameFault::kCorruptBody;
    } else {
      // Payload or trailing checksum: checksum mismatch.
      want = FrameFault::kCorruptBody;
      static_cast<void>(checksum_pos);
    }
    expect_fault(bad, want, "bit flip", pos);
  }

  // Fail CLOSED: after the whole sweep the aggregator's merged state is
  // byte-identical and every hostile input was counted, per cause.
  EXPECT_EQ(victim.SnapshotFrame(), before);
  EXPECT_EQ(victim.rejects().envelope_rejected(), hostile_inputs);
  EXPECT_EQ(victim.rejects().payload_rejected, 0u);

  // The intact frame still decodes and applies.
  cluster::EnvelopeView view;
  ASSERT_EQ(cluster::DecodeEnvelope(frame, &view), FrameFault::kNone);
  EXPECT_EQ(view.payload, payload);
  EXPECT_EQ(victim.Receive(frame).kind,
            cluster::ReceiveOutcome::Kind::kApplied);
}

TEST_P(FuzzSweep, CheckpointHostileFilesFailClosedWithTypedReasons) {
  // The crash-recovery tier under the same hostility contract as the
  // wire frames, applied to WRITTEN FILES: every prefix truncation and
  // every single-bit flip of a valid CKP1 checkpoint must be rejected
  // through BOTH open paths (the mmap view and the buffered read) with
  // the typed reason the damaged byte region mandates -- and a failed
  // RestoreFromCheckpoint must leave the in-memory target sketch
  // byte-identical.
  namespace persist = ats::persist;
  using persist::CheckpointFault;

  Xoshiro256 rng(GetParam() * 131 + 7);
  KmvSketch sketch(4 + rng.NextBelow(8), 1.0, /*salt=*/33);
  const int keys = 30 + static_cast<int>(rng.NextBelow(170));
  for (int i = 0; i < keys; ++i) sketch.AddKey(rng.Next());
  const std::string image = persist::EncodeCheckpoint(
      persist::SchemeKind::kKmv, static_cast<uint64_t>(keys),
      sketch.SerializeToString());

  const std::string path = ::testing::TempDir() + "ats_fuzz_ckp_" +
                           std::to_string(GetParam()) + ".ckp";
  // The victim for the fail-closed checks: distinct state from the
  // checkpointed sketch, so any partial restore would be visible.
  KmvSketch pristine(6, 1.0, /*salt=*/33);
  for (int i = 0; i < 64; ++i) pristine.AddKey(rng.Next());
  const std::string before = pristine.SerializeToString();

  const auto expect_fault = [&](std::string_view bytes, CheckpointFault want,
                                const char* what, size_t pos) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out.write(bytes.data(),
                            static_cast<std::streamsize>(bytes.size())));
    }
    persist::CheckpointReader reader;
    EXPECT_EQ(persist::CheckpointReader::OpenView(path, &reader), want)
        << what << " at byte " << pos;
    EXPECT_EQ(persist::CheckpointReader::OpenBuffered(path, &reader), want)
        << what << " at byte " << pos;
    KmvSketch victim = pristine;
    EXPECT_EQ(persist::RestoreFromCheckpoint(
                  path, persist::SchemeKind::kKmv, &victim),
              want)
        << what << " at byte " << pos;
    EXPECT_EQ(victim.SerializeToString(), before)
        << what << " at byte " << pos;
  };

  // Every strict prefix is a torn or short file.
  for (size_t len = 0; len < image.size(); ++len) {
    expect_fault(std::string_view(image.data(), len),
                 CheckpointFault::kTruncated, "prefix", len);
  }

  // Every single-bit flip classifies by the header field (or body) the
  // byte belongs to -- the order documented at DecodeCheckpoint.
  ByteReader len_reader(
      std::string_view(image).substr(20, sizeof(uint64_t)));
  const uint64_t declared_len = *len_reader.ReadU64();
  for (size_t pos = 0; pos < image.size(); ++pos) {
    const int bit = static_cast<int>(pos % 8);
    std::string bad = image;
    bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
    CheckpointFault want;
    if (pos < 4) {
      want = CheckpointFault::kBadMagic;
    } else if (pos < 8) {
      want = CheckpointFault::kBadVersion;
    } else if (pos < 12) {
      // scheme_kind: out of [kMinSchemeKind, kMaxSchemeKind] is
      // kBadKind; a flip that lands on
      // another valid kind falls through to the checksum.
      const uint32_t flipped =
          static_cast<uint32_t>(persist::SchemeKind::kKmv) ^
          (1u << (8 * (pos - 8) + bit));
      want = (flipped >= persist::kMinSchemeKind &&
              flipped <= persist::kMaxSchemeKind)
                 ? CheckpointFault::kCorruptBody
                 : CheckpointFault::kBadKind;
    } else if (pos < 20) {
      want = CheckpointFault::kCorruptBody;  // epoch: checksum mismatch
    } else if (pos < persist::kCheckpointHeaderSize) {
      // payload_len: growing the declared length claims bytes the file
      // does not hold (a torn tail); shrinking leaves trailing junk.
      const uint64_t shift = 8 * (pos - 20) + static_cast<uint64_t>(bit);
      const bool grew = shift < 64 && !((declared_len >> shift) & 1);
      want = grew ? CheckpointFault::kTruncated
                  : CheckpointFault::kCorruptBody;
    } else {
      want = CheckpointFault::kCorruptBody;  // payload or checksum
    }
    expect_fault(bad, want, "bit flip", pos);
  }

  // The intact image still opens through both paths and restores the
  // exact sketch.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.write(image.data(),
                          static_cast<std::streamsize>(image.size())));
  }
  for (const auto mode :
       {persist::OpenMode::kPreferMmap, persist::OpenMode::kBuffered}) {
    KmvSketch restored(1, 1.0, 0);
    uint64_t epoch = 0;
    ASSERT_EQ(persist::RestoreFromCheckpoint(
                  path, persist::SchemeKind::kKmv, &restored, &epoch, mode),
              CheckpointFault::kNone);
    EXPECT_EQ(epoch, static_cast<uint64_t>(keys));
    EXPECT_EQ(restored.SerializeToString(), sketch.SerializeToString());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ats
