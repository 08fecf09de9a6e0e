// Tests for ats/sketch/kmv.h: distinct-count accuracy/unbiasedness,
// dedup, merge == single-stream, the Section 3.4 weighted variant, an
// independent std::map reference over duplicate-heavy streams, and the
// KMV2 encoding pinned against an independent reference encoder.
#include "ats/sketch/kmv.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/random.h"
#include "ats/sketch/group_distinct.h"
#include "ats/sketch/theta.h"
#include "ats/util/stats.h"
#include "ats/workload/zipf.h"
#include "tests/wire_reference.h"

namespace ats {
namespace {

TEST(Kmv, ExactWhileUnsaturated) {
  KmvSketch sketch(100);
  for (uint64_t i = 0; i < 50; ++i) sketch.AddKey(i);
  EXPECT_EQ(sketch.size(), 50u);
  EXPECT_FALSE(sketch.saturated());
  EXPECT_DOUBLE_EQ(sketch.Estimate(), 50.0);
}

TEST(Kmv, DuplicatesAreIgnored) {
  KmvSketch sketch(64);
  for (int rep = 0; rep < 10; ++rep) {
    for (uint64_t i = 0; i < 30; ++i) sketch.AddKey(i);
  }
  EXPECT_EQ(sketch.size(), 30u);
  EXPECT_DOUBLE_EQ(sketch.Estimate(), 30.0);
}

struct KmvParam {
  size_t k;
  size_t n;
};

class KmvAccuracyTest : public ::testing::TestWithParam<KmvParam> {};

TEST_P(KmvAccuracyTest, EstimateWithinRelativeErrorBound) {
  const auto [k, n] = GetParam();
  RunningStat rel_err;
  for (uint64_t trial = 0; trial < 30; ++trial) {
    KmvSketch sketch(k, 1.0, trial);
    const uint64_t base = trial * (1ULL << 32);
    for (uint64_t i = 0; i < n; ++i) sketch.AddKey(base + i);
    rel_err.Add((sketch.Estimate() - double(n)) / double(n));
  }
  // Mean relative error near 0; SD near 1/sqrt(k).
  EXPECT_LT(std::abs(rel_err.mean()), 3.0 / std::sqrt(double(k)));
  EXPECT_LT(rel_err.StdDev(), 2.5 / std::sqrt(double(k)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, KmvAccuracyTest,
                         ::testing::Values(KmvParam{64, 10000},
                                           KmvParam{256, 10000},
                                           KmvParam{256, 100000},
                                           KmvParam{1024, 50000}));

TEST(Kmv, EstimateIsUnbiasedOverSalts) {
  const size_t n = 5000, k = 128;
  RunningStat est;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    KmvSketch sketch(k, 1.0, static_cast<uint64_t>(t) + 1);
    for (uint64_t i = 0; i < n; ++i) sketch.AddKey(i);
    est.Add(sketch.Estimate());
  }
  const double se = est.StdDev() / std::sqrt(double(trials));
  EXPECT_NEAR(est.mean(), double(n), 4.0 * se);
}

TEST(Kmv, MergeEqualsSingleStream) {
  const size_t k = 64;
  KmvSketch whole(k), a(k), b(k);
  for (uint64_t i = 0; i < 5000; ++i) {
    whole.AddKey(i);
    // Overlapping halves: a gets [0, 3000), b gets [2000, 5000).
    if (i < 3000) a.AddKey(i);
    if (i >= 2000) b.AddKey(i);
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Threshold(), whole.Threshold());
  EXPECT_EQ(a.size(), whole.size());
  EXPECT_DOUBLE_EQ(a.Estimate(), whole.Estimate());
}

TEST(Kmv, MergeIsCommutative) {
  const size_t k = 32;
  KmvSketch ab(k), ba(k), a(k), b(k);
  for (uint64_t i = 0; i < 2000; ++i) a.AddKey(i);
  for (uint64_t i = 1500; i < 4000; ++i) b.AddKey(i);
  ab = a;
  ab.Merge(b);
  ba = b;
  ba.Merge(a);
  EXPECT_DOUBLE_EQ(ab.Estimate(), ba.Estimate());
  EXPECT_DOUBLE_EQ(ab.Threshold(), ba.Threshold());
}

TEST(Kmv, InitialThresholdPreFilters) {
  KmvSketch sketch(1000, 0.01, 3);
  for (uint64_t i = 0; i < 20000; ++i) sketch.AddKey(i);
  // Roughly 1% of keys hash below 0.01.
  EXPECT_GT(sketch.size(), 120u);
  EXPECT_LT(sketch.size(), 320u);
  // Estimate still unbiased-ish around 20000.
  EXPECT_NEAR(sketch.Estimate(), 20000.0, 6000.0);
}

TEST(Kmv, AddKeysMatchesScalarAddKeyLoop) {
  // The fused hash->priority->pre-filter pipeline must be exactly an
  // AddKey loop in stream order: same members, same threshold, same
  // acceptance count -- duplicates and partial tail blocks included.
  std::vector<uint64_t> keys(20000);
  Xoshiro256 rng(77);
  for (auto& key : keys) key = rng.NextBelow(9000);  // heavy duplicates
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 20000u}) {
    const std::span<const uint64_t> prefix(keys.data(), n);
    KmvSketch batched(128, 1.0, 9), scalar(128, 1.0, 9);
    const size_t batch_accepted = batched.AddKeys(prefix);
    size_t scalar_accepted = 0;
    for (uint64_t key : prefix) scalar_accepted += scalar.AddKey(key) ? 1 : 0;
    EXPECT_EQ(batch_accepted, scalar_accepted) << "n=" << n;
    EXPECT_DOUBLE_EQ(batched.Threshold(), scalar.Threshold()) << "n=" << n;
    EXPECT_EQ(batched.members(), scalar.members()) << "n=" << n;
  }
}

TEST(Kmv, AddKeysChunkingIsInvariant) {
  // Feeding the same stream in odd-sized chunks must not change anything
  // (the acceptance bound tightens at different points, but canonical
  // state is chunk-invariant).
  std::vector<uint64_t> keys(10000);
  Xoshiro256 rng(78);
  for (auto& key : keys) key = rng.NextBelow(4000);
  KmvSketch whole(64), chunked(64);
  whole.AddKeys(keys);
  size_t i = 0, chunk = 1;
  while (i < keys.size()) {
    const size_t len = std::min(chunk, keys.size() - i);
    chunked.AddKeys(std::span(keys).subspan(i, len));
    i += len;
    chunk = chunk * 2 + 1;
  }
  EXPECT_DOUBLE_EQ(chunked.Threshold(), whole.Threshold());
  EXPECT_EQ(chunked.members(), whole.members());
}

TEST(Kmv, ThresholdMonotoneDecreasing) {
  KmvSketch sketch(16);
  double prev = 1.0;
  for (uint64_t i = 0; i < 3000; ++i) {
    sketch.AddKey(i);
    ASSERT_LE(sketch.Threshold(), prev);
    prev = sketch.Threshold();
  }
}

// --- An independent reference over duplicate-heavy streams ----------
//
// The reference shares no code with the store: a std::map from priority
// to the FIRST key offered with it, pruned to the k+1 smallest
// priorities. The retained set is its first k entries, and the threshold
// is min(initial, (k+1)-th distinct priority). Zipf(1.1) keys over a
// 2^12 universe make most offers duplicates.

class KmvReference {
 public:
  KmvReference(size_t k, double initial) : k_(k), initial_(initial) {}

  void Offer(double priority, uint64_t key) {
    if (!(priority < initial_)) return;
    by_priority_.emplace(priority, key);  // keeps the first key
    if (by_priority_.size() > k_ + 1) {
      by_priority_.erase(std::prev(by_priority_.end()));
    }
  }
  void AddKey(uint64_t key, uint64_t salt) {
    Offer(HashToUnit(HashKey(key, salt)), key);
  }

  double Threshold() const {
    return by_priority_.size() > k_ ? std::prev(by_priority_.end())->first
                                    : initial_;
  }
  std::vector<std::pair<double, uint64_t>> Members() const {
    std::vector<std::pair<double, uint64_t>> out(by_priority_.begin(),
                                                 by_priority_.end());
    if (out.size() > k_) out.resize(k_);
    return out;
  }
  double Estimate() const {
    return static_cast<double>(Members().size()) / Threshold();
  }

 private:
  size_t k_;
  double initial_;
  std::map<double, uint64_t> by_priority_;
};

// Exact agreement: size, threshold, estimate and members.
::testing::AssertionResult MatchesReference(const KmvSketch& sketch,
                                            const KmvReference& ref) {
  const auto members = ref.Members();
  if (sketch.size() != members.size()) {
    return ::testing::AssertionFailure()
           << "size " << sketch.size() << " vs " << members.size();
  }
  if (sketch.Threshold() != ref.Threshold()) {
    return ::testing::AssertionFailure() << "threshold " << sketch.Threshold()
                                         << " vs " << ref.Threshold();
  }
  if (sketch.Estimate() != ref.Estimate()) {
    return ::testing::AssertionFailure() << "estimate " << sketch.Estimate()
                                         << " vs " << ref.Estimate();
  }
  if (sketch.members() != members) {
    return ::testing::AssertionFailure() << "members differ";
  }
  return ::testing::AssertionSuccess();
}

std::vector<uint64_t> ZipfKeys(size_t n, uint64_t seed) {
  ZipfGenerator zipf(1 << 12, 1.1, seed);
  std::vector<uint64_t> keys(n);
  for (auto& key : keys) key = zipf.Next();
  return keys;
}

constexpr size_t kReferenceKs[] = {1, 2, 64, 1024};

TEST(KmvReferenceOracle, AddKeyMatchesAfterEveryKey) {
  const std::vector<uint64_t> keys = ZipfKeys(6000, 101);
  for (const size_t k : kReferenceKs) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    KmvSketch sketch(k, 1.0, 11);
    KmvReference ref(k, 1.0);
    for (size_t i = 0; i < keys.size(); ++i) {
      sketch.AddKey(keys[i]);
      ref.AddKey(keys[i], 11);
      ASSERT_TRUE(MatchesReference(sketch, ref)) << "key " << i;
    }
  }
}

TEST(KmvReferenceOracle, AddKeysMatchesAfterEveryChunk) {
  const std::vector<uint64_t> keys = ZipfKeys(20000, 102);
  for (const size_t k : kReferenceKs) {
    for (const size_t chunk : {1u, 63u, 64u, 1000u}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " chunk=" << chunk);
      KmvSketch sketch(k, 1.0, 12);
      KmvReference ref(k, 1.0);
      for (size_t i = 0; i < keys.size(); i += chunk) {
        const size_t len = std::min(chunk, keys.size() - i);
        sketch.AddKeys(std::span(keys).subspan(i, len));
        for (size_t j = i; j < i + len; ++j) ref.AddKey(keys[j], 12);
        ASSERT_TRUE(MatchesReference(sketch, ref)) << "offset " << i;
      }
    }
  }
}

TEST(KmvReferenceOracle, InitialThresholdCapsTheThreshold) {
  const std::vector<uint64_t> keys = ZipfKeys(8000, 103);
  for (const size_t k : kReferenceKs) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    KmvSketch sketch(k, 0.25, 13);
    KmvReference ref(k, 0.25);
    for (size_t i = 0; i < keys.size(); i += 500) {
      sketch.AddKeys(std::span(keys).subspan(i, 500));
      for (size_t j = i; j < i + 500; ++j) ref.AddKey(keys[j], 13);
      ASSERT_TRUE(MatchesReference(sketch, ref)) << "offset " << i;
    }
  }
}

TEST(KmvReferenceOracle, EqualPriorityKeepsTheFirstKey) {
  {
    KmvSketch sketch(4);
    EXPECT_TRUE(sketch.OfferPriority(0.5, 1));
    EXPECT_TRUE(sketch.OfferPriority(0.5, 2));
    EXPECT_EQ(sketch.members(),
              (std::vector<std::pair<double, uint64_t>>{{0.5, 1}}));
  }
  // Priorities from a 16-value grid with fresh keys: ties between the
  // canonical entries and new arrivals (read after every offer) and
  // ties inside one run of unread arrivals across compactions (read
  // only at the end).
  for (const size_t k : kReferenceKs) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    Xoshiro256 rng(104);
    KmvSketch stepwise(k), unread(k);
    KmvReference ref(k, 1.0);
    for (uint64_t key = 0; key < 3000; ++key) {
      const double p = static_cast<double>(rng.NextBelow(16) + 1) / 17.0;
      stepwise.OfferPriority(p, key);
      unread.OfferPriority(p, key);
      ref.Offer(p, key);
      ASSERT_TRUE(MatchesReference(stepwise, ref)) << "key " << key;
    }
    EXPECT_TRUE(MatchesReference(unread, ref));
  }
}

TEST(KmvReferenceOracle, MergesOfOverlappingInputsMatch) {
  // Five inputs over overlapping slices of one Zipf stream, merged into
  // an accumulator that already holds keys of its own. The inputs are
  // never read before a merge, so MergeMany and Gather see raw tails.
  const std::vector<uint64_t> keys = ZipfKeys(20000, 105);
  const std::vector<uint64_t> own = ZipfKeys(700, 106);
  const uint64_t salt = 14;
  for (const size_t k : kReferenceKs) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    KmvReference ref(k, 1.0);
    for (const uint64_t key : own) ref.AddKey(key, salt);
    KmvSketch acc(k, 1.0, salt);
    acc.AddKeys(own);
    std::vector<KmvSketch> inputs;
    for (size_t i = 0; i < 5; ++i) {
      const auto slice = std::span(keys).subspan(i * 3000, 8000);
      inputs.emplace_back(k, 1.0, salt);
      inputs.back().AddKeys(slice);
      for (const uint64_t key : slice) ref.AddKey(key, salt);
    }
    // Every path merges its own copies: a read canonicalizes.
    const std::vector<KmvSketch> raw = inputs;

    std::vector<KmvSketch> copies = raw;
    KmvSketch pairwise = acc;
    for (const KmvSketch& in : copies) pairwise.Merge(in);
    EXPECT_TRUE(MatchesReference(pairwise, ref)) << "Merge";

    copies = raw;
    std::vector<const KmvSketch*> ptrs;
    for (const KmvSketch& in : copies) ptrs.push_back(&in);
    KmvSketch many = acc;
    many.MergeMany(ptrs);
    EXPECT_TRUE(MatchesReference(many, ref)) << "MergeMany";

    copies = raw;
    KmvSketch gathered = acc;
    for (const KmvSketch& in : copies) gathered.Gather(in);
    gathered.PurgeAboveThreshold();
    EXPECT_TRUE(MatchesReference(gathered, ref)) << "Gather";

    copies = raw;
    std::vector<std::string> frames;
    for (const KmvSketch& in : copies) {
      frames.push_back(in.SerializeToString());
    }
    const std::vector<std::string_view> views(frames.begin(), frames.end());
    KmvSketch framed = acc;
    ASSERT_TRUE(framed.MergeManyFrames(views));
    EXPECT_TRUE(MatchesReference(framed, ref)) << "MergeManyFrames";
    EXPECT_EQ(framed.SerializeToString(), pairwise.SerializeToString());
  }
}

TEST(KmvReferenceOracle, IngestContinuesAfterDeserialize) {
  const std::vector<uint64_t> keys = ZipfKeys(16000, 107);
  const uint64_t salt = 15;
  for (const size_t k : kReferenceKs) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    KmvSketch original(k, 1.0, salt);
    KmvReference ref(k, 1.0);
    const auto first = std::span(keys).first(6000);
    original.AddKeys(first);
    for (const uint64_t key : first) ref.AddKey(key, salt);
    const std::string frame = original.SerializeToString();
    auto restored = KmvSketch::Deserialize(std::string_view(frame));
    ASSERT_TRUE(restored.has_value());
    ASSERT_TRUE(MatchesReference(*restored, ref));
    for (size_t i = first.size(); i < keys.size(); i += 97) {
      const auto chunk =
          std::span(keys).subspan(i, std::min<size_t>(97, keys.size() - i));
      original.AddKeys(chunk);
      restored->AddKeys(chunk);
      for (const uint64_t key : chunk) ref.AddKey(key, salt);
      ASSERT_TRUE(MatchesReference(*restored, ref)) << "offset " << i;
    }
    EXPECT_EQ(restored->SerializeToString(), original.SerializeToString());
  }
}

// --- KMV2 golden encoding ---------------------------------------------
//
// A reference encoder written from docs/WIRE_FORMAT.md's KMV2 table
// alone, sharing no code with the library's writer: little-endian fields
// appended byte by byte, entries ordered by std::sort on priority, and
// the byte-level reference frame checksum (tests/wire_reference.h). The
// library's bucketed ordering and one-pass entry copy must reproduce it
// byte for byte.

using wire_reference::PutF64;
using wire_reference::PutLe;
using wire_reference::WithChecksum;

// The retained (priority, key) pairs from the raw store columns, sorted
// by priority with std::sort.
std::vector<std::pair<double, uint64_t>> ReferenceOrder(const KmvSketch& s) {
  const auto& priorities = s.store().priorities();
  const auto& keys = s.store().payloads();
  std::vector<std::pair<double, uint64_t>> entries;
  for (size_t i = 0; i < priorities.size(); ++i) {
    entries.emplace_back(priorities[i], keys[i]);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

// header | k u64 | hash_salt u64 | initial_threshold f64 | threshold f64
//        | count u64 | count x (priority f64 | key u64)
std::string ReferenceKmv2Body(const KmvSketch& s) {
  std::string body;
  PutLe(body, 0x4b4d5632, 4);  // "KMV2"
  PutLe(body, 2, 4);
  PutLe(body, s.k(), 8);
  PutLe(body, s.hash_salt(), 8);
  PutF64(body, s.store().initial_threshold());
  PutF64(body, s.Threshold());
  const auto entries = ReferenceOrder(s);
  PutLe(body, entries.size(), 8);
  for (const auto& [priority, key] : entries) {
    PutF64(body, priority);
    PutLe(body, key, 8);
  }
  return body;
}

struct GoldenCase {
  const char* name;
  KmvSketch sketch;
};

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  Xoshiro256 rng(2024);
  const auto keys = [&rng](size_t n) {
    std::vector<uint64_t> out(n);
    for (auto& key : out) key = rng.Next();
    return out;
  };
  cases.push_back({"empty", KmvSketch(16, 1.0, 5)});
  {
    KmvSketch s(64, 1.0, 5);
    s.AddKeys(keys(40));
    cases.push_back({"warm_up", s});
  }
  {
    KmvSketch s(4096, 1.0, 0x5eed);
    s.AddKeys(keys(100000));
    cases.push_back({"saturated_uniform", s});
  }
  {
    KmvSketch s(257, 1.0, 7);
    s.AddKeys(keys(20000));
    cases.push_back({"saturated_odd_k", s});
  }
  {
    KmvSketch s(1, 1.0, 11);
    s.AddKeys(keys(500));
    cases.push_back({"k_equals_1", s});
  }
  {
    KmvSketch s(300, 0.01, 3);
    s.AddKeys(keys(40000));
    cases.push_back({"initial_threshold", s});
  }
  {
    KmvSketch s(512, 1.0, 13);
    s.AddKeys(keys(20000));
    s.LowerThreshold(s.Threshold() * 0.37);
    cases.push_back({"lowered_saturated", s});
  }
  {
    KmvSketch s(512, 1.0, 13);
    s.AddKeys(keys(100));
    s.LowerThreshold(0.4);
    cases.push_back({"lowered_warm_up", s});
  }
  {
    // Every priority inside one interval of width 1e-9: the whole sketch
    // lands in one bucket, so the crowded-bucket fallback orders it.
    KmvSketch s(2048, 1.0, 17);
    for (uint64_t i = 0; i < 1500; ++i) {
      s.OfferPriority(0.25 + 1e-9 * rng.NextDoubleOpenZero(), i);
    }
    cases.push_back({"skewed_narrow_warm_up", s});
  }
  {
    // Saturated with a narrow cluster just below theta plus a uniform
    // sprinkle: the top buckets crowd while the rest stay sparse.
    KmvSketch s(256, 1.0, 19);
    for (uint64_t i = 0; i < 5000; ++i) {
      const double p = i % 50 == 0 ? rng.NextDoubleOpenZero()
                                   : 0.5 + 1e-7 * rng.NextDoubleOpenZero();
      s.OfferPriority(p, i);
    }
    cases.push_back({"skewed_narrow_saturated", s});
  }
  {
    // Weighted priorities U/w with heavy-tailed weights pile up near 0:
    // buckets of every size, from empty to crowded.
    KmvSketch s(1024, 1.0, 23);
    for (uint64_t i = 0; i < 30000; ++i) {
      const double w = std::pow(rng.NextDoubleOpenZero(), -2.0);
      s.OfferPriority(rng.NextDoubleOpenZero() / w, i);
    }
    cases.push_back({"weighted_skew", s});
  }
  return cases;
}

TEST(KmvGolden, SerializeMatchesReferenceEncoderByteForByte) {
  for (const GoldenCase& c : GoldenCases()) {
    SCOPED_TRACE(c.name);
    const std::string frame = c.sketch.SerializeToString();
    EXPECT_EQ(frame, WithChecksum(ReferenceKmv2Body(c.sketch)));
    EXPECT_EQ(c.sketch.members(), ReferenceOrder(c.sketch));
  }
}

TEST(KmvGolden, SerializedSizeIsTheFrameLength) {
  for (const GoldenCase& c : GoldenCases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.sketch.SerializedSize(),
              c.sketch.SerializeToString().size());
    EXPECT_EQ(c.sketch.SerializedSize(), 52 + 16 * c.sketch.size());
  }
}

TEST(KmvGolden, RestoredSketchIsTheSameSketch) {
  // The bulk-append restore path rebuilds the state itself, not only the
  // bytes: the restored sketch re-serializes to the frame and keeps
  // suppressing duplicates of its retained keys as the original does.
  for (const GoldenCase& c : GoldenCases()) {
    SCOPED_TRACE(c.name);
    const std::string frame = c.sketch.SerializeToString();
    auto restored = KmvSketch::Deserialize(std::string_view(frame));
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->SerializeToString(), frame);
    KmvSketch original = c.sketch;
    for (const auto& [priority, key] : c.sketch.members()) {
      original.OfferPriority(priority, key);
      restored->OfferPriority(priority, key);
    }
    std::vector<uint64_t> more(3000);
    Xoshiro256 rng(99);
    for (auto& key : more) key = rng.NextBelow(2000);
    original.AddKeys(more);
    restored->AddKeys(more);
    EXPECT_EQ(restored->SerializeToString(), original.SerializeToString());
  }
}

TEST(KmvGolden, EmbeddingFramesStayByteIdentical) {
  // Theta (stream mode) embeds a bare KMV2 body after its own header and
  // mode word; GroupDistinct embeds one per promoted group. Both must
  // carry the reference body and round-trip byte for byte.
  Xoshiro256 rng(31);
  for (const size_t n : {0u, 37u, 5000u}) {
    SCOPED_TRACE(n);
    ThetaSketch theta(256, 41);
    KmvSketch kmv(256, 1.0, 41);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = rng.Next();
      theta.AddKey(key);
      kmv.AddKey(key);
    }
    std::string body;
    PutLe(body, 0x54485432, 4);  // "THT2"
    PutLe(body, 2, 4);
    PutLe(body, 0, 4);  // stream mode
    body += ReferenceKmv2Body(kmv);
    const std::string frame = theta.SerializeToString();
    EXPECT_EQ(frame, WithChecksum(body));
    const auto parsed = ThetaSketch::Deserialize(std::string_view(frame));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->SerializeToString(), frame);
  }

  GroupDistinctSketch grouped(/*m=*/4, /*k=*/64, /*hash_salt=*/43);
  for (uint64_t i = 0; i < 20000; ++i) {
    // Zipf-like group sizes: a few heavy groups get promoted sketches,
    // the tail stays in the pool.
    const uint64_t group = static_cast<uint64_t>(
        std::pow(rng.NextDoubleOpenZero(), 3.0) * 40.0);
    grouped.Add(group, rng.NextBelow(50000));
  }
  ASSERT_GT(grouped.NumPromoted(), 0u);
  const std::string frame = grouped.SerializeToString();
  const auto parsed = GroupDistinctSketch::Deserialize(std::string_view(frame));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->SerializeToString(), frame);
}

}  // namespace
}  // namespace ats
