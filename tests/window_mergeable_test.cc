// The time-axis samplers on the SampleStore core: differential tests
// against the scalar deque reference (observational equality of the
// retained multiset, thresholds, ties, and expiry order), wire-format
// round trips with RNG continuation, hostile-input sweeps over the
// zero-copy frame views, and the windowed/decayed MergeMany vs the
// sequential pairwise-Merge chain (including empty windows, all-expired
// stores, and k = 1) -- mirroring merge_many_test.cc for the sketches.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/concurrent_sampler.h"
#include "ats/core/random.h"
#include "ats/samplers/sliding_window.h"
#include "ats/samplers/time_decay.h"
#include "ats/util/serialize.h"
#include "ats/workload/arrivals.h"
#include "tests/sharded_reference.h"

namespace ats {
namespace {

// ----------------------------------------------------------------------
// The pre-port scalar reference: the G&L storage stage on explicit
// deques, exactly as the sampler was implemented before retention moved
// onto SampleStore. The port must be observationally indistinguishable.
class ReferenceWindowSampler {
 public:
  using StoredItem = SlidingWindowSampler::StoredItem;

  ReferenceWindowSampler(size_t k, double window, uint64_t seed)
      : k_(k), window_(window), rng_(seed) {}

  bool Arrive(double time, uint64_t id) {
    ExpireUntil(time);
    const double priority = rng_.NextDoubleOpenZero();
    double initial_threshold = 1.0;
    if (current_.size() >= k_) {
      double m1 = 0.0, m2 = 0.0;
      for (const StoredItem& it : current_) {
        if (it.priority > m1) {
          m2 = m1;
          m1 = it.priority;
        } else if (it.priority > m2) {
          m2 = it.priority;
        }
      }
      initial_threshold = priority >= m1 ? m1 : std::max(m2, priority);
    }
    if (priority >= initial_threshold) return false;
    current_.push_back(StoredItem{id, time, priority, initial_threshold});
    if (current_.size() > k_) {
      size_t evict = 0;
      for (size_t i = 0; i < current_.size(); ++i) {
        current_[i].threshold =
            std::min(current_[i].threshold, initial_threshold);
        if (current_[i].priority > current_[evict].priority) evict = i;
      }
      current_.erase(current_.begin() +
                     static_cast<std::ptrdiff_t>(evict));
    }
    return true;
  }

  double GlThreshold(double now) {
    ExpireUntil(now);
    std::vector<double> priorities;
    priorities.reserve(current_.size() + expired_.size());
    for (const StoredItem& it : current_) priorities.push_back(it.priority);
    for (const StoredItem& it : expired_) priorities.push_back(it.priority);
    if (priorities.size() < k_) return 1.0;
    std::nth_element(
        priorities.begin(),
        priorities.begin() + static_cast<std::ptrdiff_t>(k_ - 1),
        priorities.end());
    return priorities[k_ - 1];
  }

  double ImprovedThreshold(double now) {
    ExpireUntil(now);
    double t = 1.0;
    for (const StoredItem& it : current_) t = std::min(t, it.threshold);
    return t;
  }

  size_t StoredCount(double now) {
    ExpireUntil(now);
    return current_.size() + expired_.size();
  }

  std::vector<StoredItem> CurrentItems(double now) {
    ExpireUntil(now);
    return {current_.begin(), current_.end()};
  }

 private:
  void ExpireUntil(double now) {
    while (!current_.empty() && current_.front().time <= now - window_) {
      expired_.push_back(current_.front());
      current_.pop_front();
    }
    while (!expired_.empty() &&
           expired_.front().time <= now - 2.0 * window_) {
      expired_.pop_front();
    }
  }

  size_t k_;
  double window_;
  Xoshiro256 rng_;
  std::deque<StoredItem> current_;
  std::deque<StoredItem> expired_;
};

void ExpectSameItems(const std::vector<SlidingWindowSampler::StoredItem>& a,
                     const std::vector<SlidingWindowSampler::StoredItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time) << i;
    EXPECT_DOUBLE_EQ(a[i].priority, b[i].priority) << i;
    EXPECT_DOUBLE_EQ(a[i].threshold, b[i].threshold) << i;
  }
}

struct OracleParam {
  size_t k;
  double rate;
  uint64_t seed;
  size_t query_every = 64;  // arrivals between observational checks
};

class WindowOracleSweep : public ::testing::TestWithParam<OracleParam> {};

TEST_P(WindowOracleSweep, PortMatchesDequeReferenceObservationally) {
  const auto [k, rate, seed, query_every] = GetParam();
  const double window = 1.0;
  SlidingWindowSampler ported(k, window, seed);
  ReferenceWindowSampler reference(k, window, seed);
  ArrivalProcess arrivals(RateProfile::Constant(rate), rate * 1.1,
                          seed + 77);
  size_t checked = 0;
  for (const Arrival& a : arrivals.Until(6.0)) {
    ASSERT_EQ(ported.Arrive(a.time, a.id), reference.Arrive(a.time, a.id))
        << "id " << a.id;
    if (++checked % query_every == 0) {
      ASSERT_DOUBLE_EQ(ported.ImprovedThreshold(a.time),
                       reference.ImprovedThreshold(a.time));
      ASSERT_DOUBLE_EQ(ported.GlThreshold(a.time),
                       reference.GlThreshold(a.time));
      ASSERT_EQ(ported.StoredCount(a.time), reference.StoredCount(a.time));
    }
  }
  ExpectSameItems(ported.CurrentItems(6.0), reference.CurrentItems(6.0));
  EXPECT_DOUBLE_EQ(ported.GlThreshold(6.0), reference.GlThreshold(6.0));
  EXPECT_EQ(ported.StoredCount(6.5), reference.StoredCount(6.5));
}

// After the first five points come three at deep saturation (the window
// holds >= 32k arrivals, so nearly every arrival is a full-sample reject
// and the cached top two priorities carry the threshold): k = 256 is the
// per-shard regime of the window_monitor benchmark; k = 2 and k = 1 keep
// the second-largest (or missing second) priority at the eviction edge.
// The last three query after every arrival, so the dead prefix is
// reclaimed between nearly every pair of arrivals while top-two items
// keep expiring. The sparse k = 3 point (about two arrivals per window
// per sample slot) keeps the sample dipping below k: a query reclaims
// the dead prefix, underfull arrivals refill it with no full-sample
// arrival in between, and the next top-two item to die sits below the
// old checked index -- which is why reclamation must reset that index
// to 0 (and must leave an invalid cache invalid).
INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowOracleSweep,
    ::testing::Values(OracleParam{1, 200.0, 1}, OracleParam{10, 500.0, 2},
                      OracleParam{25, 800.0, 3}, OracleParam{50, 2000.0, 4},
                      OracleParam{100, 300.0, 5},
                      OracleParam{256, 9000.0, 6}, OracleParam{2, 80.0, 7},
                      OracleParam{1, 48.0, 8}, OracleParam{8, 400.0, 9, 1},
                      OracleParam{2, 200.0, 10, 1},
                      OracleParam{3, 6.0, 11, 1}));

// ----------------------------------------------------------------------
// Wire round trips.

SlidingWindowSampler MakeWindowSampler(size_t k, double window, double rate,
                                       double horizon, uint64_t seed) {
  SlidingWindowSampler sampler(k, window, seed);
  ArrivalProcess arrivals(RateProfile::Constant(rate), rate * 1.1,
                          seed + 1);
  for (const Arrival& a : arrivals.Until(horizon)) {
    sampler.Arrive(a.time, a.id);
  }
  return sampler;
}

TEST(WindowWire, RoundTripPreservesObservablesAndRngStream) {
  SlidingWindowSampler original = MakeWindowSampler(40, 1.0, 900.0, 4.0, 9);
  const std::string frame = original.SerializeToString();
  auto restored = SlidingWindowSampler::Deserialize(std::string_view(frame));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->k(), original.k());
  EXPECT_DOUBLE_EQ(restored->window(), original.window());
  EXPECT_DOUBLE_EQ(restored->last_time(), original.last_time());
  ExpectSameItems(restored->CurrentItems(4.0), original.CurrentItems(4.0));
  EXPECT_DOUBLE_EQ(restored->GlThreshold(4.0), original.GlThreshold(4.0));
  EXPECT_EQ(restored->StoredCount(4.0), original.StoredCount(4.0));
  // The RNG state travels: both continue the identical priority stream.
  ArrivalProcess more(RateProfile::Constant(900.0), 1000.0, 1234);
  for (const Arrival& a : more.Until(1.5)) {
    ASSERT_EQ(restored->Arrive(4.0 + a.time, 1000000 + a.id),
              original.Arrive(4.0 + a.time, 1000000 + a.id));
  }
  ExpectSameItems(restored->CurrentItems(5.5), original.CurrentItems(5.5));
}

TEST(WindowWire, EmptySamplerRoundTrips) {
  SlidingWindowSampler empty(8, 2.0, 3);
  const std::string frame = empty.SerializeToString();
  auto restored = SlidingWindowSampler::Deserialize(std::string_view(frame));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->StoredCount(0.0), 0u);
  EXPECT_DOUBLE_EQ(restored->ImprovedThreshold(0.0), 1.0);
}

TEST(DecayWire, RoundTripPreservesSampleAndRngStream) {
  TimeDecaySampler original(25, 11);
  Xoshiro256 data(5);
  for (uint64_t i = 0; i < 800; ++i) {
    original.Add(i, 0.5 + data.NextDouble(), 1.0 + data.NextDouble(),
                 0.01 * static_cast<double>(i));
  }
  const std::string frame = original.SerializeToString();
  auto restored = TimeDecaySampler::Deserialize(std::string_view(frame));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), original.size());
  EXPECT_DOUBLE_EQ(restored->LogKeyThreshold(), original.LogKeyThreshold());
  EXPECT_DOUBLE_EQ(restored->EstimateDecayedTotal(10.0),
                   original.EstimateDecayedTotal(10.0));
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_EQ(restored->Add(5000 + i, 1.0, 1.0, 8.0 + 0.01 * double(i)),
              original.Add(5000 + i, 1.0, 1.0, 8.0 + 0.01 * double(i)));
  }
  EXPECT_DOUBLE_EQ(restored->EstimateDecayedTotal(12.0),
                   original.EstimateDecayedTotal(12.0));
}

TEST(DecayBatch, AddBatchMatchesScalarLoopExactly) {
  TimeDecaySampler scalar(30, 21), batched(30, 21);
  Xoshiro256 data(6);
  std::vector<TimeDecaySampler::TimedItem> items;
  for (uint64_t i = 0; i < 3000; ++i) {
    items.push_back({i, 0.25 + data.NextDouble(), data.NextDouble(),
                     0.002 * static_cast<double>(i)});
  }
  size_t scalar_accepted = 0;
  for (const auto& it : items) {
    scalar_accepted +=
        scalar.Add(it.key, it.weight, it.value, it.time) ? 1 : 0;
  }
  // Split the batch unevenly so block boundaries and tails are exercised.
  const size_t cut = 1234;
  size_t batch_accepted =
      batched.AddBatch(std::span(items).subspan(0, cut));
  batch_accepted += batched.AddBatch(std::span(items).subspan(cut));
  EXPECT_EQ(batch_accepted, scalar_accepted);
  EXPECT_EQ(batched.size(), scalar.size());
  EXPECT_DOUBLE_EQ(batched.LogKeyThreshold(), scalar.LogKeyThreshold());
  EXPECT_EQ(batched.SerializeToString(), scalar.SerializeToString());
}

// ----------------------------------------------------------------------
// MergeMany vs the sequential pairwise chain.

class TimeAxisMergeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TimeAxisMergeSweep, WindowMergeManyEqualsSequentialPairwise) {
  Xoshiro256 rng(GetParam() * 271 + 5);
  const double window = 1.0;
  for (size_t k : {1u, 4u, 24u}) {
    const size_t num_inputs = 1 + rng.NextBelow(6);
    std::vector<SlidingWindowSampler> inputs;
    uint64_t id = 1000;
    for (size_t s = 0; s < num_inputs; ++s) {
      // Mix of empty samplers, all-expired histories (arrivals ending
      // long before everyone else's clock), and live windows; input k
      // varies independently of the accumulator's.
      SlidingWindowSampler in(1 + rng.NextBelow(2 * k + 1), window,
                              GetParam() * 100 + s);
      const uint64_t kind = rng.NextBelow(4);
      if (kind != 0) {
        const double start = kind == 1 ? 0.0 : 4.0;  // kind 1: expires out
        const double span = kind == 3 ? 0.4 : 1.6;
        const size_t n = 1 + rng.NextBelow(200);
        for (size_t i = 0; i < n; ++i) {
          in.Arrive(start + span * static_cast<double>(i) /
                                static_cast<double>(n),
                    id++);
        }
      }
      inputs.push_back(std::move(in));
    }
    // Accumulator: warm half the time.
    SlidingWindowSampler seq(k, window, GetParam() + 31);
    SlidingWindowSampler many(k, window, GetParam() + 31);
    if (rng.NextBelow(2) == 0) {
      const size_t n = 1 + rng.NextBelow(120);
      for (size_t i = 0; i < n; ++i) {
        const double t = 4.0 + 1.2 * static_cast<double>(i) /
                                   static_cast<double>(n);
        seq.Arrive(t, id);
        many.Arrive(t, id);
        ++id;
      }
    }
    std::vector<const SlidingWindowSampler*> ptrs;
    for (const auto& in : inputs) ptrs.push_back(&in);

    for (const auto* in : ptrs) seq.Merge(*in);
    many.MergeMany(ptrs);

    // Byte-level equality covers every observable at once: current and
    // expired regions (ids, times, priorities, per-item thresholds, in
    // order), last_time, and the untouched RNG stream.
    ASSERT_EQ(many.SerializeToString(), seq.SerializeToString())
        << "k=" << k << " inputs=" << num_inputs;
    ASSERT_DOUBLE_EQ(many.ImprovedThreshold(many.last_time()),
                     seq.ImprovedThreshold(seq.last_time()));
    ASSERT_DOUBLE_EQ(many.GlThreshold(many.last_time()),
                     seq.GlThreshold(seq.last_time()));
  }
}

TEST_P(TimeAxisMergeSweep, WindowMergeManyFramesEqualsDeserializeChain) {
  Xoshiro256 rng(GetParam() * 613 + 17);
  const double window = 1.0;
  const size_t k = 1 + rng.NextBelow(16);
  const size_t num_inputs = 1 + rng.NextBelow(5);
  std::vector<std::string> frames;
  for (size_t s = 0; s < num_inputs; ++s) {
    const double rate = 50.0 + double(rng.NextBelow(400));
    const double horizon = rng.NextBelow(3) == 0 ? 0.3 : 3.0;
    frames.push_back(
        MakeWindowSampler(1 + rng.NextBelow(20), window, rate, horizon,
                          GetParam() * 50 + s)
            .SerializeToString());
  }
  SlidingWindowSampler seq(k, window, 7), many(k, window, 7);
  for (const std::string& f : frames) {
    auto in = SlidingWindowSampler::Deserialize(std::string_view(f));
    ASSERT_TRUE(in.has_value());
    seq.Merge(*in);
  }
  std::vector<std::string_view> views(frames.begin(), frames.end());
  ASSERT_TRUE(many.MergeManyFrames(views));
  ASSERT_EQ(many.SerializeToString(), seq.SerializeToString());
}

TEST_P(TimeAxisMergeSweep, DecayMergeManyEqualsSequentialPairwise) {
  Xoshiro256 rng(GetParam() * 431 + 3);
  for (size_t k : {1u, 5u, 32u}) {
    const size_t num_inputs = 1 + rng.NextBelow(7);
    std::vector<TimeDecaySampler> inputs;
    uint64_t id = 0;
    for (size_t s = 0; s < num_inputs; ++s) {
      TimeDecaySampler in(1 + rng.NextBelow(2 * k + 1),
                          GetParam() * 90 + s);
      const size_t n = rng.NextBelow(4) == 0 ? 0 : rng.NextBelow(500);
      for (size_t i = 0; i < n; ++i) {
        in.Add(id++, 0.5 + rng.NextDouble(), rng.NextDouble(),
               0.01 * static_cast<double>(i));
      }
      inputs.push_back(std::move(in));
    }
    TimeDecaySampler seq(k, 77), many(k, 77);
    const size_t warm = rng.NextBelow(3 * k + 1);
    for (size_t i = 0; i < warm; ++i) {
      const double w = 0.5 + rng.NextDouble();
      const double t = 0.02 * static_cast<double>(i);
      seq.Add(id, w, 1.0, t);
      many.Add(id, w, 1.0, t);
      ++id;
    }
    std::vector<const TimeDecaySampler*> ptrs;
    for (const auto& in : inputs) ptrs.push_back(&in);
    for (const auto* in : ptrs) seq.Merge(*in);
    many.MergeMany(ptrs);

    ASSERT_DOUBLE_EQ(many.LogKeyThreshold(), seq.LogKeyThreshold())
        << "k=" << k;
    ASSERT_EQ(many.SerializeToString(), seq.SerializeToString());
    ASSERT_DOUBLE_EQ(many.EstimateDecayedTotal(6.0),
                     seq.EstimateDecayedTotal(6.0));
  }
}

TEST_P(TimeAxisMergeSweep, DecayMergeManyFramesEqualsDeserializeChain) {
  Xoshiro256 rng(GetParam() * 149 + 23);
  const size_t k = 1 + rng.NextBelow(24);
  const size_t num_inputs = 1 + rng.NextBelow(6);
  std::vector<std::string> frames;
  uint64_t id = 0;
  for (size_t s = 0; s < num_inputs; ++s) {
    TimeDecaySampler in(1 + rng.NextBelow(30), GetParam() * 70 + s);
    const size_t n = rng.NextBelow(3) == 0 ? 0 : rng.NextBelow(400);
    for (size_t i = 0; i < n; ++i) {
      in.Add(id++, 0.5 + rng.NextDouble(), 1.0,
             0.005 * static_cast<double>(i));
    }
    frames.push_back(in.SerializeToString());
  }
  TimeDecaySampler seq(k, 5), many(k, 5);
  for (const std::string& f : frames) {
    auto in = TimeDecaySampler::Deserialize(std::string_view(f));
    ASSERT_TRUE(in.has_value());
    seq.Merge(*in);
  }
  std::vector<std::string_view> views(frames.begin(), frames.end());
  ASSERT_TRUE(many.MergeManyFrames(views));
  ASSERT_EQ(many.SerializeToString(), seq.SerializeToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimeAxisMergeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The cached top two live priorities are representation, not state: the
// SWN1 frame does not carry them, and a deserialized sampler starts
// without them. A merged sampler, its wire twin and a plain copy must
// therefore keep producing byte-identical frames as arrivals and queries
// continue; a cache left stale by the merge shows up as a divergence.
TEST(TimeAxisMerge, MergedWireTwinAndCopyStayByteIdenticalUnderIngest) {
  const double window = 1.0;
  const size_t num_shards = 3;
  for (size_t k : {1u, 2u, 16u, 64u}) {
    // Disjoint key partitions: ids routed to the shards or, every
    // (num_shards + 1)-th, to the accumulator itself, so the accumulator
    // is saturated -- its cache in use -- when the merge lands.
    std::vector<SlidingWindowSampler> shards;
    for (size_t s = 0; s < num_shards; ++s) {
      shards.emplace_back(k, window, 40 + s);
    }
    SlidingWindowSampler merged(k, window, 3);
    const double rate = 50.0 * static_cast<double>(k);
    ArrivalProcess history(RateProfile::Constant(rate), rate * 1.1, k + 5);
    for (const Arrival& a : history.Until(2.5)) {
      const size_t route = a.id % (num_shards + 1);
      (route == num_shards ? merged : shards[route]).Arrive(a.time, a.id);
    }
    std::vector<const SlidingWindowSampler*> ptrs;
    for (const auto& s : shards) ptrs.push_back(&s);
    merged.MergeMany(ptrs);

    auto twin = SlidingWindowSampler::Deserialize(
        std::string_view(merged.SerializeToString()));
    ASSERT_TRUE(twin.has_value());
    SlidingWindowSampler copy = merged;
    ASSERT_EQ(twin->SerializeToString(), merged.SerializeToString());

    ArrivalProcess more(RateProfile::Constant(rate), rate * 1.1, k + 6);
    const std::vector<Arrival> arrivals = more.Until(3.0);
    const size_t batch = 97;
    for (size_t begin = 0; begin < arrivals.size(); begin += batch) {
      const size_t end = std::min(arrivals.size(), begin + batch);
      double now = 0.0;
      for (size_t i = begin; i < end; ++i) {
        now = 2.5 + arrivals[i].time;
        const uint64_t id = 1000000 + arrivals[i].id;
        const bool stored = merged.Arrive(now, id);
        ASSERT_EQ(twin->Arrive(now, id), stored) << "k=" << k << " i=" << i;
        ASSERT_EQ(copy.Arrive(now, id), stored) << "k=" << k << " i=" << i;
      }
      // Queries flush expiry on every sampler alike.
      const double improved = merged.ImprovedThreshold(now);
      ASSERT_EQ(twin->ImprovedThreshold(now), improved) << "k=" << k;
      ASSERT_EQ(copy.ImprovedThreshold(now), improved) << "k=" << k;
      const std::string frame = merged.SerializeToString();
      ASSERT_EQ(twin->SerializeToString(), frame)
          << "k=" << k << " batch at " << begin;
      ASSERT_EQ(copy.SerializeToString(), frame)
          << "k=" << k << " batch at " << begin;
    }
  }
}

TEST(TimeAxisMerge, NoRealInputsIsAStrictNoOp) {
  SlidingWindowSampler sampler = MakeWindowSampler(8, 1.0, 300.0, 2.0, 4);
  const std::string before = sampler.SerializeToString();
  sampler.MergeMany({});
  std::vector<const SlidingWindowSampler*> self{&sampler, &sampler};
  sampler.MergeMany(self);
  EXPECT_TRUE(sampler.MergeManyFrames({}));
  EXPECT_EQ(sampler.SerializeToString(), before);

  TimeDecaySampler decay(8, 4);
  for (uint64_t i = 0; i < 100; ++i) decay.Add(i, 1.0, 1.0, 0.01 * i);
  const std::string dbefore = decay.SerializeToString();
  decay.MergeMany({});
  std::vector<const TimeDecaySampler*> dself{&decay, &decay};
  decay.MergeMany(dself);
  EXPECT_TRUE(decay.MergeManyFrames({}));
  EXPECT_EQ(decay.SerializeToString(), dbefore);
}

// ----------------------------------------------------------------------
// Handcrafted frames: duplicate priorities (ties at and below the
// per-item thresholds) must merge identically on either path; ties at
// the selection pivot keep first-arrived entries.

std::string HandcraftedWindowFrame(
    size_t k, double window, double last_time,
    const std::vector<SlidingWindowSampler::StoredItem>& current,
    const std::vector<SlidingWindowSampler::StoredItem>& expired) {
  ByteWriter w;
  w.WriteU32(0x53574e31);  // "SWN1"
  w.WriteU32(1);
  w.WriteU64(k);
  w.WriteDouble(window);
  w.WriteDouble(last_time);
  WriteRngState(w, {1, 2, 3, 4});
  w.WriteU64(current.size());
  w.WriteU64(expired.size());
  const auto write_entry = [&w](const SlidingWindowSampler::StoredItem& it) {
    w.WriteU64(it.id);
    w.WriteDouble(it.time);
    w.WriteDouble(it.priority);
    w.WriteDouble(it.threshold);
  };
  for (const auto& it : current) write_entry(it);
  for (const auto& it : expired) write_entry(it);
  std::string bytes = w.Take();
  const uint32_t checksum = FrameChecksum(bytes);
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return bytes;
}

TEST(TimeAxisMerge, TiedPrioritiesMergeIdenticallyOnBothPaths) {
  // Two shards whose current entries tie in priority (0.25 everywhere)
  // and tie at their thresholds; the k = 3 accumulator must pick the
  // first-arrived ties whichever path runs.
  const std::string frame_a = HandcraftedWindowFrame(
      4, 1.0, 10.0,
      {{1, 9.2, 0.25, 0.5}, {2, 9.5, 0.25, 0.5}, {3, 9.9, 0.5, 0.5}}, {});
  const std::string frame_b = HandcraftedWindowFrame(
      4, 1.0, 10.0,
      {{4, 9.3, 0.25, 0.6}, {5, 9.8, 0.25, 0.6}},
      {{6, 8.7, 0.25, 0.6}});
  ASSERT_TRUE(SlidingWindowSampler::DeserializeView(frame_a).has_value());
  ASSERT_TRUE(SlidingWindowSampler::DeserializeView(frame_b).has_value());

  SlidingWindowSampler seq(3, 1.0, 1), many(3, 1.0, 1);
  for (const std::string& f : {frame_a, frame_b}) {
    auto in = SlidingWindowSampler::Deserialize(std::string_view(f));
    ASSERT_TRUE(in.has_value());
    seq.Merge(*in);
  }
  std::vector<std::string_view> frames{frame_a, frame_b};
  ASSERT_TRUE(many.MergeManyFrames(frames));
  ASSERT_EQ(many.SerializeToString(), seq.SerializeToString());

  // Three candidates below the merge bound 0.5: ids 1, 4, 2 in time
  // order, all at priority 0.25 -- they fill k exactly; id 3 sits at the
  // bound and drops.
  auto items = many.CurrentItems(10.0);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].id, 1u);
  EXPECT_EQ(items[1].id, 4u);
  EXPECT_EQ(items[2].id, 2u);
}

// ----------------------------------------------------------------------
// Hostile inputs against the frame views.

std::string PatchAndRechecksum(std::string frame, size_t offset,
                               const void* bytes, size_t count) {
  std::memcpy(frame.data() + offset, bytes, count);
  const uint32_t checksum =
      FrameChecksum(std::string_view(frame).substr(0, frame.size() - 4));
  std::memcpy(frame.data() + frame.size() - 4, &checksum,
              sizeof(checksum));
  return frame;
}

// Byte offsets inside a window frame body.
constexpr size_t kWinKOffset = 8;
constexpr size_t kWinCurrentCountOffset = 64;  // header+k+window+time+rng

TEST(WindowViewHostile, EveryTruncationFailsCleanly) {
  const std::string frame =
      MakeWindowSampler(8, 1.0, 400.0, 3.0, 6).SerializeToString();
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(SlidingWindowSampler::DeserializeView(
                     std::string_view(frame).substr(0, len))
                     .has_value())
        << "prefix length " << len;
  }
  EXPECT_TRUE(SlidingWindowSampler::DeserializeView(frame).has_value());
}

TEST(WindowViewHostile, FlippedByteFailsChecksum) {
  const std::string frame =
      MakeWindowSampler(8, 1.0, 400.0, 3.0, 6).SerializeToString();
  for (size_t pos : {size_t{0}, size_t{20}, frame.size() / 2,
                     frame.size() - 5}) {
    std::string bad = frame;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
    EXPECT_FALSE(SlidingWindowSampler::DeserializeView(bad).has_value())
        << "flipped byte " << pos;
  }
}

TEST(WindowViewHostile, HostileFieldPatchesAreRejected) {
  const std::string frame =
      MakeWindowSampler(8, 1.0, 400.0, 3.0, 6).SerializeToString();
  const auto view = SlidingWindowSampler::DeserializeView(frame);
  ASSERT_TRUE(view.has_value());
  // current_count > k.
  const uint64_t huge = uint64_t{1} << 40;
  EXPECT_FALSE(SlidingWindowSampler::DeserializeView(
                   PatchAndRechecksum(frame, kWinCurrentCountOffset, &huge,
                                      8))
                   .has_value());
  // k = 0.
  const uint64_t zero = 0;
  EXPECT_FALSE(SlidingWindowSampler::DeserializeView(
                   PatchAndRechecksum(frame, kWinKOffset, &zero, 8))
                   .has_value());
  // A huge k with an inconsistent entry region is a framing error; a
  // huge k alone allocates nothing in the view.
  EXPECT_TRUE(SlidingWindowSampler::DeserializeView(
                  PatchAndRechecksum(frame, kWinKOffset, &huge, 8))
                  .has_value());
  // Trailing junk.
  std::string trailing = frame;
  trailing.append("x");
  EXPECT_FALSE(SlidingWindowSampler::DeserializeView(trailing).has_value());
}

TEST(WindowViewHostile, BadFrameLeavesMergeTargetUnchanged) {
  SlidingWindowSampler target = MakeWindowSampler(8, 1.0, 300.0, 3.0, 2);
  const std::string before = target.SerializeToString();
  const std::string good =
      MakeWindowSampler(8, 1.0, 300.0, 3.0, 5).SerializeToString();
  std::string bad = good;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
  std::vector<std::string_view> frames{good, bad};
  EXPECT_FALSE(target.MergeManyFrames(frames));
  EXPECT_EQ(target.SerializeToString(), before);
  // A window mismatch is equally fatal.
  const std::string other_window =
      MakeWindowSampler(8, 2.0, 300.0, 3.0, 5).SerializeToString();
  std::vector<std::string_view> mismatched{other_window};
  EXPECT_FALSE(target.MergeManyFrames(mismatched));
  EXPECT_EQ(target.SerializeToString(), before);
}

TEST(DecayViewHostile, TruncationFlipsAndJunkFailCleanly) {
  TimeDecaySampler sampler(8, 3);
  for (uint64_t i = 0; i < 300; ++i) sampler.Add(i, 1.0, 1.0, 0.01 * i);
  const std::string frame = sampler.SerializeToString();
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(TimeDecaySampler::DeserializeView(
                     std::string_view(frame).substr(0, len))
                     .has_value())
        << "prefix length " << len;
  }
  const auto view = TimeDecaySampler::DeserializeView(frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->size(), sampler.size());
  for (size_t pos : {size_t{0}, size_t{45}, frame.size() / 2,
                     frame.size() - 3}) {
    std::string bad = frame;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    EXPECT_FALSE(TimeDecaySampler::DeserializeView(bad).has_value())
        << "flipped byte " << pos;
  }
  std::string trailing = frame;
  trailing.append("zz");
  EXPECT_FALSE(TimeDecaySampler::DeserializeView(trailing).has_value());

  TimeDecaySampler target(8, 9);
  for (uint64_t i = 0; i < 50; ++i) target.Add(i, 1.0, 1.0, 0.02 * i);
  const std::string before = target.SerializeToString();
  std::string bad = frame;
  bad[bad.size() / 3] = static_cast<char>(bad[bad.size() / 3] ^ 0x02);
  std::vector<std::string_view> frames{frame, bad};
  EXPECT_FALSE(target.MergeManyFrames(frames));
  EXPECT_EQ(target.SerializeToString(), before);
}

// ----------------------------------------------------------------------
// The sharded front-end on the time axis: snapshots equal the per-shard
// reference merge (sharded_reference.h) and stay cached between batches.

TEST(ShardedTimeAxis, WindowQueriesMatchManualMergeAndAreCached) {
  const size_t k = 32;
  ConcurrentWindowSampler sharded(4, k, 1.0, /*seed=*/3);
  auto shards = WindowReference(4, k, 1.0, /*seed=*/3);
  ArrivalProcess arrivals(RateProfile::Constant(1500.0), 1700.0, 8);
  double now = 0.0;
  for (const Arrival& a : arrivals.Until(3.0)) {
    sharded.Add({a.time, a.id});
    shards.ShardFor(a.id).Arrive(a.time, a.id);
    now = a.time;
  }
  // Window queries advance expiry, so each runs on a fresh manual merge.
  const double t1 = sharded.ImprovedThreshold(now);
  EXPECT_DOUBLE_EQ(t1, shards.Merged().ImprovedThreshold(now));
  EXPECT_DOUBLE_EQ(sharded.GlThreshold(now),
                   shards.Merged().GlThreshold(now));
  EXPECT_EQ(sharded.ImprovedSample(now).size(),
            shards.Merged().ImprovedSample(now).size());
  // Cached: repeated clean snapshots are the same object.
  const auto snapshot = sharded.Snapshot();
  EXPECT_EQ(sharded.Snapshot().get(), snapshot.get());
  EXPECT_DOUBLE_EQ(sharded.ImprovedThreshold(now), t1);
  // New ingest invalidates the cache.
  sharded.Add({now + 0.01, 999999});
  shards.ShardFor(999999).Arrive(now + 0.01, 999999);
  EXPECT_DOUBLE_EQ(sharded.ImprovedThreshold(now + 0.01),
                   shards.Merged().ImprovedThreshold(now + 0.01));
}

TEST(ShardedTimeAxis, DecayBatchedIngestAndCachedQueriesStayExact) {
  const size_t k = 48;
  ConcurrentDecaySampler sharded(6, k, /*seed=*/11);
  ConcurrentDecaySampler scalar_fed(6, k, /*seed=*/11);
  auto shards = DecayReference(6, k, /*seed=*/11);
  Xoshiro256 data(13);
  std::vector<TimeDecaySampler::TimedItem> batch;
  uint64_t key = 0;
  for (int round = 0; round < 4; ++round) {
    batch.clear();
    const size_t n = 1 + data.NextBelow(3000);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back({key++, 0.5 + data.NextDouble(), 1.0,
                       0.2 * round + 0.0001 * static_cast<double>(i)});
    }
    sharded.AddBatch(batch);
    for (const auto& it : batch) {
      scalar_fed.Add(it);
      shards.ShardFor(it.key).Add(it.key, it.weight, it.value, it.time);
    }
    // Batched partitioned ingest is bit-identical to scalar routing.
    ASSERT_EQ(sharded.TotalRetained(), scalar_fed.TotalRetained());
    const auto snapshot = sharded.Snapshot();
    ASSERT_DOUBLE_EQ(snapshot->LogKeyThreshold(),
                     scalar_fed.Snapshot()->LogKeyThreshold());
    // The snapshot equals the manual MergeMany reference, and clean
    // snapshots are the same object.
    const TimeDecaySampler manual = shards.Merged();
    const double now = 0.2 * round + 1.0;
    ASSERT_DOUBLE_EQ(snapshot->EstimateDecayedTotal(now),
                     manual.EstimateDecayedTotal(now));
    ASSERT_EQ(sharded.Snapshot().get(), snapshot.get());
  }
}

}  // namespace
}  // namespace ats
