// Tests for ats/core/sample_store.h: the shared SoA bottom-k retention
// engine (compaction-buffer design). Covers batched-vs-scalar offer
// equivalence (the OfferBatch pre-filter and the fused hashed pipeline
// must be pure optimizations), the chunked-acceptance contract,
// threshold primitives, aliasing-safe merges, and a randomized
// differential sweep against a naive sorted-vector oracle.
#include "ats/core/sample_store.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/random.h"

namespace ats {
namespace {

std::vector<double> RandomPriorities(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> out(n);
  for (double& p : out) p = rng.NextDoubleOpenZero();
  return out;
}

std::vector<uint64_t> Ids(size_t n) {
  std::vector<uint64_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

// Sorted (priority, payload) pairs for state comparison.
std::vector<std::pair<double, uint64_t>> Snapshot(
    const SampleStore<uint64_t>& store) {
  std::vector<std::pair<double, uint64_t>> out;
  for (size_t i : store.SortedOrder()) {
    out.emplace_back(store.priorities()[i], store.payloads()[i]);
  }
  return out;
}

TEST(SampleStore, BatchedEqualsScalarExactly) {
  for (size_t k : {1u, 7u, 64u, 500u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      const size_t n = 5000;
      const auto priorities = RandomPriorities(n, seed);
      const auto ids = Ids(n);

      SampleStore<uint64_t> scalar(k);
      size_t scalar_accepted = 0;
      for (size_t i = 0; i < n; ++i) {
        scalar_accepted += scalar.Offer(priorities[i], ids[i]) ? 1 : 0;
      }

      SampleStore<uint64_t> batched(k);
      const size_t batch_accepted = batched.OfferBatch(priorities, ids);

      EXPECT_EQ(batch_accepted, scalar_accepted) << "k=" << k;
      EXPECT_DOUBLE_EQ(batched.Threshold(), scalar.Threshold()) << "k=" << k;
      EXPECT_EQ(Snapshot(batched), Snapshot(scalar)) << "k=" << k;
    }
  }
}

TEST(SampleStore, BatchedEqualsScalarAcrossChunkBoundaries) {
  // Feed the same stream in odd-sized chunks: chunking must not change
  // the final state either.
  const size_t k = 32;
  const size_t n = 3000;
  const auto priorities = RandomPriorities(n, 9);
  const auto ids = Ids(n);

  SampleStore<uint64_t> whole(k);
  whole.OfferBatch(priorities, ids);

  SampleStore<uint64_t> chunked(k);
  size_t i = 0;
  size_t chunk = 1;
  while (i < n) {
    const size_t len = std::min(chunk, n - i);
    chunked.OfferBatch(std::span(priorities).subspan(i, len),
                       std::span(ids).subspan(i, len));
    i += len;
    chunk = chunk * 2 + 1;  // 1, 3, 7, ... exercises partial blocks
  }
  EXPECT_DOUBLE_EQ(chunked.Threshold(), whole.Threshold());
  EXPECT_EQ(Snapshot(chunked), Snapshot(whole));
}

TEST(SampleStore, ThresholdIsKPlusOneSmallest) {
  const size_t k = 10;
  const auto priorities = RandomPriorities(400, 4);
  SampleStore<uint64_t> store(k);
  store.OfferBatch(priorities, Ids(priorities.size()));

  auto sorted = priorities;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_DOUBLE_EQ(store.Threshold(), sorted[k]);
  EXPECT_EQ(store.size(), k);
  EXPECT_TRUE(store.saturated());
  EXPECT_DOUBLE_EQ(store.MaxRetainedPriority(), sorted[k - 1]);
}

TEST(SampleStore, InitialThresholdPreFilters) {
  SampleStore<uint64_t> store(8, /*initial_threshold=*/0.5);
  EXPECT_FALSE(store.Offer(0.7, 1));
  EXPECT_TRUE(store.Offer(0.3, 2));
  EXPECT_FALSE(store.saturated());  // below capacity, initial cap intact
  EXPECT_DOUBLE_EQ(store.Threshold(), 0.5);
}

TEST(SampleStore, LowerThresholdPurges) {
  SampleStore<uint64_t> store(8);
  store.Offer(0.1, 1);
  store.Offer(0.2, 2);
  store.Offer(0.3, 3);
  store.LowerThreshold(0.25);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_DOUBLE_EQ(store.Threshold(), 0.25);
  EXPECT_FALSE(store.Offer(0.26, 4));
  EXPECT_TRUE(store.saturated());
}

TEST(SampleStore, MergeEqualsSingleStream) {
  const auto priorities = RandomPriorities(800, 5);
  const auto ids = Ids(priorities.size());
  SampleStore<uint64_t> whole(16), left(16), right(16);
  for (size_t i = 0; i < priorities.size(); ++i) {
    whole.Offer(priorities[i], ids[i]);
    (i % 2 == 0 ? left : right).Offer(priorities[i], ids[i]);
  }
  left.Merge(right);
  EXPECT_DOUBLE_EQ(left.Threshold(), whole.Threshold());
  EXPECT_EQ(Snapshot(left), Snapshot(whole));
}

TEST(SampleStore, SelfMergeIsANoOp) {
  SampleStore<uint64_t> store(4);
  const auto priorities = RandomPriorities(100, 6);
  store.OfferBatch(priorities, Ids(priorities.size()));
  const auto before = Snapshot(store);
  const double threshold_before = store.Threshold();

  store.Merge(store);  // aliasing: must not corrupt or change the store

  EXPECT_DOUBLE_EQ(store.Threshold(), threshold_before);
  EXPECT_EQ(Snapshot(store), before);
}

TEST(SampleStore, ChunkedAcceptanceKeepsCanonicalStateExact) {
  // Offer() acceptance is chunked: while the bound has not tightened, a
  // tie that a per-offer reference would reject is still buffered -- but
  // every canonicalizing accessor must report exactly the reference
  // state (same retained multiset, same threshold).
  SampleStore<uint64_t> store(2);
  EXPECT_TRUE(store.Offer(0.5, 1));
  EXPECT_TRUE(store.Offer(0.5, 2));
  EXPECT_TRUE(store.Offer(0.5, 3));  // buffered under the chunked bound
  EXPECT_DOUBLE_EQ(store.Threshold(), 0.5);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.saturated());
  // After canonicalization the bound is tight again: ties are rejected.
  EXPECT_FALSE(store.Offer(0.5, 4));
}

TEST(SampleStore, AcceptBoundDominatesCanonicalThreshold) {
  SampleStore<uint64_t> store(8);
  Xoshiro256 rng(11);
  for (uint64_t i = 0; i < 2000; ++i) {
    store.Offer(rng.NextDoubleOpenZero(), i);
    const double bound = store.AcceptBound();  // O(1), possibly stale
    ASSERT_GE(bound, store.Threshold());       // canonicalizes
    // Once canonical, the bound IS the threshold.
    ASSERT_DOUBLE_EQ(store.AcceptBound(), store.Threshold());
  }
}

TEST(SampleStore, HashedBatchOfferMatchesScalarHashLoop) {
  // The fused hash->priority->pre-filter pipeline must be exactly a
  // scalar hash-then-offer loop: same state, same acceptance count --
  // duplicate keys included (the raw store does not deduplicate).
  std::vector<uint64_t> keys(10000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i % 7000;
  for (uint64_t salt : {0u, 42u}) {
    SampleStore<uint64_t> batched(128), scalar(128);
    const size_t batch_accepted = batched.HashedBatchOffer(keys, salt);
    size_t scalar_accepted = 0;
    for (uint64_t key : keys) {
      scalar_accepted +=
          scalar.Offer(HashToUnit(HashKey(key, salt)), key) ? 1 : 0;
    }
    EXPECT_EQ(batch_accepted, scalar_accepted) << "salt=" << salt;
    EXPECT_DOUBLE_EQ(batched.Threshold(), scalar.Threshold());
    EXPECT_EQ(Snapshot(batched), Snapshot(scalar));
  }
}

// --- Randomized differential sweep against a naive oracle --------------

// Naive sorted-vector scalar reference: retains the k smallest priorities
// ever offered below the threshold; the threshold is min(initial, the
// (k+1)-th smallest priority ever offered). This is the per-offer
// semantics the compaction store must be observably equivalent to.
class OracleStore {
 public:
  explicit OracleStore(size_t k, double initial = kInfiniteThreshold)
      : k_(k), initial_(initial), threshold_(initial) {}

  void Offer(double priority) {
    if (priority >= threshold_) return;
    retained_.insert(
        std::upper_bound(retained_.begin(), retained_.end(), priority),
        priority);
    if (retained_.size() > k_) {
      threshold_ = std::min(threshold_, retained_.back());
      retained_.pop_back();
    }
  }

  void LowerThreshold(double t) {
    if (t >= threshold_) return;
    threshold_ = t;
    Purge();
  }

  // Mirrors SampleStore::Merge: min thresholds, re-offer the other side's
  // retained set, then purge strictly at the merged threshold.
  void Merge(const OracleStore& other) {
    if (&other == this) return;
    initial_ = std::min(initial_, other.initial_);
    LowerThreshold(other.threshold_);
    for (double p : other.retained_) Offer(p);
    Purge();
  }

  double threshold() const { return threshold_; }
  bool saturated() const { return threshold_ < initial_; }
  const std::vector<double>& retained() const { return retained_; }

 private:
  void Purge() {
    retained_.erase(
        std::lower_bound(retained_.begin(), retained_.end(), threshold_),
        retained_.end());
  }

  size_t k_;
  double initial_;
  double threshold_;
  std::vector<double> retained_;  // ascending
};

// store: exercised with batched ops; twin: the same stream through scalar
// Offers only; oracle: the sorted-vector reference. `by_id` maps payload
// ids back to the priority they were offered with (column-lockstep
// check that survives duplicate priorities).
void ExpectStoreMatchesOracle(const SampleStore<uint64_t>& store,
                              const SampleStore<uint64_t>& twin,
                              const OracleStore& oracle,
                              const std::vector<double>& by_id) {
  ASSERT_DOUBLE_EQ(store.Threshold(), oracle.threshold());
  ASSERT_DOUBLE_EQ(twin.Threshold(), oracle.threshold());
  ASSERT_EQ(store.saturated(), oracle.saturated());
  ASSERT_EQ(store.size(), oracle.retained().size());
  ASSERT_EQ(twin.size(), oracle.retained().size());
  auto sorted = store.priorities();
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted, oracle.retained());
  auto twin_sorted = twin.priorities();
  std::sort(twin_sorted.begin(), twin_sorted.end());
  ASSERT_EQ(twin_sorted, oracle.retained());
  for (size_t i = 0; i < store.size(); ++i) {
    ASSERT_DOUBLE_EQ(by_id[store.payloads()[i]], store.priorities()[i]);
  }
}

TEST(SampleStore, DifferentialVsSortedVectorOracle) {
  // Mixed Offer / OfferBatch / Merge / LowerThreshold sequences with
  // heavy duplicate-priority pressure, swept over seeds and k down to 1.
  for (size_t k : {1u, 2u, 7u, 33u}) {
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
      Xoshiro256 rng(seed * 977 + k);
      SampleStore<uint64_t> store(k), twin(k), side(k), side_twin(k);
      OracleStore oracle(k), side_oracle(k);
      std::vector<double> by_id;

      // Half continuous draws, half from a tiny grid so that duplicate
      // priorities (including ties at the threshold) are common.
      auto gen_priority = [&rng] {
        if (rng.NextBelow(2) == 0) return rng.NextDoubleOpenZero();
        return 0.03 * static_cast<double>(1 + rng.NextBelow(32));
      };

      for (int op = 0; op < 300; ++op) {
        switch (rng.NextBelow(10)) {
          case 0:
          case 1:
          case 2:
          case 3: {  // scalar burst into the main stores
            const size_t n = 1 + rng.NextBelow(8);
            for (size_t j = 0; j < n; ++j) {
              const double p = gen_priority();
              const uint64_t id = by_id.size();
              by_id.push_back(p);
              ASSERT_EQ(store.Offer(p, id), twin.Offer(p, id));
              oracle.Offer(p);
            }
            break;
          }
          case 4:
          case 5:
          case 6: {  // batch into store, scalar loop into twin
            const size_t n = 1 + rng.NextBelow(200);
            std::vector<double> ps(n);
            std::vector<uint64_t> ids(n);
            for (size_t j = 0; j < n; ++j) {
              ps[j] = gen_priority();
              ids[j] = by_id.size();
              by_id.push_back(ps[j]);
            }
            const size_t batch_accepted = store.OfferBatch(ps, ids);
            size_t scalar_accepted = 0;
            for (size_t j = 0; j < n; ++j) {
              scalar_accepted += twin.Offer(ps[j], ids[j]) ? 1 : 0;
              oracle.Offer(ps[j]);
            }
            ASSERT_EQ(batch_accepted, scalar_accepted);
            break;
          }
          case 7: {  // feed the side stores (future merge input)
            const size_t n = 1 + rng.NextBelow(100);
            for (size_t j = 0; j < n; ++j) {
              const double p = gen_priority();
              const uint64_t id = by_id.size();
              by_id.push_back(p);
              side.Offer(p, id);
              side_twin.Offer(p, id);
              side_oracle.Offer(p);
            }
            break;
          }
          case 8: {  // merge the side stream in, then restart it
            store.Merge(side);
            twin.Merge(side_twin);
            oracle.Merge(side_oracle);
            side = SampleStore<uint64_t>(k);
            side_twin = SampleStore<uint64_t>(k);
            side_oracle = OracleStore(k);
            break;
          }
          case 9: {  // external threshold composition / self-merge
            if (rng.NextBelow(2) == 0) {
              const double t = gen_priority();
              store.LowerThreshold(t);
              twin.LowerThreshold(t);
              oracle.LowerThreshold(t);
            } else {
              store.Merge(store);
              twin.Merge(twin);
            }
            break;
          }
        }
        if (op % 23 == 0) {
          ExpectStoreMatchesOracle(store, twin, oracle, by_id);
        }
      }
      ExpectStoreMatchesOracle(store, twin, oracle, by_id);
    }
  }
}

TEST(SampleStore, EraseMatchesVectorEraseOracle) {
  // Erase(first, count) must remove exactly the positions a
  // std::vector::erase of the same range removes, from both columns in
  // lockstep (it is the window sampler's dead-prefix reclamation,
  // positional eviction and merge rebuild).
  const size_t n = 40;
  struct Range {
    size_t first;
    size_t count;
  };
  for (const Range r : {Range{0, 0}, Range{0, 1}, Range{0, 5}, Range{0, 32},
                        Range{7, 1}, Range{12, 9}, Range{n - 1, 1},
                        Range{n, 0}, Range{17, 0}, Range{0, n}}) {
    const auto priorities = RandomPriorities(n, 11);
    SampleStore<uint64_t> store(64, 1.0);
    std::vector<double> oracle_priorities;
    std::vector<uint64_t> oracle_payloads;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(store.Offer(priorities[i], i));
      oracle_priorities.push_back(priorities[i]);
      oracle_payloads.push_back(i);
    }
    const uint64_t epoch_before = store.mutation_epoch();
    const double threshold_before = store.Threshold();
    store.Erase(r.first, r.count);
    const auto from = static_cast<std::ptrdiff_t>(r.first);
    const auto to = static_cast<std::ptrdiff_t>(r.first + r.count);
    oracle_priorities.erase(oracle_priorities.begin() + from,
                            oracle_priorities.begin() + to);
    oracle_payloads.erase(oracle_payloads.begin() + from,
                          oracle_payloads.begin() + to);
    EXPECT_EQ(store.priorities(), oracle_priorities)
        << "first=" << r.first << " count=" << r.count;
    EXPECT_EQ(store.payloads(), oracle_payloads)
        << "first=" << r.first << " count=" << r.count;
    // The threshold is untouched; the epoch bumps iff something went.
    EXPECT_EQ(store.Threshold(), threshold_before);
    EXPECT_EQ(store.mutation_epoch() != epoch_before, r.count > 0)
        << "first=" << r.first << " count=" << r.count;
  }
}

TEST(SampleStore, ColumnsStayInLockstep) {
  // Heavy churn with evictions: priorities()[i] must keep pairing with
  // payloads()[i] (the payload equals the priority's original index).
  const size_t n = 20000;
  const auto priorities = RandomPriorities(n, 7);
  SampleStore<uint64_t> store(64);
  store.OfferBatch(priorities, Ids(n));
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_DOUBLE_EQ(priorities[store.payloads()[i]],
                     store.priorities()[i]);
  }
}

}  // namespace
}  // namespace ats
