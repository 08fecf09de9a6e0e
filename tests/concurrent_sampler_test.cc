// Tests for ats/core/concurrent_sampler.h: the internally thread-safe
// streaming front-ends with epoch-snapshot queries.
//
// The load-bearing property, inherited from mergeability: shard-local
// concurrent ingestion followed by a k-way merge is observationally
// identical (retained multiset, threshold, ties) to single-threaded
// ingestion of the concatenated stream -- EXACTLY, not statistically.
// The deterministic tests here drive K writer threads with fixed
// per-thread streams (and barrier schedules for mid-stream snapshots)
// and compare bit-for-bit against the single-store / per-shard
// references (sharded_reference.h). The reader/writer tests are the
// ThreadSanitizer probes: they exercise every lock and atomic in the
// epoch protocol while asserting snapshot invariants (the CI TSan leg
// runs this binary).
#include "ats/core/concurrent_sampler.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/ht_estimator.h"
#include "ats/core/priority.h"
#include "ats/core/random.h"
#include "ats/sketch/kmv.h"
#include "tests/sharded_reference.h"

namespace ats {
namespace {

using Item = PrioritySampler::Item;

std::vector<Item> MakeStream(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Item> out(n);
  uint64_t key = 0;
  for (auto& item : out) {
    item.key = key++;
    item.weight = std::exp(0.5 * rng.NextGaussian());
  }
  return out;
}

std::vector<std::pair<double, uint64_t>> SortedSample(
    const std::vector<SampleEntry>& sample) {
  std::vector<std::pair<double, uint64_t>> out;
  out.reserve(sample.size());
  for (const auto& e : sample) out.emplace_back(e.priority, e.key);
  std::sort(out.begin(), out.end());
  return out;
}

// Round-robin split into `writers` fixed per-thread streams.
std::vector<std::vector<Item>> SliceStream(const std::vector<Item>& stream,
                                           size_t writers) {
  std::vector<std::vector<Item>> slices(writers);
  for (size_t i = 0; i < stream.size(); ++i) {
    slices[i % writers].push_back(stream[i]);
  }
  return slices;
}

// --- Deterministic concurrent equivalence: bottom-k --------------------

TEST(ConcurrentPrioritySampler,
     CoordinatedConcurrentIngestMatchesSingleStoreExactly) {
  const size_t k = 100;
  const auto stream = MakeStream(20000, 11);

  PrioritySampler single(k, /*seed=*/1, /*coordinated=*/true);
  for (const auto& item : stream) single.Add(item.key, item.weight);

  auto sharded = PriorityReference(8, k);
  for (const auto& item : stream) {
    sharded.ShardFor(item.key).Add(item.key, item.weight);
  }
  const double sharded_threshold = sharded.Merged().Threshold();

  for (size_t writers : {1u, 2u, 4u, 8u}) {
    ConcurrentPrioritySampler conc(/*num_shards=*/8, k);
    const auto slices = SliceStream(stream, writers);
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (size_t w = 0; w < writers; ++w) {
      threads.emplace_back([&conc, &slices, w] { conc.AddBatch(slices[w]); });
    }
    for (auto& t : threads) t.join();

    // Exact equality with the single store: whatever interleaving the
    // scheduler produced, the priority multiset is the same, and with
    // coordinated priorities that determines every observable.
    const auto merged = conc.Merged();
    EXPECT_DOUBLE_EQ(merged.threshold, single.Threshold())
        << "writers=" << writers;
    EXPECT_EQ(SortedSample(merged.entries), SortedSample(single.Sample()))
        << "writers=" << writers;
    EXPECT_DOUBLE_EQ(HtTotal(merged.entries), HtTotal(single.Sample()))
        << "writers=" << writers;
    // And with the per-shard reference (identical shard layout).
    EXPECT_DOUBLE_EQ(conc.Snapshot()->Threshold(), sharded_threshold)
        << "writers=" << writers;
  }
}

TEST(ConcurrentPrioritySampler,
     BarrierScheduleSnapshotsMatchSingleStorePrefixes) {
  // K writers ingest fixed chunks in barrier-separated rounds; between
  // rounds a reader takes a snapshot. At every barrier the ingested
  // multiset is deterministic, so each mid-stream snapshot must equal
  // the single-store sample of the rounds ingested so far.
  const size_t k = 64;
  const size_t writers = 4;
  const size_t rounds = 5;
  const size_t chunk = 500;
  const auto stream = MakeStream(writers * rounds * chunk, 21);

  // chunk_of[w][r]: writer w's fixed stream for round r.
  std::vector<std::vector<std::span<const Item>>> chunk_of(writers);
  for (size_t w = 0; w < writers; ++w) {
    for (size_t r = 0; r < rounds; ++r) {
      const size_t begin = (r * writers + w) * chunk;
      chunk_of[w].push_back(
          std::span<const Item>(stream.data() + begin, chunk));
    }
  }

  ConcurrentPrioritySampler conc(/*num_shards=*/4, k);
  std::barrier sync(static_cast<std::ptrdiff_t>(writers + 1));
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t r = 0; r < rounds; ++r) {
        conc.AddBatch(chunk_of[w][r]);
        sync.arrive_and_wait();  // round ingested
        sync.arrive_and_wait();  // reader finished checking
      }
    });
  }

  PrioritySampler reference(k, /*seed=*/1, /*coordinated=*/true);
  for (size_t r = 0; r < rounds; ++r) {
    sync.arrive_and_wait();  // all writers finished round r
    for (size_t w = 0; w < writers; ++w) {
      for (const Item& item : chunk_of[w][r]) {
        reference.Add(item.key, item.weight);
      }
    }
    const auto merged = conc.Merged();
    EXPECT_DOUBLE_EQ(merged.threshold, reference.Threshold())
        << "round " << r;
    EXPECT_EQ(SortedSample(merged.entries), SortedSample(reference.Sample()))
        << "round " << r;
    sync.arrive_and_wait();  // release writers into round r+1
  }
  for (auto& t : threads) t.join();
}

TEST(ConcurrentPrioritySampler, SnapshotIsCachedUntilAnAcceptedOffer) {
  const size_t k = 32;
  ConcurrentPrioritySampler conc(/*num_shards=*/4, k);
  const auto stream = MakeStream(5000, 31);
  conc.AddBatch(stream);

  // Repeated clean-cache queries return the SAME shared snapshot.
  const auto first = conc.Snapshot();
  EXPECT_EQ(first.get(), conc.Snapshot().get());

  // An all-rejected batch observably changes nothing, so the cache must
  // survive it (the epoch discipline: batches bump only on accepts).
  // Near-zero weights give priorities far above the saturated threshold.
  std::vector<Item> rejected(64);
  for (size_t i = 0; i < rejected.size(); ++i) {
    rejected[i] = Item{100000 + i, 1e-12};
  }
  EXPECT_EQ(conc.AddBatch(rejected), 0u);
  EXPECT_EQ(first.get(), conc.Snapshot().get());

  // An accepted offer invalidates it.
  conc.Add(Item{200001, 1e9});
  EXPECT_NE(first.get(), conc.Snapshot().get());
  // The old snapshot is still alive and internally consistent for the
  // holder (readers keep what they took).
  EXPECT_LE(first->size(), k);
}

// --- Deterministic concurrent equivalence: KMV distinct counting -------

TEST(ConcurrentKmvSketch, ConcurrentIngestMatchesSingleSketchExactly) {
  const size_t k = 64;
  const uint64_t salt = 7;
  std::vector<uint64_t> keys(30000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint64_t>(i % 9000);  // heavy duplication
  }

  KmvSketch single(k, 1.0, salt);
  single.AddKeys(keys);

  for (size_t writers : {2u, 4u}) {
    ConcurrentKmvSketch conc(/*num_shards=*/8, k, salt);
    std::vector<std::vector<uint64_t>> slices(writers);
    for (size_t i = 0; i < keys.size(); ++i) {
      slices[i % writers].push_back(keys[i]);
    }
    std::vector<std::thread> threads;
    std::atomic<bool> done{false};
    // A reader races the writers: coordinated hashing makes every
    // snapshot estimate monotone non-decreasing as shards grow.
    std::thread reader([&] {
      double last = 0.0;
      while (!done.load(std::memory_order_relaxed)) {
        const double estimate = conc.Snapshot()->Estimate();
        EXPECT_GE(estimate, last);
        last = estimate;
      }
    });
    for (size_t w = 0; w < writers; ++w) {
      threads.emplace_back([&conc, &slices, w] { conc.AddBatch(slices[w]); });
    }
    for (auto& t : threads) t.join();
    done.store(true, std::memory_order_relaxed);
    reader.join();

    const auto snap = conc.Snapshot();
    EXPECT_DOUBLE_EQ(snap->Threshold(), single.Threshold())
        << "writers=" << writers;
    EXPECT_DOUBLE_EQ(snap->Estimate(), single.Estimate())
        << "writers=" << writers;
    EXPECT_EQ(snap->size(), single.size()) << "writers=" << writers;
  }
}

// --- Deterministic concurrent equivalence: sliding window --------------

// Partitions a time-ordered arrival stream by shard; per-shard order
// (and therefore every per-shard RNG draw) is preserved.
std::vector<std::vector<ConcurrentWindowSampler::Arrival>> ArrivalsByShard(
    const ConcurrentWindowSampler& conc, size_t num_shards, size_t n) {
  std::vector<std::vector<ConcurrentWindowSampler::Arrival>> by_shard(
      num_shards);
  for (size_t i = 0; i < n; ++i) {
    const double time = 3.0 * static_cast<double>(i) / double(n);
    const uint64_t id = i;
    by_shard[conc.ShardOf(id)].push_back({time, id});
  }
  return by_shard;
}

TEST(ConcurrentWindowSampler, ConcurrentIngestMatchesShardedReference) {
  const size_t S = 8;
  const size_t k = 100;
  const double window = 1.0;
  const uint64_t seed = 5;
  const size_t n = 20000;

  // Per-shard reference over the same stream in global time order
  // (identical shard seeds, routing, merge).
  auto shards = WindowReference(S, k, window, seed);
  ConcurrentWindowSampler conc(S, k, window, seed);
  const auto by_shard = ArrivalsByShard(conc, S, n);
  for (size_t i = 0; i < n; ++i) {
    const double time = 3.0 * static_cast<double>(i) / double(n);
    shards.ShardFor(i).Arrive(time, i);
  }

  // 4 writer threads, each owning a disjoint set of whole shards, so
  // every shard sees its arrivals in the same order as the reference.
  const size_t writers = 4;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t s = w; s < S; s += writers) {
        conc.AddShardBatch(s, by_shard[s]);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (double now : {3.0, 3.4}) {
    // Window queries advance expiry: each runs on a fresh merge, as the
    // front-end's queries run on a fresh copy of its snapshot.
    EXPECT_DOUBLE_EQ(conc.ImprovedThreshold(now),
                     shards.Merged().ImprovedThreshold(now))
        << "now=" << now;
    EXPECT_DOUBLE_EQ(conc.GlThreshold(now), shards.Merged().GlThreshold(now))
        << "now=" << now;
    EXPECT_EQ(SortedSample(conc.ImprovedSample(now)),
              SortedSample(shards.Merged().ImprovedSample(now)))
        << "now=" << now;
    EXPECT_EQ(SortedSample(conc.GlSample(now)),
              SortedSample(shards.Merged().GlSample(now)))
        << "now=" << now;
    EXPECT_EQ(conc.MergedStoredCount(now),
              shards.Merged().StoredCount(now))
        << "now=" << now;
  }
}

// --- Deterministic concurrent equivalence: time decay ------------------

TEST(ConcurrentDecaySampler, ConcurrentIngestMatchesShardedReference) {
  const size_t S = 8;
  const size_t k = 64;
  const uint64_t seed = 9;
  const size_t n = 20000;

  Xoshiro256 rng(33);
  std::vector<TimeDecaySampler::TimedItem> stream(n);
  for (size_t i = 0; i < n; ++i) {
    stream[i].key = i;
    stream[i].weight = std::exp(0.4 * rng.NextGaussian());
    stream[i].value = stream[i].weight;
    stream[i].time = 5.0 * static_cast<double>(i) / double(n);
  }

  auto shards = DecayReference(S, k, seed);
  size_t ref_retained = 0;
  for (const auto& item : stream) {
    shards.ShardFor(item.key).Add(item.key, item.weight, item.value,
                                  item.time);
  }
  for (size_t s = 0; s < S; ++s) ref_retained += shards.shard(s).size();
  const TimeDecaySampler ref = shards.Merged();

  ConcurrentDecaySampler conc(S, k, seed);
  std::vector<std::vector<TimeDecaySampler::TimedItem>> by_shard(S);
  for (const auto& item : stream) {
    by_shard[conc.ShardOf(item.key)].push_back(item);
  }
  const size_t writers = 4;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t s = w; s < S; s += writers) {
        conc.AddShardBatch(s, by_shard[s]);
      }
    });
  }
  for (auto& t : threads) t.join();

  const double now = 5.0;
  const auto snap = conc.Snapshot();
  EXPECT_DOUBLE_EQ(snap->LogKeyThreshold(), ref.LogKeyThreshold());
  EXPECT_DOUBLE_EQ(snap->EstimateDecayedTotal(now),
                   ref.EstimateDecayedTotal(now));
  EXPECT_EQ(conc.TotalRetained(), ref_retained);
  const auto conc_sample = snap->SampleAt(now);
  const auto ref_sample = ref.SampleAt(now);
  ASSERT_EQ(conc_sample.size(), ref_sample.size());
  auto key_of = [](const TimeDecaySampler::DecayedEntry& e) { return e.key; };
  std::vector<uint64_t> conc_keys, ref_keys;
  for (const auto& e : conc_sample) conc_keys.push_back(key_of(e));
  for (const auto& e : ref_sample) ref_keys.push_back(key_of(e));
  std::sort(conc_keys.begin(), conc_keys.end());
  std::sort(ref_keys.begin(), ref_keys.end());
  EXPECT_EQ(conc_keys, ref_keys);
}

// --- Reader/writer races: the ThreadSanitizer probes -------------------

TEST(ConcurrentPrioritySampler, ReadersRaceWritersAndSeeValidSnapshots) {
  const size_t k = 64;
  const auto stream = MakeStream(40000, 41);
  ConcurrentPrioritySampler conc(/*num_shards=*/8, k);

  const size_t writers = 4;
  const auto slices = SliceStream(stream, writers);
  std::atomic<bool> done{false};

  // Readers validate two snapshot invariants while writers run: the
  // merged sample never exceeds k, and the merged threshold is monotone
  // non-increasing across successive snapshots (the shards keep every
  // item below the last published threshold, and each snapshot is
  // epoch-consistent).
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      double last_threshold = kInfiniteThreshold;
      while (!done.load(std::memory_order_relaxed)) {
        const auto merged = conc.Merged();
        ASSERT_LE(merged.entries.size(), k);
        ASSERT_LE(merged.threshold, last_threshold);
        last_threshold = merged.threshold;
      }
    });
  }
  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&conc, &slices, w] { conc.AddBatch(slices[w]); });
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  // After the dust settles: exact single-store equality, as always.
  PrioritySampler single(k, /*seed=*/1, /*coordinated=*/true);
  for (const auto& item : stream) single.Add(item.key, item.weight);
  const auto merged = conc.Merged();
  EXPECT_DOUBLE_EQ(merged.threshold, single.Threshold());
  EXPECT_EQ(SortedSample(merged.entries), SortedSample(single.Sample()));
}

TEST(ConcurrentTimeAxis, ReadersRaceWritersOnWindowAndDecay) {
  // The time-axis reader/writer probe: shard-owner writers ingest while
  // readers take snapshot queries at a `now` past the whole stream.
  const size_t S = 8;
  const size_t writers = 4;
  const size_t n = 12000;
  const double final_now = 3.5;

  ConcurrentWindowSampler window(S, /*k=*/50, /*window=*/1.0, /*seed=*/3);
  ConcurrentDecaySampler decay(S, /*k=*/50, /*seed=*/3);

  std::vector<std::vector<ConcurrentWindowSampler::Arrival>> warr(S);
  std::vector<std::vector<TimeDecaySampler::TimedItem>> ditems(S);
  for (size_t i = 0; i < n; ++i) {
    const double time = 3.0 * static_cast<double>(i) / double(n);
    warr[window.ShardOf(i)].push_back({time, i});
    ditems[decay.ShardOf(i)].push_back({i, 1.0, 1.0, time});
  }

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto wsample = window.ImprovedSample(final_now);
      ASSERT_LE(wsample.size(), window.config().k);
      const double total = decay.Snapshot()->EstimateDecayedTotal(final_now);
      ASSERT_GE(total, 0.0);
      ASSERT_TRUE(std::isfinite(total));
    }
  });
  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t s = w; s < S; s += writers) {
        window.AddShardBatch(s, warr[s]);
        decay.AddShardBatch(s, ditems[s]);
      }
    });
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  // Quiesced results still match the per-shard references.
  auto wref = WindowReference(S, 50, 1.0, 3);
  auto dref = DecayReference(S, 50, 3);
  for (size_t i = 0; i < n; ++i) {
    const double time = 3.0 * static_cast<double>(i) / double(n);
    wref.ShardFor(i).Arrive(time, i);
    dref.ShardFor(i).Add(i, 1.0, 1.0, time);
  }
  EXPECT_DOUBLE_EQ(window.ImprovedThreshold(final_now),
                   wref.Merged().ImprovedThreshold(final_now));
  EXPECT_DOUBLE_EQ(decay.Snapshot()->EstimateDecayedTotal(final_now),
                   dref.Merged().EstimateDecayedTotal(final_now));
}

// --- Window ingest-order contract --------------------------------------

TEST(ConcurrentWindowSamplerDeathTest, OutOfOrderShardArrivalFailsDebugCheck) {
  // Arrival times must be non-decreasing per shard; two routed writers
  // could interleave a shard's runs out of time order. Debug builds
  // catch the first such arrival instead of quietly biasing the sample.
  ConcurrentWindowSampler conc(/*num_shards=*/4, /*k=*/8, /*window=*/1.0);
  uint64_t other = 1;
  while (conc.ShardOf(other) != conc.ShardOf(0)) ++other;
  EXPECT_DEBUG_DEATH(
      {
        conc.Add({2.0, 0});
        conc.Add({1.0, other});
      },
      "last_time");
}

// --- Compatibility spellings ---------------------------------------------

TEST(ConcurrentPrioritySampler, WriterHandlesAreTheRoutedPath) {
  // RegisterWriter / Writer / Drain remain only as spellings of the
  // routed path. Handles on three threads, each owning the items of a
  // disjoint set of shards (so every shard's arrival order, hence every
  // column order, is fixed), then Drain(), must give exactly the
  // snapshot of one routed AddBatch over the same stream -- and Drain()
  // must take no lock.
  const size_t k = 64;
  const size_t writers = 3;
  const auto stream = MakeStream(20000, 51);
  ConcurrentPrioritySampler routed(/*num_shards=*/8, k);
  routed.AddBatch(stream);

  ConcurrentPrioritySampler conc(/*num_shards=*/8, k);
  std::vector<std::vector<Item>> slices(writers);
  for (const Item& item : stream) {
    slices[conc.ShardOf(item.key) % writers].push_back(item);
  }
  std::vector<ConcurrentPrioritySampler::Writer> handles;
  for (size_t w = 0; w < writers; ++w) {
    handles.push_back(conc.RegisterWriter());
  }
  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      const auto& slice = slices[w];
      const size_t chunk = 257;
      for (size_t i = 0; i < slice.size(); i += chunk) {
        const size_t len = std::min(chunk, slice.size() - i);
        handles[w].AddBatch(std::span<const Item>(slice.data() + i, len));
      }
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t locks_before = conc.LockAcquisitionsForTest();
  conc.Drain();
  EXPECT_EQ(conc.LockAcquisitionsForTest(), locks_before);

  const auto snap = conc.Snapshot();
  const auto ref = routed.Snapshot();
  EXPECT_EQ(snap->Threshold(), ref->Threshold());
  EXPECT_EQ(SortedSample(conc.Merged().entries),
            SortedSample(routed.Merged().entries));
  EXPECT_EQ(snap->SerializeToString(), ref->SerializeToString());
}

// --- Multi-round rebuild oracle -----------------------------------------
//
// Every dirty Snapshot() folds the shards into an accumulator that
// starts lowered to the PREVIOUS snapshot's threshold. These cases take
// a snapshot after every barrier-separated round -- one large round,
// then many small ones, so successive thresholds sit within a fraction
// of a percent of each other and a bound even slightly below the true
// merged threshold changes the answer -- and require each to be
// bit-identical (threshold, column order, wire bytes) to an unpruned
// reference over the same prefix.

// chunks[r][w]: writer w's fixed input for round r.
template <typename T>
using RoundChunks = std::vector<std::vector<std::vector<T>>>;

constexpr size_t kOracleShards = 8;
constexpr size_t kOracleWriters = 4;
constexpr size_t kOracleRounds = 14;

// Round sizes (items per round, all writers together): one big warm-up
// round, then small increments.
size_t OracleRoundSize(size_t r) { return r == 0 ? 12000 : 24; }

// Builds every round from consecutive keys and hands each item to the
// writer owning its shard (writer = shard % writers), so every shard is
// fed by exactly one writer and its per-shard order -- hence every
// per-shard RNG draw -- is deterministic.
template <typename Conc, typename MakeItem>
RoundChunks<typename Conc::Item> ShardOwnedRounds(const Conc& conc,
                                                  MakeItem&& make_item) {
  RoundChunks<typename Conc::Item> chunks(kOracleRounds);
  uint64_t next_key = 0;
  for (size_t r = 0; r < kOracleRounds; ++r) {
    chunks[r].resize(kOracleWriters);
    for (size_t i = 0; i < OracleRoundSize(r); ++i) {
      const uint64_t key = next_key++;  // the item's routing key
      chunks[r][conc.ShardOf(key) % kOracleWriters].push_back(make_item(key));
    }
  }
  return chunks;
}

// Drives the rounds: writer threads ingest round r through the routed
// AddBatch, then the reader snapshots and calls check(r, snapshot).
// Returns the number of rounds whose snapshot was a fresh rebuild.
template <typename Conc, typename Check>
size_t RunOracleRounds(Conc& conc,
                       const RoundChunks<typename Conc::Item>& chunks,
                       Check&& check) {
  using Item = typename Conc::Item;
  std::barrier sync(static_cast<std::ptrdiff_t>(kOracleWriters + 1));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kOracleWriters; ++w) {
    threads.emplace_back([&, w] {
      for (size_t r = 0; r < chunks.size(); ++r) {
        conc.AddBatch(std::span<const Item>(chunks[r][w]));
        sync.arrive_and_wait();  // round ingested
        sync.arrive_and_wait();  // reader finished checking
      }
    });
  }
  size_t rebuilds = 0;
  std::shared_ptr<const typename Conc::Merged> previous;
  for (size_t r = 0; r < chunks.size(); ++r) {
    sync.arrive_and_wait();
    const auto snap = conc.Snapshot();  // dirty: rebuilds
    rebuilds += snap != previous ? 1 : 0;
    previous = snap;
    check(r, *snap);
    sync.arrive_and_wait();
  }
  for (auto& t : threads) t.join();
  return rebuilds;
}

TEST(ConcurrentRebuildOracle, IndependentPriorityRoundsMatchReference) {
  const size_t k = 64;
  const uint64_t seed = 13;
  ConcurrentPrioritySampler conc(kOracleShards, k, /*coordinated=*/false,
                                 seed);
  Xoshiro256 rng(17);
  const auto chunks = ShardOwnedRounds(conc, [&](uint64_t key) {
    return Item{key, std::exp(0.5 * rng.NextGaussian())};
  });
  // The per-shard reference (identical shard seeds and routing) fed
  // the same per-shard streams.
  auto sharded = PriorityReference(kOracleShards, k, /*coordinated=*/false,
                                   seed);
  const size_t rebuilds = RunOracleRounds(
      conc, chunks, [&](size_t r, const BottomK<Item>& snap) {
        SCOPED_TRACE(testing::Message() << "round " << r);
        for (const auto& chunk : chunks[r]) {
          for (const Item& item : chunk) {
            sharded.ShardFor(item.key).Add(item.key, item.weight);
          }
        }
        const BottomK<Item> ref = sharded.Merged().sketch();
        EXPECT_EQ(snap.Threshold(), ref.Threshold());
        EXPECT_EQ(snap.store().priorities(), ref.store().priorities());
        EXPECT_EQ(snap.SerializeToString(), ref.SerializeToString());
      });
  EXPECT_GE(rebuilds, kOracleRounds / 2);
}

TEST(ConcurrentRebuildOracle, KmvRoundsMatchSingleSketchPrefixes) {
  // Coordinated hashing: every snapshot equals the single sketch of the
  // keys ingested so far, with duplicate keys spread across writers.
  const size_t k = 64;
  const uint64_t salt = 5;
  RoundChunks<uint64_t> chunks(kOracleRounds);
  Xoshiro256 rng(19);
  uint64_t fresh = 1u << 20;
  for (size_t r = 0; r < kOracleRounds; ++r) {
    chunks[r].resize(kOracleWriters);
    for (size_t i = 0; i < OracleRoundSize(r); ++i) {
      // Half duplicates of early keys, half never-seen keys.
      const uint64_t key = rng.NextBelow(2) == 0 ? rng.NextBelow(4000)
                                                 : fresh++;
      chunks[r][i % kOracleWriters].push_back(key);
    }
  }
  KmvSketch single(k, 1.0, salt);
  ConcurrentKmvSketch conc(kOracleShards, k, salt);
  const size_t rebuilds = RunOracleRounds(
      conc, chunks, [&](size_t r, const KmvSketch& snap) {
        SCOPED_TRACE(testing::Message() << "round " << r);
        for (const auto& chunk : chunks[r]) single.AddKeys(chunk);
        EXPECT_EQ(snap.Threshold(), single.Threshold());
        EXPECT_EQ(snap.members(), single.members());
        EXPECT_EQ(snap.SerializeToString(), single.SerializeToString());
      });
  EXPECT_GE(rebuilds, kOracleRounds / 2);
}

TEST(ConcurrentRebuildOracle, DecayRoundsMatchReference) {
  const size_t k = 64;
  const uint64_t seed = 23;
  ConcurrentDecaySampler conc(kOracleShards, k, seed);
  Xoshiro256 rng(29);
  const auto chunks = ShardOwnedRounds(conc, [&](uint64_t key) {
    const double weight = std::exp(0.4 * rng.NextGaussian());
    // Time-ordered within every shard (keys ascend with time).
    return TimeDecaySampler::TimedItem{key, weight, weight,
                                       1e-4 * static_cast<double>(key)};
  });
  auto sharded = DecayReference(kOracleShards, k, seed);
  const size_t rebuilds = RunOracleRounds(
      conc, chunks, [&](size_t r, const TimeDecaySampler& snap) {
        SCOPED_TRACE(testing::Message() << "round " << r);
        for (const auto& chunk : chunks[r]) {
          for (const auto& item : chunk) {
            sharded.ShardFor(item.key).Add(item.key, item.weight,
                                           item.value, item.time);
          }
        }
        const TimeDecaySampler ref = sharded.Merged();
        EXPECT_EQ(snap.LogKeyThreshold(), ref.LogKeyThreshold());
        EXPECT_EQ(snap.SerializeToString(), ref.SerializeToString());
      });
  EXPECT_GE(rebuilds, kOracleRounds / 2);
}

TEST(ConcurrentRebuildOracle, WindowRoundsMatchReference) {
  // Each rebuild steps the window merge fold over every shard in place
  // under its lock. Times ascend with keys, so every shard's arrivals
  // are in time order; a window spans about 200 arrivals (25 per shard,
  // above k, so shards evict), and each small round advances the clock
  // by about an eighth of a window, so entries expire between rounds.
  const size_t k = 16;
  const double window = 2.0;
  const uint64_t seed = 31;
  ConcurrentWindowSampler conc(kOracleShards, k, window, seed);
  const auto chunks = ShardOwnedRounds(conc, [](uint64_t key) {
    return ConcurrentWindowSampler::Arrival{0.01 * static_cast<double>(key),
                                            key};
  });
  auto sharded = WindowReference(kOracleShards, k, window, seed);
  const size_t rebuilds = RunOracleRounds(
      conc, chunks, [&](size_t r, const SlidingWindowSampler& snap) {
        SCOPED_TRACE(testing::Message() << "round " << r);
        for (const auto& chunk : chunks[r]) {
          for (const auto& a : chunk) {
            sharded.ShardFor(a.id).Arrive(a.time, a.id);
          }
        }
        EXPECT_EQ(snap.SerializeToString(),
                  sharded.Merged().SerializeToString());
      });
  EXPECT_GE(rebuilds, kOracleRounds / 2);
}

TEST(ConcurrentRebuildOracle,
     CoordinatedPriorityRoundsMatchSingleSamplerPrefixes) {
  // From round 1 on, routed ingest is filtered at the previous
  // snapshot's threshold and every touched shard adopts it. Each small
  // round mixes ordinary items (almost all filtered out) with a few
  // heavy ones whose priorities land anywhere below the threshold, so
  // most rounds change the sample, and a filter bound even slightly
  // below the true one would drop a sampled item.
  const size_t k = 64;
  ConcurrentPrioritySampler conc(kOracleShards, k);
  RoundChunks<Item> chunks(kOracleRounds);
  Xoshiro256 rng(37);
  uint64_t next_key = 0;
  for (size_t r = 0; r < kOracleRounds; ++r) {
    chunks[r].resize(kOracleWriters);
    for (size_t i = 0; i < OracleRoundSize(r); ++i) {
      const double heavy = r > 0 && i % 6 == 0 ? 100.0 : 1.0;
      chunks[r][i % kOracleWriters].push_back(
          Item{next_key++, heavy * std::exp(0.5 * rng.NextGaussian())});
    }
  }
  PrioritySampler single(k, /*seed=*/1, /*coordinated=*/true);
  const size_t rebuilds = RunOracleRounds(
      conc, chunks, [&](size_t r, const BottomK<Item>& snap) {
        SCOPED_TRACE(testing::Message() << "round " << r);
        for (const auto& chunk : chunks[r]) single.AddBatch(chunk);
        const auto entries = MakeWeightedSample(snap.store());
        EXPECT_EQ(snap.Threshold(), single.Threshold());
        EXPECT_EQ(SortedSample(entries), SortedSample(single.Sample()));
        EXPECT_DOUBLE_EQ(HtTotal(entries), HtTotal(single.Sample()));
      });
  EXPECT_GE(rebuilds, kOracleRounds / 2);
}

TEST(ConcurrentRebuildOracle, KmvDuplicatesAfterSnapshotMatchSingleSketch) {
  // Duplicates of retained keys, of the key AT the threshold and of
  // keys long evicted arrive after a snapshot, spread over routed
  // writers; the union must still be the single sketch's.
  const size_t k = 64;
  const uint64_t salt = 3;
  std::vector<uint64_t> first(12000);
  for (size_t i = 0; i < first.size(); ++i) first[i] = i;
  KmvSketch single(k, 1.0, salt);
  single.AddKeys(first);
  ConcurrentKmvSketch conc(kOracleShards, k, salt);
  conc.AddBatch(first);
  const auto snap0 = conc.Snapshot();
  ASSERT_EQ(snap0->members(), single.members());

  // The key at the threshold: the (k+1)-th smallest hash priority.
  std::vector<std::pair<double, uint64_t>> by_priority;
  for (const uint64_t key : first) {
    by_priority.emplace_back(HashToUnit(HashKey(key, salt)), key);
  }
  std::sort(by_priority.begin(), by_priority.end());
  ASSERT_EQ(by_priority[k].first, snap0->Threshold());

  std::vector<uint64_t> second;
  for (int copy = 0; copy < 3; ++copy) {
    for (const auto& [priority, key] : snap0->members()) second.push_back(key);
    second.push_back(by_priority[k].second);
    for (uint64_t key = 0; key < 200; ++key) second.push_back(key);
    for (uint64_t key = 0; key < 40; ++key) {
      second.push_back(1000000 + 97 * key + static_cast<uint64_t>(copy));
    }
  }
  single.AddKeys(second);
  std::vector<std::thread> threads;
  const auto slices = [&] {
    std::vector<std::vector<uint64_t>> out(kOracleWriters);
    for (size_t i = 0; i < second.size(); ++i) {
      out[i % kOracleWriters].push_back(second[i]);
    }
    return out;
  }();
  for (size_t w = 0; w < kOracleWriters; ++w) {
    threads.emplace_back([&conc, &slices, w] { conc.AddBatch(slices[w]); });
  }
  for (auto& t : threads) t.join();
  const auto snap = conc.Snapshot();
  EXPECT_EQ(snap->Threshold(), single.Threshold());
  EXPECT_EQ(snap->members(), single.members());
  EXPECT_EQ(snap->SerializeToString(), single.SerializeToString());
}

// --- Writer-side prefilter -----------------------------------------------

double CoordinatedPriority(const Item& item) {
  return PriorityDist::WeightedUniform(item.weight)
      .FromHash(HashKey(item.key));
}

TEST(ConcurrentPrioritySampler, TieAtPublishedThresholdMatchesReference) {
  // The filter keeps priorities strictly below the published threshold.
  // The item whose priority IS the threshold (the (k+1)-th smallest)
  // must be rejected without a lock, and re-ingesting it together with
  // duplicates of retained items must still give the reference sample.
  const size_t k = 64;
  const auto stream = MakeStream(20000, 61);
  PrioritySampler single(k, /*seed=*/1, /*coordinated=*/true);
  single.AddBatch(stream);
  ConcurrentPrioritySampler conc(/*num_shards=*/8, k);
  conc.AddBatch(stream);
  const double threshold = conc.Snapshot()->Threshold();

  std::vector<std::pair<double, Item>> by_priority;
  for (const Item& item : stream) {
    by_priority.emplace_back(CoordinatedPriority(item), item);
  }
  std::sort(by_priority.begin(), by_priority.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const Item tie = by_priority[k].second;
  ASSERT_EQ(by_priority[k].first, threshold);

  const uint64_t locks = conc.LockAcquisitionsForTest();
  EXPECT_EQ(conc.Add(tie), 0u);
  EXPECT_EQ(conc.LockAcquisitionsForTest(), locks);
  single.Add(tie.key, tie.weight);

  // The tie again, plus a copy of each of the three smallest retained
  // items (duplicates below the pivot, so no tie at the new threshold).
  std::vector<Item> batch = {tie};
  for (size_t i = 0; i < 3; ++i) batch.push_back(by_priority[i].second);
  batch.push_back(tie);
  conc.AddBatch(batch);
  single.AddBatch(batch);

  const auto merged = conc.Merged();
  EXPECT_EQ(merged.threshold, single.Threshold());
  EXPECT_LT(merged.threshold, threshold);
  EXPECT_EQ(SortedSample(merged.entries), SortedSample(single.Sample()));
  EXPECT_DOUBLE_EQ(HtTotal(merged.entries), HtTotal(single.Sample()));
}

TEST(ConcurrentPrioritySampler, IngestWithNoSurvivorTakesNoLock) {
  // Once a snapshot is published, items at or above its threshold are
  // dropped before routing: neither Add nor AddBatch (block path and
  // tail) takes a lock or moves an epoch, so the snapshot stays cached.
  ConcurrentPrioritySampler conc(/*num_shards=*/8, /*k=*/64);
  conc.AddBatch(MakeStream(20000, 71));
  const auto snap = conc.Snapshot();

  std::vector<Item> rejected(200);
  for (size_t i = 0; i < rejected.size(); ++i) {
    rejected[i] = Item{300000 + i, 1e-12};  // priority ~1e12
  }
  const uint64_t locks = conc.LockAcquisitionsForTest();
  EXPECT_EQ(conc.Add(rejected[0]), 0u);
  EXPECT_EQ(conc.AddBatch(rejected), 0u);
  EXPECT_EQ(conc.LockAcquisitionsForTest(), locks);
  EXPECT_EQ(conc.Snapshot().get(), snap.get());
}

TEST(ConcurrentPrioritySampler, TouchedShardsAdoptThePublishedThreshold) {
  // Every saturated shard holds k entries until it adopts the published
  // threshold; after a batch whose survivors reach every shard, the
  // shards together keep little more than the k merged entries.
  const size_t shards = 8;
  const size_t k = 64;
  const auto stream = MakeStream(20000, 81);
  ConcurrentPrioritySampler conc(shards, k);
  conc.AddBatch(stream);
  ASSERT_EQ(conc.TotalRetained(), shards * k);
  conc.Snapshot();

  std::vector<Item> heavy;
  std::vector<bool> reached(shards, false);
  for (uint64_t key = 400000; heavy.size() < shards; ++key) {
    const size_t s = conc.ShardOf(key);
    if (reached[s]) continue;
    reached[s] = true;
    heavy.push_back(Item{key, 1e9});  // far below the threshold
  }
  EXPECT_EQ(conc.AddBatch(heavy), shards);
  EXPECT_LE(conc.TotalRetained(), k + shards);

  PrioritySampler single(k, /*seed=*/1, /*coordinated=*/true);
  single.AddBatch(stream);
  single.AddBatch(heavy);
  const auto merged = conc.Merged();
  EXPECT_EQ(merged.threshold, single.Threshold());
  EXPECT_EQ(SortedSample(merged.entries), SortedSample(single.Sample()));
}

TEST(ConcurrentKmvSketch, ReadersRaceWritersAndSeeValidSnapshots) {
  // The KMV reader/writer probe: routed writers ingest overlapping keys
  // while two readers validate every snapshot (at most k members,
  // threshold monotone non-increasing, estimate monotone non-decreasing
  // -- shards only grow); the quiesced union is exact.
  const size_t k = 64;
  const uint64_t salt = 11;
  std::vector<uint64_t> keys(40000);
  Xoshiro256 rng(43);
  for (auto& key : keys) key = rng.NextBelow(15000);
  ConcurrentKmvSketch conc(/*num_shards=*/8, k, salt);

  const size_t writers = 4;
  std::vector<std::vector<uint64_t>> slices(writers);
  for (size_t i = 0; i < keys.size(); ++i) {
    slices[i % writers].push_back(keys[i]);
  }
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      double last_threshold = 1.0;
      double last_estimate = 0.0;
      while (!done.load(std::memory_order_relaxed)) {
        const auto snap = conc.Snapshot();
        ASSERT_LE(snap->size(), k);
        ASSERT_LE(snap->Threshold(), last_threshold);
        ASSERT_GE(snap->Estimate(), last_estimate);
        last_threshold = snap->Threshold();
        last_estimate = snap->Estimate();
      }
    });
  }
  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&conc, &slices, w] {
      const auto& slice = slices[w];
      const size_t chunk = 500;
      for (size_t i = 0; i < slice.size(); i += chunk) {
        const size_t len = std::min(chunk, slice.size() - i);
        conc.AddBatch(std::span<const uint64_t>(slice.data() + i, len));
      }
    });
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  KmvSketch single(k, 1.0, salt);
  single.AddKeys(keys);
  const auto snap = conc.Snapshot();
  EXPECT_EQ(snap->Threshold(), single.Threshold());
  EXPECT_EQ(snap->members(), single.members());
}

// --- The lock-free clean-read probe ------------------------------------

TEST(ConcurrentPrioritySampler, CleanSnapshotAcquiresNoLockAndIsLockFree) {
  // The corrected claim of concurrent_sampler.h: a clean-cache
  // Snapshot() performs NO lock acquisition (the old
  // atomic<shared_ptr> publication was not lock-free on libstdc++ --
  // this pins the replacement). Every mutex in the sampler counts
  // itself; the counter must not move across clean reads.
  ConcurrentPrioritySampler conc(/*num_shards=*/8, /*k=*/64);
  EXPECT_TRUE(conc.SnapshotPublicationIsLockFree());

  const auto stream = MakeStream(10000, 91);
  conc.AddBatch(stream);
  const auto first = conc.Snapshot();  // rebuild: locks are expected

  const uint64_t locks_before = conc.LockAcquisitionsForTest();
  for (int i = 0; i < 1000; ++i) {
    const auto snap = conc.Snapshot();
    ASSERT_EQ(snap.get(), first.get());
  }
  EXPECT_EQ(conc.LockAcquisitionsForTest(), locks_before);

  // The published shard epochs are the whole clean-read validation: a
  // routed Add must invalidate without the reader having held any lock
  // beforehand.
  conc.Add(Item{999999, 1e9});
  EXPECT_NE(conc.Snapshot().get(), first.get());
}

// --- Allocation-free steady state --------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(ATS_HAS_FEATURE_SANITIZER)
constexpr bool kAllocCountingEnabled = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kAllocCountingEnabled = false;
#else
constexpr bool kAllocCountingEnabled = true;
#endif
#else
constexpr bool kAllocCountingEnabled = true;
#endif

std::atomic<uint64_t> g_allocations{0};

}  // namespace
}  // namespace ats

// Global operator new instrumentation for the steady-state allocation
// tests (this TU is its own test binary). Counting is always on; the
// tests only assert on it when no sanitizer owns the allocator.
//
// The replacement operator new is malloc-backed, so the matching
// replacement operator delete must call free. GCC's
// -Wmismatched-new-delete cannot see that both halves are replaced
// together and flags the free as mismatched; the pragma scopes the
// suppression to exactly these definitions.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  ats::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ats::g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ats {
namespace {

TEST(ConcurrentPrioritySampler, RoutedBatchSteadyStateDoesNotAllocate) {
  if (!kAllocCountingEnabled) {
    GTEST_SKIP() << "allocator owned by a sanitizer";
  }
  // The routed locked path reuses thread-local partition scratch; once
  // the sample saturates and the scratch has grown, an all-rejected
  // batch must perform zero allocations.
  ConcurrentPrioritySampler conc(/*num_shards=*/8, /*k=*/32);
  const auto stream = MakeStream(20000, 101);
  conc.AddBatch(stream);

  std::vector<Item> rejected(512);
  for (size_t i = 0; i < rejected.size(); ++i) {
    rejected[i] = Item{500000 + i, 1e-12};  // far above the threshold
  }
  conc.AddBatch(rejected);  // warm the scratch for this exact batch
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 50; ++i) conc.AddBatch(rejected);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

}  // namespace
}  // namespace ats
