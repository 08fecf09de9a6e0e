// Tests for ats/core/concurrent_sampler.h: the internally thread-safe
// streaming front-ends with epoch-snapshot queries.
//
// The load-bearing property, inherited from mergeability: shard-local
// concurrent ingestion followed by a k-way merge is observationally
// identical (retained multiset, threshold, ties) to single-threaded
// ingestion of the concatenated stream -- EXACTLY, not statistically.
// The deterministic tests here drive K writer threads with fixed
// per-thread streams (and barrier schedules for mid-stream snapshots)
// and compare bit-for-bit against the single-store / sequential-sharded
// references. The reader/writer tests are the ThreadSanitizer probes:
// they exercise every lock and atomic in the epoch protocol while
// asserting snapshot invariants (the CI TSan leg runs this binary).
#include "ats/core/concurrent_sampler.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdlib>
#include <new>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/ht_estimator.h"
#include "ats/core/random.h"
#include "ats/core/sharded_sampler.h"
#include "ats/samplers/sharded_time_axis.h"
#include "ats/sketch/kmv.h"

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

  ShardedSampler sharded(8, k);
  sharded.AddBatch(stream);

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
    // And with the sequential sharded front-end (identical shard layout).
    EXPECT_DOUBLE_EQ(conc.MergedThreshold(), sharded.MergedThreshold())
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
  conc.Add(200001, 1e9);
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
        const double estimate = conc.Estimate();
        EXPECT_GE(estimate, last);
        last = estimate;
      }
    });
    for (size_t w = 0; w < writers; ++w) {
      threads.emplace_back([&conc, &slices, w] { conc.AddKeys(slices[w]); });
    }
    for (auto& t : threads) t.join();
    done.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_DOUBLE_EQ(conc.Threshold(), single.Threshold())
        << "writers=" << writers;
    EXPECT_DOUBLE_EQ(conc.Estimate(), single.Estimate())
        << "writers=" << writers;
    EXPECT_EQ(conc.MergedSize(), single.size()) << "writers=" << writers;
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

  // Sequential reference: the existing sharded front-end over the same
  // stream in global time order (identical shard seeds, routing, merge).
  ShardedWindowSampler ref(S, k, window, seed);
  ConcurrentWindowSampler conc(S, k, window, seed);
  const auto by_shard = ArrivalsByShard(conc, S, n);
  for (size_t i = 0; i < n; ++i) {
    const double time = 3.0 * static_cast<double>(i) / double(n);
    ref.Arrive(time, i);
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
    EXPECT_DOUBLE_EQ(conc.ImprovedThreshold(now), ref.ImprovedThreshold(now))
        << "now=" << now;
    EXPECT_DOUBLE_EQ(conc.GlThreshold(now), ref.GlThreshold(now))
        << "now=" << now;
    EXPECT_EQ(SortedSample(conc.ImprovedSample(now)),
              SortedSample(ref.ImprovedSample(now)))
        << "now=" << now;
    EXPECT_EQ(SortedSample(conc.GlSample(now)),
              SortedSample(ref.GlSample(now)))
        << "now=" << now;
    EXPECT_EQ(conc.MergedStoredCount(now), ref.MergedStoredCount(now))
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

  ShardedDecaySampler ref(S, k, seed);
  ref.AddBatch(stream);

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
  EXPECT_DOUBLE_EQ(conc.LogKeyThreshold(), ref.LogKeyThreshold());
  EXPECT_DOUBLE_EQ(conc.EstimateDecayedTotal(now),
                   ref.EstimateDecayedTotal(now));
  EXPECT_EQ(conc.TotalRetained(), ref.TotalRetained());
  const auto conc_sample = conc.SampleAt(now);
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
  // non-increasing across successive snapshots (shards only grow, and
  // each snapshot is epoch-consistent).
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
      ASSERT_LE(wsample.size(), window.k());
      const double total = decay.EstimateDecayedTotal(final_now);
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

  // Quiesced results still match the sequential references.
  ShardedWindowSampler wref(S, 50, 1.0, 3);
  ShardedDecaySampler dref(S, 50, 3);
  for (size_t i = 0; i < n; ++i) {
    const double time = 3.0 * static_cast<double>(i) / double(n);
    wref.Arrive(time, i);
    dref.Add(i, 1.0, 1.0, time);
  }
  EXPECT_DOUBLE_EQ(window.ImprovedThreshold(final_now),
                   wref.ImprovedThreshold(final_now));
  EXPECT_DOUBLE_EQ(decay.EstimateDecayedTotal(final_now),
                   dref.EstimateDecayedTotal(final_now));
}

// --- Wait-free writer-local ingest -------------------------------------

TEST(ConcurrentPrioritySampler, WriterLocalIngestMatchesSingleStoreExactly) {
  // Registered writers ingest through private mini-stores while a
  // drainer races them (forcing mid-stream drains, block recycling, and
  // generation resets). Coordinated priorities: the quiesced drained
  // snapshot must equal the single store EXACTLY, like the locked path.
  const size_t k = 100;
  const auto stream = MakeStream(20000, 51);

  PrioritySampler single(k, /*seed=*/1, /*coordinated=*/true);
  for (const auto& item : stream) single.Add(item.key, item.weight);

  for (size_t writers : {1u, 2u, 4u, 8u}) {
    ConcurrentPrioritySampler conc(/*num_shards=*/8, k);
    const auto slices = SliceStream(stream, writers);
    std::atomic<bool> done{false};
    std::thread drainer([&] {
      while (!done.load(std::memory_order_relaxed)) conc.Drain();
    });
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (size_t w = 0; w < writers; ++w) {
      threads.emplace_back([&conc, &slices, w] {
        auto writer = conc.RegisterWriter();
        // Chunked batches: the block cycles through the mailbox many
        // times per writer, racing the drainer's exchanges.
        const auto& slice = slices[w];
        const size_t chunk = 257;
        for (size_t i = 0; i < slice.size(); i += chunk) {
          const size_t len = std::min(chunk, slice.size() - i);
          writer.AddBatch(std::span<const Item>(slice.data() + i, len));
        }
      });
    }
    for (auto& t : threads) t.join();
    done.store(true, std::memory_order_relaxed);
    drainer.join();

    const auto merged = conc.Merged();
    EXPECT_DOUBLE_EQ(merged.threshold, single.Threshold())
        << "writers=" << writers;
    EXPECT_EQ(SortedSample(merged.entries), SortedSample(single.Sample()))
        << "writers=" << writers;
  }
}

TEST(ConcurrentPrioritySampler,
     WriterLocalBarrierSnapshotsMatchSingleStorePrefixes) {
  // The writer-local counterpart of the barrier-schedule test: at every
  // epoch boundary (all writers' round published, reader snapshots) the
  // reader-triggered drain must produce exactly the single-store sample
  // of the rounds ingested so far -- every round crosses a writer-drain
  // boundary with mini-stores mid-lifecycle.
  const size_t k = 64;
  const size_t writers = 4;
  const size_t rounds = 5;
  const size_t chunk = 500;
  const auto stream = MakeStream(writers * rounds * chunk, 61);

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
      auto writer = conc.RegisterWriter();
      for (size_t r = 0; r < rounds; ++r) {
        writer.AddBatch(chunk_of[w][r]);
        sync.arrive_and_wait();  // round published
        sync.arrive_and_wait();  // reader finished checking
      }
    });
  }

  PrioritySampler reference(k, /*seed=*/1, /*coordinated=*/true);
  for (size_t r = 0; r < rounds; ++r) {
    sync.arrive_and_wait();
    for (size_t w = 0; w < writers; ++w) {
      for (const Item& item : chunk_of[w][r]) {
        reference.Add(item.key, item.weight);
      }
    }
    const auto merged = conc.Merged();  // dirty: drains, rebuilds
    EXPECT_DOUBLE_EQ(merged.threshold, reference.Threshold())
        << "round " << r;
    EXPECT_EQ(SortedSample(merged.entries), SortedSample(reference.Sample()))
        << "round " << r;
    sync.arrive_and_wait();
  }
  for (auto& t : threads) t.join();
}

TEST(ConcurrentPrioritySampler, RetiredWriterWithPendingItemsIsDrained) {
  // A writer that goes away (handle destroyed) with published but
  // undrained mini-stores must not lose items: the next drain --
  // triggered here only by a reader finding the cache dirty -- picks
  // its mailbox up.
  const size_t k = 64;
  const auto stream = MakeStream(8000, 71);
  ConcurrentPrioritySampler conc(/*num_shards=*/4, k);
  {
    auto writer = conc.RegisterWriter();
    writer.AddBatch(stream);
  }  // retired with everything still in the mailbox

  PrioritySampler single(k, /*seed=*/1, /*coordinated=*/true);
  for (const auto& item : stream) single.Add(item.key, item.weight);

  const auto merged = conc.Merged();
  EXPECT_DOUBLE_EQ(merged.threshold, single.Threshold());
  EXPECT_EQ(SortedSample(merged.entries), SortedSample(single.Sample()));

  // And an explicit Drain() brings TotalRetained up to date the same
  // way (nothing left in any mailbox afterwards).
  conc.Drain();
  EXPECT_GE(conc.TotalRetained(), merged.entries.size());
}

TEST(ConcurrentKmvSketch, WriterLocalDuplicatesAcrossWritersCollapseExactly) {
  // Writers ingest overlapping key sets into private mini-sketches;
  // coordinated hashing makes cross-mini duplicates identical
  // priorities, which the drain's MergeMany treats as duplicate keys.
  // The quiesced union must equal the single sketch EXACTLY.
  const size_t k = 64;
  const uint64_t salt = 7;
  std::vector<uint64_t> keys(30000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i % 9000;

  KmvSketch single(k, 1.0, salt);
  single.AddKeys(keys);

  const size_t writers = 4;
  ConcurrentKmvSketch conc(/*num_shards=*/8, k, salt);
  std::vector<std::vector<uint64_t>> slices(writers);
  for (size_t i = 0; i < keys.size(); ++i) {
    slices[i % writers].push_back(keys[i]);
  }
  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&conc, &slices, w] {
      auto writer = conc.RegisterWriter();
      const auto& slice = slices[w];
      const size_t chunk = 999;
      for (size_t i = 0; i < slice.size(); i += chunk) {
        const size_t len = std::min(chunk, slice.size() - i);
        writer.AddBatch(std::span<const uint64_t>(slice.data() + i, len));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_DOUBLE_EQ(conc.Threshold(), single.Threshold());
  EXPECT_DOUBLE_EQ(conc.Estimate(), single.Estimate());
  EXPECT_EQ(conc.MergedSize(), single.size());
}

TEST(ConcurrentTimeAxis, WriterLocalSingleWriterMatchesShardedReference) {
  // One registered writer, no mid-stream drain: generation 0 of writer
  // 0 seeds its minis exactly like the authoritative shards
  // (WriterLocalSalt(0, 0) == 0), so even the RNG-drawing time-axis
  // scenarios must be bit-identical to the sequential sharded
  // references after the final drain.
  const size_t S = 8;
  const size_t k = 100;
  const double window = 1.0;
  const uint64_t seed = 5;
  const size_t n = 20000;

  ShardedWindowSampler wref(S, k, window, seed);
  ShardedDecaySampler dref(S, k, seed);
  ConcurrentWindowSampler wconc(S, k, window, seed);
  ConcurrentDecaySampler dconc(S, k, seed);

  auto wwriter = wconc.RegisterWriter();
  auto dwriter = dconc.RegisterWriter();
  Xoshiro256 rng(83);
  for (size_t i = 0; i < n; ++i) {
    const double time = 3.0 * static_cast<double>(i) / double(n);
    wref.Arrive(time, i);
    wwriter.Add({time, i});
    const double weight = std::exp(0.4 * rng.NextGaussian());
    dref.Add(i, weight, weight, time);
    dwriter.Add({i, weight, weight, time});
  }

  for (double now : {3.0, 3.4}) {
    EXPECT_DOUBLE_EQ(wconc.ImprovedThreshold(now), wref.ImprovedThreshold(now))
        << "now=" << now;
    EXPECT_EQ(SortedSample(wconc.ImprovedSample(now)),
              SortedSample(wref.ImprovedSample(now)))
        << "now=" << now;
  }
  const double now = 5.0;
  EXPECT_DOUBLE_EQ(dconc.LogKeyThreshold(), dref.LogKeyThreshold());
  EXPECT_DOUBLE_EQ(dconc.EstimateDecayedTotal(now),
                   dref.EstimateDecayedTotal(now));
}

TEST(ConcurrentTimeAxis, WriterLocalMultiWriterWindowIsValid) {
  // Multiple ROUTED window writers are unsound on the locked path (run
  // interleaving can hand a shard out-of-order times) but sound on the
  // writer-local path: each mini sees one writer's own time order.
  // Readers race the writers; every snapshot obeys the invariants.
  const size_t S = 4;
  const size_t k = 50;
  const size_t writers = 4;
  const size_t n = 12000;
  ConcurrentWindowSampler conc(S, k, /*window=*/1.0, /*seed=*/3);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto sample = conc.ImprovedSample(3.5);
      ASSERT_LE(sample.size(), k);
    }
  });
  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      auto writer = conc.RegisterWriter();
      // Writer w's own arrivals are time-ordered; across writers the
      // streams interleave arbitrarily.
      for (size_t i = w; i < n; i += writers) {
        const double time = 3.0 * static_cast<double>(i) / double(n);
        writer.Add({time, i});
      }
    });
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  conc.Drain();
  const auto sample = conc.ImprovedSample(3.5);
  EXPECT_LE(sample.size(), k);
  EXPECT_GT(conc.MergedStoredCount(3.5), 0u);
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

  // Writer-local dirtiness is part of the clean-read validation: a
  // registered writer's publication must invalidate without the reader
  // having held any lock beforehand.
  auto writer = conc.RegisterWriter();
  writer.Add(Item{999999, 1e9});
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

TEST(ConcurrentPrioritySampler, WriterLocalSteadyStateDoesNotAllocate) {
  if (!kAllocCountingEnabled) {
    GTEST_SKIP() << "allocator owned by a sanitizer";
  }
  // Without a concurrent drain stealing the block, writer-local ingest
  // recycles its block through the mailbox: after warmup (block
  // allocated, minis saturated, scratch grown), rejected batches are
  // allocation-free end to end.
  ConcurrentPrioritySampler conc(/*num_shards=*/8, /*k=*/32);
  auto writer = conc.RegisterWriter();
  const auto stream = MakeStream(20000, 111);
  writer.AddBatch(stream);

  std::vector<Item> rejected(512);
  for (size_t i = 0; i < rejected.size(); ++i) {
    rejected[i] = Item{500000 + i, 1e-12};
  }
  writer.AddBatch(rejected);  // warm
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 50; ++i) writer.AddBatch(rejected);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

}  // namespace
}  // namespace ats
