// Concurrent-tier benchmarks (google-benchmark): writer-thread scaling
// of the internally thread-safe front-end, and reader/writer mixes
// against the epoch-snapshot query path.
//
//   ./build/bench/bench_concurrent
//   ./build/bench/bench_concurrent --json=BENCH_concurrent.json
//
// The headline comparisons:
//   * BM_ConcurrentIngest/T          -- T writer threads drive the
//     routed AddBatch entry point (striped shard locks, contended);
//     T=1 is the single-writer baseline the scaling is judged against,
//     and the headline number the multi-core CI job gates on:
//     throughput(T)/throughput(1) >= 0.5 * min(T, cores) at every T.
//   * BM_ConcurrentShardOwnedIngest/T -- the zero-contention upper
//     bound: writers own disjoint shards and use AddShardBatch.
//   * BM_ConcurrentReadWriteMix/R    -- 4 writers ingest while R
//     readers hammer snapshot queries; items/sec counts writer
//     progress, so the number shows what reads cost the ingest path
//     (on a clean cache: one shared_ptr load + S atomic compares).
//   * BM_ConcurrentSnapshotClean     -- the clean-cache query itself.
//   * BM_ConcurrentSnapshotRebuild/A -- the dirty-cache query (rebuild):
//     A=0 one accepted item per read, A=1 a fresh 4096-item chunk.
//
// All multi-threaded benches use real time: thread scaling is a
// wall-clock property, CPU time sums across workers.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_json_main.h"

#include "ats/core/concurrent_sampler.h"
#include "ats/core/random.h"

namespace ats {
namespace {

constexpr size_t kStreamLen = 1 << 17;
constexpr size_t kShards = 32;  // 2x the max writer count: stripes stay spread
constexpr size_t kK = 1024;

using Item = PrioritySampler::Item;

std::vector<Item> MakeItems(uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Item> out(kStreamLen);
  uint64_t key = 0;
  for (auto& item : out) {
    item.key = key++;
    item.weight = 1.0 + rng.NextDouble();
  }
  return out;
}

// Round-robin fixed per-writer slices; cut once per benchmark.
std::vector<std::vector<Item>> Slices(const std::vector<Item>& items,
                                      size_t writers) {
  std::vector<std::vector<Item>> slices(writers);
  for (auto& s : slices) s.reserve(items.size() / writers + 1);
  for (size_t i = 0; i < items.size(); ++i) {
    slices[i % writers].push_back(items[i]);
  }
  return slices;
}

// --- Writer-thread sweep over the routed (contended) entry point ------

void BM_ConcurrentIngest(benchmark::State& state) {
  const size_t writers = static_cast<size_t>(state.range(0));
  const auto items = MakeItems(2);
  const auto slices = Slices(items, writers);
  for (auto _ : state) {
    ConcurrentPrioritySampler conc(kShards, kK);
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (size_t w = 0; w < writers; ++w) {
      threads.emplace_back(
          [&conc, &slices, w] { conc.AddBatch(slices[w]); });
    }
    for (auto& t : threads) t.join();
    benchmark::DoNotOptimize(conc.TotalRetained());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStreamLen));
}
BENCHMARK(BM_ConcurrentIngest)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->UseRealTime();

// --- Zero-contention upper bound: per-writer shard ownership ----------

void BM_ConcurrentShardOwnedIngest(benchmark::State& state) {
  const size_t writers = static_cast<size_t>(state.range(0));
  const auto items = MakeItems(2);
  // Pre-partition by shard (the routing cost is measured by
  // BM_ConcurrentIngest); writer w owns shards s with s % writers == w.
  ConcurrentPrioritySampler router(kShards, kK);
  std::vector<std::vector<Item>> by_shard(kShards);
  for (const auto& item : items) {
    by_shard[router.ShardOf(item.key)].push_back(item);
  }
  for (auto _ : state) {
    ConcurrentPrioritySampler conc(kShards, kK);
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (size_t w = 0; w < writers; ++w) {
      threads.emplace_back([&conc, &by_shard, w, writers] {
        for (size_t s = w; s < kShards; s += writers) {
          conc.AddShardBatch(s, by_shard[s]);
        }
      });
    }
    for (auto& t : threads) t.join();
    benchmark::DoNotOptimize(conc.TotalRetained());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStreamLen));
}
BENCHMARK(BM_ConcurrentShardOwnedIngest)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->UseRealTime();

// --- Reader/writer mix ------------------------------------------------

void BM_ConcurrentReadWriteMix(benchmark::State& state) {
  const size_t readers = static_cast<size_t>(state.range(0));
  const size_t writers = 4;
  const auto items = MakeItems(2);
  const auto slices = Slices(items, writers);
  for (auto _ : state) {
    ConcurrentPrioritySampler conc(kShards, kK);
    std::atomic<bool> done{false};
    std::vector<std::thread> reader_threads;
    reader_threads.reserve(readers);
    for (size_t r = 0; r < readers; ++r) {
      reader_threads.emplace_back([&conc, &done] {
        while (!done.load(std::memory_order_relaxed)) {
          benchmark::DoNotOptimize(conc.Snapshot()->Threshold());
        }
      });
    }
    std::vector<std::thread> writer_threads;
    writer_threads.reserve(writers);
    for (size_t w = 0; w < writers; ++w) {
      writer_threads.emplace_back(
          [&conc, &slices, w] { conc.AddBatch(slices[w]); });
    }
    for (auto& t : writer_threads) t.join();
    done.store(true, std::memory_order_relaxed);
    for (auto& t : reader_threads) t.join();
    benchmark::DoNotOptimize(conc.TotalRetained());
  }
  // Counts WRITER progress: the metric is what concurrent readers cost
  // the ingest path.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStreamLen));
}
BENCHMARK(BM_ConcurrentReadWriteMix)->Arg(1)->Arg(4)->UseRealTime();

// --- Snapshot query paths ---------------------------------------------

void BM_ConcurrentSnapshotClean(benchmark::State& state) {
  ConcurrentPrioritySampler conc(kShards, kK);
  const auto items = MakeItems(2);
  conc.AddBatch(items);
  conc.Snapshot();  // build the cache once
  for (auto _ : state) {
    benchmark::DoNotOptimize(conc.Snapshot()->Threshold());
  }
}
BENCHMARK(BM_ConcurrentSnapshotClean);

void BM_ConcurrentSnapshotRebuild(benchmark::State& state) {
  // Dirty-cache query: every read finds an epoch moved, so each pays the
  // rebuild -- one pre-filtered gather per shard under its lock, pruned
  // at the previous snapshot's threshold, then one purge. Arg 0 accepts
  // one heavy item between reads: nearly nothing clears the prune (its
  // best case). Arg 1 ingests a fresh 4096-item chunk of new keys
  // between reads, like the perfbench ladder's rebuild rung: the realistic
  // case, where every shard gains candidates below the old threshold.
  // Only the Snapshot() call is timed.
  const bool fresh_chunks = state.range(0) != 0;
  ConcurrentPrioritySampler conc(kShards, kK);
  const auto items = MakeItems(2);
  conc.AddBatch(items);
  conc.Snapshot();
  Xoshiro256 rng(3);
  std::vector<Item> chunk(fresh_chunks ? 4096 : 1);
  uint64_t key = kStreamLen;
  for (auto _ : state) {
    state.PauseTiming();
    for (Item& item : chunk) {
      item = fresh_chunks ? Item{key++, 1.0 + rng.NextDouble()}
                          : Item{key++, 1e9};  // heavy: always accepted
    }
    conc.AddBatch(chunk);
    state.ResumeTiming();
    benchmark::DoNotOptimize(conc.Snapshot()->Threshold());
  }
}
BENCHMARK(BM_ConcurrentSnapshotRebuild)->Arg(0)->Arg(1);

}  // namespace
}  // namespace ats

ATS_BENCHMARK_JSON_MAIN("BENCH_concurrent.json")
