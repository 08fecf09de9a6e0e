// Query-side aggregation benchmarks (google-benchmark): the
// threshold-pruned k-way merge engine vs. the sequential pairwise-Merge
// baseline, over store inputs and serialized frames, plus the sharded
// front-end's cached queries.
//
//   ./build/bench/bench_merge
//   ./build/bench/bench_merge --json=BENCH_merge.json
//
// The headline comparisons (S = fan-in, k = capacity; items/s counts the
// S*k candidate entries an aggregation consumes):
//   * BM_MergePairwise/S/k vs BM_MergeMany/S/k -- S sequential
//     merge+compaction rounds vs one global-bound, block-prefiltered
//     selection. The ISSUE 3 acceptance bar: MergeMany >= 3x at S=64.
//   * BM_MergeFramesPairwise/S/k vs BM_MergeManyFrames/S/k -- the wire
//     fan-in: eager Deserialize+Merge per frame (materializes every
//     sketch) vs zero-copy frame views pruned at the global threshold.
//   * BM_ShardedQuery{Cold,Cached} -- the sharded front-end's
//     (ConcurrentPrioritySampler's) snapshot cache: a dirty query pays
//     one snapshot rebuild, repeat queries between ingest batches are
//     clean snapshot reads.
#include <string>
#include <string_view>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_json_main.h"

#include "ats/core/bottom_k.h"
#include "ats/core/random.h"
#include "ats/core/concurrent_sampler.h"

namespace ats {
namespace {

// Disjoint per-shard streams, saturated well past k so every input's
// threshold sits in the same band -- the paper's S-node fan-in. Each
// shard sees 8k items, so the merged threshold is ~1/S of a shard's.
std::vector<BottomK<uint64_t>> MakeShards(size_t fan_in, size_t k) {
  std::vector<BottomK<uint64_t>> shards;
  shards.reserve(fan_in);
  uint64_t id = 0;
  for (size_t s = 0; s < fan_in; ++s) {
    Xoshiro256 rng(0x9e3779b97f4a7c15ULL * (s + 1));
    BottomK<uint64_t> shard(k);
    for (size_t i = 0; i < 8 * k; ++i) {
      shard.Offer(rng.NextDoubleOpenZero(), id++);
    }
    shard.store().Canonicalize();  // inputs arrive canonical
    shards.push_back(std::move(shard));
  }
  return shards;
}

void BM_MergePairwise(benchmark::State& state) {
  const size_t fan_in = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const auto shards = MakeShards(fan_in, k);
  for (auto _ : state) {
    BottomK<uint64_t> acc(k);
    for (const auto& shard : shards) acc.Merge(shard);
    benchmark::DoNotOptimize(acc.Threshold());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fan_in * k));
}
BENCHMARK(BM_MergePairwise)->ArgsProduct({{8, 64, 512}, {256, 4096}});

void BM_MergeMany(benchmark::State& state) {
  const size_t fan_in = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const auto shards = MakeShards(fan_in, k);
  std::vector<const BottomK<uint64_t>*> inputs;
  for (const auto& shard : shards) inputs.push_back(&shard);
  for (auto _ : state) {
    BottomK<uint64_t> acc(k);
    acc.MergeMany(inputs);
    benchmark::DoNotOptimize(acc.Threshold());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fan_in * k));
}
BENCHMARK(BM_MergeMany)->ArgsProduct({{8, 64, 512}, {256, 4096}});

// --- The wire fan-in: merge S serialized sketches ---------------------

std::vector<std::string> MakeFrames(size_t fan_in, size_t k) {
  std::vector<std::string> frames;
  for (const auto& shard : MakeShards(fan_in, k)) {
    frames.push_back(shard.SerializeToString());
  }
  return frames;
}

void BM_MergeFramesPairwise(benchmark::State& state) {
  const size_t fan_in = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const auto frames = MakeFrames(fan_in, k);
  for (auto _ : state) {
    BottomK<uint64_t> acc(k);
    for (const auto& frame : frames) {
      auto sketch = BottomK<uint64_t>::Deserialize(std::string_view(frame));
      acc.Merge(*sketch);
    }
    benchmark::DoNotOptimize(acc.Threshold());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fan_in * k));
}
BENCHMARK(BM_MergeFramesPairwise)->ArgsProduct({{8, 64, 512}, {256, 4096}});

void BM_MergeManyFrames(benchmark::State& state) {
  const size_t fan_in = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const auto frames = MakeFrames(fan_in, k);
  std::vector<std::string_view> views(frames.begin(), frames.end());
  for (auto _ : state) {
    BottomK<uint64_t> acc(k);
    const bool ok = acc.MergeManyFrames(views);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(acc.Threshold());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fan_in * k));
}
BENCHMARK(BM_MergeManyFrames)->ArgsProduct({{8, 64, 512}, {256, 4096}});

// --- Sharded front-end queries: cold merge vs the epoch cache ---------

void BM_ShardedQueryCold(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  const size_t k = 1024;
  ConcurrentPrioritySampler sharded(num_shards, k);
  std::vector<PrioritySampler::Item> items(1 << 17);
  Xoshiro256 rng(2);
  uint64_t key = 0;
  for (auto& item : items) item = {key++, 1.0 + rng.NextDouble()};
  sharded.AddBatch(items);
  for (auto _ : state) {
    state.PauseTiming();
    // One accepted offer dirties its shard's epoch, forcing a rebuild
    // (a huge weight makes the coordinated priority tiny, so the offer
    // is never rejected by the saturated threshold).
    sharded.Add({key++, /*weight=*/1e9});
    state.ResumeTiming();
    benchmark::DoNotOptimize(sharded.Merged().threshold);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_shards * k));
}
BENCHMARK(BM_ShardedQueryCold)->Arg(8)->Arg(64);

void BM_ShardedQueryCached(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  const size_t k = 1024;
  ConcurrentPrioritySampler sharded(num_shards, k);
  std::vector<PrioritySampler::Item> items(1 << 17);
  Xoshiro256 rng(2);
  uint64_t key = 0;
  for (auto& item : items) item = {key++, 1.0 + rng.NextDouble()};
  sharded.AddBatch(items);
  benchmark::DoNotOptimize(sharded.Merged().threshold);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(sharded.Merged().threshold);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_shards * k));
}
BENCHMARK(BM_ShardedQueryCached)->Arg(8)->Arg(64);

}  // namespace
}  // namespace ats

ATS_BENCHMARK_JSON_MAIN("BENCH_merge.json")
