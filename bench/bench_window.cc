// Time-axis sampler benchmarks (google-benchmark): the SampleStore-backed
// sliding window and time-decay samplers, their batched ingest paths, the
// k-way merges, and the sharded front-end's snapshot cache.
//
//   ./build/bench/bench_window
//   ./build/bench/bench_window --json=BENCH_window.json
//
// Headline comparisons:
//   * BM_DecayAddScalar/k vs BM_DecayAddBatch/k -- the fused log-key
//     column + block-prefiltered batch path vs per-item Add on the
//     saturated decayed stream.
//   * BM_DecayMergePairwise/S/k vs BM_DecayMergeMany/S/k -- the decayed
//     fan-in through the threshold-pruned one-shot engine vs S
//     sequential merge rounds (the PR-3 speedup, now for decayed
//     samples).
//   * BM_WindowFramesEager/S/k vs BM_WindowFramesViews/S/k -- the
//     windowed wire fan-in: Deserialize + Merge materializes a sampler
//     per frame; MergeManyFrames folds zero-copy views through the same
//     pairwise core (the windowed rule is clock-sensitive, so there is
//     no one-shot shortcut to compare -- see sliding_window.h).
//   * BM_ShardedWindowQuery{Cold,Cached} / BM_ShardedDecayQueryCached --
//     the sharded front-end's (ConcurrentWindowSampler's and
//     ConcurrentDecaySampler's) snapshot cache: repeat queries between
//     ingest batches reuse the snapshot (a window query still copies it,
//     since window queries advance expiry).
#include <algorithm>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_json_main.h"

#include "ats/core/concurrent_sampler.h"
#include "ats/core/random.h"
#include "ats/samplers/sliding_window.h"
#include "ats/samplers/time_decay.h"

namespace ats {
namespace {

// A saturated windowed stream: n arrivals at unit rate over `horizon`
// time units, ids dense.
SlidingWindowSampler MakeWindow(size_t k, double window, size_t n,
                                uint64_t seed) {
  SlidingWindowSampler sampler(k, window, seed);
  for (size_t i = 0; i < n; ++i) {
    sampler.Arrive(static_cast<double>(i) / 1000.0, i);
  }
  return sampler;
}

void BM_WindowArrive(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    SlidingWindowSampler sampler(k, 1.0, 42);
    for (size_t i = 0; i < 20000; ++i) {
      sampler.Arrive(static_cast<double>(i) / 1000.0, i);
    }
    benchmark::DoNotOptimize(sampler.StoredCount(20.0));
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_WindowArrive)->Arg(64)->Arg(512);

// The rate == k operating point: arrivals spaced window/k apart, so the
// window holds ~k items, the sample never saturates (every arrival is
// accepted) and nearly every arrival expires exactly one predecessor.
// This is the dead-prefix reclamation hot path (CleanupDeadPrefix, a
// prefix SampleStore::Erase) -- the regime where the classic deque-backed
// G&L design wins on O(1) physical front-pops, which
// BM_WindowArriveBoundaryDequeRef below reproduces as the baseline the
// store-backed sampler must stay at parity with.
void BM_WindowArriveBoundary(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const double dt = 1.0 / static_cast<double>(k);
  for (auto _ : state) {
    SlidingWindowSampler sampler(k, 1.0, 42);
    for (size_t i = 0; i < 20000; ++i) {
      sampler.Arrive(static_cast<double>(i) * dt, i);
    }
    benchmark::DoNotOptimize(
        sampler.StoredCount(20000.0 * dt));
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_WindowArriveBoundary)->Arg(64)->Arg(512);

// Reference implementation of the pre-adaptive-threshold design: the
// same sampling rule, but items live in a std::deque so window expiry is
// a physical O(1) pop_front per item. Exists only as the bench baseline
// for the rate == k boundary.
class DequeWindowReference {
 public:
  struct Item {
    uint64_t id;
    double time;
    double priority;
    double threshold;
  };

  DequeWindowReference(size_t k, double window, uint64_t seed)
      : k_(k), window_(window), rng_(seed) {}

  bool Arrive(double time, uint64_t id) {
    const double cutoff = time - window_;
    while (!items_.empty() && items_.front().time <= cutoff) {
      expired_.push_back(items_.front());
      items_.pop_front();
    }
    const double drop = time - 2.0 * window_;
    while (!expired_.empty() && expired_.front().time <= drop) {
      expired_.pop_front();
    }
    const double priority = rng_.NextDoubleOpenZero();
    double threshold = 1.0;
    if (items_.size() >= k_) {
      double m1 = 0.0, m2 = 0.0;
      for (const Item& it : items_) {
        if (it.priority > m1) {
          m2 = m1;
          m1 = it.priority;
        } else if (it.priority > m2) {
          m2 = it.priority;
        }
      }
      threshold = priority >= m1 ? m1 : std::max(m2, priority);
    }
    if (priority >= threshold) return false;
    if (items_.size() >= k_) {
      for (Item& it : items_) {
        it.threshold = std::min(it.threshold, threshold);
      }
      auto evict = items_.begin();
      for (auto it = items_.begin(); it != items_.end(); ++it) {
        if (it->priority > evict->priority) evict = it;
      }
      items_.erase(evict);
    }
    items_.push_back(Item{id, time, priority, threshold});
    return true;
  }

  size_t StoredCount() const { return items_.size() + expired_.size(); }

 private:
  size_t k_;
  double window_;
  Xoshiro256 rng_;
  std::deque<Item> items_;
  std::deque<Item> expired_;
};

void BM_WindowArriveBoundaryDequeRef(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const double dt = 1.0 / static_cast<double>(k);
  for (auto _ : state) {
    DequeWindowReference sampler(k, 1.0, 42);
    for (size_t i = 0; i < 20000; ++i) {
      sampler.Arrive(static_cast<double>(i) * dt, i);
    }
    benchmark::DoNotOptimize(sampler.StoredCount());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_WindowArriveBoundaryDequeRef)->Arg(64)->Arg(512);

void BM_DecayAddScalar(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Xoshiro256 data(7);
  std::vector<TimeDecaySampler::TimedItem> items(100000);
  for (size_t i = 0; i < items.size(); ++i) {
    items[i] = {i, 0.5 + data.NextDouble(), 1.0,
                static_cast<double>(i) / 10000.0};
  }
  for (auto _ : state) {
    TimeDecaySampler sampler(k, 3);
    for (const auto& it : items) {
      sampler.Add(it.key, it.weight, it.value, it.time);
    }
    benchmark::DoNotOptimize(sampler.LogKeyThreshold());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_DecayAddScalar)->Arg(256)->Arg(4096);

void BM_DecayAddBatch(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Xoshiro256 data(7);
  std::vector<TimeDecaySampler::TimedItem> items(100000);
  for (size_t i = 0; i < items.size(); ++i) {
    items[i] = {i, 0.5 + data.NextDouble(), 1.0,
                static_cast<double>(i) / 10000.0};
  }
  for (auto _ : state) {
    TimeDecaySampler sampler(k, 3);
    sampler.AddBatch(items);
    benchmark::DoNotOptimize(sampler.LogKeyThreshold());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_DecayAddBatch)->Arg(256)->Arg(4096);

// Disjoint decayed shard streams, saturated well past k.
std::vector<TimeDecaySampler> MakeDecayShards(size_t fan_in, size_t k) {
  std::vector<TimeDecaySampler> shards;
  shards.reserve(fan_in);
  uint64_t id = 0;
  for (size_t s = 0; s < fan_in; ++s) {
    TimeDecaySampler shard(k, 0x9e3779b97f4a7c15ULL * (s + 1));
    Xoshiro256 rng(s + 1);
    for (size_t i = 0; i < 8 * k; ++i) {
      shard.Add(id++, 0.5 + rng.NextDouble(), 1.0,
                static_cast<double>(i) / 1000.0);
    }
    shards.push_back(std::move(shard));
  }
  return shards;
}

void BM_DecayMergePairwise(benchmark::State& state) {
  const size_t fan_in = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const auto shards = MakeDecayShards(fan_in, k);
  for (auto _ : state) {
    TimeDecaySampler acc(k, 1);
    for (const auto& shard : shards) acc.Merge(shard);
    benchmark::DoNotOptimize(acc.LogKeyThreshold());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fan_in * k));
}
BENCHMARK(BM_DecayMergePairwise)->ArgsProduct({{8, 64}, {256, 4096}});

void BM_DecayMergeMany(benchmark::State& state) {
  const size_t fan_in = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const auto shards = MakeDecayShards(fan_in, k);
  std::vector<const TimeDecaySampler*> inputs;
  for (const auto& shard : shards) inputs.push_back(&shard);
  for (auto _ : state) {
    TimeDecaySampler acc(k, 1);
    acc.MergeMany(inputs);
    benchmark::DoNotOptimize(acc.LogKeyThreshold());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fan_in * k));
}
BENCHMARK(BM_DecayMergeMany)->ArgsProduct({{8, 64}, {256, 4096}});

// Windowed wire fan-in: S shard frames over a shared timeline.
std::vector<std::string> MakeWindowFrames(size_t fan_in, size_t k) {
  std::vector<std::string> frames;
  frames.reserve(fan_in);
  for (size_t s = 0; s < fan_in; ++s) {
    frames.push_back(
        MakeWindow(k, 1.0, 4 * k, 0x51ULL * (s + 1)).SerializeToString());
  }
  return frames;
}

void BM_WindowFramesEager(benchmark::State& state) {
  const size_t fan_in = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const auto frames = MakeWindowFrames(fan_in, k);
  for (auto _ : state) {
    SlidingWindowSampler acc(k, 1.0, 1);
    for (const auto& frame : frames) {
      auto in = SlidingWindowSampler::Deserialize(std::string_view(frame));
      acc.Merge(*in);
    }
    benchmark::DoNotOptimize(acc.ImprovedThreshold(acc.last_time()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fan_in * k));
}
BENCHMARK(BM_WindowFramesEager)->ArgsProduct({{8, 64}, {64, 512}});

void BM_WindowFramesViews(benchmark::State& state) {
  const size_t fan_in = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const auto frames = MakeWindowFrames(fan_in, k);
  std::vector<std::string_view> views(frames.begin(), frames.end());
  for (auto _ : state) {
    SlidingWindowSampler acc(k, 1.0, 1);
    const bool ok = acc.MergeManyFrames(views);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(acc.ImprovedThreshold(acc.last_time()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fan_in * k));
}
BENCHMARK(BM_WindowFramesViews)->ArgsProduct({{8, 64}, {64, 512}});

void BM_ShardedWindowQueryCold(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  const size_t k = 256;
  ConcurrentWindowSampler sharded(num_shards, k, 1.0, 5);
  for (size_t i = 0; i < 40000; ++i) {
    sharded.Add({static_cast<double>(i) / 2000.0, i});
  }
  const double now = 20.0;
  uint64_t extra = 1000000;
  for (auto _ : state) {
    // One arrival between queries keeps the cache dirty: every query
    // pays the full k-way rebuild.
    state.PauseTiming();
    sharded.Add({now, extra++});
    state.ResumeTiming();
    benchmark::DoNotOptimize(sharded.ImprovedThreshold(now));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_shards * k));
}
BENCHMARK(BM_ShardedWindowQueryCold)->Arg(8);

void BM_ShardedWindowQueryCached(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  const size_t k = 256;
  ConcurrentWindowSampler sharded(num_shards, k, 1.0, 5);
  for (size_t i = 0; i < 40000; ++i) {
    sharded.Add({static_cast<double>(i) / 2000.0, i});
  }
  const double now = 20.0;
  benchmark::DoNotOptimize(sharded.ImprovedThreshold(now));  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(sharded.ImprovedThreshold(now));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_shards * k));
}
BENCHMARK(BM_ShardedWindowQueryCached)->Arg(8);

void BM_ShardedDecayQueryCached(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  const size_t k = 256;
  ConcurrentDecaySampler sharded(num_shards, k, 5);
  Xoshiro256 rng(9);
  std::vector<TimeDecaySampler::TimedItem> items(40000);
  uint64_t key = 0;
  for (auto& item : items) {
    item = {key++, 0.5 + rng.NextDouble(), 1.0,
            static_cast<double>(key) / 2000.0};
  }
  sharded.AddBatch(items);
  sharded.Snapshot();  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(sharded.Snapshot()->EstimateDecayedTotal(20.0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_shards * k));
}
BENCHMARK(BM_ShardedDecayQueryCached)->Arg(8);

}  // namespace
}  // namespace ats

ATS_BENCHMARK_JSON_MAIN("BENCH_window.json")
