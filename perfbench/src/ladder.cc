// The per-layer ladder: one seeded stream per family, replayed through
// each layer on its own, bottom up, so each rung's cost and the delta it
// adds over the rung below can be read off directly:
//
//   simd kernel -> SampleStore::OfferBatch -> sampler AddBatch ->
//   ShardedSampler::AddBatch -> concurrent routed AddBatch ->
//   writer-local ingest, then Drain -> SerializeToString ->
//   DeserializeView -> MergeManyFrames -> CKP1 Write / OpenView /
//   RestoreFromCheckpoint -> ClusterSim::Tick
//
// Streams: the priority rungs replay the first 256 k items of
// subset_sum_concurrent's stream, the hashed/KMV, wire and persist rungs
// agent 0's Zipf keys from distinct_fanin's first run, and the window
// rungs the first 256 k arrivals of window_monitor's stream. Each rung
// reports the median of several repetitions.
#include <bit>
#include <filesystem>
#include <thread>

#include "ats/core/sharded_sampler.h"
#include "ats/core/simd/simd_dispatch.h"
#include "ats/persist/checkpoint.h"
#include "ats/samplers/sharded_time_axis.h"
#include "ats/sketch/kmv.h"
#include "ats/workload/zipf.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Item = ats::PrioritySampler::Item;

constexpr size_t kLadderItems = 256 * kPriorityK;  // 1M: steady state
constexpr int kReps = 5;
constexpr unsigned kMaxThreads = 3;  // t1..t3 rungs

// Results of timed loops land here, so no loop is dead code.
volatile double g_sink = 0.0;

// Median wall time of `reps` calls of fn(), in ns.
template <typename Fn>
double MedianNs(int reps, Fn&& fn) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    fn();
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(ns);
}

// Sets `name` unless the traced workload run already measured it.
void SetIfAbsent(Result* result, const std::string& name, double value,
                 const std::string& unit) {
  if (result->metrics.count(name) == 0) result->Set(name, value, unit);
}

// Runs fn(t) on `threads` threads started together; returns wall ns.
template <typename Fn>
double Parallel(unsigned threads, Fn&& fn) {
  StartGate gate;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      gate.Arrive();
      fn(t);
    });
  }
  gate.Open(static_cast<int>(threads));
  const int64_t t0 = NowNs();
  for (auto& th : pool) th.join();
  return static_cast<double>(NowNs() - t0);
}

void PriorityRungs(const RunConfig& config, Result* result) {
  // subset_sum_concurrent's stream from its start (episode 0).
  const auto base = MakeParetoItems(kPriorityBaseItems, config.seed);
  std::vector<Item> items;
  items.reserve(kLadderItems);
  std::vector<Item> chunk_buf;
  for (uint64_t c = 0; c < kLadderItems / kChunk; ++c) {
    FillPriorityChunk(base, c, &chunk_buf);
    items.insert(items.end(), chunk_buf.begin(), chunk_buf.end());
  }
  std::vector<double> prios(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    prios[i] = ats::PriorityDist::WeightedUniform(items[i].weight)
                   .FromHash(ats::HashKey(items[i].key));
  }
  const double n = static_cast<double>(items.size());
  const size_t chunks = items.size() / kChunk;
  auto chunk = [&](size_t c) {
    return std::span<const Item>(items.data() + c * kChunk, kChunk);
  };
  double sink = 0.0;

  ats::PrioritySampler sampler(kPriorityK, config.seed, true);
  const double sampler_ns = MedianNs(kReps, [&] {
    sampler = ats::PrioritySampler(kPriorityK, config.seed, true);
    for (size_t c = 0; c < chunks; ++c) sampler.AddBatch(chunk(c));
  });
  const double tau = sampler.Threshold();

  const auto& kernels = ats::simd::ActiveKernels();
  const double simd_ns = MedianNs(kReps, [&] {
    uint64_t hits = 0;
    for (size_t i = 0; i + 64 <= prios.size(); i += 64) {
      hits += static_cast<uint64_t>(
          std::popcount(kernels.prefilter_mask64(prios.data() + i, tau)));
    }
    sink += static_cast<double>(hits);
  });

  size_t accepted = 0;
  const double store_ns = MedianNs(kReps, [&] {
    ats::SampleStore<Item> store(kPriorityK);
    accepted = 0;
    for (size_t c = 0; c < chunks; ++c) {
      accepted += store.OfferBatch(
          std::span<const double>(prios.data() + c * kChunk, kChunk),
          chunk(c));
    }
  });

  ats::ShardedSampler sharded(kShards, kPriorityK, true, config.seed);
  const double sharded_ns = MedianNs(kReps, [&] {
    sharded = ats::ShardedSampler(kShards, kPriorityK, true, config.seed);
    for (size_t c = 0; c < chunks; ++c) sharded.AddBatch(chunk(c));
  });
  std::vector<const ats::SampleStore<Item>*> stores;
  for (size_t s = 0; s < kShards; ++s) {
    stores.push_back(&sharded.shard(s).sketch().store());
    stores.back()->Canonicalize();
  }
  const double merge_ns = MedianNs(4 * kReps + 1, [&] {
    ats::SampleStore<Item> out(kPriorityK);
    out.MergeMany(stores);
    sink += out.Threshold();
  });

  result->Set("simd.prefilter_ns_per_item", simd_ns / n, "ns/item");
  result->Set("store.offer_batch_ns_per_item", store_ns / n, "ns/item");
  result->Set("store.accept_ratio", static_cast<double>(accepted) / n,
              "ratio");
  result->Set("store.merge_many_us", merge_ns / 1e3, "us");
  result->Set("sampler.priority_add_batch_ns_per_item", sampler_ns / n,
              "ns/item");
  result->Set("sharded.priority_add_batch_ns_per_item", sharded_ns / n,
              "ns/item");

  // Concurrent routed, then writer-local, at 1..3 writer threads. Thread
  // t takes chunks t, t+T, t+2T, ...
  double routed_t1 = 0.0, writer_t1 = 0.0;
  for (unsigned threads = 1; threads <= kMaxThreads; ++threads) {
    const std::string tag = ".t" + std::to_string(threads);
    std::vector<double> routed, ingest, drain, calls_us;
    double locks_per_batch = 0.0;
    for (int r = 0; r < kReps; ++r) {
      ats::ConcurrentPrioritySampler cs(kShards, kPriorityK, true,
                                        config.seed);
      const uint64_t locks0 = cs.LockAcquisitionsForTest();
      routed.push_back(Parallel(threads, [&](unsigned t) {
        for (size_t c = t; c < chunks; c += threads) {
          const int64_t a = NowNs();
          cs.AddBatch(chunk(c));
          if (threads == 1) {
            calls_us.push_back(static_cast<double>(NowNs() - a) / 1e3);
          }
        }
      }));
      locks_per_batch =
          static_cast<double>(cs.LockAcquisitionsForTest() - locks0) /
          static_cast<double>(chunks);

      ats::ConcurrentPrioritySampler wl(kShards, kPriorityK, true,
                                        config.seed);
      std::vector<ats::ConcurrentPrioritySampler::Writer> writers;
      for (unsigned t = 0; t < threads; ++t) {
        writers.push_back(wl.RegisterWriter());
      }
      ingest.push_back(Parallel(threads, [&](unsigned t) {
        for (size_t c = t; c < chunks; c += threads) {
          writers[t].AddBatch(chunk(c));
        }
      }));
      drain.push_back(MedianNs(1, [&] { wl.Drain(); }));
      result->Check(wl.Snapshot()->Threshold() == tau &&
                        cs.Snapshot()->Threshold() == tau,
                    "ladder: concurrent threshold != single sampler" + tag);
    }
    const double routed_ns = Median(routed) / n;
    const double writer_ns = Median(ingest) / n;
    result->Set("concurrent.routed_ns_per_item" + tag, routed_ns, "ns/item");
    result->Set("concurrent.writer_local_ingest_ns_per_item" + tag,
                writer_ns, "ns/item");
    result->Set("concurrent.drain_ms" + tag, Median(drain) / 1e6, "ms");
    if (threads == 1) {
      routed_t1 = routed_ns;
      writer_t1 = writer_ns;
      result->Set("concurrent.lock_acquisitions_per_batch", locks_per_batch,
                  "count");
      SetIfAbsent(result, "concurrent.add_batch_p99_us",
                  Quantile(calls_us, 0.99), "us");
    }
  }

  // Snapshot read path: a clean read, then rebuilds forced by one fresh
  // chunk of new keys (the stream's second pass) before each read.
  ats::ConcurrentPrioritySampler cs(kShards, kPriorityK, true, config.seed);
  for (size_t c = 0; c < chunks; ++c) cs.AddBatch(chunk(c));
  auto last = cs.Snapshot();
  const double clean_ns = MedianNs(2 * kReps + 1, [&] {
    for (int i = 0; i < 1000; ++i) sink += cs.Snapshot()->k();
  });
  result->Set("concurrent.snapshot_clean_ns", clean_ns / 1000.0, "ns");
  std::vector<double> rebuild_us;
  std::vector<Item> fresh;
  const int reads = 64;
  for (int i = 0; i < reads; ++i) {
    FillPriorityChunk(base, chunks + static_cast<uint64_t>(i), &fresh);
    cs.AddBatch(fresh);
    const int64_t a = NowNs();
    auto snap = cs.Snapshot();
    const double us = static_cast<double>(NowNs() - a) / 1e3;
    if (snap != last) rebuild_us.push_back(us);
    last = snap;
  }
  SetIfAbsent(result, "concurrent.snapshot_rebuild_us.p50",
              Median(rebuild_us), "us");
  SetIfAbsent(result, "concurrent.snapshot_rebuild_us.p99",
              Quantile(rebuild_us, 0.99), "us");
  SetIfAbsent(result, "concurrent.rebuild_share",
              static_cast<double>(rebuild_us.size()) / reads, "ratio");

  result->Set("ladder.delta.store", (store_ns - simd_ns) / n, "ns/item");
  result->Set("ladder.delta.sampler", (sampler_ns - store_ns) / n,
              "ns/item");
  result->Set("ladder.delta.sharded", (sharded_ns - sampler_ns) / n,
              "ns/item");
  result->Set("ladder.delta.concurrent", routed_t1 - sharded_ns / n,
              "ns/item");
  result->Set("ladder.delta.writer_local", writer_t1 - routed_t1, "ns/item");
  g_sink = g_sink + sink;
}

void KmvRungs(const RunConfig& config, Result* result) {
  // Agent 0 of distinct_fanin's first run, extended to the ladder length.
  const uint64_t sim_seed = ats::Mix64(config.seed);
  const ats::cluster::ClusterConfig cc = FaninConfig(sim_seed, "");
  ats::ZipfGenerator zipf(cc.universe, cc.zipf_s,
                          sim_seed + 0x9e3779b97f4a7c15ull);
  std::vector<uint64_t> keys(kLadderItems);
  for (auto& k : keys) k = zipf.Next();
  const double n = static_cast<double>(keys.size());
  const size_t chunks = keys.size() / kChunk;
  auto chunk = [&](size_t c) {
    return std::span<const uint64_t>(keys.data() + c * kChunk, kChunk);
  };
  double sink = 0.0;

  ats::KmvSketch kmv(cc.k, 1.0, cc.hash_salt);
  const double kmv_ns = MedianNs(kReps, [&] {
    kmv = ats::KmvSketch(cc.k, 1.0, cc.hash_salt);
    for (size_t c = 0; c < chunks; ++c) kmv.AddKeys(chunk(c));
  });
  const double theta = kmv.Threshold();
  const auto& kernels = ats::simd::ActiveKernels();
  const double hash_ns = MedianNs(kReps, [&] {
    alignas(64) double out[64];
    uint64_t hits = 0;
    for (size_t i = 0; i + 64 <= keys.size(); i += 64) {
      hits += static_cast<uint64_t>(std::popcount(kernels.hash_priority_mask64(
          keys.data() + i, cc.hash_salt, theta, out)));
    }
    sink += static_cast<double>(hits);
  });
  const double hashed_ns = MedianNs(kReps, [&] {
    ats::SampleStore<uint64_t> store(cc.k, 1.0);
    for (size_t c = 0; c < chunks; ++c) {
      store.HashedBatchOffer(chunk(c), cc.hash_salt);
    }
    sink += store.Threshold();
  });
  result->Set("simd.hash_priority_ns_per_item", hash_ns / n, "ns/item");
  result->Set("store.hashed_offer_ns_per_item", hashed_ns / n, "ns/item");
  result->Set("sampler.kmv_add_keys_ns_per_item", kmv_ns / n, "ns/item");
  result->Set("ladder.delta.hashed_store", (hashed_ns - hash_ns) / n,
              "ns/item");
  result->Set("ladder.delta.kmv", (kmv_ns - hashed_ns) / n, "ns/item");

  // Wire: the stream split across the cluster's agents, one frame each.
  const size_t agents = cc.num_agents;
  std::vector<ats::KmvSketch> sketches;
  for (size_t a = 0; a < agents; ++a) {
    sketches.emplace_back(cc.k, 1.0, cc.hash_salt);
    const size_t per = keys.size() / agents;
    sketches.back().AddKeys(
        std::span<const uint64_t>(keys.data() + a * per, per));
  }
  std::vector<std::string> frames(agents);
  const double ser_ns = MedianNs(4 * kReps + 1, [&] {
    for (size_t a = 0; a < agents; ++a) {
      frames[a] = sketches[a].SerializeToString();
    }
  });
  double frame_bytes = 0.0;
  for (const auto& f : frames) frame_bytes += static_cast<double>(f.size());
  const std::vector<std::string_view> views(frames.begin(), frames.end());
  const double view_ns = MedianNs(4 * kReps + 1, [&] {
    for (const auto v : views) {
      sink += static_cast<double>(ats::KmvSketch::DeserializeView(v)->size());
    }
  });
  ats::KmvSketch root(cc.k, 1.0, cc.hash_salt);
  const double merge_ns = MedianNs(4 * kReps + 1, [&] {
    root = ats::KmvSketch(cc.k, 1.0, cc.hash_salt);
    result->Check(root.MergeManyFrames(views), "ladder: MergeManyFrames");
  });
  result->Set("wire.kmv_serialize_us", ser_ns / 1e3 / agents, "us");
  result->Set("wire.kmv_view_us", view_ns / 1e3 / agents, "us");
  result->Set("wire.kmv_merge_frames_us", merge_ns / 1e3, "us");
  result->Set("wire.frame_bytes", frame_bytes / agents, "bytes");

  // Persist: the merged root frame through CKP1.
  const std::string frame = root.SerializeToString();
  const std::string path = config.out_dir + "/ladder.ckp";
  using ats::persist::CheckpointFault;
  const double write_ns = MedianNs(2 * kReps + 1, [&] {
    result->Check(ats::persist::CheckpointWriter::Write(
                      path, ats::persist::SchemeKind::kKmv, 1, frame) ==
                      CheckpointFault::kNone,
                  "ladder: checkpoint write");
  });
  auto open_ns = [&](ats::persist::OpenMode mode) {
    return MedianNs(4 * kReps + 1, [&] {
      ats::persist::CheckpointReader reader;
      const bool ok =
          ats::persist::CheckpointReader::Open(path, &reader, mode) ==
              CheckpointFault::kNone &&
          ats::KmvSketch::DeserializeView(reader.payload()).has_value();
      result->Check(ok, "ladder: checkpoint open");
    });
  };
  const double view_open_ns = open_ns(ats::persist::OpenMode::kPreferMmap);
  const double buffered_ns = open_ns(ats::persist::OpenMode::kBuffered);
  ats::KmvSketch restored(cc.k, 1.0, cc.hash_salt);
  const double restore_ns = MedianNs(4 * kReps + 1, [&] {
    result->Check(ats::persist::RestoreFromCheckpoint(
                      path, ats::persist::SchemeKind::kKmv, &restored) ==
                      CheckpointFault::kNone,
                  "ladder: checkpoint restore");
  });
  result->Check(restored.SerializeToString() == frame,
                "ladder: restored checkpoint != written frame");
  std::filesystem::remove(path);
  result->Set("persist.write_us", write_ns / 1e3, "us");
  result->Set("persist.open_view_us", view_open_ns / 1e3, "us");
  result->Set("persist.open_buffered_us", buffered_ns / 1e3, "us");
  result->Set("persist.restore_us", restore_ns / 1e3, "us");
  g_sink = g_sink + sink;
}

void WindowRungs(const RunConfig& config, Result* result) {
  // A shorter stream: a full-sample arrival scans the current set.
  const ArrivalBase base = MakeArrivals(kLadderItems / 4, config.seed);
  const double n = static_cast<double>(base.arrivals.size());
  const double single_ns = MedianNs(kReps, [&] {
    ats::SlidingWindowSampler w(kWindowK, kWindowLength, config.seed);
    for (const auto& a : base.arrivals) w.Arrive(a.time, a.id);
  });
  const double sharded_ns = MedianNs(kReps, [&] {
    ats::ShardedWindowSampler w(kShards, kWindowK, kWindowLength,
                                config.seed);
    for (const auto& a : base.arrivals) w.Arrive(a.time, a.id);
  });
  result->Set("sampler.window_arrive_ns_per_item", single_ns / n, "ns/item");
  result->Set("sharded.window_arrive_ns_per_item", sharded_ns / n,
              "ns/item");
  result->Set("ladder.delta.sharded_window", (sharded_ns - single_ns) / n,
              "ns/item");
}

void ClusterRung(const RunConfig& config, Result* result) {
  const std::string dir = config.out_dir + "/ladder_checkpoints";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto cc = FaninConfig(ats::Mix64(config.seed), dir);
  ats::cluster::ClusterSim sim(cc);
  std::vector<double> tick_us;
  while (sim.now() < cc.max_ticks && !sim.Quiescent()) {
    const int64_t a = NowNs();
    sim.Tick();
    tick_us.push_back(static_cast<double>(NowNs() - a) / 1e3);
  }
  const auto m = sim.Metrics();
  result->Check(sim.root().SnapshotFrame() == sim.FaultFreeRootFrame(),
                "ladder: cluster root != FaultFreeRootFrame()");
  std::filesystem::remove_all(dir);
  result->Set("cluster.tick_us.p50", Median(tick_us), "us");
  result->Set("cluster.tick_us.p99", Quantile(tick_us, 0.99), "us");
  result->Set("cluster.ticks_to_quiesce", static_cast<double>(m.ticks),
              "count");
  result->Set("cluster.applied_ratio",
              m.frames_enqueued > 0
                  ? static_cast<double>(m.root_frames_applied) /
                        static_cast<double>(m.frames_enqueued)
                  : 0.0,
              "ratio");
  result->Set("cluster.retransmissions",
              static_cast<double>(m.retransmissions), "count");
  result->Set("cluster.rejects",
              static_cast<double>(m.root_rejects.envelope_rejected() +
                                  m.root_rejects.payload_rejected),
              "count");
  result->Set("persist.checkpoints_written",
              static_cast<double>(m.checkpoints_written), "count");
}

}  // namespace

void RunLadder(const RunConfig& config, Result* result) {
  PriorityRungs(config, result);
  KmvRungs(config, result);
  WindowRungs(config, result);
  ClusterRung(config, result);
}

}  // namespace perfbench
