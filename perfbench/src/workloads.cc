#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <thread>

#include "ats/core/ht_estimator.h"
#include "ats/samplers/sharded_time_axis.h"

namespace perfbench {
namespace {

using Item = ats::PrioritySampler::Item;
using Arrival = ats::ConcurrentWindowSampler::Arrival;

// Open-loop query rates. Each is well under the rate at which a query
// thread saturates on a dirty cache, so on an idle 4-core machine the
// generator keeps its schedule (bench.query_lag_ms shows when it did
// not).
constexpr double kSubsetQueryHz = 200.0;
constexpr double kWindowQueryHz = 500.0;
constexpr size_t kArrivalBaseItems = size_t{1} << 22;
constexpr int kSetupRepeats = 9;
// subset_sum_concurrent's producers trace every 32nd chunk: all of them
// would be ~10^6 spans a run.
constexpr uint64_t kProducerTraceStride = 32;

// Producer threads of the concurrent workloads: nproc - 1 (the query
// thread takes the last core), at least 1.
unsigned Producers(const RunConfig& config) {
  return std::max(1u, config.nproc - 1);
}

struct QueryLog {
  std::vector<double> latency_us;  // scheduled time -> answer
  std::vector<double> lag_us;      // scheduled time -> start
};

// Runs `query` on a fixed schedule until `stop`. Latency is measured from
// each query's scheduled time, so a stall also counts against the
// queries queued behind it.
template <typename Query, typename After>
void OpenLoop(double hz, const std::atomic<bool>& stop, QueryLog* log,
              Query&& query, After&& after) {
  const int64_t period = static_cast<int64_t>(1e9 / hz);
  const int64_t t0 = NowNs();
  for (int64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
    const int64_t due = t0 + i * period;
    int64_t now = NowNs();
    // Sleep to just before the due time, then spin: timer slack would
    // otherwise be added to every latency.
    if (due - now > 300000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 200000));
    }
    while ((now = NowNs()) < due) {
      if (stop.load(std::memory_order_relaxed)) return;
    }
    if (stop.load(std::memory_order_relaxed)) return;
    query();
    const int64_t end = NowNs();
    log->lag_us.push_back(static_cast<double>(now - due) / 1e3);
    log->latency_us.push_back(static_cast<double>(end - due) / 1e3);
    after();
  }
}

// One producer thread's share of an episode: the chunks it ingested and
// the CPU and wall time it spent from the start gate to the stop flag.
struct ProducerLog {
  uint64_t chunks = 0;
  int64_t cpu_ns = 0;
  int64_t wall_ns = 0;
};

struct EpisodeOut {
  // Items ingested per second of producer CPU time, times the number of
  // producers: the rate the producers keep up while they run. Time a
  // producer spends off its CPU (waiting for a lock, or for a CPU a
  // shared host gave to someone else) is left out, so the figure follows
  // the library rather than the neighbours; cpu_share is the part kept.
  double ingest_rate = 0.0;
  double cpu_share = 0.0;  // producer CPU time / producer wall time
  double slowdown = 1.0;   // HostSlowdown() just before the episode
  double converge_s = 0.0;
  double wire_bytes = 0.0;
  double rel_err = 0.0;
  double sink = 0.0;
  QueryLog queries;
  // MemoryFootprint() after each query: the buffers cycle between k and
  // 2k entries per shard, so one end-of-run reading would be a lottery.
  std::vector<double> memory_samples;
  // The episode's output check, run after every episode has ended (on
  // several threads at once); records its verdict in the Result and
  // returns the episode's rel_err.
  std::function<double()> check;
};

struct PhaseOut {
  std::vector<EpisodeOut> episodes;
  double Rate() const {  // median episode ingest rate, items per second
    return Median(Field(&EpisodeOut::ingest_rate));
  }
  QueryLog Queries() const {
    QueryLog all;
    for (const auto& e : episodes) {
      all.latency_us.insert(all.latency_us.end(),
                            e.queries.latency_us.begin(),
                            e.queries.latency_us.end());
      all.lag_us.insert(all.lag_us.end(), e.queries.lag_us.begin(),
                        e.queries.lag_us.end());
    }
    return all;
  }
  std::vector<double> Field(double EpisodeOut::*field) const {
    std::vector<double> out;
    for (const auto& e : episodes) out.push_back(e.*field);
    return out;
  }
};

// Fills the episode's ingest_rate and cpu_share from its producers' logs.
void SetIngest(const std::vector<ProducerLog>& logs, EpisodeOut* out) {
  uint64_t chunks = 0;
  int64_t cpu_ns = 0, wall_ns = 0;
  for (const ProducerLog& log : logs) {
    chunks += log.chunks;
    cpu_ns += log.cpu_ns;
    wall_ns += log.wall_ns;
  }
  out->ingest_rate = static_cast<double>(chunks * kChunk * logs.size()) *
                     1e9 / static_cast<double>(cpu_ns);
  out->cpu_share = static_cast<double>(cpu_ns) / static_cast<double>(wall_ns);
}

// Runs every pending episode check, `threads` at a time.
void RunChecks(std::vector<EpisodeOut*> episodes, unsigned threads) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < episodes.size();) {
        episodes[i]->rel_err = episodes[i]->check();
        episodes[i]->check = nullptr;
      }
    });
  }
  for (auto& th : pool) th.join();
}

// End-to-end figures are quoted at the host speed the benchmark was tuned
// at: each episode's ingest rate and query latencies are scaled by the
// HostSlowdown() measured just before it. The raw figures go to the
// context line.
void SetEndToEnd(const PhaseOut& phase, const std::vector<double>& setup_s,
                 Result* result) {
  std::vector<double> rates, latency_us, slowdowns;
  for (const auto& e : phase.episodes) {
    rates.push_back(e.ingest_rate * e.slowdown);
    for (const double us : e.queries.latency_us) {
      latency_us.push_back(us / e.slowdown);
    }
    slowdowns.push_back(e.slowdown);
  }
  result->Set("ingest_mitems_s", Median(rates) / 1e6, "Mitems/s");
  result->Set("query_p50_us", Quantile(latency_us, 0.5), "us");
  result->context["host_slowdown"] = std::to_string(Median(slowdowns));
  result->context["raw_ingest_mitems_s"] = std::to_string(phase.Rate() / 1e6);
  result->context["raw_query_p50_us"] =
      std::to_string(Quantile(phase.Queries().latency_us, 0.5));
  result->Set("wire_bytes", Mean(phase.Field(&EpisodeOut::wire_bytes)),
              "bytes");
  result->Set("rel_err", Mean(phase.Field(&EpisodeOut::rel_err)), "ratio");
  std::vector<double> memory;
  for (const auto& e : phase.episodes) {
    memory.insert(memory.end(), e.memory_samples.begin(),
                  e.memory_samples.end());
  }
  result->Set("memory_bytes", Median(memory), "bytes");
  result->Set("setup_s", Median(setup_s), "s");
  result->context["query_samples"] = std::to_string(latency_us.size());
  result->context["episodes"] = std::to_string(phase.episodes.size());
}

// Per-layer metrics of a traced phase, compared against the untraced
// phase that ran just before it.
void SetTraceMetrics(const RunConfig& config, const Tracer& tracer,
                     const PhaseOut& untraced, const PhaseOut& traced,
                     Result* result) {
  const std::vector<double> adds =
      SpanDurationsUs(tracer, "concurrent.add_batch");
  if (!adds.empty()) {
    result->Set("concurrent.add_batch_p99_us", Quantile(adds, 0.99), "us");
  }
  const std::vector<double> snaps =
      SpanDurationsUs(tracer, "concurrent.snapshot");
  if (!snaps.empty()) {
    const std::vector<double> rebuilds =
        SpanDurationsUs(tracer, "concurrent.snapshot", 1);
    result->Set("concurrent.snapshot_rebuild_us.p50", Median(rebuilds), "us");
    result->Set("concurrent.snapshot_rebuild_us.p99",
                Quantile(rebuilds, 0.99), "us");
    result->Set("concurrent.rebuild_share",
                static_cast<double>(rebuilds.size()) /
                    static_cast<double>(snaps.size()),
                "ratio");
  }
  result->Set("estimator.ht_us",
              Median(SpanDurationsUs(tracer, "estimator.ht")), "us");
  // Neither the query tail nor the single final-answer time per episode
  // repeats within a tenth across seeds, so both are per-layer figures,
  // taken from the untraced half.
  result->Set("query_p99_us", Quantile(untraced.Queries().latency_us, 0.99),
              "us");
  result->Set("converge_s", Median(untraced.Field(&EpisodeOut::converge_s)),
              "s");
  result->Set("bench.query_lag_ms",
              Quantile(traced.Queries().lag_us, 0.99) / 1e3, "ms");
  result->Set("bench.producer_cpu_share",
              Median(untraced.Field(&EpisodeOut::cpu_share)), "ratio");
  const double base = untraced.Rate();
  result->Set("bench.trace_overhead",
              base > 0.0 ? 1.0 - traced.Rate() / base : 0.0, "ratio");
  const auto self = LayerSelfNs(tracer);
  double total = 0.0;
  for (const auto& [layer, ns] : self) total += ns;
  for (const char* layer :
       {"bench", "concurrent", "estimator", "sampler", "cluster"}) {
    const auto it = self.find(layer);
    const double ns = it == self.end() ? 0.0 : it->second;
    result->Set(std::string("trace.self_share.") + layer,
                total > 0.0 ? ns / total : 0.0, "ratio");
  }
  const std::string path =
      config.out_dir + "/trace_" + config.workload + ".jsonl";
  if (tracer.WriteTrace(path)) result->context["trace_file"] = path;
}

// Runs `episode(index, seconds, tracer)` episodes filling `seconds`: all
// untraced, or (trace mode) an untraced half then a traced half.
// The host speed probe runs on `probe_threads` threads, as many as the
// workload has producers.
template <typename Episode>
void RunEpisodes(const RunConfig& config, const std::vector<double>& setup_s,
                 unsigned probe_threads, Episode&& episode, Result* result) {
  // Half-second episodes.
  const int n =
      std::max(2, static_cast<int>(std::lround(2.0 * config.seconds)));
  const double each = config.seconds / n;
  PhaseOut untraced, traced;
  Tracer tracer;
  for (int e = 0; e < n; ++e) {
    const bool trace_this = config.trace && e >= n / 2;
    PhaseOut& phase = trace_this ? traced : untraced;
    const double slowdown = HostSlowdown(probe_threads);
    phase.episodes.push_back(episode(static_cast<uint64_t>(e), each,
                                     trace_this ? &tracer : nullptr));
    EpisodeOut& out = phase.episodes.back();
    out.slowdown = slowdown;
    std::fprintf(stderr,
                 "perfbench: episode %d%s: %.4g Mitems/s (cpu share %.3g), "
                 "%zu queries, p50 %.4g us, lag p99 %.4g us\n",
                 e, trace_this ? " (traced)" : "", out.ingest_rate / 1e6,
                 out.cpu_share, out.queries.latency_us.size(),
                 Quantile(out.queries.latency_us, 0.5),
                 Quantile(out.queries.lag_us, 0.99));
  }
  std::vector<EpisodeOut*> pending;
  for (PhaseOut* phase : {&untraced, &traced}) {
    for (auto& e : phase->episodes) pending.push_back(&e);
  }
  RunChecks(pending, config.nproc);
  if (config.trace) {
    SetTraceMetrics(config, tracer, untraced, traced, result);
  } else {
    SetEndToEnd(untraced, setup_s, result);
  }
}

// --- subset_sum_concurrent ---------------------------------------------

EpisodeOut SubsetSumEpisode(const std::vector<Item>& base,
                            const RunConfig& config, uint64_t episode,
                            double seconds, Tracer* tracer, Result* result) {
  const unsigned producers = Producers(config);
  ats::ConcurrentPrioritySampler sampler(kShards, kPriorityK,
                                         /*coordinated=*/true, config.seed);
  // Episodes start 2^20 chunks apart, far more than one ingests, so no
  // two share a key.
  const uint64_t chunk_base = episode << 20;
  std::atomic<bool> stop{false}, stop_queries{false};
  StartGate gate;
  std::vector<ProducerLog> logs(producers);
  EpisodeOut out;
  std::vector<std::thread> threads;
  for (unsigned p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      TraceBuffer* traced = tracer != nullptr
                                ? tracer->NewBuffer(kProducerTraceStride)
                                : nullptr;
      std::vector<Item> chunk;
      gate.Arrive();
      const int64_t cpu0 = ThreadCpuNs(), wall0 = NowNs();
      uint64_t j = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        TraceBuffer* buf = j % kProducerTraceStride == 0 ? traced : nullptr;
        {
          ScopedSpan fill(buf, "bench.fill");
          FillPriorityChunk(base, chunk_base + p + j * producers, &chunk);
        }
        ScopedSpan add(buf, "concurrent.add_batch");
        sampler.AddBatch(chunk);
        ++j;
      }
      logs[p] = {j, ThreadCpuNs() - cpu0, NowNs() - wall0};
    });
  }
  // Query = Merged() + HtSubsetSum, with Merged() spelled out as its two
  // halves (Snapshot() and MakeWeightedSample) so the trace can tell a
  // clean snapshot from a rebuild by the snapshot pointer.
  auto answer = [&](TraceBuffer* buf,
                    std::shared_ptr<const ats::BottomK<Item>>* last) {
    ScopedSpan q(buf, "bench.query");
    std::shared_ptr<const ats::BottomK<Item>> snap;
    {
      ScopedSpan s(buf, "concurrent.snapshot");
      snap = sampler.Snapshot();
      s.set_arg(snap != *last ? 1 : 0);
    }
    *last = snap;
    std::vector<ats::SampleEntry> entries;
    {
      ScopedSpan m(buf, "concurrent.merged");
      entries = ats::MakeWeightedSample(snap->store());
    }
    ScopedSpan h(buf, "estimator.ht");
    return ats::HtSubsetSum(entries, InSubset);
  };
  std::thread query_thread([&] {
    TraceBuffer* buf = tracer != nullptr ? tracer->NewBuffer() : nullptr;
    std::shared_ptr<const ats::BottomK<Item>> last;
    gate.Arrive();
    OpenLoop(
        kSubsetQueryHz, stop_queries, &out.queries,
        [&] { out.sink += answer(buf, &last); },
        [&] {
          out.memory_samples.push_back(
              static_cast<double>(sampler.MemoryFootprint()));
        });
  });
  gate.Open(static_cast<int>(producers) + 1);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  // Queries stop first, so the final answer never waits on a rebuild the
  // query thread happens to be running.
  stop_queries.store(true);
  query_thread.join();
  const int64_t t_stop = NowNs();
  stop.store(true);
  for (auto& t : threads) t.join();
  std::shared_ptr<const ats::BottomK<Item>> final_snap;
  out.sink += answer(nullptr, &final_snap);
  const int64_t t_answer = NowNs();

  SetIngest(logs, &out);
  uint64_t chunks = 0;
  for (const ProducerLog& log : logs) chunks += log.chunks;
  out.converge_s = static_cast<double>(t_answer - t_stop) / 1e9;
  out.wire_bytes = static_cast<double>(final_snap->SerializeToString().size());

  // Output check: one coordinated PrioritySampler over the concatenated
  // stream (bottom-k with hash priorities does not depend on order).
  out.check = [&base, &config, result, episode, chunk_base, producers, logs,
               final_snap] {
    ats::PrioritySampler ref(kPriorityK, config.seed, /*coordinated=*/true);
    std::vector<double> exact(kSegments, 0.0);
    std::vector<Item> chunk;
    for (unsigned p = 0; p < producers; ++p) {
      for (uint64_t j = 0; j < logs[p].chunks; ++j) {
        FillPriorityChunk(base, chunk_base + p + j * producers, &chunk);
        ref.AddBatch(chunk);
        for (const Item& it : chunk) exact[SegmentOf(it.key)] += it.weight;
      }
    }
    const auto got = final_snap->SortedEntries();
    const auto want = ref.sketch().SortedEntries();
    bool same = got.size() == want.size() &&
                final_snap->Threshold() == ref.Threshold();
    for (size_t i = 0; same && i < got.size(); ++i) {
      same = got[i].priority == want[i].priority &&
             got[i].payload.key == want[i].payload.key &&
             got[i].payload.weight == want[i].payload.weight;
    }
    result->Check(same, "subset_sum_concurrent episode " +
                            std::to_string(episode) +
                            ": merged sample != single coordinated sampler");
    std::vector<double> est(kSegments, 0.0);
    for (const auto& e : ats::MakeWeightedSample(final_snap->store())) {
      est[SegmentOf(e.key)] += e.value / e.InclusionProbability();
    }
    return RmsRelErr(est, exact);
  };
  result->attempted += chunks + out.queries.latency_us.size() + 1;
  return out;
}

// --- window_monitor ------------------------------------------------------

EpisodeOut WindowEpisode(const ArrivalBase& base, const RunConfig& config,
                         uint64_t episode, double seconds, Tracer* tracer,
                         Result* result) {
  ats::ConcurrentWindowSampler sampler(kShards, kWindowK, kWindowLength,
                                       config.seed);
  const uint64_t chunk_base = episode << 20;
  std::atomic<bool> stop{false}, stop_queries{false};
  StartGate gate;
  std::vector<ProducerLog> logs(1);
  EpisodeOut out;
  std::thread producer([&] {
    TraceBuffer* buf = tracer != nullptr ? tracer->NewBuffer() : nullptr;
    std::vector<Arrival> chunk;
    gate.Arrive();
    const int64_t cpu0 = ThreadCpuNs(), wall0 = NowNs();
    uint64_t j = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      {
        ScopedSpan fill(buf, "bench.fill");
        FillArrivalChunk(base, chunk_base + j, &chunk);
      }
      ScopedSpan add(buf, "concurrent.add_batch");
      sampler.AddBatch(chunk);
      ++j;
    }
    logs[0] = {j, ThreadCpuNs() - cpu0, NowNs() - wall0};
  });
  // Query = ImprovedSample(now) + HtCount at the snapshot's own clock,
  // with ImprovedSample spelled out as Snapshot() plus the query on a
  // private copy (exactly what the front-end does) so rebuilds show.
  std::vector<ats::SampleEntry> final_entries;
  auto answer = [&](TraceBuffer* buf,
                    std::shared_ptr<const ats::SlidingWindowSampler>* last,
                    std::vector<ats::SampleEntry>* keep) {
    ScopedSpan q(buf, "bench.query");
    std::shared_ptr<const ats::SlidingWindowSampler> snap;
    {
      ScopedSpan s(buf, "concurrent.snapshot");
      snap = sampler.Snapshot();
      s.set_arg(snap != *last ? 1 : 0);
    }
    *last = snap;
    std::vector<ats::SampleEntry> entries;
    {
      ScopedSpan w(buf, "sampler.window_query");
      ats::SlidingWindowSampler copy = *snap;
      entries = copy.ImprovedSample(copy.last_time());
    }
    ScopedSpan h(buf, "estimator.ht");
    const double count = ats::HtCount(entries);
    if (keep != nullptr) *keep = std::move(entries);
    return count;
  };
  std::thread query_thread([&] {
    TraceBuffer* buf = tracer != nullptr ? tracer->NewBuffer() : nullptr;
    std::shared_ptr<const ats::SlidingWindowSampler> last;
    gate.Arrive();
    OpenLoop(
        kWindowQueryHz, stop_queries, &out.queries,
        [&] { out.sink += answer(buf, &last, nullptr); },
        [&] {
          out.memory_samples.push_back(
              static_cast<double>(sampler.MemoryFootprint()));
        });
  });
  gate.Open(2);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  // Queries stop first, so the final answer never waits on a rebuild the
  // query thread happens to be running.
  stop_queries.store(true);
  query_thread.join();
  const int64_t t_stop = NowNs();
  stop.store(true);
  producer.join();
  std::shared_ptr<const ats::SlidingWindowSampler> final_snap;
  out.sink += answer(nullptr, &final_snap, &final_entries);
  const int64_t t_answer = NowNs();

  SetIngest(logs, &out);
  const uint64_t chunks_done = logs[0].chunks;
  out.converge_s = static_cast<double>(t_answer - t_stop) / 1e9;
  out.wire_bytes = static_cast<double>(final_snap->SerializeToString().size());

  // Output check: the sequential sharded front-end fed the same arrivals
  // (same shard seeds, routing and merge) must answer identically. The
  // concurrent side is queried the way its own query methods do it: on a
  // private copy of the final snapshot.
  out.check = [&base, &config, result, episode, chunk_base, chunks_done,
               final_snap, final_entries] {
    const double now = final_snap->last_time();
    ats::ShardedWindowSampler ref(kShards, kWindowK, kWindowLength,
                                  config.seed);
    std::vector<double> exact(kSegments, 0.0);
    std::vector<Arrival> chunk;
    for (uint64_t j = 0; j < chunks_done; ++j) {
      FillArrivalChunk(base, chunk_base + j, &chunk);
      for (const Arrival& a : chunk) {
        ref.Arrive(a.time, a.id);
        if (a.time > now - kWindowLength) exact[SegmentOf(a.id)] += 1.0;
      }
    }
    auto sorted = [](const std::vector<ats::SampleEntry>& v) {
      std::vector<std::pair<uint64_t, double>> keys;
      for (const auto& e : v) keys.emplace_back(e.key, e.priority);
      std::sort(keys.begin(), keys.end());
      return keys;
    };
    ats::SlidingWindowSampler got = *final_snap;
    const bool same =
        got.ImprovedThreshold(now) == ref.ImprovedThreshold(now) &&
        got.GlThreshold(now) == ref.GlThreshold(now) &&
        got.StoredCount(now) == ref.MergedStoredCount(now) &&
        sorted(got.ImprovedSample(now)) == sorted(ref.ImprovedSample(now));
    result->Check(same, "window_monitor episode " + std::to_string(episode) +
                            ": snapshot != sequential ShardedWindowSampler");
    std::vector<double> est(kSegments, 0.0);
    for (const auto& e : final_entries) {
      est[SegmentOf(e.key)] += 1.0 / e.InclusionProbability();
    }
    return RmsRelErr(est, exact);
  };
  result->attempted += chunks_done + out.queries.latency_us.size() + 1;
  return out;
}

// --- distinct_fanin ------------------------------------------------------

struct SimOut {
  double setup_s = 0.0;
  double converge_s = 0.0;  // wall time spent in Tick()
  double tick_cpu_s = 0.0;  // CPU time spent in Tick(): fsync waits left out
  double slowdown = 1.0;    // HostSlowdown() just before the run
  double keys = 0.0;
  double sink = 0.0;
  ats::cluster::ClusterMetrics metrics;
  double rel_err = 0.0;
  std::vector<double> query_us;
};

SimOut RunSim(uint64_t sim_seed, const std::string& dir, TraceBuffer* buf,
              Result* result) {
  SimOut out;
  const int64_t t0 = ThreadCpuNs();
  // A fresh directory per run: a restarting agent must never find a
  // checkpoint another run left behind.
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const ats::cluster::ClusterConfig config = FaninConfig(sim_seed, dir);
  ats::cluster::ClusterSim sim(config);
  out.setup_s = static_cast<double>(ThreadCpuNs() - t0) / 1e9;

  int64_t tick_ns = 0, tick_cpu_ns = 0;
  std::vector<ats::SampleEntry> entries;
  while (sim.now() < config.max_ticks && !sim.Quiescent()) {
    const int64_t a = NowNs(), a_cpu = ThreadCpuNs();
    {
      ScopedSpan t(buf, "cluster.tick");
      sim.Tick();
    }
    const int64_t b_cpu = ThreadCpuNs();
    const int64_t b = NowNs();
    tick_ns += b - a;
    tick_cpu_ns += b_cpu - a_cpu;
    // The root query, once per tick (open loop on the simulated clock):
    // an HT subset count over the root's current merged sketch.
    ScopedSpan q(buf, "bench.query");
    const ats::KmvSketch& merged = sim.root().merged();
    const double theta = merged.Threshold();
    const auto& ps = merged.store().priorities();
    const auto& ks = merged.store().payloads();
    entries.clear();
    for (size_t i = 0; i < ps.size(); ++i) {
      entries.push_back(ats::MakeUniformEntry(ks[i], 1.0, ps[i], theta));
    }
    {
      ScopedSpan h(buf, "estimator.ht");
      out.sink += ats::HtSubsetSum(entries, InSubset);
    }
    out.query_us.push_back(static_cast<double>(NowNs() - b) / 1e3);
  }
  out.converge_s = static_cast<double>(tick_ns) / 1e9;
  out.tick_cpu_s = static_cast<double>(tick_cpu_ns) / 1e9;
  out.keys = static_cast<double>(config.num_agents * config.keys_per_tick *
                                 config.ingest_ticks);
  out.metrics = sim.Metrics();

  result->Check(sim.Quiescent(), "distinct_fanin: no quiescence");
  result->Check(sim.root().SnapshotFrame() == sim.FaultFreeRootFrame(),
                "distinct_fanin: root frame != FaultFreeRootFrame()");
  result->Check(out.metrics.checkpoint_write_failures == 0,
                "distinct_fanin: checkpoint write failed");

  std::vector<uint64_t> keys;
  for (uint64_t id = 0; id < config.num_agents; ++id) {
    const auto& h = sim.History(id);
    keys.insert(keys.end(), h.begin(), h.end());
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<double> exact(kSegments, 0.0), est(kSegments, 0.0);
  for (const uint64_t k : keys) exact[SegmentOf(k)] += 1.0;
  const ats::KmvSketch& merged = sim.root().merged();
  for (const uint64_t k : merged.store().payloads()) {
    est[SegmentOf(k)] += 1.0 / merged.Threshold();
  }
  out.rel_err = RmsRelErr(est, exact);
  result->attempted += out.metrics.ticks + out.query_us.size() + 1;
  return out;
}

}  // namespace

ats::cluster::ClusterConfig FaninConfig(uint64_t seed,
                                        const std::string& checkpoint_dir) {
  ats::cluster::ClusterConfig c;
  c.num_agents = 8;
  c.fan_in = 4;
  c.k = 4096;
  c.seed = seed;
  c.workload = ats::cluster::ClusterConfig::Workload::kZipf;
  c.universe = 1 << 20;
  c.zipf_s = 1.1;
  c.keys_per_tick = 1024;
  c.ingest_ticks = 128;  // 8 agents x 128 ticks x 1024 = 1M keys
  c.snapshot_every = 8;
  c.faults.drop_rate = 0.05;
  c.faults.duplicate_rate = 0.02;
  c.faults.corrupt_rate = 0.02;
  c.faults.truncate_rate = 0.01;
  c.faults.min_delay_ticks = 1;
  c.faults.max_delay_ticks = 4;
  c.agent_crash_rate = 0.01;
  c.crash_down_ticks = 8;
  // First retry after the worst-case round trip.
  c.retry.initial_backoff_ticks = 2 * c.faults.max_delay_ticks + 2;
  // One checkpoint per agent at every snapshot-cadence point.
  c.checkpoint_every_epochs = c.keys_per_tick * c.snapshot_every;
  c.checkpoint_dir = checkpoint_dir;
  return c;
}

void RunSubsetSumConcurrent(const RunConfig& config, Result* result) {
  std::vector<double> setup_s;
  std::vector<Item> base;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double slowdown = HostSlowdown(1);
    const int64_t t0 = ThreadCpuNs();
    base = MakeParetoItems(kPriorityBaseItems, config.seed);
    ats::ConcurrentPrioritySampler probe(kShards, kPriorityK, true,
                                        config.seed);
    setup_s.push_back(static_cast<double>(ThreadCpuNs() - t0) / 1e9 /
                      slowdown);
  }
  result->context["producers"] = std::to_string(Producers(config));
  result->context["query_rate_hz"] = std::to_string(kSubsetQueryHz);
  RunEpisodes(
      config, setup_s, Producers(config),
      [&](uint64_t e, double secs, Tracer* tracer) {
        return SubsetSumEpisode(base, config, e, secs, tracer, result);
      },
      result);
}

void RunWindowMonitor(const RunConfig& config, Result* result) {
  std::vector<double> setup_s;
  ArrivalBase base;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double slowdown = HostSlowdown(1);
    const int64_t t0 = ThreadCpuNs();
    base = MakeArrivals(kArrivalBaseItems, config.seed);
    ats::ConcurrentWindowSampler probe(kShards, kWindowK, kWindowLength,
                                       config.seed);
    setup_s.push_back(static_cast<double>(ThreadCpuNs() - t0) / 1e9 /
                      slowdown);
  }
  result->context["producers"] = "1";
  result->context["query_rate_hz"] = std::to_string(kWindowQueryHz);
  RunEpisodes(
      config, setup_s, 1,
      [&](uint64_t e, double secs, Tracer* tracer) {
        return WindowEpisode(base, config, e, secs, tracer, result);
      },
      result);
}

void RunDistinctFanin(const RunConfig& config, Result* result) {
  const std::string dir = config.out_dir + "/checkpoints";
  std::vector<SimOut> untraced, traced;
  Tracer tracer;
  TraceBuffer* buf = tracer.NewBuffer();
  const int64_t t0 = NowNs();
  const double half = config.trace ? config.seconds / 2 : config.seconds;
  // At least three runs per phase, however long one takes.
  for (uint64_t i = 0;; ++i) {
    const double elapsed = static_cast<double>(NowNs() - t0) / 1e9;
    const bool trace_this =
        config.trace && elapsed >= half && untraced.size() >= 3;
    auto& bucket = trace_this ? traced : untraced;
    if (elapsed >= config.seconds && bucket.size() >= 3) break;
    const uint64_t sim_seed = ats::Mix64(config.seed) + i;
    const double slowdown = HostSlowdown(1);
    bucket.push_back(
        RunSim(sim_seed, dir, trace_this ? buf : nullptr, result));
    bucket.back().slowdown = slowdown;
  }
  std::filesystem::remove_all(dir);

  // Keys per second of CPU time in Tick(): the sim is single-threaded, so
  // this leaves out only the waits (checkpoint fsync on a shared disk, a
  // CPU the host lent elsewhere) that would otherwise decide the figure.
  auto rate = [](const std::vector<SimOut>& sims) {
    std::vector<double> rates;
    for (const auto& s : sims) rates.push_back(s.keys / s.tick_cpu_s);
    return Median(rates);
  };
  auto field = [](const std::vector<SimOut>& sims, auto get) {
    std::vector<double> out;
    for (const auto& s : sims) out.push_back(get(s));
    return out;
  };
  if (config.trace) {
    // One pseudo-episode per phase, carrying its keys per tick-second.
    PhaseOut base_phase, traced_phase;
    EpisodeOut u;
    u.ingest_rate = rate(untraced);
    u.cpu_share = Median(field(
        untraced, [](const SimOut& s) { return s.tick_cpu_s / s.converge_s; }));
    u.converge_s = Median(
        field(untraced, [](const SimOut& s) { return s.converge_s; }));
    for (const auto& s : untraced) {
      u.queries.latency_us.insert(u.queries.latency_us.end(),
                                  s.query_us.begin(), s.query_us.end());
    }
    base_phase.episodes.push_back(u);
    EpisodeOut t;
    t.ingest_rate = rate(traced);
    for (const auto& s : traced) {
      t.queries.latency_us.insert(t.queries.latency_us.end(),
                                  s.query_us.begin(), s.query_us.end());
    }
    // Queries ride the tick clock: never late.
    t.queries.lag_us.assign(1, 0.0);
    traced_phase.episodes.push_back(t);
    SetTraceMetrics(config, tracer, base_phase, traced_phase, result);
    return;
  }
  // End-to-end figures at the tuning host's speed, as in SetEndToEnd.
  std::vector<double> query_us, raw_query_us;
  for (const auto& s : untraced) {
    raw_query_us.insert(raw_query_us.end(), s.query_us.begin(),
                        s.query_us.end());
    for (const double us : s.query_us) query_us.push_back(us / s.slowdown);
  }
  result->Set("ingest_mitems_s",
              Median(field(untraced,
                           [](const SimOut& s) {
                             return s.keys / s.tick_cpu_s * s.slowdown;
                           })) /
                  1e6,
              "Mitems/s");
  result->Set("query_p50_us", Quantile(query_us, 0.5), "us");
  result->context["host_slowdown"] = std::to_string(
      Median(field(untraced, [](const SimOut& s) { return s.slowdown; })));
  result->context["raw_ingest_mitems_s"] =
      std::to_string(rate(untraced) / 1e6);
  result->context["raw_query_p50_us"] =
      std::to_string(Quantile(raw_query_us, 0.5));
  result->Set("wire_bytes", Mean(field(untraced, [](const SimOut& s) {
                return static_cast<double>(s.metrics.transport.bytes_on_wire);
              })),
              "bytes");
  result->Set("rel_err",
              Mean(field(untraced, [](const SimOut& s) { return s.rel_err; })),
              "ratio");
  result->Set("memory_bytes", Median(field(untraced, [](const SimOut& s) {
                return static_cast<double>(s.metrics.node_memory_bytes);
              })),
              "bytes");
  result->Set("setup_s",
              Median(field(untraced,
                           [](const SimOut& s) {
                             return s.setup_s / s.slowdown;
                           })),
              "s");
  result->context["query_samples"] = std::to_string(query_us.size());
  result->context["sims"] = std::to_string(untraced.size());
}

}  // namespace perfbench
