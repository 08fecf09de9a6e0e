// Shared plumbing for the perfbench program: clocks, order statistics,
// the in-memory span tracer, the result sink, and the seeded input
// streams every workload and ladder rung is driven with.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ats/core/bottom_k.h"
#include "ats/core/concurrent_sampler.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time the calling thread has used. Time it spends off its CPU
// (blocked on a lock or on I/O, queued for a CPU, or stolen by the host
// of a virtual machine) does not count, so on a shared host this clock
// follows the program's own work where NowNs() follows the neighbours.
inline int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

// Host speed probe. Runs a fixed job of the benchmark's own (hash a
// counter, then read-modify-write a slot of a 4 MiB table, 2^21 times)
// on `threads` threads at once and returns the median thread's CPU time
// over the job's time on the machine the benchmark was tuned on: 1.2
// means the host runs this kind of code 20% slower right now (neighbours
// sharing caches and the memory bus, clock speed). The job does not
// touch the library, so no change to the library can move it.
double HostSlowdown(unsigned threads);

// Every thread of a timed region checks in, then all start together.
class StartGate {
 public:
  void Arrive() {
    ready_.fetch_add(1);
    while (!go_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  void Open(int expected) {
    while (ready_.load() < expected) std::this_thread::yield();
    go_.store(true, std::memory_order_release);
  }

 private:
  std::atomic<int> ready_{0};
  std::atomic<bool> go_{false};
};

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

// ---------------------------------------------------------------------
// Spans. Each thread records into its own buffer (no sharing on the hot
// path); a span's parent is the span open on the same thread when it
// started. Buffers stay in memory until WriteTrace at exit.

struct Span {
  const char* name;  // "<layer>.<what>"; the layer is the prefix
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the same buffer, -1 for a root span
  uint32_t arg;    // span-specific flag (e.g. 1 = snapshot rebuilt)
};

struct TraceBuffer {
  uint32_t thread = 0;
  // A thread that records only every n-th of its operations sets this
  // to n, so its spans count n times in the self-time sums.
  uint32_t weight = 1;
  std::vector<Span> spans;
  int32_t open = -1;
};

class Tracer {
 public:
  // A fresh buffer for one thread; owned by the tracer.
  TraceBuffer* NewBuffer(uint32_t weight = 1);
  const std::vector<std::unique_ptr<TraceBuffer>>& buffers() const {
    return buffers_;
  }
  // Writes every span as one JSON object per line.
  bool WriteTrace(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

// RAII span; a null buffer records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buf, const char* name) : buf_(buf) {
    if (buf_ == nullptr) return;
    index_ = static_cast<int32_t>(buf_->spans.size());
    buf_->spans.push_back(Span{name, NowNs(), 0, buf_->open, 0});
    buf_->open = index_;
  }
  ~ScopedSpan() {
    if (buf_ == nullptr) return;
    Span& s = buf_->spans[static_cast<size_t>(index_)];
    s.end_ns = NowNs();
    buf_->open = s.parent;
  }
  void set_arg(uint32_t arg) {
    if (buf_ != nullptr) buf_->spans[static_cast<size_t>(index_)].arg = arg;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buf_;
  int32_t index_ = -1;
};

// Durations (us) of every span called `name`, optionally only those
// whose arg equals `arg`.
std::vector<double> SpanDurationsUs(const Tracer& tracer, const char* name,
                                    int64_t arg = -1);
// Self time per layer (span duration minus the time its child spans
// cover), in ns, summed across threads with each buffer's weight.
std::map<std::string, double> LayerSelfNs(const Tracer& tracer);

// ---------------------------------------------------------------------
// Results.

struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> context;
  uint64_t attempted = 0;
  uint64_t checks_attempted = 0;
  uint64_t checks_failed = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  // Records one output check (counted into failed_checks). Thread-safe.
  void Check(bool ok, const std::string& what);

 private:
  std::mutex checks_mu_;
};

// ---------------------------------------------------------------------
// Seeded inputs. Nothing here is timed: the workloads build their
// streams before the timed region and count that toward setup_s.

inline constexpr size_t kChunk = 4096;      // items per AddBatch call
inline constexpr size_t kPriorityK = 4096;  // subset_sum_concurrent k
inline constexpr size_t kWindowK = 256;     // window_monitor k
inline constexpr size_t kShards = 8;        // shards of every front-end

// One pass of the subset-sum stream: item i has key i and a Pareto
// (alpha 1.2) weight. Later passes reuse the weights with the pass
// number in the key's high 32 bits, so every key ingested is distinct
// and the key's hash (the coordinated priority) is fresh. A pass is
// small enough to stay in cache, so rewriting a chunk's keys costs the
// producers little next to AddBatch.
inline constexpr size_t kPriorityBaseItems = size_t{1} << 16;
std::vector<ats::PrioritySampler::Item> MakeParetoItems(size_t n,
                                                        uint64_t seed);
inline uint64_t PassKey(uint64_t pass, uint64_t index) {
  return (pass << 32) | index;
}

// Fills `out` with chunk `chunk` of the endless stream built from `base`.
void FillPriorityChunk(const std::vector<ats::PrioritySampler::Item>& base,
                       uint64_t chunk, std::vector<ats::PrioritySampler::Item>*
                                           out);

// One pass of the window stream: Poisson arrivals (mean gap 1) with ids
// 0..n-1. Pass p shifts every time by p * span and tags the id like
// PassKey, so the endless stream stays time-ordered with distinct ids.
struct ArrivalBase {
  std::vector<ats::ConcurrentWindowSampler::Arrival> arrivals;
  double span = 0.0;  // time shift between passes
};
ArrivalBase MakeArrivals(size_t n, uint64_t seed);
void FillArrivalChunk(const ArrivalBase& base, uint64_t chunk,
                      std::vector<ats::ConcurrentWindowSampler::Arrival>* out);

// The fixed subset predicate of the query workloads: a quarter of the
// key space, by key hash.
inline bool InSubset(uint64_t key) {
  return (ats::Mix64(key ^ 0x5b5e7) & 3) == 0;
}
// Disjoint key segments for the accuracy metric (rel_err).
inline constexpr size_t kSegments = 64;
inline size_t SegmentOf(uint64_t key) {
  return static_cast<size_t>(ats::Mix64(key ^ 0x5e65) % kSegments);
}
// Root-mean-square of (estimate - exact) / exact over the segments with
// a non-zero exact value.
double RmsRelErr(const std::vector<double>& est,
                 const std::vector<double>& exact);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
