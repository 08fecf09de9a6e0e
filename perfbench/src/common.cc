#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "ats/core/random.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

// The reference job's CPU time on a 4-vCPU x86-64 VM when the benchmark
// was tuned (median over 20 runs).
constexpr double kReferenceJobNs = 15.5e6;

// A 64-bit finalizer of the probe's own, so that no library change can
// alter the reference job.
inline uint64_t ProbeMix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

double ReferenceJobCpuNs(std::vector<uint64_t>& table) {
  const uint64_t mask = table.size() - 1;
  const int64_t t0 = ThreadCpuNs();
  uint64_t x = 0;
  for (uint64_t i = 0; i < (uint64_t{1} << 21); ++i) {
    x = ProbeMix(x + i);
    table[x & mask] += x >> 32;
  }
  return static_cast<double>(ThreadCpuNs() - t0);
}

}  // namespace

double HostSlowdown(unsigned threads) {
  // Allocated (and so paged in) once, outside the timed job.
  static std::vector<std::vector<uint64_t>> tables;
  while (tables.size() < threads) tables.emplace_back(size_t{1} << 19, 0);
  std::vector<double> ns(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] { ns[t] = ReferenceJobCpuNs(tables[t]); });
  }
  for (auto& th : pool) th.join();
  return Median(ns) / kReferenceJobNs;
}

TraceBuffer* Tracer::NewBuffer(uint32_t weight) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>());
  TraceBuffer* buf = buffers_.back().get();
  buf->thread = static_cast<uint32_t>(buffers_.size() - 1);
  buf->weight = weight;
  buf->spans.reserve(1 << 16);
  return buf;
}

bool Tracer::WriteTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& buf : buffers_) {
    for (size_t i = 0; i < buf->spans.size(); ++i) {
      const Span& s = buf->spans[i];
      std::fprintf(f,
                   "{\"thread\":%u,\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"arg\":%u}\n",
                   buf->thread, i, s.parent, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.arg);
    }
  }
  return std::fclose(f) == 0;
}

std::vector<double> SpanDurationsUs(const Tracer& tracer, const char* name,
                                    int64_t arg) {
  std::vector<double> out;
  const std::string wanted(name);
  for (const auto& buf : tracer.buffers()) {
    for (const Span& s : buf->spans) {
      if (wanted != s.name) continue;
      if (arg >= 0 && s.arg != static_cast<uint32_t>(arg)) continue;
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::map<std::string, double> LayerSelfNs(const Tracer& tracer) {
  std::map<std::string, double> self;
  for (const auto& buf : tracer.buffers()) {
    std::vector<int64_t> child_ns(buf->spans.size(), 0);
    for (const Span& s : buf->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < buf->spans.size(); ++i) {
      const Span& s = buf->spans[i];
      const std::string name(s.name);
      const std::string layer = name.substr(0, name.find('.'));
      self[layer] += static_cast<double>(buf->weight) *
                     static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
    }
  }
  return self;
}

void Result::Check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(checks_mu_);
  ++checks_attempted;
  if (!ok) {
    ++checks_failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

std::vector<ats::PrioritySampler::Item> MakeParetoItems(size_t n,
                                                        uint64_t seed) {
  ats::Xoshiro256 rng(seed ^ 0x9a5e70ull);
  std::vector<ats::PrioritySampler::Item> items(n);
  for (size_t i = 0; i < n; ++i) {
    items[i].key = i;
    items[i].weight = std::pow(rng.NextDoubleOpenZero(), -1.0 / 1.2);
  }
  return items;
}

void FillPriorityChunk(const std::vector<ats::PrioritySampler::Item>& base,
                       uint64_t chunk,
                       std::vector<ats::PrioritySampler::Item>* out) {
  const uint64_t per_pass = base.size() / kChunk;
  const uint64_t pass = chunk / per_pass;
  const size_t first = static_cast<size_t>(chunk % per_pass) * kChunk;
  out->resize(kChunk);
  for (size_t j = 0; j < kChunk; ++j) {
    (*out)[j].key = PassKey(pass, first + j);
    (*out)[j].weight = base[first + j].weight;
  }
}

ArrivalBase MakeArrivals(size_t n, uint64_t seed) {
  ats::Xoshiro256 rng(seed ^ 0xa7717a1ull);
  ArrivalBase base;
  base.arrivals.resize(n);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(rng.NextDoubleOpenZero());
    base.arrivals[i] = {t, i};
  }
  base.span = t + 1.0;
  return base;
}

void FillArrivalChunk(const ArrivalBase& base, uint64_t chunk,
                      std::vector<ats::ConcurrentWindowSampler::Arrival>* out) {
  const uint64_t per_pass = base.arrivals.size() / kChunk;
  const uint64_t pass = chunk / per_pass;
  const size_t first = static_cast<size_t>(chunk % per_pass) * kChunk;
  const double shift = static_cast<double>(pass) * base.span;
  out->resize(kChunk);
  for (size_t j = 0; j < kChunk; ++j) {
    const auto& a = base.arrivals[first + j];
    (*out)[j] = {a.time + shift, PassKey(pass, a.id)};
  }
}

double RmsRelErr(const std::vector<double>& est,
                 const std::vector<double>& exact) {
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < est.size(); ++i) {
    if (exact[i] <= 0.0) continue;
    const double r = (est[i] - exact[i]) / exact[i];
    sum += r * r;
    ++n;
  }
  return n == 0 ? 0.0 : std::sqrt(sum / static_cast<double>(n));
}

}  // namespace perfbench
