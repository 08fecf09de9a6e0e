#include "ats/samplers/time_decay.h"

#include <algorithm>
#include <cmath>

#include "ats/core/simd/fast_log.h"
#include "ats/core/simd/simd_dispatch.h"
#include "ats/util/check.h"

namespace {
constexpr uint32_t kDecayMagic = 0x54444b31;  // "TDK1"
constexpr uint32_t kDecayVersion = 2;
}  // namespace

namespace ats {

TimeDecaySampler::TimeDecaySampler(size_t k, uint64_t seed)
    : sketch_(k), rng_(seed) {}

bool TimeDecaySampler::Add(uint64_t key, double weight, double value,
                           double time) {
  ATS_CHECK(weight > 0.0);
  // One fused log: log(u) - log(w) == log(u / w) up to sub-ulp rounding,
  // and the sampler only needs SOME fixed monotone key function of u/w
  // -- so both Add and AddBatch compute FastLog(u / w) and halve the log
  // work of the naive two-log form. FastLog (not std::log) because its
  // vectorized form matches its scalar form bit-for-bit (fast_log.h), so
  // the batched path below reproduces this loop exactly. The division
  // saturates for weights outside ~[1e-300, 1e300] (u/w overflows to inf
  // or underflows toward 0); FastLog stays finite-or-+inf there and the
  // estimator is unaffected -- such items were never observable anyway.
  const double log_key =
      simd::FastLog(rng_.NextDoubleOpenZero() / weight) - time;
  return sketch_.Offer(log_key, Stored{key, weight, value, time});
}

size_t TimeDecaySampler::AddBatch(std::span<const TimedItem> items) {
  // Tiled so the scratch columns stay cache-resident: a single pass over
  // a large batch would stream ~40 bytes/item of freshly written columns
  // back in from memory in the later passes, which costs more than the
  // vectorized log saves. The tile size keeps log keys + payloads a few
  // hundred KB. Tiling changes nothing observable -- items are processed
  // in the same serial order, so the RNG stream and every acceptance
  // decision stay bit-identical to the Add() loop.
  constexpr size_t kBatchTile = 8192;
  size_t accepted = 0;
  for (size_t base = 0; base < items.size(); base += kBatchTile) {
    const size_t n = std::min(kBatchTile, items.size() - base);
    batch_log_keys_.resize(n);
    batch_payloads_.resize(n);
    // Column pass 1 (scalar: the generator recurrence is serial): draw
    // the uniform column in the same order as the Add() loop and divide
    // by the weight in place (the fused-log form, see Add()).
    for (size_t i = 0; i < n; ++i) {
      const TimedItem& it = items[base + i];
      ATS_CHECK(it.weight > 0.0);
      batch_log_keys_[i] = rng_.NextDoubleOpenZero() / it.weight;
      batch_payloads_[i] = Stored{it.key, it.weight, it.value, it.time};
    }
    // One dispatched vectorized log pass (the AddBatch hot spot: the
    // scalar log call per item dominates ingest), then the serial shift.
    // FastLog's SIMD form is bit-identical to its scalar form, so this
    // equals the Add() loop exactly: FastLog(u / w) - time.
    simd::ActiveKernels().log_span(batch_log_keys_.data(),
                                   batch_log_keys_.data(), n);
    for (size_t i = 0; i < n; ++i) {
      batch_log_keys_[i] -= items[base + i].time;
    }
    accepted += sketch_.OfferBatch(batch_log_keys_, batch_payloads_);
  }
  return accepted;
}

std::vector<TimeDecaySampler::DecayedEntry> TimeDecaySampler::SampleAt(
    double now) const {
  std::vector<DecayedEntry> out;
  out.reserve(sketch_.size());
  const double log_threshold = sketch_.Threshold();
  for (const Stored& s : sketch_.store().payloads()) {
    DecayedEntry d;
    d.key = s.key;
    d.value = s.value;
    d.arrival_time = s.arrival_time;
    d.decayed_weight = s.weight * std::exp(-(now - s.arrival_time));
    // pi = P(K < tau) = min(1, w e^{t_i} tau), computed in log space:
    // log(w) + t_i + log(tau), clamped at 0.
    const double log_pi =
        std::log(s.weight) + s.arrival_time + log_threshold;
    d.inclusion_probability = std::exp(std::min(0.0, log_pi));
    d.ht_value = d.value * d.decayed_weight / d.inclusion_probability;
    out.push_back(d);
  }
  return out;
}

double TimeDecaySampler::EstimateDecayedTotal(double now) const {
  double total = 0.0;
  for (const DecayedEntry& d : SampleAt(now)) total += d.ht_value;
  return total;
}

void TimeDecaySampler::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kDecayMagic, kDecayVersion);
  WriteRngState(w, rng_.State());
  sketch_.SerializeTo(w);  // the nested BottomK frame carries the sample
}

std::optional<TimeDecaySampler::FrameView> TimeDecaySampler::ViewBody(
    ByteReader& r) {
  if (!ReadSketchHeader(r, kDecayMagic, kDecayVersion)) return std::nullopt;
  const auto rng_state = ReadRngState(r);
  if (!rng_state) return std::nullopt;
  // The rest of the body is exactly the embedded bottom-k sample region.
  auto sample = BottomK<Stored>::ViewBody(r);
  if (!sample) return std::nullopt;
  FrameView view;
  view.rng_state_ = *rng_state;
  view.sample_ = *sample;
  return view;
}

std::optional<TimeDecaySampler> TimeDecaySampler::Deserialize(
    ByteReader& r) {
  const auto view = ViewBody(r);
  if (!view) return std::nullopt;
  TimeDecaySampler sampler(view->k(), /*seed=*/1);
  sampler.sketch_ = BottomK<Stored>::FromValidatedView(view->sample_);
  sampler.rng_.SetState(view->rng_state_);
  return sampler;
}

FrameFault TimeDecaySampler::DiagnoseFrame(std::string_view frame) {
  return DiagnoseSketchFrame<TimeDecaySampler>(frame, kDecayMagic,
                                               kDecayVersion);
}

bool TimeDecaySampler::MergeManyFrames(
    std::span<const std::string_view> frames) {
  const auto views =
      VetFrames<TimeDecaySampler>(frames, [](const FrameView&) { return true; });
  if (!views) return false;
  if (views->empty()) return true;  // strict no-op, like MergeMany({})
  std::vector<BottomK<Stored>::FrameView> samples;
  samples.reserve(views->size());
  for (const FrameView& v : *views) samples.push_back(v.sample_);
  sketch_.MergeValidatedViews(samples);
  return true;
}

}  // namespace ats
