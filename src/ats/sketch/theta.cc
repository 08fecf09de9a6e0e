#include "ats/sketch/theta.h"

#include <algorithm>
#include <utility>

#include "ats/util/check.h"

namespace {
constexpr uint32_t kThetaMagic = 0x54485432;  // "THT2"
constexpr uint32_t kThetaVersion = 2;
}  // namespace

namespace ats {

ThetaSketch::ThetaSketch(size_t k, uint64_t hash_salt)
    : kmv_(k, 1.0, hash_salt) {}

ThetaSketch::ThetaSketch() : union_mode_(true), kmv_(1) {}

void ThetaSketch::AddKey(uint64_t key) {
  ATS_CHECK_MSG(!union_mode_, "cannot add keys to a union result");
  kmv_.AddKey(key);
}

size_t ThetaSketch::AddKeys(std::span<const uint64_t> keys) {
  ATS_CHECK_MSG(!union_mode_, "cannot add keys to a union result");
  return kmv_.AddKeys(keys);
}

double ThetaSketch::Theta() const {
  return union_mode_ ? union_theta_ : kmv_.Threshold();
}

size_t ThetaSketch::size() const {
  return union_mode_ ? union_retained_.size() : kmv_.size();
}

double ThetaSketch::Estimate() const {
  return static_cast<double>(size()) / Theta();
}

std::vector<double> ThetaSketch::RetainedPriorities() const {
  return union_mode_ ? union_retained_ : kmv_.store().priorities();
}

ThetaSketch ThetaSketch::Union(
    const std::vector<const ThetaSketch*>& inputs) {
  return UnionMany(inputs);
}

ThetaSketch ThetaSketch::UnionMany(
    std::span<const ThetaSketch* const> inputs) {
  ATS_CHECK(!inputs.empty());
  ThetaSketch out;
  out.union_theta_ = 1.0;
  for (const ThetaSketch* s : inputs) {
    out.union_theta_ = std::min(out.union_theta_, s->Theta());
  }
  // Gather every retained hash below the global theta, then sort + dedup
  // once. Both modes keep their retained hashes ascending (a KMV's
  // canonical column is), so the theta prune is a binary search and the
  // surviving prefix a bulk append.
  std::vector<double>& retained = out.union_retained_;
  for (const ThetaSketch* s : inputs) {
    const std::vector<double>& rs =
        s->union_mode_ ? s->union_retained_ : s->kmv_.store().priorities();
    const auto cut = std::lower_bound(rs.begin(), rs.end(), out.union_theta_);
    retained.insert(retained.end(), rs.begin(), cut);
  }
  std::sort(retained.begin(), retained.end());
  retained.erase(std::unique(retained.begin(), retained.end()),
                 retained.end());
  return out;
}

void ThetaSketch::Merge(const ThetaSketch& other) {
  if (&other == this) return;
  // Stream sketches must share the key-universe hashing; a union result
  // no longer carries a salt (its inputs were already checked).
  if (!union_mode_ && !other.union_mode_) {
    ATS_CHECK(kmv_.hash_salt() == other.kmv_.hash_salt());
  }
  *this = Union({this, &other});
}

void ThetaSketch::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kThetaMagic, kThetaVersion);
  w.WriteU32(union_mode_ ? 1 : 0);
  if (!union_mode_) {
    kmv_.SerializeTo(w);
    return;
  }
  w.WriteDouble(union_theta_);
  w.WriteU64(union_retained_.size());
  for (double p : union_retained_) w.WriteDouble(p);
}

std::optional<ThetaSketch> ThetaSketch::Deserialize(ByteReader& r) {
  if (!ReadSketchHeader(r, kThetaMagic, kThetaVersion)) return std::nullopt;
  const auto union_mode = r.ReadU32();
  if (!union_mode) return std::nullopt;
  ThetaSketch sketch;
  if (*union_mode == 0) {
    auto kmv = KmvSketch::Deserialize(r);
    if (!kmv) return std::nullopt;
    sketch.union_mode_ = false;
    sketch.kmv_ = std::move(*kmv);
    return sketch;
  }
  const auto theta = r.ReadDouble();
  const auto count = r.ReadU64();
  if (!theta || !count) return std::nullopt;
  if (!(*theta > 0.0) || *theta > 1.0) return std::nullopt;
  double prev = 0.0;
  for (uint64_t i = 0; i < *count; ++i) {
    const auto p = r.ReadDouble();
    if (!p) return std::nullopt;
    // Ascending, distinct, strictly inside (0, theta).
    if (!(*p > prev) || *p >= *theta) return std::nullopt;
    sketch.union_retained_.push_back(*p);
    prev = *p;
  }
  sketch.union_theta_ = *theta;
  return sketch;
}

}  // namespace ats
