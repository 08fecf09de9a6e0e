#include "ats/sketch/lcs_merge.h"

#include <algorithm>

namespace {
constexpr uint32_t kLcsMagic = 0x4c435332;  // "LCS2"
constexpr uint32_t kLcsVersion = 2;
}  // namespace

namespace ats {

LcsSketch LcsSketch::FromKmv(const KmvSketch& kmv) {
  LcsSketch out;
  const double theta = kmv.Threshold();
  for (const auto& [priority, key] : kmv.members()) {
    out.items_.emplace(priority, theta);
  }
  return out;
}

void LcsSketch::Merge(const LcsSketch& other) {
  if (&other == this) return;
  for (const auto& [priority, threshold] : other.items_) {
    auto [it, inserted] = items_.emplace(priority, threshold);
    if (!inserted) it->second = std::max(it->second, threshold);
  }
}

void LcsSketch::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kLcsMagic, kLcsVersion);
  w.WriteU64(items_.size());
  for (const auto& [priority, threshold] : items_) {
    w.WriteDouble(priority);
    w.WriteDouble(threshold);
  }
}

std::optional<LcsSketch> LcsSketch::Deserialize(ByteReader& r) {
  if (!ReadSketchHeader(r, kLcsMagic, kLcsVersion)) return std::nullopt;
  const auto count = r.ReadU64();
  if (!count) return std::nullopt;
  LcsSketch sketch;
  for (uint64_t i = 0; i < *count; ++i) {
    const auto priority = r.ReadDouble();
    const auto threshold = r.ReadDouble();
    if (!priority || !threshold) return std::nullopt;
    if (*priority <= 0.0 || *threshold <= 0.0 || *priority >= *threshold) {
      return std::nullopt;
    }
    sketch.items_.emplace(*priority, *threshold);
  }
  if (sketch.items_.size() != *count) return std::nullopt;
  return sketch;
}

double LcsSketch::Estimate() const {
  double total = 0.0;
  for (const auto& [priority, threshold] : items_) {
    total += 1.0 / threshold;
  }
  return total;
}

}  // namespace ats
