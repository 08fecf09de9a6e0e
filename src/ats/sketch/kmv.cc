#include "ats/sketch/kmv.h"

#include <algorithm>
#include <ranges>

#include "ats/util/check.h"

namespace {
constexpr uint32_t kKmvMagic = ats::KmvSketch::kWireMagic;
constexpr uint32_t kKmvVersion = ats::KmvSketch::kWireVersion;
}  // namespace

namespace ats {

KmvSketch::KmvSketch(size_t k, double initial_threshold, uint64_t hash_salt)
    : hash_salt_(hash_salt), store_(k, initial_threshold) {
  ATS_CHECK(initial_threshold > 0.0 && initial_threshold <= 1.0);
}

bool KmvSketch::AddKey(uint64_t key) {
  return OfferPriority(HashToUnit(HashKey(key, hash_salt_)), key);
}

size_t KmvSketch::AddKeys(std::span<const uint64_t> keys) {
  // Fused hash -> priority -> pre-filter pipeline: each 64-key block is
  // hashed into a dense priority column first, culled against the store's
  // acceptance bound with the shared block scan, and only survivors reach
  // the per-item duplicate check (OfferPriority re-checks the live bound).
  size_t retained = 0;
  internal::VisitHashedCandidates(
      keys, hash_salt_, [this] { return store_.AcceptBound(); },
      [&](double priority, uint64_t key) {
        retained += OfferPriority(priority, key) ? 1 : 0;
      });
  return retained;
}

bool KmvSketch::OfferPriority(double priority, uint64_t key) {
  // Test against the O(1) chunked acceptance bound, not the canonical
  // Threshold(): the latter would force a buffer compaction per call,
  // defeating the store's amortized-O(1) ingest.
  if (priority >= store_.AcceptBound()) return false;
  if (!seen_.insert(std::bit_cast<uint64_t>(priority)).second) {
    return true;  // duplicate key: already accepted (it is below theta)
  }
  const bool retained = store_.Offer(priority, key);
  // Dropped priorities in seen_ are harmless (they sit at/above the
  // acceptance bound and are rejected before the set is consulted) but
  // they accumulate over a long stream; rebuilding from the retained set
  // once the slack exceeds ~k keeps memory at O(k) with amortized O(1)
  // cost per accepted offer.
  if (seen_.size() > 2 * store_.k() + 64) CompactSeen();
  return retained;
}

void KmvSketch::CompactSeen() {
  seen_.clear();
  for (double p : store_.priorities()) {
    seen_.insert(std::bit_cast<uint64_t>(p));
  }
}

double KmvSketch::Estimate() const {
  return static_cast<double>(store_.size()) / store_.Threshold();
}

std::vector<KmvSketch::Entry> KmvSketch::AscendingEntries() const {
  const double theta = store_.Threshold();  // canonicalizes first
  const std::vector<double>& priorities = store_.priorities();
  const std::vector<uint64_t>& keys = store_.payloads();
  const size_t n = priorities.size();
  std::vector<Entry> out(n);
  if (n == 0) return out;
  // n buckets of equal width over (0, theta): about one entry each.
  const double scale = static_cast<double>(n) / theta;
  const auto bucket_of = [scale, n](double p) -> size_t {
    const double b = p * scale;
    if (!(b > 0.0)) return 0;
    return b < static_cast<double>(n) ? static_cast<size_t>(b) : n - 1;
  };
  // Counting sort into buckets. end[b + 1] first counts bucket b; the
  // prefix sum turns end[b] into bucket b's start, and the scatter
  // advances it to bucket b's end (= bucket b + 1's start).
  std::vector<size_t> end(n + 1, 0);
  for (const double p : priorities) ++end[bucket_of(p) + 1];
  for (size_t b = 1; b < n; ++b) end[b] += end[b - 1];
  for (size_t i = 0; i < n; ++i) {
    out[end[bucket_of(priorities[i])]++] = {priorities[i], keys[i]};
  }
  // Each bucket is sorted on its own; std::sort insertion-sorts the
  // small ones and bounds a crowded (skewed) bucket at O(m log m).
  size_t begin = 0;
  for (size_t b = 0; b < n; ++b) {
    if (end[b] - begin > 1) {
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin),
                out.begin() + static_cast<std::ptrdiff_t>(end[b]),
                [](const Entry& x, const Entry& y) {
                  return x.priority < y.priority;
                });
    }
    begin = end[b];
  }
  return out;
}

std::vector<std::pair<double, uint64_t>> KmvSketch::members() const {
  std::vector<std::pair<double, uint64_t>> out;
  out.reserve(store_.size());
  for (const Entry& e : AscendingEntries()) {
    out.emplace_back(e.priority, e.key);
  }
  return out;
}

void KmvSketch::Merge(const KmvSketch& other) {
  if (&other == this) return;
  ATS_CHECK(hash_salt_ == other.hash_salt_);
  store_.LowerThreshold(other.Threshold());
  // Per-item offers (not a raw store merge): coordinated hashing means the
  // same key appears with the same priority in both sketches, and
  // OfferPriority suppresses those duplicates.
  for (size_t i = 0; i < other.store_.size(); ++i) {
    OfferPriority(other.store_.priorities()[i], other.store_.payloads()[i]);
  }
  store_.PurgeAboveThreshold();
}

template <typename Input>
void KmvSketch::MergeInputs(std::span<const Input> inputs) {
  // Global acceptance bound, taken before any member moves; then one
  // pre-filtered gather per input, then one purge (SampleStore::MergeMany
  // has the equivalence argument). Only gather survivors reach the
  // per-item duplicate check, so rejected members never touch the seen_
  // set or the key column.
  double bound = store_.AcceptBound();
  for (const Input& in : inputs) bound = std::min(bound, AcceptBoundOf(in));
  store_.LowerThreshold(bound);
  for (const Input& in : inputs) GatherInput(in);
  store_.PurgeAboveThreshold();
}

void KmvSketch::GatherInput(const FrameView& in) {
  // Canonical frames are ascending, so the bound cuts each frame to a
  // PREFIX (FrameView::PrefixBelow) and the tail is never decoded. The
  // strided entries are copied into an aligned block for the pre-filter.
  store_.LowerThreshold(in.threshold());
  alignas(64) double block[internal::kIngestBlock];
  const size_t n = in.PrefixBelow(store_.AcceptBound());
  size_t i = 0;
  for (; i + internal::kIngestBlock <= n; i += internal::kIngestBlock) {
    for (size_t j = 0; j < internal::kIngestBlock; ++j) {
      block[j] = in.priority(i + j);
    }
    internal::VisitBlockCandidates(
        block, store_.AcceptBound(),
        [&](size_t j) { OfferPriority(block[j], in.key(i + j)); });
  }
  for (; i < n; ++i) {
    const double p = in.priority(i);
    if (p < store_.AcceptBound()) OfferPriority(p, in.key(i));
  }
}

void KmvSketch::MergeMany(std::span<const KmvSketch* const> others) {
  std::vector<const KmvSketch*> inputs;
  inputs.reserve(others.size());
  for (const KmvSketch* o : others) {
    if (o == this) continue;
    ATS_CHECK(hash_salt_ == o->hash_salt_);
    inputs.push_back(o);
  }
  // No real inputs: strict no-op, like the zero-length pairwise chain
  // (the closing purge must only run on behalf of an actual merge).
  if (!inputs.empty()) MergeInputs<const KmvSketch*>(inputs);
}

void KmvSketch::Gather(const KmvSketch& other) {
  if (&other == this) return;
  ATS_CHECK(hash_salt_ == other.hash_salt_);
  // The input's RAW buffered columns, never canonicalized: entries above
  // its canonical threshold are candidates the closing purge drops.
  store_.LowerThreshold(other.store_.AcceptBound());
  other.store_.ScanBuffered([this] { return store_.AcceptBound(); },
                            [this](double priority, uint64_t key) {
                              OfferPriority(priority, key);
                            });
}

size_t KmvSketch::FrameView::PrefixBelow(double bound) const {
  const auto indices = std::views::iota(size_t{0}, size());
  return static_cast<size_t>(
      std::ranges::partition_point(
          indices, [&](size_t i) { return priority(i) < bound; }) -
      indices.begin());
}

std::optional<KmvSketch::FrameView> KmvSketch::ViewBody(ByteReader& r) {
  if (!ReadSketchHeader(r, kKmvMagic, kKmvVersion)) return std::nullopt;
  const auto k = r.ReadU64();
  const auto salt = r.ReadU64();
  const auto initial = r.ReadDouble();
  const auto threshold = r.ReadDouble();
  const auto count = r.ReadU64();
  if (!k || !salt.has_value() || !initial || !threshold || !count) {
    return std::nullopt;
  }
  if (*k < 1 || !(*initial > 0.0) || *initial > 1.0 ||
      !(*threshold > 0.0) || *threshold > *initial || *count > *k) {
    return std::nullopt;
  }
  // Fixed-stride entry region: one size comparison bounds-checks every
  // entry.
  const auto entries = r.ReadRegion(*count, FrameView::kStride);
  if (!entries) return std::nullopt;
  FrameView view;
  view.k_ = *k;
  view.hash_salt_ = *salt;
  view.initial_threshold_ = *initial;
  view.threshold_ = *threshold;
  view.entries_ = *entries;
  // Canonical encoding only: strictly ascending priorities inside
  // (0, threshold). Ascending order implies distinctness, which is what
  // lets this validation run without a hash set.
  double prev = 0.0;
  for (size_t i = 0; i < view.size(); ++i) {
    const double p = view.priority(i);
    if (!(p > prev) || p >= *threshold) return std::nullopt;
    prev = p;
  }
  return view;
}

bool KmvSketch::MergeManyFrames(std::span<const std::string_view> frames) {
  const auto views = VetFrames<KmvSketch>(frames, [this](const FrameView& v) {
    return v.hash_salt() == hash_salt_;
  });
  if (!views) return false;
  // No frames: strict no-op, no closing purge.
  if (!views->empty()) MergeInputs<FrameView>(*views);
  return true;
}

FrameFault KmvSketch::DiagnoseFrame(std::string_view frame) {
  return DiagnoseSketchFrame<KmvSketch>(frame, kKmvMagic, kKmvVersion);
}

void KmvSketch::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kKmvMagic, kKmvVersion);
  w.WriteU64(store_.k());
  w.WriteU64(hash_salt_);
  w.WriteDouble(store_.initial_threshold());
  w.WriteDouble(store_.Threshold());
  const std::vector<Entry> entries = AscendingEntries();
  w.WriteU64(entries.size());
  // Entry is the wire entry layout, so the sorted run is the entry
  // region: one append instead of two writes per entry.
  w.WriteBytes(std::string_view(reinterpret_cast<const char*>(entries.data()),
                                entries.size() * sizeof(Entry)));
}

std::optional<KmvSketch> KmvSketch::Deserialize(ByteReader& r) {
  const auto view = ViewBody(r);
  if (!view) return std::nullopt;
  KmvSketch sketch(view->k(), view->initial_threshold(), view->hash_salt());
  // seen_ grows one insert at a time, deliberately without a reserve: a
  // reserve picks a different bucket count than incremental growth
  // reaches, and MemoryFootprint models the bucket array, so a restored
  // node's reported memory would shift with it.
  for (size_t i = 0; i < view->size(); ++i) {
    const double p = view->priority(i);
    sketch.seen_.insert(std::bit_cast<uint64_t>(p));
    sketch.store_.Offer(p, view->key(i));
  }
  sketch.store_.LowerThreshold(view->threshold());
  return sketch;
}

}  // namespace ats
