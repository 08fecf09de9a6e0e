// KMV / bottom-k distinct-counting sketch (Sections 3.4-3.5; [15], [3]).
//
// Every distinct key hashes to a coordinated priority in (0, 1]; the sketch
// keeps the k smallest distinct hash priorities. The adaptive threshold
// theta is the (k+1)-th smallest distinct priority seen (capped at the
// optional initial threshold), and the distinct-count estimate is the HT
// count  N_hat = (#retained)/theta  -- exact while unsaturated. The
// bottom-k threshold is fully substitutable, so the estimate is unbiased.
//
// The sketch also supports the weighted distinct counting of Section 3.4:
// with WeightedUniform priorities (R = U/w), the same structure samples
// paying users proportionally to spend while N_hat = sum_i 1/F_i(w_i T)
// still estimates the total population.
//
// Retention is delegated to the shared SampleStore (keys are the payload
// column); this class adds coordinated hashing and the MergeableSketch
// wire format. A priority is a function of its key, so a duplicate key is
// an equal priority: the store's ascending-distinct compaction collapses
// it (StoreOrder::kAscendingDistinct), and the canonical columns are in
// the KMV2 entry order -- ascending, distinct.
#ifndef ATS_SKETCH_KMV_H_
#define ATS_SKETCH_KMV_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ats/core/random.h"
#include "ats/core/sample_store.h"
#include "ats/core/threshold.h"
#include "ats/util/serialize.h"

namespace ats {

class KmvSketch {
 public:
  using Store = SampleStore<uint64_t, StoreOrder::kAscendingDistinct>;

  // k: sketch capacity. `initial_threshold` (default 1 = the whole unit
  // interval) lets composite sketches start pre-filtered, as the grouped
  // sketch of Section 3.6 requires.
  explicit KmvSketch(size_t k, double initial_threshold = 1.0,
                     uint64_t hash_salt = 0);

  // Feeds one key (duplicates are ignored -- coordinated hashing makes the
  // priority a function of the key). Amortized O(1): acceptance tests the
  // store's chunked bound and an accepted priority is appended, duplicate
  // or not; duplicates collapse at the next compaction. Returns true iff
  // the key's priority is accepted below the current bound.
  bool AddKey(uint64_t key);

  // Batched ingest: equivalent to calling AddKey() on each key in order
  // (same state, same acceptance count), but runs the fused
  // hash->priority->pre-filter pipeline (SampleStore::HashedBatchOffer):
  // each 64-key block is hashed into a dense priority column and culled
  // against the acceptance bound, and survivors are appended. Returns the
  // number of keys whose priority is accepted (duplicates of accepted
  // keys count).
  size_t AddKeys(std::span<const uint64_t> keys);

  // Feeds a pre-computed unit-interval priority directly (used by merges
  // and by weighted variants). An equal priority is a duplicate key: the
  // first arrival's key is kept.
  bool OfferPriority(double priority, uint64_t key);

  // Current threshold theta in (0, 1].
  double Threshold() const { return store_.Threshold(); }

  // Number of retained distinct priorities.
  size_t size() const { return store_.size(); }

  bool saturated() const { return store_.saturated(); }

  // Live heap bytes of the sketch state (util/memory.h convention): the
  // store's SoA columns, 16 bytes per buffered entry, so 16 * size() once
  // canonical. O(1), non-canonicalizing.
  size_t MemoryFootprint() const { return store_.MemoryFootprint(); }

  // Unbiased distinct-count estimate: size / theta.
  double Estimate() const;

  // Retained (priority, key) pairs, ascending by priority: the canonical
  // columns (and wire order), copied.
  std::vector<std::pair<double, uint64_t>> members() const;

  // Merges another KMV sketch over the SAME key universe hashing (same
  // salt): the result is the KMV sketch of the union of the streams, with
  // threshold min(theta_a, theta_b, merge evictions). This is the basic
  // bottom-k union baseline of Figure 4. Self-merge is a no-op.
  void Merge(const KmvSketch& other);

  // Threshold-pruned k-way union: observationally identical to merging
  // the inputs with Merge() in span order (same members, same theta, and
  // an equal priority keeps its first arrival's key either way), but the
  // global bound (min of every acceptance bound) is taken before any
  // member moves and each input's raw priority column is
  // block-prefiltered against it, so the S-shard fan-in costs one
  // selection instead of S merge+compaction rounds (see
  // SampleStore::MergeMany). All inputs must share this sketch's hash
  // salt; inputs aliasing `this` are skipped. The inputs are pure reads
  // (never canonicalized).
  void MergeMany(std::span<const KmvSketch* const> others);

  // One input of the k-way union, for callers that reach the inputs one
  // at a time (the concurrent tier gathers each shard under its own
  // lock): lowers to `other`'s acceptance bound and appends its raw
  // buffered members that pass the block pre-filter (as
  // SampleStore::Gather does). A sequence of gathers is a MergeMany once
  // PurgeAboveThreshold() closes it. Same salt required;
  // self-gather is a no-op; `other` is only read.
  void Gather(const KmvSketch& other);

  // Closes a sequence of Gather calls: compacts (no tail remains) and
  // drops members at/above theta.
  void PurgeAboveThreshold() { store_.PurgeAboveThreshold(); }

  // Zero-copy view over a whole serialized KMV frame (SerializeToString
  // layout): header and every entry validated once, entries exposed as a
  // bounds-checked span decoded lazily. Only the CANONICAL encoding is
  // accepted -- entries strictly ascending by priority, exactly as
  // SerializeTo emits them; the ascending check is what rejects duplicate
  // priorities without building a hash set. Borrows the frame's bytes.
  class FrameView {
   public:
    size_t k() const { return static_cast<size_t>(k_); }
    uint64_t hash_salt() const { return hash_salt_; }
    double initial_threshold() const { return initial_threshold_; }
    double threshold() const { return threshold_; }
    size_t size() const { return entries_.size() / kStride; }
    double priority(size_t i) const { return ReadAt<double>(i, 0); }
    uint64_t key(size_t i) const { return ReadAt<uint64_t>(i, 8); }

   private:
    friend class KmvSketch;
    static constexpr size_t kStride = sizeof(double) + sizeof(uint64_t);

    template <typename T>
    T ReadAt(size_t i, size_t offset) const {
      T v;
      std::memcpy(&v, entries_.data() + i * kStride + offset, sizeof(T));
      return v;
    }

    uint64_t k_ = 0;
    uint64_t hash_salt_ = 0;
    double initial_threshold_ = 1.0;
    double threshold_ = 1.0;
    std::string_view entries_;
  };

  // Parses a SerializeToString frame into a FrameView; nullopt on a bad
  // checksum, anything ViewBody rejects, or trailing bytes. Allocates
  // nothing: a hostile frame declaring a huge k cannot reserve memory here
  // (kMaxEagerReserve guards the materializing Deserialize path).
  static std::optional<FrameView> DeserializeView(std::string_view frame) {
    return ViewSketchFrame<KmvSketch>(frame);
  }

  // The KMV2 validator: parses one bare body off `r`, consuming exactly its
  // bytes (Theta and GroupDistinct embed KMV bodies back to back). Rejects
  // k < 1, initial threshold outside (0, 1], threshold outside
  // (0, initial], count > k, a truncated entry region, and entries not
  // strictly ascending inside (0, threshold).
  static std::optional<FrameView> ViewBody(ByteReader& r);

  // Threshold-pruned k-way union straight off the wire: observationally
  // identical to deserializing every frame and merging the results with
  // Merge() in span order, but zero-copy and pruned at the global min
  // theta before any entry is decoded. Returns false -- leaving the
  // sketch observably unchanged -- if any frame fails validation or
  // carries a foreign hash salt; all frames are vetted before the first
  // one is applied (a salt mismatch is a validation failure here, where
  // the Merge path would ATS_CHECK-abort).
  bool MergeManyFrames(std::span<const std::string_view> frames);

  // Externally lowers theta (threshold composition, grouped merges);
  // purges members at/above the new threshold. The estimate stays a valid
  // HT count at the lowered threshold.
  void LowerThreshold(double t) { store_.LowerThreshold(t); }

  uint64_t hash_salt() const { return hash_salt_; }
  size_t k() const { return store_.k(); }

  // The canonical columns are ascending and distinct (see Store).
  const Store& store() const { return store_; }

  // Wire format for shipping sketches between nodes: versioned magic
  // header plus the full sketch state. SerializeTo copies the canonical
  // columns, which are already in entry order; Deserialize is ViewBody,
  // then two column copies. nullopt on corrupt or foreign input.
  void SerializeTo(ByteWriter& w) const;
  static std::optional<KmvSketch> Deserialize(ByteReader& r);
  std::string SerializeToString() const { return SerializeSketch(*this); }
  // Exact byte length of SerializeToString(), without building the frame:
  // 8-byte header, five 8-byte fields, 16 bytes per retained entry, and
  // the 4-byte checksum, i.e. 52 + 16 * size().
  size_t SerializedSize() const {
    return kFrameOverhead + FrameView::kStride * size();
  }
  static std::optional<KmvSketch> Deserialize(std::string_view bytes) {
    return DeserializeSketch<KmvSketch>(bytes);
  }

  // Typed rejection reason: the structural cause (truncated / foreign
  // magic / other version / checksum), or kCorruptBody when the frame is
  // structurally sound but ViewBody rejects a field or entry. kNone iff
  // the frame parses on every path. Lets transports and aggregators count
  // rejections per cause and distinguish retry-able short reads from
  // poison frames.
  static FrameFault DiagnoseFrame(std::string_view frame);

  static constexpr uint32_t kWireMagic = 0x4b4d5632;  // "KMV2"
  static constexpr uint32_t kWireVersion = 2;
  // Bytes of a KMV2 frame that do not depend on the entry count: magic
  // and version, k, salt, initial threshold, threshold, count, checksum.
  static constexpr size_t kFrameOverhead =
      2 * sizeof(uint32_t) + 5 * sizeof(uint64_t) + sizeof(uint32_t);

 private:
  // The k-way union core shared by MergeMany and MergeManyFrames (see
  // kmv.cc): `inputs` is non-empty and pre-vetted. Input is a live
  // sketch pointer or a FrameView; the overloads below read each kind.
  template <typename Input>
  void MergeInputs(std::span<const Input> inputs);
  static double AcceptBoundOf(const KmvSketch* in) {
    return in->store_.AcceptBound();
  }
  static double AcceptBoundOf(const FrameView& in) { return in.threshold(); }
  void GatherInput(const KmvSketch* in) { Gather(*in); }
  void GatherInput(const FrameView& in);

  uint64_t hash_salt_;
  Store store_;  // priority column + key payload column
};

static_assert(MergeableSketch<KmvSketch>);

}  // namespace ats

#endif  // ATS_SKETCH_KMV_H_
