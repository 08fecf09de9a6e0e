// Theta sketch baseline (Dasgupta et al. [11]; Sections 3.4-3.5).
//
// A Theta sketch is a (threshold, retained-hash-set) pair. Streams are
// sketched exactly like KMV (theta = (k+1)-th smallest distinct hash), but
// the UNION rule differs from the bottom-k merge: the union threshold is
// theta = min over inputs, and every retained hash below theta is kept --
// the result may hold more than k hashes and is NOT re-capped. The union
// estimate is (#retained)/theta. This "1-goodness" merge is the baseline
// the generalized LCS merge of Section 3.5 (lcs_merge.h) improves upon.
//
// Stream mode delegates retention to the shared SampleStore via the KMV
// sketch; union mode holds the (uncapped) merged retained set directly.
// Merge() applies the Theta union rule pairwise, so the sketch satisfies
// the common MergeableSketch interface and ships between nodes.
#ifndef ATS_SKETCH_THETA_H_
#define ATS_SKETCH_THETA_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ats/sketch/kmv.h"
#include "ats/util/memory.h"
#include "ats/util/serialize.h"

namespace ats {

class ThetaSketch {
 public:
  // Sketches a stream with nominal capacity k (identical to KMV).
  explicit ThetaSketch(size_t k, uint64_t hash_salt = 0);

  void AddKey(uint64_t key);

  // Batched ingest through the fused hash->priority->pre-filter pipeline
  // (KmvSketch::AddKeys): equivalent to an AddKey loop in stream order.
  // Returns the number of keys accepted below the current theta.
  size_t AddKeys(std::span<const uint64_t> keys);

  double Theta() const;
  size_t size() const;

  // Live heap bytes of the sketch state (util/memory.h convention):
  // the wrapped KMV in stream mode, the dense retained vector in union
  // mode. O(1), non-canonicalizing.
  size_t MemoryFootprint() const {
    return kmv_.MemoryFootprint() + VectorFootprint(union_retained_);
  }

  // Distinct-count estimate: (#retained)/theta.
  double Estimate() const;

  // Union of several sketches under the Theta rule (min-theta, keep all
  // below it, no re-capping).
  static ThetaSketch Union(const std::vector<const ThetaSketch*>& inputs);

  // The k-way Theta union engine (Union above and Merge delegate here):
  // the min theta over all inputs is taken first, every input's retained
  // set is pruned against it -- retained sets are ascending in both
  // modes, so the prune is one binary search and the tail is never
  // touched -- and the
  // surviving hashes are merged with one sort + dedup pass instead of
  // per-hash ordered-set inserts.
  static ThetaSketch UnionMany(std::span<const ThetaSketch* const> inputs);

  // Pairwise Theta union in place: this becomes the union of this and
  // `other` (the result is in union mode). Self-merge is a no-op.
  void Merge(const ThetaSketch& other);

  bool union_mode() const { return union_mode_; }

  // Retained hash priorities (ascending).
  std::vector<double> RetainedPriorities() const;

  // Wire format: versioned magic header, mode flag, then either the
  // embedded KMV stream sketch or the union (theta, retained set).
  void SerializeTo(ByteWriter& w) const;
  static std::optional<ThetaSketch> Deserialize(ByteReader& r);
  std::string SerializeToString() const { return SerializeSketch(*this); }
  static std::optional<ThetaSketch> Deserialize(std::string_view bytes) {
    return DeserializeSketch<ThetaSketch>(bytes);
  }

 private:
  ThetaSketch();  // for Union / Deserialize results

  // Exactly one of these is active: stream mode wraps a KMV sketch; union
  // mode holds the merged retained set directly -- a sorted, distinct,
  // dense vector (the aggregation tier merges these with linear passes;
  // the previous std::set paid a node allocation per retained hash).
  bool union_mode_ = false;
  KmvSketch kmv_;
  double union_theta_ = 1.0;
  std::vector<double> union_retained_;  // ascending, distinct
};

static_assert(MergeableSketch<ThetaSketch>);

}  // namespace ats

#endif  // ATS_SKETCH_THETA_H_
