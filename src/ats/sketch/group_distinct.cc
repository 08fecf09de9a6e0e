#include "ats/sketch/group_distinct.h"

#include <algorithm>

#include "ats/util/check.h"

namespace {
constexpr uint32_t kGroupDistinctMagic = 0x47445332;  // "GDS2"
constexpr uint32_t kGroupDistinctVersion = 2;
}  // namespace

namespace ats {

namespace {

// Per-(group, key) coordinated priority: coordination is only needed
// within a group, so the group id perturbs the salt.
double GroupKeyPriority(uint64_t group, uint64_t key, uint64_t salt) {
  return HashToUnit(HashKey(key, salt ^ Mix64(group)));
}

}  // namespace

GroupDistinctSketch::GroupDistinctSketch(size_t m, size_t k,
                                         uint64_t hash_salt)
    : m_(m), k_(k), hash_salt_(hash_salt) {
  ATS_CHECK(m >= 1);
  ATS_CHECK(k >= 1);
}

void GroupDistinctSketch::Add(uint64_t group, uint64_t key) {
  AddWithPriority(group, key, GroupKeyPriority(group, key, hash_salt_));
}

void GroupDistinctSketch::AddBatch(
    std::span<const Observation> observations) {
  // Hash a whole block into a dense priority column before routing: the
  // per-item salt (group-perturbed) keeps coordination within each group
  // while the straight-line loop vectorizes. Routing consults per-group
  // state, so the block pre-filter of the plain stores does not apply.
  constexpr size_t kBlock = 64;
  double priorities[kBlock];
  size_t i = 0;
  for (; i + kBlock <= observations.size(); i += kBlock) {
    for (size_t j = 0; j < kBlock; ++j) {
      priorities[j] = GroupKeyPriority(observations[i + j].group,
                                       observations[i + j].key, hash_salt_);
    }
    for (size_t j = 0; j < kBlock; ++j) {
      AddWithPriority(observations[i + j].group, observations[i + j].key,
                      priorities[j]);
    }
  }
  for (; i < observations.size(); ++i) {
    Add(observations[i].group, observations[i].key);
  }
}

void GroupDistinctSketch::AddWithPriority(uint64_t group, uint64_t key,
                                          double priority) {
  auto it = promoted_.find(group);
  if (it == promoted_.end() && promoted_.size() < m_) {
    // Bootstrap: the first m distinct groups get their own sketch.
    it = promoted_
             .emplace(group, KmvSketch(k_, pool_threshold_, hash_salt_))
             .first;
  }
  if (it != promoted_.end()) {
    // Track the sketch's O(1) acceptance bound, not its canonical
    // Threshold(): querying the latter would force a store compaction per
    // accepted offer, forfeiting amortized-O(1) ingest. The bound only
    // tightens when the store compacts, which is exactly when the
    // sketch's threshold has dropped in a chunk; between chunks the pool
    // bound is merely stale-HIGH, which keeps the pool complete (every
    // item below it was admitted) and all HT estimates valid --
    // threshold substitutability again.
    const double bound_before = it->second.store().AcceptBound();
    it->second.OfferPriority(priority, key);
    if (it->second.store().AcceptBound() < bound_before &&
        bound_before >= pool_threshold_) {
      // The max-threshold sketch may have shrunk: refresh the pool bound.
      RecomputePoolThreshold();
    }
    return;
  }
  if (priority < pool_threshold_) {
    auto& samples = pool_[group];
    samples.insert(priority);
    if (samples.size() > k_) {
      MaybePromote(group);
    } else if (++pool_inserts_since_refresh_ > k_ + 64) {
      // Staleness backstop. The in-path bound-drop trigger above can be
      // disarmed when a const query canonicalizes the max-threshold
      // sketch OUTSIDE AddWithPriority (its bound then sits below the
      // pool threshold, so no later in-path drop satisfies the trigger).
      // A frozen stale-high pool threshold stays statistically valid but
      // lets the pool absorb items a fresh T_max would reject, so cap
      // the staleness: refresh after every ~k pool insertions.
      RecomputePoolThreshold();
    }
  }
}

void GroupDistinctSketch::MaybePromote(uint64_t group) {
  // Build the newcomer's sketch from its pool items; its items were
  // filtered at (past, larger) pool thresholds, so starting at the current
  // pool threshold is a valid per-sketch threshold.
  KmvSketch sketch(k_, pool_threshold_, hash_salt_);
  for (double p : pool_.at(group)) sketch.OfferPriority(p, /*key=*/0);
  pool_.erase(group);

  DemoteLargestThreshold();
  promoted_.emplace(group, std::move(sketch));

  RecomputePoolThreshold();
}

void GroupDistinctSketch::DemoteLargestThreshold() {
  ATS_CHECK(!promoted_.empty());
  auto victim = promoted_.begin();
  for (auto it = promoted_.begin(); it != promoted_.end(); ++it) {
    if (it->second.Threshold() > victim->second.Threshold()) victim = it;
  }
  // The victim's sketch threshold can exceed the pool threshold after a
  // merge, so keep only the (valid subsample of) items below it.
  auto& samples = pool_[victim->first];
  for (const auto& [priority, key] : victim->second.members()) {
    if (priority < pool_threshold_) samples.insert(priority);
  }
  if (samples.empty()) pool_.erase(victim->first);
  promoted_.erase(victim);
}

void GroupDistinctSketch::RecomputePoolThreshold() {
  pool_inserts_since_refresh_ = 0;
  double t = 1.0;
  if (promoted_.size() >= m_) {
    t = 0.0;
    for (const auto& [group, sketch] : promoted_) {
      t = std::max(t, sketch.Threshold());
    }
  }
  if (t < pool_threshold_) {
    pool_threshold_ = t;
    PurgePool();
  }
}

void GroupDistinctSketch::PurgePool() {
  for (auto it = pool_.begin(); it != pool_.end();) {
    auto& samples = it->second;
    samples.erase(samples.lower_bound(pool_threshold_), samples.end());
    it = samples.empty() ? pool_.erase(it) : std::next(it);
  }
}

void GroupDistinctSketch::Merge(const GroupDistinctSketch& other) {
  if (&other == this) return;
  ATS_CHECK(m_ == other.m_);
  ATS_CHECK(k_ == other.k_);
  ATS_CHECK(hash_salt_ == other.hash_salt_);

  // The union pool threshold is the min of both sides' thresholds: every
  // pool item on either side was filtered at a threshold >= it.
  if (other.pool_threshold_ < pool_threshold_) {
    pool_threshold_ = other.pool_threshold_;
    PurgePool();
  }

  // Promoted sketches: per-group KMV merge when promoted on both sides,
  // otherwise adopt a copy (demotion below re-enforces the m bound).
  for (const auto& [group, sketch] : other.promoted_) {
    auto it = promoted_.find(group);
    if (it != promoted_.end()) {
      it->second.Merge(sketch);
      continue;
    }
    auto [nit, inserted] = promoted_.emplace(group, sketch);
    // Fold any of our pool items for the adopted group into its sketch.
    // Pool items are only complete below the pool threshold, so the
    // sketch's theta must not exceed it or the estimate would undercount.
    auto pl = pool_.find(group);
    if (pl != pool_.end()) {
      nit->second.LowerThreshold(pool_threshold_);
      for (double p : pl->second) nit->second.OfferPriority(p, /*key=*/0);
      pool_.erase(pl);
    }
  }
  while (promoted_.size() > m_) DemoteLargestThreshold();

  // Pool union, filtered at the (already lowered) union threshold.
  for (const auto& [group, samples] : other.pool_) {
    auto pit = promoted_.find(group);
    if (pit != promoted_.end()) {
      // The group is promoted here: its pool items fold into the sketch
      // after capping theta at the pool threshold (same completeness
      // argument as above; offers at/above theta are rejected).
      pit->second.LowerThreshold(pool_threshold_);
      for (double p : samples) pit->second.OfferPriority(p, /*key=*/0);
      continue;
    }
    auto& mine = pool_[group];
    for (double p : samples) {
      if (p < pool_threshold_) mine.insert(p);
    }
    if (mine.empty()) pool_.erase(group);
  }

  RecomputePoolThreshold();
}

void GroupDistinctSketch::MergeMany(
    std::span<const GroupDistinctSketch* const> others) {
  // Pass 1: parameter checks and the union pool threshold. Applying the
  // global min FIRST is the pruning step -- every later fold and pool
  // union filters at the final bound instead of re-filtering per input.
  double t = pool_threshold_;
  bool any_input = false;
  for (const GroupDistinctSketch* o : others) {
    if (o == this) continue;
    ATS_CHECK(m_ == o->m_);
    ATS_CHECK(k_ == o->k_);
    ATS_CHECK(hash_salt_ == o->hash_salt_);
    t = std::min(t, o->pool_threshold_);
    any_input = true;
  }
  if (!any_input) return;
  if (t < pool_threshold_) {
    pool_threshold_ = t;
    PurgePool();
  }

  // Pass 2: gather each group's promoted sketches across ALL inputs, so
  // a group promoted in many inputs costs one k-way selection.
  std::unordered_map<uint64_t, std::vector<const KmvSketch*>> per_group;
  for (const GroupDistinctSketch* o : others) {
    if (o == this) continue;
    for (const auto& [group, sketch] : o->promoted_) {
      per_group[group].push_back(&sketch);
    }
  }
  for (auto& [group, inputs] : per_group) {
    auto it = promoted_.find(group);
    if (it != promoted_.end()) {
      it->second.MergeMany(inputs);
      continue;
    }
    // Adopt: copy the first input's sketch, fold the rest in one k-way
    // merge, then fold any of our pool items for the group. Pool items
    // are only complete below the pool threshold, so the sketch's theta
    // must not exceed it or the estimate would undercount.
    KmvSketch adopted = *inputs.front();
    if (inputs.size() > 1) {
      adopted.MergeMany(std::span(inputs).subspan(1));
    }
    auto pl = pool_.find(group);
    if (pl != pool_.end()) {
      adopted.LowerThreshold(pool_threshold_);
      for (double p : pl->second) adopted.OfferPriority(p, /*key=*/0);
      pool_.erase(pl);
    }
    promoted_.emplace(group, std::move(adopted));
  }
  // The m bound is re-enforced ONCE, after every input's promoted groups
  // have been folded (a pairwise chain demotes between inputs).
  while (promoted_.size() > m_) DemoteLargestThreshold();

  // Pool unions, filtered at the (already-minimal) union threshold.
  for (const GroupDistinctSketch* o : others) {
    if (o == this) continue;
    for (const auto& [group, samples] : o->pool_) {
      auto pit = promoted_.find(group);
      if (pit != promoted_.end()) {
        pit->second.LowerThreshold(pool_threshold_);
        for (double p : samples) pit->second.OfferPriority(p, /*key=*/0);
        continue;
      }
      auto& mine = pool_[group];
      for (double p : samples) {
        if (p < pool_threshold_) mine.insert(p);
      }
      if (mine.empty()) pool_.erase(group);
    }
  }

  RecomputePoolThreshold();
}

double GroupDistinctSketch::Estimate(uint64_t group) const {
  const auto pit = promoted_.find(group);
  if (pit != promoted_.end()) return pit->second.Estimate();
  const auto it = pool_.find(group);
  if (it == pool_.end()) return 0.0;
  return static_cast<double>(it->second.size()) / pool_threshold_;
}

size_t GroupDistinctSketch::StoredItems() const {
  size_t total = 0;
  for (const auto& [group, sketch] : promoted_) total += sketch.size();
  for (const auto& [group, samples] : pool_) total += samples.size();
  return total;
}

std::vector<uint64_t> GroupDistinctSketch::GroupsWithSamples() const {
  std::vector<uint64_t> out;
  for (const auto& [group, sketch] : promoted_) {
    if (sketch.size() > 0) out.push_back(group);
  }
  for (const auto& [group, samples] : pool_) {
    if (!samples.empty()) out.push_back(group);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void GroupDistinctSketch::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kGroupDistinctMagic, kGroupDistinctVersion);
  w.WriteU64(m_);
  w.WriteU64(k_);
  w.WriteU64(hash_salt_);
  w.WriteDouble(pool_threshold_);
  // Promoted sketches in ascending group order for a canonical encoding.
  std::map<uint64_t, const KmvSketch*> promoted_sorted;
  for (const auto& [group, sketch] : promoted_) {
    promoted_sorted.emplace(group, &sketch);
  }
  w.WriteU64(promoted_sorted.size());
  for (const auto& [group, sketch] : promoted_sorted) {
    w.WriteU64(group);
    sketch->SerializeTo(w);
  }
  std::map<uint64_t, const std::set<double>*> pool_sorted;
  for (const auto& [group, samples] : pool_) {
    pool_sorted.emplace(group, &samples);
  }
  w.WriteU64(pool_sorted.size());
  for (const auto& [group, samples] : pool_sorted) {
    w.WriteU64(group);
    w.WriteU64(samples->size());
    for (double p : *samples) w.WriteDouble(p);
  }
}

std::optional<GroupDistinctSketch> GroupDistinctSketch::Deserialize(
    ByteReader& r) {
  if (!ReadSketchHeader(r, kGroupDistinctMagic, kGroupDistinctVersion)) {
    return std::nullopt;
  }
  const auto m = r.ReadU64();
  const auto k = r.ReadU64();
  const auto salt = r.ReadU64();
  const auto pool_threshold = r.ReadDouble();
  if (!m || !k || !salt.has_value() || !pool_threshold) return std::nullopt;
  if (*m < 1 || *k < 1 || !(*pool_threshold > 0.0) ||
      *pool_threshold > 1.0) {
    return std::nullopt;
  }
  GroupDistinctSketch out(static_cast<size_t>(*m), static_cast<size_t>(*k),
                          *salt);
  out.pool_threshold_ = *pool_threshold;
  const auto num_promoted = r.ReadU64();
  if (!num_promoted || *num_promoted > *m) return std::nullopt;
  // Canonical encoding only: each section lists its groups strictly
  // ascending (which also rules out duplicates), as SerializeTo does.
  uint64_t prev_group = 0;
  for (uint64_t i = 0; i < *num_promoted; ++i) {
    const auto group = r.ReadU64();
    if (!group.has_value()) return std::nullopt;
    if (i > 0 && *group <= prev_group) return std::nullopt;
    prev_group = *group;
    auto sketch = KmvSketch::Deserialize(r);
    if (!sketch || sketch->k() != out.k_ ||
        sketch->hash_salt() != out.hash_salt_) {
      return std::nullopt;
    }
    out.promoted_.emplace(*group, std::move(*sketch));
  }
  const auto num_pool = r.ReadU64();
  if (!num_pool) return std::nullopt;
  for (uint64_t i = 0; i < *num_pool; ++i) {
    const auto group = r.ReadU64();
    const auto count = r.ReadU64();
    if (!group.has_value() || !count || *count == 0) return std::nullopt;
    if ((i > 0 && *group <= prev_group) || out.promoted_.contains(*group)) {
      return std::nullopt;
    }
    prev_group = *group;
    auto& samples = out.pool_[*group];
    double prev = 0.0;
    for (uint64_t j = 0; j < *count; ++j) {
      const auto p = r.ReadDouble();
      if (!p) return std::nullopt;
      // Ascending, distinct, below the pool threshold.
      if (!(*p > prev) || *p >= out.pool_threshold_) return std::nullopt;
      samples.insert(samples.end(), *p);
      prev = *p;
    }
  }
  return out;
}

}  // namespace ats
