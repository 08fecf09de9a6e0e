// Scheme-conformance kit: one shared oracle every MergeableSketch
// family plugs into via a small traits struct. A family declares
//
//   struct MyTraits {
//     using Sketch = ats::MySketch;
//     static constexpr char kName[] = "my_sketch";      // unique slug
//     static constexpr ats::persist::SchemeKind kKind = ...;
//     static Sketch Make();                      // fixed shape params
//     static void Ingest(Sketch&, uint64_t seed, size_t n);
//   };
//
// and instantiates the battery with
//
//   using MyTypes = ::testing::Types<MyTraits, ...>;
//   INSTANTIATE_TYPED_TEST_SUITE_P(My, SchemeConformance, MyTypes);
//
// Ingest MUST be deterministic in `seed` and produce key-disjoint
// streams for distinct seeds (some families -- MultiStratified --
// require key-disjointness as a Merge precondition; the kit uses
// seeds 1..16).
//
// A family whose MergeManyFrames vets frames against the target's shape
// (hash salt, window, budget, ...) may also declare
//
//     static bool MergeCompatible(const Sketch::FrameView&);
//
// true iff a frame with that view merges into a Make() target; the
// structural-mutation leg uses it to predict MergeManyFrames' verdict.
//
// The battery, per family:
//   * serialize -> deserialize -> serialize byte-stability (empty and
//     ingested states);
//   * DeserializeView accepts exactly what eager Deserialize accepts;
//   * every-prefix-truncation and every-single-bit-flip hostile sweeps
//     fail closed in eager, view, and DiagnoseFrame paths (the checksum
//     stops nearly all of these before any field validator runs);
//   * checksum-repaired structural mutations (word swaps, copies, +-1
//     patches -- count fields included) reach the field validators:
//     eager, view, DiagnoseFrame and MergeManyFrames accept exactly the
//     same set, and every accepted frame re-serializes to itself.
//     Families without a view (Theta, GroupDistinct) run only the
//     eager-canonical half and report a partial skip;
//   * MergeManyFrames == the pairwise Deserialize+Merge chain, its
//     all-or-nothing rejection leaves the target byte-identical, and
//     the empty frame list is a strict no-op;
//   * object-level MergeMany == the pairwise Merge chain;
//   * CKP1 checkpoint write -> restore bit-identity under both open
//     modes, plus wrong-kind rejection that leaves the target
//     byte-identical;
//   * MemoryFootprint sanity;
//   * ingest itself is dispatch-invariant (forced-scalar kernels build
//     a byte-identical sketch).
//
// Every leg runs twice: under the ambient SIMD dispatch level and
// again forced to scalar kernels (simd::ScopedSimdLevel), so the wire
// contract cannot silently depend on the kernel tier. Legs whose API a
// family does not expose (e.g. ThetaSketch has no FrameView) skip via
// `if constexpr` -- a skip is visible in the test output, never a
// silent pass.
#ifndef ATS_TESTS_CONFORMANCE_CONFORMANCE_KIT_H_
#define ATS_TESTS_CONFORMANCE_CONFORMANCE_KIT_H_

#include <gtest/gtest.h>

#include <concepts>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <iostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ats/core/simd/simd_dispatch.h"
#include "ats/persist/checkpoint.h"
#include "ats/util/serialize.h"
#include "tests/conformance/structural_mutations.h"

namespace ats::conformance {

// API-presence probes. A family that lacks an optional capability
// skips the corresponding leg (visibly, via GTEST_SKIP).
template <typename S>
inline constexpr bool kHasDeserializeView =
    requires(std::string_view f) { S::DeserializeView(f); };

template <typename S>
inline constexpr bool kHasDiagnoseFrame = requires(std::string_view f) {
  { S::DiagnoseFrame(f) } -> std::same_as<FrameFault>;
};

template <typename S>
inline constexpr bool kHasMergeManyFrames =
    requires(S s, std::span<const std::string_view> fs) {
      { s.MergeManyFrames(fs) } -> std::same_as<bool>;
    };

template <typename S>
inline constexpr bool kHasObjectMergeMany =
    requires(S s, std::span<const S* const> o) { s.MergeMany(o); };

// The full parser set the structural-mutation parity leg compares.
template <typename S>
inline constexpr bool kHasAllParsers =
    kHasDeserializeView<S> && kHasDiagnoseFrame<S> && kHasMergeManyFrames<S>;

template <typename Traits>
class SchemeConformance : public ::testing::Test {
 protected:
  using Sketch = typename Traits::Sketch;

  // Small enough that the O(length^2) hostile sweep stays fast under
  // sanitizers, large enough that every family retains a non-trivial
  // sample.
  static constexpr size_t kIngestN = 48;

  static Sketch MakeIngested(uint64_t seed, size_t n = kIngestN) {
    Sketch s = Traits::Make();
    Traits::Ingest(s, seed, n);
    return s;
  }

  // The uniform equality oracle: families serialize in canonical order,
  // so byte-equal frames <=> observationally equal sketches.
  static std::string Fingerprint(const Sketch& s) {
    return s.SerializeToString();
  }

  // Runs `body` under the ambient dispatch level, then again forced to
  // scalar kernels. Bodies build all state inside themselves so the
  // scalar pass exercises scalar ingest, not just scalar parsing.
  template <typename Body>
  static void ForEachDispatchLevel(Body body) {
    {
      SCOPED_TRACE("dispatch=default");
      body();
    }
    {
      SCOPED_TRACE("dispatch=forced-scalar");
      simd::ScopedSimdLevel forced(simd::SimdLevel::kScalar);
      body();
    }
  }

  static std::string TempPath(const char* leg) {
    return ::testing::TempDir() + "ats_conformance_" +
           std::string(Traits::kName) + "_" + leg + ".ckpt";
  }
};

TYPED_TEST_SUITE_P(SchemeConformance);

// Serialize -> Deserialize -> Serialize is byte-identical, for the
// fresh (empty) state and an ingested state.
TYPED_TEST_P(SchemeConformance, RoundTripIsByteStable) {
  using Sketch = typename TypeParam::Sketch;
  this->ForEachDispatchLevel([] {
    {
      const Sketch empty = TypeParam::Make();
      const std::string frame = empty.SerializeToString();
      const auto parsed = Sketch::Deserialize(std::string_view(frame));
      ASSERT_TRUE(parsed.has_value()) << "empty frame must parse";
      EXPECT_EQ(parsed->SerializeToString(), frame);
    }
    {
      const Sketch s = SchemeConformance<TypeParam>::MakeIngested(7);
      const std::string frame = s.SerializeToString();
      const auto parsed = Sketch::Deserialize(std::string_view(frame));
      ASSERT_TRUE(parsed.has_value()) << "ingested frame must parse";
      EXPECT_EQ(parsed->SerializeToString(), frame);
    }
  });
}

// DeserializeView accepts every frame eager Deserialize accepts (the
// reject half of the parity contract is swept in HostileBytesFailClosed).
TYPED_TEST_P(SchemeConformance, ViewParityOnIntactFrames) {
  using Sketch = typename TypeParam::Sketch;
  if constexpr (!kHasDeserializeView<Sketch>) {
    GTEST_SKIP() << "family has no DeserializeView";
  } else {
    this->ForEachDispatchLevel([] {
      const std::string empty_frame = TypeParam::Make().SerializeToString();
      EXPECT_TRUE(Sketch::DeserializeView(empty_frame).has_value());
      const std::string frame =
          SchemeConformance<TypeParam>::MakeIngested(7).SerializeToString();
      EXPECT_TRUE(Sketch::DeserializeView(frame).has_value());
      if constexpr (kHasDiagnoseFrame<Sketch>) {
        EXPECT_EQ(Sketch::DiagnoseFrame(frame), FrameFault::kNone);
      }
    });
  }
}

// Every strict prefix and every single-bit flip of a valid frame is
// rejected by the eager parser, the view parser, and DiagnoseFrame
// alike -- no hostile byte string parses on any path.
TYPED_TEST_P(SchemeConformance, HostileBytesFailClosed) {
  using Sketch = typename TypeParam::Sketch;
  this->ForEachDispatchLevel([] {
    const std::string frame =
        SchemeConformance<TypeParam>::MakeIngested(7).SerializeToString();
    ASSERT_TRUE(Sketch::Deserialize(std::string_view(frame)).has_value());

    const auto expect_rejected = [](std::string_view hostile, size_t pos,
                                    const char* what) {
      if (Sketch::Deserialize(hostile).has_value()) {
        FAIL() << what << " at " << pos << " parsed eagerly";
      }
      if constexpr (kHasDeserializeView<Sketch>) {
        if (Sketch::DeserializeView(hostile).has_value()) {
          FAIL() << what << " at " << pos << " parsed as a view";
        }
      }
      if constexpr (kHasDiagnoseFrame<Sketch>) {
        if (Sketch::DiagnoseFrame(hostile) == FrameFault::kNone) {
          FAIL() << what << " at " << pos << " diagnosed clean";
        }
      }
    };

    for (size_t len = 0; len < frame.size(); ++len) {
      expect_rejected(std::string_view(frame).substr(0, len), len, "prefix");
      if (::testing::Test::HasFatalFailure()) return;
    }
    std::string mutated = frame;
    for (size_t pos = 0; pos < frame.size(); ++pos) {
      const char flip = static_cast<char>(1u << (pos % 8));
      mutated[pos] ^= flip;
      expect_rejected(mutated, pos, "bit flip");
      mutated[pos] ^= flip;  // restore
      if (::testing::Test::HasFatalFailure()) return;
    }
  });
}

// Checksum-repaired structural mutations: the four parse paths agree on
// every mutated frame, and an accepted frame is canonical (re-serializes
// to itself) and merges exactly like the pairwise Deserialize+Merge
// chain. Reports the tally per dispatch level.
TYPED_TEST_P(SchemeConformance, StructuralMutationsAgreeAcrossParsers) {
  using Sketch = typename TypeParam::Sketch;
  using Kit = SchemeConformance<TypeParam>;
  this->ForEachDispatchLevel([] {
    const std::string frame = Kit::MakeIngested(7).SerializeToString();
    const std::vector<std::string> mutations = StructuralMutations(frame);
    size_t accepted = 0;
    size_t disagreements = 0;
    for (size_t i = 0; i < mutations.size(); ++i) {
      const std::string& m = mutations[i];
      const auto eager = Sketch::Deserialize(std::string_view(m));
      if (eager.has_value()) {
        ++accepted;
        EXPECT_EQ(eager->SerializeToString(), m)
            << "mutation " << i << " parsed but is not canonical";
      }
      if constexpr (kHasAllParsers<Sketch>) {
        const auto view = Sketch::DeserializeView(m);
        const bool clean = Sketch::DiagnoseFrame(m) == FrameFault::kNone;
        bool merge_expected = view.has_value();
        if constexpr (requires { TypeParam::MergeCompatible(*view); }) {
          merge_expected = merge_expected && TypeParam::MergeCompatible(*view);
        }
        Sketch target = Kit::MakeIngested(1);
        const std::string_view frames[] = {m};
        const bool merged = target.MergeManyFrames(frames);
        if (eager.has_value() != view.has_value() ||
            clean != view.has_value() || merged != merge_expected) {
          ++disagreements;
          ADD_FAILURE() << "mutation " << i << ": eager=" << eager.has_value()
                        << " view=" << view.has_value()
                        << " diagnose_clean=" << clean
                        << " merged=" << merged
                        << " (expected " << merge_expected << ")";
        } else if (merged) {
          Sketch chain = Kit::MakeIngested(1);
          chain.Merge(*eager);
          EXPECT_EQ(target.SerializeToString(), chain.SerializeToString())
              << "mutation " << i << " merged unlike the pairwise chain";
        }
      }
    }
    std::cout << "[ mutations ] " << TypeParam::kName << " dispatch="
              << simd::SimdLevelName(simd::ActiveSimdLevel()) << ": "
              << mutations.size() << " mutations, " << accepted
              << " accepted, " << disagreements << " disagreements\n";
    EXPECT_EQ(disagreements, 0u);
  });
  if constexpr (!kHasAllParsers<Sketch>) {
    GTEST_SKIP() << "family has no DeserializeView: ran the eager-canonical "
                    "half only";
  }
}

// MergeManyFrames is observationally the pairwise Deserialize+Merge
// chain; a single bad frame rejects the whole batch with the target
// byte-identical; the empty list is a strict no-op.
TYPED_TEST_P(SchemeConformance, MergeManyFramesMatchesPairwiseChain) {
  using Sketch = typename TypeParam::Sketch;
  if constexpr (!kHasMergeManyFrames<Sketch>) {
    GTEST_SKIP() << "family has no MergeManyFrames";
  } else {
    this->ForEachDispatchLevel([] {
      const Sketch target = SchemeConformance<TypeParam>::MakeIngested(1);
      std::vector<std::string> storage;
      for (uint64_t seed : {2u, 3u, 4u}) {
        storage.push_back(
            SchemeConformance<TypeParam>::MakeIngested(seed)
                .SerializeToString());
      }
      std::vector<std::string_view> frames(storage.begin(), storage.end());

      Sketch chain = target;
      for (std::string_view f : frames) {
        const auto parsed = Sketch::Deserialize(f);
        ASSERT_TRUE(parsed.has_value());
        chain.Merge(*parsed);
      }
      Sketch bulk = target;
      ASSERT_TRUE(bulk.MergeManyFrames(frames));
      EXPECT_EQ(bulk.SerializeToString(), chain.SerializeToString());

      // All-or-nothing: one corrupt frame in the middle rejects the
      // whole batch and leaves the target byte-identical.
      std::string bad = storage[1];
      bad[bad.size() / 2] ^= 0x20;
      frames[1] = bad;
      Sketch victim = target;
      const std::string before = victim.SerializeToString();
      EXPECT_FALSE(victim.MergeManyFrames(frames));
      EXPECT_EQ(victim.SerializeToString(), before);

      // Empty list: strict no-op that still succeeds.
      Sketch untouched = target;
      EXPECT_TRUE(untouched.MergeManyFrames({}));
      EXPECT_EQ(untouched.SerializeToString(), before);
    });
  }
}

// Object-level MergeMany equals the pairwise Merge chain.
TYPED_TEST_P(SchemeConformance, ObjectMergeManyMatchesPairwiseChain) {
  using Sketch = typename TypeParam::Sketch;
  if constexpr (!kHasObjectMergeMany<Sketch>) {
    GTEST_SKIP() << "family has no object-level MergeMany";
  } else {
    this->ForEachDispatchLevel([] {
      const Sketch target = SchemeConformance<TypeParam>::MakeIngested(1);
      const Sketch a = SchemeConformance<TypeParam>::MakeIngested(2);
      const Sketch b = SchemeConformance<TypeParam>::MakeIngested(3);

      Sketch chain = target;
      chain.Merge(a);
      chain.Merge(b);
      Sketch bulk = target;
      const Sketch* others[] = {&a, &b};
      bulk.MergeMany(others);
      EXPECT_EQ(bulk.SerializeToString(), chain.SerializeToString());
    });
  }
}

// CKP1 checkpoint write -> restore reproduces the sketch bit-for-bit
// under both open modes; restoring with the wrong expected kind fails
// with kBadKind and leaves the target byte-identical.
TYPED_TEST_P(SchemeConformance, CheckpointRestoreIsBitIdentical) {
  using Sketch = typename TypeParam::Sketch;
  namespace persist = ats::persist;
  const std::string path = this->TempPath("ckpt");
  this->ForEachDispatchLevel([&path] {
    const Sketch s = SchemeConformance<TypeParam>::MakeIngested(5);
    const std::string frame = s.SerializeToString();
    ASSERT_EQ(persist::CheckpointWriter::Write(path, TypeParam::kKind,
                                               /*epoch=*/42, frame),
              persist::CheckpointFault::kNone);

    for (const persist::OpenMode mode :
         {persist::OpenMode::kPreferMmap, persist::OpenMode::kBuffered}) {
      SCOPED_TRACE(mode == persist::OpenMode::kPreferMmap ? "mmap"
                                                          : "buffered");
      Sketch restored = TypeParam::Make();
      uint64_t epoch = 0;
      ASSERT_EQ(persist::RestoreFromCheckpoint(path, TypeParam::kKind,
                                               &restored, &epoch, mode),
                persist::CheckpointFault::kNone);
      EXPECT_EQ(epoch, 42u);
      EXPECT_EQ(restored.SerializeToString(), frame);
    }

    // Wrong expected kind: rejected before any payload parse, target
    // byte-identical.
    const persist::SchemeKind wrong =
        TypeParam::kKind == persist::SchemeKind::kKmv
            ? persist::SchemeKind::kBottomK
            : persist::SchemeKind::kKmv;
    Sketch victim = SchemeConformance<TypeParam>::MakeIngested(6);
    const std::string before = victim.SerializeToString();
    EXPECT_EQ(persist::RestoreFromCheckpoint(path, wrong, &victim),
              persist::CheckpointFault::kBadKind);
    EXPECT_EQ(victim.SerializeToString(), before);
  });
  std::filesystem::remove(path);
}

// MemoryFootprint reports live heap bytes: positive once data is
// retained, and positive again for a deserialized replica.
TYPED_TEST_P(SchemeConformance, MemoryFootprintSanity) {
  using Sketch = typename TypeParam::Sketch;
  const Sketch s = this->MakeIngested(8);
  EXPECT_GT(s.MemoryFootprint(), 0u);
  const auto replica = Sketch::Deserialize(
      std::string_view(this->Fingerprint(s)));
  ASSERT_TRUE(replica.has_value());
  EXPECT_GT(replica->MemoryFootprint(), 0u);
}

// Forced-scalar ingest builds a byte-identical sketch: the kernel tier
// cannot leak into the wire contract.
TYPED_TEST_P(SchemeConformance, IngestIsDispatchInvariant) {
  const std::string ambient =
      this->Fingerprint(this->MakeIngested(9));
  std::string scalar;
  {
    simd::ScopedSimdLevel forced(simd::SimdLevel::kScalar);
    scalar = this->Fingerprint(this->MakeIngested(9));
  }
  EXPECT_EQ(ambient, scalar);
}

REGISTER_TYPED_TEST_SUITE_P(SchemeConformance,                   //
                            RoundTripIsByteStable,               //
                            ViewParityOnIntactFrames,            //
                            HostileBytesFailClosed,              //
                            StructuralMutationsAgreeAcrossParsers, //
                            MergeManyFramesMatchesPairwiseChain, //
                            ObjectMergeManyMatchesPairwiseChain, //
                            CheckpointRestoreIsBitIdentical,     //
                            MemoryFootprintSanity,               //
                            IngestIsDispatchInvariant);

}  // namespace ats::conformance

#endif  // ATS_TESTS_CONFORMANCE_CONFORMANCE_KIT_H_
