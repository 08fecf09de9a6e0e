// Persistence tier unit tests: CKP1 round-trips through both open
// paths (mmap view and buffered), atomic replacement, and the
// fail-closed recovery contract -- every rejected file leaves the
// in-memory target byte-identical and names a typed reason. The
// exhaustive hostile-bytes sweep (every prefix truncation, every
// single-bit flip) lives in fuzz_oracle_test.cc; the SIGKILL loop in
// tools/kill_and_recover.cc.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ats/persist/checkpoint.h"
#include "ats/samplers/budget_sampler.h"
#include "ats/samplers/multi_objective.h"
#include "ats/samplers/multi_stratified.h"
#include "ats/samplers/variance_sized.h"
#include "ats/sketch/kmv.h"

namespace ats::persist {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "ats_persist_" + name + ".ckp";
}

KmvSketch MakeSketch(uint64_t seed, int keys) {
  KmvSketch sketch(8, 1.0, /*hash_salt=*/0x5eed);
  Xoshiro256 rng(seed);
  for (int i = 0; i < keys; ++i) sketch.AddKey(rng.Next());
  return sketch;
}

// A KMV2 frame with its first two entries swapped and the checksum
// repaired: every field stays in range, only the canonical ascending
// entry order is broken, so the damage reaches the body validator.
std::string SwapFirstTwoEntries(std::string frame) {
  constexpr size_t kEntries = 48;  // header + five u64/f64 fields
  constexpr size_t kStride = 16;   // (priority f64, key u64)
  std::swap_ranges(frame.begin() + kEntries,
                   frame.begin() + kEntries + kStride,
                   frame.begin() + kEntries + kStride);
  const size_t body = frame.size() - sizeof(uint32_t);
  const uint32_t sum = FrameChecksum(std::string_view(frame).substr(0, body));
  std::memcpy(frame.data() + body, &sum, sizeof(sum));
  return frame;
}

void WriteRawFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.write(bytes.data(),
                        static_cast<std::streamsize>(bytes.size())));
}

TEST(CheckpointCodec, EncodeDecodeRoundTripsEveryField) {
  const std::string payload = MakeSketch(1, 200).SerializeToString();
  const std::string bytes =
      EncodeCheckpoint(SchemeKind::kKmv, /*epoch=*/12345, payload);
  EXPECT_EQ(bytes.size(), payload.size() + kCheckpointOverhead);

  CheckpointInfo info;
  ASSERT_EQ(DecodeCheckpoint(bytes, &info), CheckpointFault::kNone);
  EXPECT_EQ(info.kind, SchemeKind::kKmv);
  EXPECT_EQ(info.epoch, 12345u);
  EXPECT_EQ(info.payload, payload);
}

TEST(CheckpointCodec, FaultNamesAreStable) {
  EXPECT_STREQ(CheckpointFaultName(CheckpointFault::kNone), "none");
  EXPECT_STREQ(CheckpointFaultName(CheckpointFault::kIoError), "io_error");
  EXPECT_STREQ(CheckpointFaultName(CheckpointFault::kTruncated),
               "truncated");
  EXPECT_STREQ(CheckpointFaultName(CheckpointFault::kBadMagic),
               "bad_magic");
  EXPECT_STREQ(CheckpointFaultName(CheckpointFault::kBadVersion),
               "bad_version");
  EXPECT_STREQ(CheckpointFaultName(CheckpointFault::kBadKind), "bad_kind");
  EXPECT_STREQ(CheckpointFaultName(CheckpointFault::kCorruptBody),
               "corrupt_body");
  EXPECT_STREQ(CheckpointFaultName(CheckpointFault::kBadPayload),
               "bad_payload");
}

TEST(CheckpointFile, RoundTripsThroughBothOpenPaths) {
  const KmvSketch original = MakeSketch(2, 300);
  const std::string payload = original.SerializeToString();
  const std::string path = TempPath("roundtrip");
  ASSERT_EQ(CheckpointWriter::Write(path, SchemeKind::kKmv, /*epoch=*/300,
                                    payload),
            CheckpointFault::kNone);

  CheckpointReader view;
  ASSERT_EQ(CheckpointReader::OpenView(path, &view), CheckpointFault::kNone);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(view.mapped()) << "POSIX open should take the mmap path";
#endif
  EXPECT_EQ(view.kind(), SchemeKind::kKmv);
  EXPECT_EQ(view.epoch(), 300u);
  EXPECT_EQ(view.payload(), payload);

  // The zero-copy contract: the mapped payload feeds the family's view
  // parser directly, no intermediate materialization.
  const auto frame = KmvSketch::DeserializeView(view.payload());
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->k(), original.k());
  EXPECT_EQ(frame->size(), original.size());
  EXPECT_DOUBLE_EQ(frame->threshold(), original.Threshold());

  CheckpointReader buffered;
  ASSERT_EQ(CheckpointReader::OpenBuffered(path, &buffered),
            CheckpointFault::kNone);
  EXPECT_FALSE(buffered.mapped());
  EXPECT_EQ(buffered.payload(), view.payload());
  EXPECT_EQ(buffered.epoch(), view.epoch());
}

TEST(CheckpointFile, RestoreRebuildsByteIdenticalSketchInBothModes) {
  const KmvSketch original = MakeSketch(3, 500);
  const std::string path = TempPath("restore");
  ASSERT_EQ(CheckpointWriter::Write(path, SchemeKind::kKmv, /*epoch=*/500,
                                    original.SerializeToString()),
            CheckpointFault::kNone);
  for (const OpenMode mode : {OpenMode::kPreferMmap, OpenMode::kBuffered}) {
    KmvSketch restored(1, 1.0, 0);
    uint64_t epoch = 0;
    ASSERT_EQ(RestoreFromCheckpoint(path, SchemeKind::kKmv, &restored,
                                    &epoch, mode),
              CheckpointFault::kNone);
    EXPECT_EQ(epoch, 500u);
    EXPECT_EQ(restored.SerializeToString(), original.SerializeToString());
  }
}

TEST(CheckpointFile, WriteAtomicallyReplacesThePreviousImage) {
  const std::string path = TempPath("replace");
  ASSERT_EQ(CheckpointWriter::Write(path, SchemeKind::kKmv, /*epoch=*/10,
                                    MakeSketch(4, 100).SerializeToString()),
            CheckpointFault::kNone);
  const std::string newer = MakeSketch(5, 400).SerializeToString();
  ASSERT_EQ(CheckpointWriter::Write(path, SchemeKind::kKmv, /*epoch=*/20,
                                    newer),
            CheckpointFault::kNone);

  CheckpointReader reader;
  ASSERT_EQ(CheckpointReader::OpenView(path, &reader),
            CheckpointFault::kNone);
  EXPECT_EQ(reader.epoch(), 20u);
  EXPECT_EQ(reader.payload(), newer);
}

TEST(CheckpointFile, WriterReclaimsATornTempFromACrashedPredecessor) {
  const std::string path = TempPath("torn_temp");
  // A previous writer died mid-write: torn bytes under the temp name.
  WriteRawFile(path + ".tmp", "torn garbage from a dead writer");
  const std::string payload = MakeSketch(6, 150).SerializeToString();
  ASSERT_EQ(CheckpointWriter::Write(path, SchemeKind::kKmv, /*epoch=*/7,
                                    payload),
            CheckpointFault::kNone);
  CheckpointReader reader;
  ASSERT_EQ(CheckpointReader::OpenView(path, &reader),
            CheckpointFault::kNone);
  EXPECT_EQ(reader.payload(), payload);
}

// ------------------------------------------------- fail-closed recovery

TEST(CheckpointRecovery, MissingFileIsIoErrorAndTargetUntouched) {
  const KmvSketch before = MakeSketch(7, 250);
  KmvSketch victim = before;
  uint64_t epoch = 99;
  for (const OpenMode mode : {OpenMode::kPreferMmap, OpenMode::kBuffered}) {
    EXPECT_EQ(RestoreFromCheckpoint(TempPath("does_not_exist"),
                                    SchemeKind::kKmv, &victim, &epoch, mode),
              CheckpointFault::kIoError);
    EXPECT_EQ(victim.SerializeToString(), before.SerializeToString());
    EXPECT_EQ(epoch, 99u);  // out-params untouched on failure
  }
}

TEST(CheckpointRecovery, EmptyFileIsTruncatedOnBothPaths) {
  const std::string path = TempPath("empty");
  WriteRawFile(path, "");
  CheckpointReader reader;
  EXPECT_EQ(CheckpointReader::OpenView(path, &reader),
            CheckpointFault::kTruncated);
  EXPECT_EQ(CheckpointReader::OpenBuffered(path, &reader),
            CheckpointFault::kTruncated);
}

TEST(CheckpointRecovery, WrongExpectedKindIsBadKind) {
  // The wrapper is intact and self-consistent but wraps a different
  // family than the caller expects: kBadKind, target untouched.
  const std::string path = TempPath("wrong_kind");
  ASSERT_EQ(CheckpointWriter::Write(path, SchemeKind::kBottomK, /*epoch=*/5,
                                    MakeSketch(8, 100).SerializeToString()),
            CheckpointFault::kNone);
  const KmvSketch before = MakeSketch(9, 50);
  KmvSketch victim = before;
  EXPECT_EQ(RestoreFromCheckpoint(path, SchemeKind::kKmv, &victim),
            CheckpointFault::kBadKind);
  EXPECT_EQ(victim.SerializeToString(), before.SerializeToString());
}

TEST(CheckpointRecovery, NewSchemeKindsRejectEveryCrossRestore) {
  // One intact checkpoint per PR-9 scheme kind; opening any of them
  // with any OTHER expected kind must be kBadKind -- the wrapper's
  // kind gate fires before a single payload byte is parsed.
  MultiStratifiedSampler mss(/*num_dimensions=*/2, /*k=*/4, /*seed=*/1);
  for (uint64_t i = 0; i < 24; ++i) mss.Add(i, {i % 3, i % 4}, 1.0 + i);
  VarianceSizedSampler vsz(/*delta_squared=*/0.5, /*seed=*/1);
  for (uint64_t i = 0; i < 24; ++i) vsz.Add(i, 1.0, 1.0 + 0.1 * i);
  MultiObjectiveSampler mob(/*num_objectives=*/2, /*k=*/4, /*seed=*/1);
  for (uint64_t i = 0; i < 24; ++i) mob.Add(i, {1.0, 2.0}, 1.0);
  BudgetSampler bgt(/*budget=*/8.0, /*seed=*/1);
  for (uint64_t i = 0; i < 24; ++i) bgt.Add(i, 1.0, 1.0, 1.0);

  struct Entry {
    SchemeKind kind;
    const char* name;
    std::string payload;
  };
  const std::vector<Entry> entries = {
      {SchemeKind::kMultiStratified, "mss", mss.SerializeToString()},
      {SchemeKind::kVarianceSized, "vsz", vsz.SerializeToString()},
      {SchemeKind::kMultiObjective, "mob", mob.SerializeToString()},
      {SchemeKind::kBudget, "bgt", bgt.SerializeToString()},
  };
  for (const Entry& written : entries) {
    const std::string path =
        TempPath((std::string("cross_") + written.name).c_str());
    ASSERT_EQ(CheckpointWriter::Write(path, written.kind, /*epoch=*/1,
                                      written.payload),
              CheckpointFault::kNone);
    for (const Entry& expected : entries) {
      if (expected.kind == written.kind) continue;
      CheckpointReader reader;
      ASSERT_EQ(CheckpointReader::OpenView(path, &reader),
                CheckpointFault::kNone);
      // Typed restore: expecting the wrong new kind trips the gate and
      // leaves the target byte-identical.
      VarianceSizedSampler victim(0.5, 2);
      victim.Add(7, 1.0, 1.0);
      const std::string before = victim.SerializeToString();
      EXPECT_EQ(RestoreFromCheckpoint(path, expected.kind, &victim),
                CheckpointFault::kBadKind)
          << written.name << " opened as " << expected.name;
      EXPECT_EQ(victim.SerializeToString(), before);
    }
  }
}

TEST(CheckpointRecovery, RightKindForeignPayloadIsBadPayload) {
  // The kind field claims kVarianceSized but the wrapped frame is an
  // MSS1 body: the wrapper validates, the family parser refuses the
  // foreign magic, and the restore fails closed as kBadPayload.
  MultiStratifiedSampler mss(2, 4, 1);
  for (uint64_t i = 0; i < 16; ++i) mss.Add(i, {i % 3, i % 4}, 1.0);
  const std::string path = TempPath("foreign_payload");
  ASSERT_EQ(CheckpointWriter::Write(path, SchemeKind::kVarianceSized,
                                    /*epoch=*/2, mss.SerializeToString()),
            CheckpointFault::kNone);
  VarianceSizedSampler victim(0.5, 3);
  victim.Add(9, 2.0, 1.5);
  const std::string before = victim.SerializeToString();
  EXPECT_EQ(
      RestoreFromCheckpoint(path, SchemeKind::kVarianceSized, &victim),
      CheckpointFault::kBadPayload);
  EXPECT_EQ(victim.SerializeToString(), before);
}

TEST(CheckpointRecovery, PoisonPayloadIsBadPayloadAndFailsClosed) {
  // A checkpoint whose CKP1 wrapper validates but whose wrapped sketch
  // frame is poison (the writer checksummed the damaged bytes, so only
  // the family parser can catch it): kBadPayload, target untouched.
  std::string payload = MakeSketch(10, 300).SerializeToString();
  payload[payload.size() / 2] ^= 0x20;
  const std::string path = TempPath("poison");
  ASSERT_EQ(CheckpointWriter::Write(path, SchemeKind::kKmv, /*epoch=*/3,
                                    payload),
            CheckpointFault::kNone);

  // The wrapper alone opens fine -- the damage is inside the frame.
  CheckpointReader reader;
  ASSERT_EQ(CheckpointReader::OpenView(path, &reader),
            CheckpointFault::kNone);
  EXPECT_FALSE(KmvSketch::Deserialize(reader.payload()).has_value());

  const KmvSketch before = MakeSketch(11, 40);
  for (const OpenMode mode : {OpenMode::kPreferMmap, OpenMode::kBuffered}) {
    KmvSketch victim = before;
    EXPECT_EQ(RestoreFromCheckpoint(path, SchemeKind::kKmv, &victim,
                                    nullptr, mode),
              CheckpointFault::kBadPayload);
    EXPECT_EQ(victim.SerializeToString(), before.SerializeToString());
  }
}

TEST(CheckpointRecovery, NonCanonicalPayloadIsBadPayloadInBothModes) {
  // Two adjacent entries swapped behind a repaired checksum: the view
  // refuses the frame (KMV2 entries are strictly ascending), so the eager
  // restore -- the same validator, materialized -- must refuse it too.
  const std::string payload =
      SwapFirstTwoEntries(MakeSketch(13, 300).SerializeToString());
  ASSERT_FALSE(KmvSketch::DeserializeView(payload).has_value());
  const std::string path = TempPath("swapped_entries");
  ASSERT_EQ(CheckpointWriter::Write(path, SchemeKind::kKmv, /*epoch=*/4,
                                    payload),
            CheckpointFault::kNone);

  const KmvSketch before = MakeSketch(14, 40);
  for (const OpenMode mode : {OpenMode::kPreferMmap, OpenMode::kBuffered}) {
    KmvSketch victim = before;
    EXPECT_EQ(RestoreFromCheckpoint(path, SchemeKind::kKmv, &victim,
                                    nullptr, mode),
              CheckpointFault::kBadPayload);
    EXPECT_EQ(victim.SerializeToString(), before.SerializeToString());
  }
}

TEST(CheckpointRecovery, TrailingJunkIsCorruptBody) {
  const std::string bytes = EncodeCheckpoint(
      SchemeKind::kKmv, /*epoch=*/1, MakeSketch(12, 80).SerializeToString());
  const std::string path = TempPath("trailing");
  WriteRawFile(path, bytes + "x");
  CheckpointReader reader;
  EXPECT_EQ(CheckpointReader::OpenView(path, &reader),
            CheckpointFault::kCorruptBody);
  EXPECT_EQ(CheckpointReader::OpenBuffered(path, &reader),
            CheckpointFault::kCorruptBody);
}

}  // namespace
}  // namespace ats::persist
