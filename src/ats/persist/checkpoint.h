// Persistence tier: CKP1 checkpoint files with torn-write-safe
// replacement and a zero-copy mmap open path.
//
// A checkpoint is one sketch frame (the existing KMV2 / BTK2 / SWN1 /
// TDK1 whole-buffer wire formats, unchanged) wrapped in a CKP1 header
// that makes the FILE self-describing and self-validating:
//
//   offset  size  field
//        0     4  magic      "CKP1" (0x31504b43 little-endian)
//        4     4  version    2
//        8     4  scheme_kind  which sketch family the payload frames
//       12     8  epoch      stream position the payload covers
//       20     8  payload_len
//       28     -  payload    one whole-buffer sketch frame, verbatim
//     28+L     4  checksum   FrameChecksum (util/serialize.h) over ALL
//                            preceding bytes
//
// Durability contract (CheckpointWriter::Write): the bytes are written
// to `path + ".tmp"`, fsync'd, renamed over `path`, and the parent
// directory fsync'd. A crash -- including SIGKILL -- at ANY byte leaves
// `path` holding either the complete previous checkpoint or the
// complete new one; a torn file can exist only under the temp name,
// which no reader opens. The kill-and-recover tool (tools/) loops this
// claim under real SIGKILLs.
//
// Fail-closed recovery: decoding classifies damage with a typed
// CheckpointFault in a fixed, normative order (documented at
// DecodeCheckpoint below and in docs/WIRE_FORMAT.md), and
// RestoreFromCheckpoint validates EVERYTHING -- header, checksum, and
// the wrapped sketch frame -- before assigning the target, so a failed
// open of a truncated, bit-flipped, or foreign file leaves the
// in-memory target byte-identical.
//
// Zero-copy open: CheckpointReader::OpenView maps the file (PROT_READ,
// private) and exposes the payload as a bounds-checked string_view into
// the mapping, ready for the existing DeserializeView parsers -- no
// eager materialization. Where mmap is unavailable (or fails), the
// reader falls back to one buffered read with identical semantics.
#ifndef ATS_PERSIST_CHECKPOINT_H_
#define ATS_PERSIST_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace ats::persist {

// Which sketch family the wrapped payload frame belongs to. The value
// is part of the wire format -- never renumber.
enum class SchemeKind : uint32_t {
  kKmv = 1,              // KMV2 (sketch/kmv.h)
  kBottomK = 2,          // BTK2 (core/bottom_k.h)
  kSlidingWindow = 3,    // SWN1 (samplers/sliding_window.h)
  kTimeDecay = 4,        // TDK1 (samplers/time_decay.h)
  kMultiStratified = 5,  // MSS1 (samplers/multi_stratified.h)
  kVarianceSized = 6,    // VSZ1 (samplers/variance_sized.h)
  kMultiObjective = 7,   // MOB1 (samplers/multi_objective.h)
  kBudget = 8,           // BGT1 (samplers/budget_sampler.h)
  kPriority = 9,         // PSM2 (core/bottom_k.h)
  kTheta = 10,           // THT2 (sketch/theta.h)
  kGroupDistinct = 11,   // GDS2 (sketch/group_distinct.h)
};

inline constexpr uint32_t kMinSchemeKind = 1;
inline constexpr uint32_t kMaxSchemeKind = 11;

// Why a checkpoint file failed to open. Mirrors FrameFault
// (util/serialize.h) with the file-level causes a wire frame cannot
// have: kIoError (nothing readable to classify) and kBadKind /
// kBadPayload (the wrapper is intact but wraps the wrong family or a
// frame its family rejects).
enum class CheckpointFault : uint8_t {
  kNone = 0,     // opened and validated
  kIoError,      // open/stat/read/map failed; no bytes to classify
  kTruncated,    // shorter than the header, or than the declared length
  kBadMagic,     // not a CKP1 file
  kBadVersion,   // any version but kCheckpointVersion
  kBadKind,      // scheme_kind outside [kMin, kMax], or not the expected
  kCorruptBody,  // length/checksum/trailing-byte damage
  kBadPayload,   // wrapper intact; sketch frame failed family validation
};

const char* CheckpointFaultName(CheckpointFault fault);

inline constexpr uint32_t kCheckpointMagic = 0x31504b43u;  // "CKP1"
inline constexpr uint32_t kCheckpointVersion = 2;
inline constexpr size_t kCheckpointHeaderSize =
    3 * sizeof(uint32_t) + 2 * sizeof(uint64_t);  // 28
// Header plus the trailing checksum: file size minus payload size.
inline constexpr size_t kCheckpointOverhead =
    kCheckpointHeaderSize + sizeof(uint32_t);  // 32

// Encodes a complete checkpoint image (header + payload + checksum).
std::string EncodeCheckpoint(SchemeKind kind, uint64_t epoch,
                             std::string_view payload);

// A decoded checkpoint; `payload` points into the caller's bytes.
struct CheckpointInfo {
  SchemeKind kind = SchemeKind::kKmv;
  uint64_t epoch = 0;
  std::string_view payload;
};

// Validates a checkpoint image and extracts its fields. Classification
// is outermost-defect-first, and this order is normative (the fuzz
// sweep pins it): fewer bytes than the 28-byte header -> kTruncated;
// foreign magic -> kBadMagic; any version but kCheckpointVersion ->
// kBadVersion; scheme_kind outside [kMinSchemeKind, kMaxSchemeKind] ->
// kBadKind; fewer bytes than
// header + payload_len + checksum -> kTruncated; MORE bytes than
// declared (trailing junk) -> kCorruptBody; checksum mismatch ->
// kCorruptBody. The wrapped sketch frame is NOT parsed here -- that is
// RestoreFromCheckpoint's last step (-> kBadPayload).
CheckpointFault DecodeCheckpoint(std::string_view bytes,
                                 CheckpointInfo* out);

// Atomic write-rename checkpointing. Stateless: each Write is one
// durable replacement of `path`. Single-writer per path (concurrent
// writers would race on the temp name).
class CheckpointWriter {
 public:
  // Durably replaces `path` with the checkpoint image: write to
  // `path + ".tmp"`, fsync, rename, fsync the parent directory.
  // Returns kNone on success, kIoError on any filesystem failure (the
  // previous checkpoint, if any, is left untouched).
  static CheckpointFault Write(const std::string& path, SchemeKind kind,
                               uint64_t epoch, std::string_view payload);
};

enum class OpenMode : uint8_t {
  kPreferMmap,  // map the file; fall back to a buffered read
  kBuffered,    // always one read into an owned buffer
};

// An opened, fully validated checkpoint. Owns its backing bytes (the
// mapping or the buffer): kind()/epoch()/payload() are valid for the
// reader's lifetime. Move-only.
class CheckpointReader {
 public:
  CheckpointReader() = default;
  CheckpointReader(CheckpointReader&& other) noexcept { Swap(other); }
  CheckpointReader& operator=(CheckpointReader&& other) noexcept {
    if (this != &other) {
      Release();
      Swap(other);
    }
    return *this;
  }
  CheckpointReader(const CheckpointReader&) = delete;
  CheckpointReader& operator=(const CheckpointReader&) = delete;
  ~CheckpointReader() { Release(); }

  // The zero-copy open path: validate, then expose payload() as a view
  // into the private read-only mapping -- hand it straight to the
  // family's DeserializeView. Falls back to OpenBuffered where mmap is
  // unavailable. On any fault `*out` is left untouched.
  static CheckpointFault OpenView(const std::string& path,
                                  CheckpointReader* out) {
    return Open(path, out, OpenMode::kPreferMmap);
  }
  static CheckpointFault OpenBuffered(const std::string& path,
                                      CheckpointReader* out) {
    return Open(path, out, OpenMode::kBuffered);
  }
  static CheckpointFault Open(const std::string& path, CheckpointReader* out,
                              OpenMode mode);

  SchemeKind kind() const { return kind_; }
  uint64_t epoch() const { return epoch_; }
  // The wrapped sketch frame, bounds-checked against the validated
  // declared length. Valid for the reader's lifetime.
  std::string_view payload() const { return payload_; }
  // True when payload() views an mmap'd file (the zero-copy path).
  bool mapped() const { return map_ != nullptr; }

 private:
  void Release();
  void Swap(CheckpointReader& other) {
    std::swap(kind_, other.kind_);
    std::swap(epoch_, other.epoch_);
    std::swap(buffer_, other.buffer_);
    std::swap(map_, other.map_);
    std::swap(map_len_, other.map_len_);
    std::swap(payload_, other.payload_);
  }

  SchemeKind kind_ = SchemeKind::kKmv;
  uint64_t epoch_ = 0;
  std::string buffer_;     // buffered path: owns the file image
  void* map_ = nullptr;    // mmap path: the private read-only mapping
  size_t map_len_ = 0;
  std::string_view payload_;
};

// Validate-before-mutate restore: opens `path`, checks the scheme kind,
// and parses the wrapped frame through the family's whole-buffer
// Deserialize. For every family with a frame view that is the view's
// validator, then materialization (util/serialize.h), so a restore
// accepts exactly the payloads OpenView + DeserializeView accept.
// `*target` is assigned ONLY when every layer passes -- on any fault it
// is byte-identical to before the call. `Sketch` is any
// family with `static std::optional<Sketch> Deserialize(string_view)`
// (KmvSketch, BottomK, PrioritySampler, SlidingWindowSampler,
// TimeDecaySampler, MultiStratifiedSampler, VarianceSizedSampler,
// MultiObjectiveSampler, BudgetSampler).
template <typename Sketch>
CheckpointFault RestoreFromCheckpoint(const std::string& path,
                                      SchemeKind expected_kind,
                                      Sketch* target,
                                      uint64_t* epoch = nullptr,
                                      OpenMode mode = OpenMode::kPreferMmap) {
  CheckpointReader reader;
  const CheckpointFault fault = CheckpointReader::Open(path, &reader, mode);
  if (fault != CheckpointFault::kNone) return fault;
  if (reader.kind() != expected_kind) return CheckpointFault::kBadKind;
  std::optional<Sketch> parsed = Sketch::Deserialize(reader.payload());
  if (!parsed.has_value()) return CheckpointFault::kBadPayload;
  *target = std::move(*parsed);
  if (epoch != nullptr) *epoch = reader.epoch();
  return CheckpointFault::kNone;
}

}  // namespace ats::persist

#endif  // ATS_PERSIST_CHECKPOINT_H_
