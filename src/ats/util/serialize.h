// Byte-buffer serialization and the common mergeable-sketch interface.
//
// Every sketch that ships between nodes (KMV / Theta / LCS / grouped /
// priority samples) speaks the same tiny wire protocol: fixed-width
// little-endian fields behind a versioned magic header, written through
// ByteWriter and read back through ByteReader (every accessor returns
// nullopt on truncation so corrupt inputs fail cleanly instead of
// crashing).
//
// The MergeableSketch concept pins down the contract those sketches share:
//   * SerializeTo(ByteWriter&)       -- append wire bytes (embeddable)
//   * static Deserialize(ByteReader&) -- parse + validate, nullopt on junk
//   * Merge(const T&)                -- union with another instance
// Sketches satisfying the concept compose: a container sketch can embed a
// member sketch's bytes verbatim, and the generic SerializeSketch /
// DeserializeSketch helpers provide whole-buffer (exact-length) framing.
//
// One validator per wire family. A family with a zero-copy view exposes
// `T::FrameView` and `static std::optional<FrameView> ViewBody(ByteReader&)`,
// which validates one bare (un-checksummed) body -- header, every field,
// every entry -- and consumes exactly its bytes; container formats hand
// nested bodies to the nested family's ViewBody. Every other path is a
// shell over it, so all of them accept exactly the same frames:
//   * DeserializeView = ViewSketchFrame (checksum, then ViewBody);
//   * Deserialize     = ViewBody, then materialize the view;
//   * DiagnoseFrame   = DiagnoseSketchFrame (ClassifyFrameBytes, then
//                       ViewBody on the verified body);
//   * MergeManyFrames = VetFrames (every view, all-or-nothing), then apply.
#ifndef ATS_UTIL_SERIALIZE_H_
#define ATS_UTIL_SERIALIZE_H_

#include <array>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ats {

// Appends POD values to a byte string.
class ByteWriter {
 public:
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteDouble(double v) { Append(&v, sizeof(v)); }
  // Raw byte append, for container formats embedding a length-prefixed
  // nested body serialized into a scratch writer.
  void WriteBytes(std::string_view bytes) {
    Append(bytes.data(), bytes.size());
  }

  // Capacity hint for writers that know their final size up front.
  void Reserve(size_t n) { bytes_.reserve(n); }

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  void Append(const void* p, size_t n) {
    bytes_.append(static_cast<const char*>(p), n);
  }
  std::string bytes_;
};

// Reads POD values back; every accessor returns nullopt on truncation so
// corrupt inputs fail cleanly instead of crashing.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::optional<uint32_t> ReadU32() { return Read<uint32_t>(); }
  std::optional<uint64_t> ReadU64() { return Read<uint64_t>(); }
  std::optional<double> ReadDouble() { return Read<double>(); }

  bool AtEnd() const { return pos_ == bytes_.size(); }

  // Consumes a region of `count` fixed-stride entries and returns it
  // unread; nullopt (position unchanged) when fewer bytes remain. The
  // division-form bound check is immune to count * stride overflow. Frame
  // views keep such regions as spans decoded lazily per entry; container
  // formats take a length-prefixed nested body as a region of stride 1.
  std::optional<std::string_view> ReadRegion(uint64_t count, size_t stride) {
    if (count > (bytes_.size() - pos_) / stride) return std::nullopt;
    const std::string_view region =
        bytes_.substr(pos_, static_cast<size_t>(count) * stride);
    pos_ += region.size();
    return region;
  }

 private:
  template <typename T>
  std::optional<T> Read() {
    if (pos_ + sizeof(T) > bytes_.size()) return std::nullopt;
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

// --- Versioned magic header -------------------------------------------

// Every sketch wire format starts with an 8-byte header: a 4-byte magic
// tag identifying the sketch family, then a 4-byte format version.
inline void WriteSketchHeader(ByteWriter& w, uint32_t magic,
                              uint32_t version) {
  w.WriteU32(magic);
  w.WriteU32(version);
}

// Consumes and validates a header: false on truncation, foreign magic,
// or any version other than `version`. Each family has exactly one
// reader, for its current version; older and newer frames are rejected.
inline bool ReadSketchHeader(ByteReader& r, uint32_t magic,
                             uint32_t version) {
  const auto m = r.ReadU32();
  if (!m || *m != magic) return false;
  const auto v = r.ReadU32();
  return v && *v == version;
}

// --- PRNG state fields ------------------------------------------------

// Samplers whose priority stream must continue deterministically after a
// round trip (PrioritySampler, TimeDecaySampler, SlidingWindowSampler)
// carry their 4x64-bit Xoshiro256 state on the wire. One writer/reader
// pair keeps the field layout and the validation in a single place.
inline void WriteRngState(ByteWriter& w,
                          const std::array<uint64_t, 4>& state) {
  for (uint64_t word : state) w.WriteU64(word);
}

// Reads the 4-word state; nullopt on truncation or the all-zero state
// (Xoshiro256's invalid fixed point -- the stream degenerates to constant
// zeros, so no genuine serializer emits it).
inline std::optional<std::array<uint64_t, 4>> ReadRngState(ByteReader& r) {
  std::array<uint64_t, 4> state;
  uint64_t state_or = 0;
  for (uint64_t& word : state) {
    const auto v = r.ReadU64();
    if (!v) return std::nullopt;
    word = *v;
    state_or |= word;
  }
  if (state_or == 0) return std::nullopt;
  return state;
}

// --- The common mergeable-sketch interface ----------------------------

template <typename T>
concept MergeableSketch =
    requires(T t, const T& other, ByteWriter& w, ByteReader& r) {
      { std::as_const(t).SerializeTo(w) } -> std::same_as<void>;
      { T::Deserialize(r) } -> std::same_as<std::optional<T>>;
      { t.Merge(other) } -> std::same_as<void>;
    };

// --- Typed frame-rejection reasons ------------------------------------

// Why a wire frame failed validation. The transport tier uses this to
// separate retry-able damage from poison: a kTruncated frame is a short
// read (the sender's retransmission of the intact bytes will parse), a
// kCorruptBody frame is garbage that no retry fixes, and kBadMagic /
// kBadVersion are protocol mismatches worth alarming on rather than
// retrying. Rejection counters keyed by this enum make the difference
// observable per cause instead of collapsing to one opaque `false`.
enum class FrameFault : uint8_t {
  kNone = 0,     // frame is valid
  kTruncated,    // fewer bytes than the format requires (short read)
  kBadMagic,     // frame is not from this family
  kBadVersion,   // any version but the reader's current one
  kCorruptBody,  // structurally framed but checksum/field/entry invalid
};

constexpr const char* FrameFaultName(FrameFault fault) {
  switch (fault) {
    case FrameFault::kNone: return "none";
    case FrameFault::kTruncated: return "truncated";
    case FrameFault::kBadMagic: return "bad_magic";
    case FrameFault::kBadVersion: return "bad_version";
    case FrameFault::kCorruptBody: return "corrupt_body";
  }
  return "unknown";
}

// The one wire checksum (normative spec, constants and test vectors in
// docs/WIRE_FORMAT.md). The bytes are read as little-endian u32 words
// dealt round-robin to eight lanes; a final partial block is zero-padded.
// Every lane step and every fold step is a bijection of the running state
// for a fixed word and of the word for a fixed state, so a change
// confined to one 4-byte word always changes the result. The eight lanes
// are independent chains, so the loop runs at multiply throughput rather
// than latency (plain C++: the same code on every target).
inline uint32_t FrameChecksum(std::string_view bytes) {
  constexpr size_t kLanes = 8;
  constexpr size_t kBlock = kLanes * sizeof(uint32_t);
  const auto step = [](uint32_t h, uint32_t word) {
    h = (h ^ word) * 0x9e3779b1u;
    return h ^ (h >> 15);
  };
  std::array<uint32_t, kLanes> lanes;
  for (size_t i = 0; i < kLanes; ++i) {
    lanes[i] = 0x85ebca77u * static_cast<uint32_t>(i + 1);
  }
  const auto absorb = [&](const char* block) {
    std::array<uint32_t, kLanes> words;
    std::memcpy(words.data(), block, kBlock);
    for (size_t i = 0; i < kLanes; ++i) lanes[i] = step(lanes[i], words[i]);
  };
  size_t pos = 0;
  for (; pos + kBlock <= bytes.size(); pos += kBlock) {
    absorb(bytes.data() + pos);
  }
  if (pos < bytes.size()) {
    char tail[kBlock] = {};
    std::memcpy(tail, bytes.data() + pos, bytes.size() - pos);
    absorb(tail);
  }
  const uint64_t length = bytes.size();
  uint32_t h = step(0xc2b2ae3du, static_cast<uint32_t>(length));
  h = step(h, static_cast<uint32_t>(length >> 32));
  for (const uint32_t lane : lanes) h = step(h, lane);
  return h;
}

// Whole-buffer framing: serialize a sketch into an owned byte string with
// a trailing checksum over the sketch bytes (nested sketches embedded via
// SerializeTo are covered by the outer frame). A family that knows its
// frame length (`SerializedSize()`, checksum included) gets the buffer
// sized once, so neither the body nor the checksum append reallocates.
template <MergeableSketch T>
std::string SerializeSketch(const T& sketch) {
  ByteWriter w;
  if constexpr (requires { sketch.SerializedSize(); }) {
    w.Reserve(sketch.SerializedSize());
  }
  sketch.SerializeTo(w);
  std::string bytes = w.Take();
  const uint32_t checksum = FrameChecksum(bytes);
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return bytes;
}

// Verifies and strips the trailing frame checksum, returning the body
// bytes (nullopt on truncation or mismatch).
inline std::optional<std::string_view> CheckedFrameBody(
    std::string_view frame) {
  if (frame.size() < sizeof(uint32_t)) return std::nullopt;
  const std::string_view body = frame.substr(0, frame.size() - 4);
  uint32_t stored;
  std::memcpy(&stored, frame.data() + body.size(), sizeof(stored));
  if (stored != FrameChecksum(body)) return std::nullopt;
  return body;
}

// Whole-buffer parsing: the checksum must match and the sketch must
// consume the buffer exactly (trailing junk is a framing error, not a
// valid message).
template <MergeableSketch T>
std::optional<T> DeserializeSketch(std::string_view bytes) {
  const auto body = CheckedFrameBody(bytes);
  if (!body) return std::nullopt;
  ByteReader r(*body);
  auto sketch = T::Deserialize(r);
  if (!sketch.has_value() || !r.AtEnd()) return std::nullopt;
  return sketch;
}

// Structural triage of a whole-buffer frame against a family's magic and
// current version, in the normative order (docs/WIRE_FORMAT.md): too
// short to even hold the 8-byte header plus the trailing checksum ->
// kTruncated; foreign magic -> kBadMagic; any other version ->
// kBadVersion; checksum mismatch -> kCorruptBody. The header is read
// before the checksum, so an old-version frame is named as such whatever
// checksum it carries. A bare sketch frame carries no declared length,
// so a mid-body short read is indistinguishable from flipped bytes here
// and reports kCorruptBody; the transport envelope (cluster/envelope.h)
// declares its payload length and is where short reads classify as
// kTruncated. Returns kNone when the structural layers pass -- body-level
// field validation may still reject the frame, which DiagnoseSketchFrame
// below reports as kCorruptBody.
inline FrameFault ClassifyFrameBytes(std::string_view frame, uint32_t magic,
                                     uint32_t version) {
  constexpr size_t kHeaderAndChecksum = 3 * sizeof(uint32_t);
  if (frame.size() < kHeaderAndChecksum) return FrameFault::kTruncated;
  ByteReader r(frame);
  if (*r.ReadU32() != magic) return FrameFault::kBadMagic;
  if (*r.ReadU32() != version) return FrameFault::kBadVersion;
  if (!CheckedFrameBody(frame)) return FrameFault::kCorruptBody;
  return FrameFault::kNone;
}

// --- Frame views (see the file comment) -------------------------------

// ViewBody over one bare body, which it must consume exactly (trailing
// bytes are a framing error).
template <typename T>
std::optional<typename T::FrameView> ViewWholeBody(std::string_view body) {
  ByteReader r(body);
  auto view = T::ViewBody(r);
  if (!view || !r.AtEnd()) return std::nullopt;
  return view;
}

// Whole-buffer view: checksum verified and stripped, then the body view.
template <typename T>
std::optional<typename T::FrameView> ViewSketchFrame(std::string_view frame) {
  const auto body = CheckedFrameBody(frame);
  if (!body) return std::nullopt;
  return ViewWholeBody<T>(*body);
}

// Typed rejection reason through the family's one validator: the
// structural cause from ClassifyFrameBytes first, then kCorruptBody iff
// ViewBody rejects the already-verified body -- kNone iff every parse
// path accepts. One checksum pass per verdict.
template <typename T>
FrameFault DiagnoseSketchFrame(std::string_view frame, uint32_t magic,
                               uint32_t version) {
  const FrameFault f = ClassifyFrameBytes(frame, magic, version);
  if (f != FrameFault::kNone) return f;
  const std::string_view body = frame.substr(0, frame.size() - 4);
  return ViewWholeBody<T>(body).has_value() ? FrameFault::kNone
                                            : FrameFault::kCorruptBody;
}

// The vetting half of every MergeManyFrames: views every frame and checks
// it against the target (`compatible`, e.g. a matching hash salt) before
// anything is applied. nullopt if ANY frame fails -- the all-or-nothing
// contract that leaves the target untouched.
template <typename T, typename Compatible>
std::optional<std::vector<typename T::FrameView>> VetFrames(
    std::span<const std::string_view> frames, Compatible&& compatible) {
  std::vector<typename T::FrameView> views;
  views.reserve(frames.size());
  for (std::string_view f : frames) {
    auto view = T::DeserializeView(f);
    if (!view || !compatible(*view)) return std::nullopt;
    views.push_back(std::move(*view));
  }
  return views;
}

}  // namespace ats

#endif  // ATS_UTIL_SERIALIZE_H_
