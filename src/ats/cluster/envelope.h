// The transport envelope (magic "ENV1"): the unit of exchange between
// cluster nodes. A serialized sketch frame never travels bare -- it is
// wrapped in a sequence-numbered, checksummed envelope so the receiver
// can (a) verify integrity end-to-end with one checksum over header and
// payload, (b) deduplicate retransmissions idempotently by
// (sender, incarnation, seq), and (c) CLASSIFY damage: an envelope
// declares its payload length, so a short read is distinguishable from
// flipped bytes, which is what lets the retry loop treat kTruncated as
// retry-able while a poison payload frame is acked-and-counted, never
// retried and never merged.
//
// Byte layout (all fields little-endian; normative spec in
// docs/WIRE_FORMAT.md):
//
//   magic   u32 = 0x454e5631 ("ENV1")
//   version u32 = 2
//   kind    u32   (0 = data, 1 = ack)
//   sender  u64   node id of the originator
//   incarnation u64   restart generation of the sender (crash recovery)
//   seq     u64   per-(sender, incarnation) sequence number
//   epoch   u64   stream position the payload snapshot covers
//   payload_len u64
//   payload bytes (a whole serialized sketch frame; empty for acks)
//   checksum u32  FrameChecksum (util/serialize.h) over every preceding
//                 byte
//
// For an ack, (incarnation, seq, epoch) name the DATA envelope being
// acknowledged and `sender` is the acknowledging aggregator.
#ifndef ATS_CLUSTER_ENVELOPE_H_
#define ATS_CLUSTER_ENVELOPE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "ats/util/serialize.h"

namespace ats::cluster {

inline constexpr uint32_t kEnvelopeMagic = 0x454e5631;  // "ENV1"
inline constexpr uint32_t kEnvelopeVersion = 2;

// Fixed prefix before the payload: magic, version, kind (u32 each) +
// sender, incarnation, seq, epoch, payload_len (u64 each).
inline constexpr size_t kEnvelopeHeaderSize =
    3 * sizeof(uint32_t) + 5 * sizeof(uint64_t);
inline constexpr size_t kEnvelopeOverhead =
    kEnvelopeHeaderSize + sizeof(uint32_t);  // + trailing checksum

enum class EnvelopeKind : uint32_t {
  kData = 0,
  kAck = 1,
};

// Decoded header plus a borrowed view of the payload bytes; must not
// outlive the envelope buffer.
struct EnvelopeView {
  EnvelopeKind kind = EnvelopeKind::kData;
  uint64_t sender = 0;
  uint64_t incarnation = 0;
  uint64_t seq = 0;
  uint64_t epoch = 0;
  std::string_view payload;
};

// Encodes one envelope (header | payload | checksum) into an owned
// buffer.
std::string EncodeEnvelope(EnvelopeKind kind, uint64_t sender,
                           uint64_t incarnation, uint64_t seq,
                           uint64_t epoch, std::string_view payload);

// Decodes and validates `bytes`. Returns FrameFault::kNone and fills
// `out` on success; otherwise a typed reason and `out` is untouched:
//
//   kTruncated   -- shorter than the fixed header, or shorter than the
//                   declared payload length + checksum (short read:
//                   retry-able, the sender's retransmission will parse)
//   kBadMagic    -- not an envelope
//   kBadVersion  -- any version but kEnvelopeVersion
//   kCorruptBody -- bytes beyond the declared length (framing junk), an
//                   unknown kind, or a checksum mismatch (poison: no
//                   retry of these bytes can succeed)
//
// The payload sketch frame is NOT validated here; the receiving
// aggregator vets it via the family validators before merging.
FrameFault DecodeEnvelope(std::string_view bytes, EnvelopeView* out);

}  // namespace ats::cluster

#endif  // ATS_CLUSTER_ENVELOPE_H_
