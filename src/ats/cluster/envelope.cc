#include "ats/cluster/envelope.h"

#include <cstring>

namespace ats::cluster {

std::string EncodeEnvelope(EnvelopeKind kind, uint64_t sender,
                           uint64_t incarnation, uint64_t seq,
                           uint64_t epoch, std::string_view payload) {
  ByteWriter w;
  w.WriteU32(kEnvelopeMagic);
  w.WriteU32(kEnvelopeVersion);
  w.WriteU32(static_cast<uint32_t>(kind));
  w.WriteU64(sender);
  w.WriteU64(incarnation);
  w.WriteU64(seq);
  w.WriteU64(epoch);
  w.WriteU64(payload.size());
  std::string bytes = w.Take();
  bytes.append(payload.data(), payload.size());
  const uint32_t checksum = FrameChecksum(bytes);
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return bytes;
}

FrameFault DecodeEnvelope(std::string_view bytes, EnvelopeView* out) {
  // Header fields first, in wire order, so the typed reason names the
  // OUTERMOST defect: a frame that is both foreign and damaged reports
  // kBadMagic, and a short read reports kTruncated even when the intact
  // prefix would also fail its checksum.
  if (bytes.size() < kEnvelopeHeaderSize) return FrameFault::kTruncated;
  ByteReader r(bytes);
  const uint32_t magic = *r.ReadU32();
  if (magic != kEnvelopeMagic) return FrameFault::kBadMagic;
  if (*r.ReadU32() != kEnvelopeVersion) return FrameFault::kBadVersion;
  const uint32_t kind = *r.ReadU32();
  const uint64_t sender = *r.ReadU64();
  const uint64_t incarnation = *r.ReadU64();
  const uint64_t seq = *r.ReadU64();
  const uint64_t epoch = *r.ReadU64();
  const uint64_t payload_len = *r.ReadU64();
  // The declared length is what upgrades a short read from "checksum
  // mismatch" to kTruncated: fewer bytes present than declared + the
  // trailing checksum means the tail never arrived.
  const uint64_t available = bytes.size() - kEnvelopeHeaderSize;
  if (payload_len > available ||
      available - payload_len < sizeof(uint32_t)) {
    return FrameFault::kTruncated;
  }
  if (available - payload_len > sizeof(uint32_t)) {
    return FrameFault::kCorruptBody;  // trailing junk past the checksum
  }
  if (kind > static_cast<uint32_t>(EnvelopeKind::kAck)) {
    return FrameFault::kCorruptBody;
  }
  const size_t checksum_pos = kEnvelopeHeaderSize + payload_len;
  uint32_t stored;
  std::memcpy(&stored, bytes.data() + checksum_pos, sizeof(stored));
  if (stored != FrameChecksum(bytes.substr(0, checksum_pos))) {
    return FrameFault::kCorruptBody;
  }
  out->kind = static_cast<EnvelopeKind>(kind);
  out->sender = sender;
  out->incarnation = incarnation;
  out->seq = seq;
  out->epoch = epoch;
  out->payload = bytes.substr(kEnvelopeHeaderSize, payload_len);
  return FrameFault::kNone;
}

}  // namespace ats::cluster
