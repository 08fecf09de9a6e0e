// Byte-level reference pieces for the wire goldens, written from
// docs/WIRE_FORMAT.md alone and sharing no code with the library's
// writers or with FrameChecksum: little-endian fields appended byte by
// byte, and the frame checksum computed one byte at a time straight from
// the spec's pseudocode (each byte is shifted into its word, and each
// completed word steps the lane its word index names).
#ifndef ATS_TESTS_WIRE_REFERENCE_H_
#define ATS_TESTS_WIRE_REFERENCE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace ats::wire_reference {

inline void PutLe(std::string& out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutF64(std::string& out, double v) {
  PutLe(out, std::bit_cast<uint64_t>(v), 8);
}

// step(h, w) = x xor (x >> 15) with x = (h xor w) * 0x9e3779b1 mod 2^32.
inline uint32_t Step(uint32_t h, uint32_t w) {
  const uint32_t x = (h ^ w) * 0x9e3779b1u;
  return x ^ (x >> 15);
}

// The WIRE_FORMAT.md "Frame checksum" pseudocode, one byte at a time.
inline uint32_t Checksum(std::string_view bytes) {
  uint32_t lane[8];
  for (uint32_t i = 0; i < 8; ++i) lane[i] = 0x85ebca77u * (i + 1);
  const uint64_t n = bytes.size();
  const uint64_t padded = (n + 31) / 32 * 32;
  uint32_t word = 0;
  for (uint64_t j = 0; j < padded; ++j) {
    const uint32_t byte =
        j < n ? static_cast<unsigned char>(bytes[static_cast<size_t>(j)]) : 0;
    word |= byte << (8 * (j % 4));
    if (j % 4 == 3) {
      uint32_t& h = lane[(j / 4) % 8];
      h = Step(h, word);
      word = 0;
    }
  }
  uint32_t h = Step(0xc2b2ae3du, static_cast<uint32_t>(n & 0xffffffffu));
  h = Step(h, static_cast<uint32_t>(n >> 32));
  for (const uint32_t l : lane) h = Step(h, l);
  return h;
}

// A whole-buffer frame: `body`, then its checksum as a little-endian u32.
inline std::string WithChecksum(std::string body) {
  PutLe(body, Checksum(body), 4);
  return body;
}

}  // namespace ats::wire_reference

#endif  // ATS_TESTS_WIRE_REFERENCE_H_
