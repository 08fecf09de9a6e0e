// Checksum-repaired structural mutations, shared by the conformance kit
// (conformance_kit.h) and the randomized frame registry
// (tests/fuzz_oracle_test.cc). A plain bit flip is stopped by the frame
// checksum before any field validator runs; these mutations repair the
// checksum, so they exercise the validators themselves.
#ifndef ATS_TESTS_CONFORMANCE_STRUCTURAL_MUTATIONS_H_
#define ATS_TESTS_CONFORMANCE_STRUCTURAL_MUTATIONS_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ats/util/serialize.h"

namespace ats::conformance {

// Checksum-repaired structural mutations of a whole-buffer frame, blind
// to the family layout: for each 8-byte-aligned word past the 8-byte
// header, +1 and -1 (as a u64, so count fields shift by one too), a swap
// with the next word, and a copy over the next word. The trailing frame
// checksum is recomputed, so every mutation reaches the body validators;
// mutations that leave the frame unchanged are dropped.
inline std::vector<std::string> StructuralMutations(std::string_view frame) {
  const size_t body = frame.size() - sizeof(uint32_t);
  const auto word_at = [&frame](size_t pos) {
    uint64_t w;
    std::memcpy(&w, frame.data() + pos, sizeof(w));
    return w;
  };
  std::vector<std::string> out;
  const auto emit = [&](std::initializer_list<std::pair<size_t, uint64_t>>
                            patches) {
    std::string m(frame);
    for (const auto& [pos, w] : patches) std::memcpy(m.data() + pos, &w, 8);
    if (m == frame) return;
    const uint32_t sum = FrameChecksum(std::string_view(m).substr(0, body));
    std::memcpy(m.data() + body, &sum, sizeof(sum));
    out.push_back(std::move(m));
  };
  for (size_t pos = 8; pos + 8 <= body; pos += 8) {
    const uint64_t w = word_at(pos);
    emit({{pos, w + 1}});
    emit({{pos, w - 1}});
    if (pos + 16 <= body) {
      const uint64_t next = word_at(pos + 8);
      emit({{pos, next}, {pos + 8, w}});
      emit({{pos + 8, w}});
    }
  }
  return out;
}

}  // namespace ats::conformance

#endif  // ATS_TESTS_CONFORMANCE_STRUCTURAL_MUTATIONS_H_
