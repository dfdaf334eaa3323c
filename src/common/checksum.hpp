// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320; check value
// 0xcbf43926 over "123456789").
//
// One shared implementation guards every integrity check in the system:
// model-artifact sections (serving/model_artifact), DFS block reads,
// spool pages, worker transport frames, and shuffle fetch transfers (the
// fault-tolerance layer re-reads a replica / re-fetches a segment when
// verification fails). It is slicing-by-8: eight 256-entry tables fold
// eight input bytes per step, and a bytewise loop takes the tail. The
// values are those of the plain bytewise table loop for every input and
// any split of it across update() calls, so every stored checksum keeps
// its value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dasc {

/// Incremental CRC-32 accumulator.
class Crc32 {
 public:
  Crc32& update(std::string_view bytes);
  /// Finalized checksum of everything updated so far (non-destructive).
  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a byte string.
std::uint32_t crc32(std::string_view bytes);

/// CRC-32 of a line sequence, newline-terminated per line (the DFS block
/// checksum: sensitive to both content and line structure).
std::uint32_t crc32_lines(const std::vector<std::string>& lines);

}  // namespace dasc
