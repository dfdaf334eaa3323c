#include "common/checksum.hpp"

#include <array>

namespace dasc {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the bytewise table; tables[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight lookups advance the state by eight
/// input bytes at once.
const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return t;
  }();
  return tables;
}

/// Little-endian u32 at `p`, whatever the host order (compiles to a load).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

Crc32& Crc32::update(std::string_view bytes) {
  const CrcTables& t = crc_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t c = state_;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  state_ = c;
  return *this;
}

std::uint32_t crc32(std::string_view bytes) {
  return Crc32().update(bytes).value();
}

std::uint32_t crc32_lines(const std::vector<std::string>& lines) {
  Crc32 crc;
  for (const auto& line : lines) {
    crc.update(line);
    crc.update("\n");
  }
  return crc.value();
}

}  // namespace dasc
