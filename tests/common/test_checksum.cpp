// CRC-32 tests: the standard check value, incremental updates split at
// every offset, and the slicing-by-8 loop against a bytewise reference
// over unaligned starts and lengths on both sides of the 8-byte step.
#include "common/checksum.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace dasc {
namespace {

/// The plain bitwise CRC-32 the table-driven one must reproduce.
std::uint32_t reference_crc32(std::string_view bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const unsigned char byte : bytes) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string random_bytes(Rng& rng, std::size_t size) {
  std::string bytes(size, '\0');
  for (char& byte : bytes) {
    byte = static_cast<char>(rng() & 0xFFu);
  }
  return bytes;
}

TEST(Checksum, StandardCheckValue) {
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32().update("123456789").value(), 0xcbf43926u);
}

TEST(Checksum, EmptyInputIsZero) {
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(Crc32().value(), 0u);
  EXPECT_EQ(Crc32().update("").update("").value(), 0u);
}

TEST(Checksum, IncrementalUpdateMatchesOneShotAtEverySplit) {
  Rng rng(11);
  const std::string bytes = random_bytes(rng, 257);
  const std::uint32_t whole = crc32(bytes);
  EXPECT_EQ(whole, reference_crc32(bytes));
  const std::string_view view(bytes);
  for (std::size_t split = 0; split <= view.size(); ++split) {
    Crc32 crc;
    crc.update(view.substr(0, split)).update(view.substr(split));
    EXPECT_EQ(crc.value(), whole) << "split at " << split;
  }
}

TEST(Checksum, MatchesBytewiseReferenceAtEveryAlignment) {
  Rng rng(23);
  const std::string buffer = random_bytes(rng, 300 + 8);
  const std::string_view view(buffer);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t size = 0; size <= 300; ++size) {
      const std::string_view bytes = view.substr(start, size);
      EXPECT_EQ(crc32(bytes), reference_crc32(bytes))
          << "start " << start << ", size " << size;
    }
  }
}

TEST(Checksum, LinesAreNewlineTerminated) {
  const std::vector<std::string> lines = {"alpha", "beta", ""};
  EXPECT_EQ(crc32_lines(lines), 0x98b37a9cu);
  EXPECT_EQ(crc32_lines(lines), crc32("alpha\nbeta\n\n"));
  EXPECT_EQ(crc32_lines({}), 0u);
  // Line structure counts, not only the concatenated content.
  EXPECT_NE(crc32_lines({"alphabeta"}), crc32_lines({"alpha", "beta"}));
}

}  // namespace
}  // namespace dasc
