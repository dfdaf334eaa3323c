#include "lsh/signature.hpp"

#include <bit>

#include "common/error.hpp"

namespace dasc::lsh {

std::size_t hamming_distance(Signature a, Signature b) {
  return static_cast<std::size_t>(std::popcount(a.bits ^ b.bits));
}

bool differ_by_at_most_one_bit(Signature a, Signature b) {
  const std::uint64_t x = a.bits ^ b.bits;
  return (x & (x - 1)) == 0;  // 0 or a single set bit
}

bool share_at_least(Signature a, Signature b, std::size_t m, std::size_t p) {
  DASC_EXPECT(p <= m, "share_at_least: p must be <= m");
  DASC_EXPECT(m <= kMaxSignatureBits, "share_at_least: m too large");
  return m - hamming_distance(a, b) >= p;
}

std::string to_string(Signature sig, std::size_t m) {
  DASC_EXPECT(m >= 1 && m <= kMaxSignatureBits, "to_string: bad width");
  std::string out(m, '0');
  for (std::size_t i = 0; i < m; ++i) {
    if ((sig.bits >> i) & 1ULL) out[m - 1 - i] = '1';
  }
  return out;
}

}  // namespace dasc::lsh
