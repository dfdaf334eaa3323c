#include "lsh/signature.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dasc::lsh {
namespace {

TEST(Signature, HammingDistance) {
  EXPECT_EQ(hamming_distance({0b1010}, {0b1010}), 0u);
  EXPECT_EQ(hamming_distance({0b1010}, {0b1000}), 1u);
  EXPECT_EQ(hamming_distance({0b1111}, {0b0000}), 4u);
}

TEST(Signature, Equation6DetectsAtMostOneBitDifference) {
  EXPECT_TRUE(differ_by_at_most_one_bit({0b1010}, {0b1010}));
  EXPECT_TRUE(differ_by_at_most_one_bit({0b1010}, {0b1011}));
  EXPECT_FALSE(differ_by_at_most_one_bit({0b1010}, {0b1001}));
  EXPECT_FALSE(differ_by_at_most_one_bit({0b1111}, {0b0000}));
}

TEST(Signature, Equation6MatchesHammingDefinition) {
  // Property: for random pairs, the bit trick agrees with popcount.
  dasc::Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    const Signature a{rng()};
    const Signature b{rng() & 0x3 ? a.bits ^ (1ULL << rng.uniform_index(64))
                                  : rng()};
    EXPECT_EQ(differ_by_at_most_one_bit(a, b),
              hamming_distance(a, b) <= 1);
  }
}

TEST(Signature, ShareAtLeast) {
  // m = 4; signatures 1010 vs 1000 share 3 bits.
  EXPECT_TRUE(share_at_least({0b1010}, {0b1000}, 4, 3));
  EXPECT_FALSE(share_at_least({0b1010}, {0b1000}, 4, 4));
  EXPECT_TRUE(share_at_least({0b1010}, {0b1010}, 4, 4));
  EXPECT_THROW(share_at_least({0}, {0}, 4, 5), dasc::InvalidArgument);
}

TEST(Signature, ToStringMsbFirst) {
  EXPECT_EQ(to_string({0b101}, 3), "101");
  EXPECT_EQ(to_string({0b1}, 4), "0001");
  EXPECT_EQ(to_string({0}, 2), "00");
}

TEST(Signature, StringRoundTrip) {
  dasc::Rng rng(78);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t m = 1 + rng.uniform_index(63);
    const Signature sig{rng() & ((m == 64) ? ~0ULL : ((1ULL << m) - 1))};
    const std::string text = to_string(sig, m);
    ASSERT_EQ(text.size(), m);
    EXPECT_EQ(std::stoull(text, nullptr, 2), sig.bits);
  }
}

TEST(Signature, HashSpreadsSequentialValues) {
  SignatureHash hasher;
  std::size_t collisions = 0;
  std::vector<std::size_t> seen;
  for (std::uint64_t v = 0; v < 1000; ++v) {
    seen.push_back(hasher(Signature{v}) % 4096);
  }
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    if (seen[i] == seen[i - 1]) ++collisions;
  }
  EXPECT_LT(collisions, 300u);  // far better than worst case
}

}  // namespace
}  // namespace dasc::lsh
