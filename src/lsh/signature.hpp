// M-bit binary LSH signatures packed into one 64-bit word.
//
// The paper's auto-tuned signature width M = ceil(log2 N / 2) - 1 stays far
// below 64 for any N that fits in memory, so a single word is lossless and
// makes the Hamming comparisons the paper optimizes (Eq. 6) one popcount.
#pragma once

#include <cstdint>
#include <string>

namespace dasc::lsh {

/// Packed M-bit signature; bit i of `bits` is the i-th hash output.
struct Signature {
  std::uint64_t bits = 0;

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// Maximum supported signature width.
inline constexpr std::size_t kMaxSignatureBits = 64;

/// Number of differing bits between two signatures.
std::size_t hamming_distance(Signature a, Signature b);

/// The paper's O(1) near-duplicate test, Eq. (6):
///   ANS = (A xor B) & (A xor B - 1); merge iff ANS == 0,
/// i.e. the signatures differ in at most one bit.
bool differ_by_at_most_one_bit(Signature a, Signature b);

/// True if a and b share at least `p` of their `m` bits.
bool share_at_least(Signature a, Signature b, std::size_t m, std::size_t p);

/// Binary string "b_{M-1} ... b_0" for logs and MapReduce keys.
std::string to_string(Signature sig, std::size_t m);

struct SignatureHash {
  std::size_t operator()(const Signature& s) const noexcept {
    // SplitMix64 finalizer: good avalanche for sequential bit patterns.
    std::uint64_t z = s.bits + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

}  // namespace dasc::lsh
