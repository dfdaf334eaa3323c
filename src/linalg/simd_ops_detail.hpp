// Internal seam between the dispatch core (simd_ops.cpp) and the
// ISA-specific translation units. Each TU exposes its kernel table, or
// nullptr when the build target cannot emit that ISA (non-x86 hosts);
// runtime CPU capability is checked separately by the core.
#pragma once

#include "linalg/simd_ops.hpp"

namespace dasc::linalg::simd_detail {

/// SSE2 kernel table, or nullptr when not compiled in.
const SimdKernels* sse2_table();

/// AVX2 kernel table, or nullptr when not compiled in.
const SimdKernels* avx2_table();

/// Canonical 16-lane reduction combine, shared by every dispatch level so
/// the fold is the same arithmetic expression everywhere. Lane j holds the
/// partial sum of elements with index ≡ j (mod 16); the tree below is
/// exactly what four 4-wide AVX2 accumulators produce when folded
/// register-pairwise ((A0+A2)+(A1+A3)) and then horizontally
/// ((r0+r2)+(r1+r3)). Pure additions — immune to -ffp-contract settings.
inline double combine16(const double* l) {
  const double v0 = (l[0] + l[8]) + (l[4] + l[12]);
  const double v1 = (l[1] + l[9]) + (l[5] + l[13]);
  const double v2 = (l[2] + l[10]) + (l[6] + l[14]);
  const double v3 = (l[3] + l[11]) + (l[7] + l[15]);
  return (v0 + v2) + (v1 + v3);
}

/// One column of the row-versus-panel kernel in the canonical order: lane
/// e & 15 accumulates (x[e] - col[e * stride])^2 in increasing e, then the
/// combine16 fold -- the per-pair squared_distance expression term for
/// term. The scalar level runs it for every column, the vector levels for
/// their leftover columns. `static` so every translation unit keeps its
/// own copy, compiled for its own ISA (an inline definition could be
/// merged with the -mavx2 copy).
static inline double panel_column(const double* x, const double* col,
                                  std::size_t stride, std::size_t d) {
  double lanes[16] = {};
  for (std::size_t e = 0; e < d; ++e) {
    const double diff = x[e] - col[e * stride];
    lanes[e & 15] += diff * diff;
  }
  return combine16(lanes);
}

}  // namespace dasc::linalg::simd_detail
