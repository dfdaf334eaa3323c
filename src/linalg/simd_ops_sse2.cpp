// SSE2 kernels. Eight 2-wide accumulators emulate the canonical 16-lane
// reduction (acc[k] holds lanes {2k, 2k+1}), so every reduction here is
// bit-identical to the scalar reference and the AVX2 path — the lanes are
// stored out and folded by the shared simd_detail::combine16. Compiled
// with -ffp-contract=off; no FMA (SSE2 has none, and the other levels
// must not differ by a fused rounding anyway).
#include "linalg/simd_ops_detail.hpp"

#if defined(__SSE2__) || defined(_M_X64)

#include <emmintrin.h>

namespace dasc::linalg {
namespace {

double dot_sse2(const double* x, const double* y, std::size_t n) {
  __m128d acc[8];
  for (auto& a : acc) a = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (std::size_t k = 0; k < 8; ++k) {
      acc[k] = _mm_add_pd(acc[k], _mm_mul_pd(_mm_loadu_pd(x + i + 2 * k),
                                             _mm_loadu_pd(y + i + 2 * k)));
    }
  }
  alignas(16) double lanes[16];
  for (std::size_t k = 0; k < 8; ++k) _mm_store_pd(lanes + 2 * k, acc[k]);
  for (std::size_t lane = 0; i < n; ++i, ++lane) lanes[lane] += x[i] * y[i];
  return simd_detail::combine16(lanes);
}

double squared_distance_sse2(const double* x, const double* y,
                             std::size_t n) {
  __m128d acc[8];
  for (auto& a : acc) a = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (std::size_t k = 0; k < 8; ++k) {
      const __m128d d = _mm_sub_pd(_mm_loadu_pd(x + i + 2 * k),
                                   _mm_loadu_pd(y + i + 2 * k));
      acc[k] = _mm_add_pd(acc[k], _mm_mul_pd(d, d));
    }
  }
  alignas(16) double lanes[16];
  for (std::size_t k = 0; k < 8; ++k) _mm_store_pd(lanes + 2 * k, acc[k]);
  for (std::size_t lane = 0; i < n; ++i, ++lane) {
    const double d = x[i] - y[i];
    lanes[lane] += d * d;
  }
  return simd_detail::combine16(lanes);
}

double reduce_add_sse2(const double* x, std::size_t n) {
  __m128d acc[8];
  for (auto& a : acc) a = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (std::size_t k = 0; k < 8; ++k) {
      acc[k] = _mm_add_pd(acc[k], _mm_loadu_pd(x + i + 2 * k));
    }
  }
  alignas(16) double lanes[16];
  for (std::size_t k = 0; k < 8; ++k) _mm_store_pd(lanes + 2 * k, acc[k]);
  for (std::size_t lane = 0; i < n; ++i, ++lane) lanes[lane] += x[i];
  return simd_detail::combine16(lanes);
}

void axpy_sse2(double alpha, const double* x, double* y, std::size_t n) {
  const __m128d va = _mm_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(y + i, _mm_add_pd(_mm_loadu_pd(y + i),
                                    _mm_mul_pd(va, _mm_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void scale_sse2(double* x, double alpha, std::size_t n) {
  const __m128d va = _mm_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(x + i, _mm_mul_pd(_mm_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void diag_scale_sse2(double* y, double s, const double* w, std::size_t n) {
  const __m128d vs = _mm_set1_pd(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d sw = _mm_mul_pd(vs, _mm_loadu_pd(w + i));
    _mm_storeu_pd(y + i, _mm_mul_pd(_mm_loadu_pd(y + i), sw));
  }
  for (; i < n; ++i) y[i] *= s * w[i];
}

void rotate_rows_sse2(double* x, double* y, double c, double s,
                      std::size_t n) {
  const __m128d vc = _mm_set1_pd(c);
  const __m128d vs = _mm_set1_pd(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d xi = _mm_loadu_pd(x + i);
    const __m128d yi = _mm_loadu_pd(y + i);
    _mm_storeu_pd(
        x + i, _mm_sub_pd(_mm_mul_pd(vc, xi), _mm_mul_pd(vs, yi)));
    _mm_storeu_pd(
        y + i, _mm_add_pd(_mm_mul_pd(vs, xi), _mm_mul_pd(vc, yi)));
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

void neg_div_sse2(const double* x, double denom, double* out,
                  std::size_t n) {
  const __m128d vd = _mm_set1_pd(denom);
  const __m128d sign = _mm_set1_pd(-0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i,
                  _mm_xor_pd(_mm_div_pd(_mm_loadu_pd(x + i), vd), sign));
  }
  for (; i < n; ++i) out[i] = -(x[i] / denom);
}

/// Lane `lane` of two adjacent panel columns: the sum over e ≡ lane
/// (mod 16), in increasing e, of (x[e] - col[e * stride])^2.
inline __m128d panel_lane(const double* x, const double* col,
                          std::size_t stride, std::size_t d,
                          std::size_t lane) {
  __m128d acc = _mm_setzero_pd();
  for (std::size_t e = lane; e < d; e += 16) {
    const __m128d diff =
        _mm_sub_pd(_mm_set1_pd(x[e]), _mm_loadu_pd(col + e * stride));
    acc = _mm_add_pd(acc, _mm_mul_pd(diff, diff));
  }
  return acc;
}

/// Two columns per register, folded in the combine16 tree (see the AVX2
/// kernel).
void squared_distance_panel_sse2(const double* x, const double* panel,
                                 std::size_t stride, std::size_t d,
                                 std::size_t width, double* out) {
  std::size_t j = 0;
  for (; j + 2 <= width; j += 2) {
    const double* col = panel + j;
    const auto lane = [&](std::size_t l) {
      return panel_lane(x, col, stride, d, l);
    };
    const auto pair = [&](std::size_t l) {
      return _mm_add_pd(_mm_add_pd(lane(l), lane(l + 8)),
                        _mm_add_pd(lane(l + 4), lane(l + 12)));
    };
    const __m128d v0 = pair(0);
    const __m128d v1 = pair(1);
    const __m128d v2 = pair(2);
    const __m128d v3 = pair(3);
    _mm_storeu_pd(out + j,
                  _mm_add_pd(_mm_add_pd(v0, v2), _mm_add_pd(v1, v3)));
  }
  for (; j < width; ++j) {
    out[j] = simd_detail::panel_column(x, panel + j, stride, d);
  }
}

constexpr SimdKernels kSse2Kernels{
    dot_sse2,        squared_distance_sse2,
    reduce_add_sse2, axpy_sse2,
    scale_sse2,      diag_scale_sse2,
    rotate_rows_sse2, neg_div_sse2,
    squared_distance_panel_sse2,
};

}  // namespace

namespace simd_detail {
const SimdKernels* sse2_table() { return &kSse2Kernels; }
}  // namespace simd_detail

}  // namespace dasc::linalg

#else  // !__SSE2__

namespace dasc::linalg::simd_detail {
const SimdKernels* sse2_table() { return nullptr; }
}  // namespace dasc::linalg::simd_detail

#endif
