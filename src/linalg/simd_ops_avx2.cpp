// AVX2 kernels. Four 4-wide accumulators realize the canonical 16-lane
// reduction (acc[k] holds lanes {4k .. 4k+3}); four independent add chains
// cover the FP-add latency that made a single accumulator no faster than
// the scalar reference. The lanes are stored out and folded by the shared
// simd_detail::combine16, matching the scalar reference and the SSE2
// accumulators bit for bit. Deliberately mul+add, not FMA: a fused
// rounding here would break cross-level parity (DESIGN.md section 10).
// Compiled with -mavx2 -ffp-contract=off on x86 (see CMakeLists.txt);
// runtime dispatch guarantees these run only on AVX2-capable CPUs.
#include "linalg/simd_ops_detail.hpp"

#if defined(DASC_HAVE_AVX2_TU) && defined(__AVX2__)

#include <immintrin.h>

namespace dasc::linalg {
namespace {

double dot_avx2(const double* x, const double* y, std::size_t n) {
  __m256d acc[4];
  for (auto& a : acc) a = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (std::size_t k = 0; k < 4; ++k) {
      acc[k] =
          _mm256_add_pd(acc[k], _mm256_mul_pd(_mm256_loadu_pd(x + i + 4 * k),
                                              _mm256_loadu_pd(y + i + 4 * k)));
    }
  }
  alignas(32) double lanes[16];
  for (std::size_t k = 0; k < 4; ++k) _mm256_store_pd(lanes + 4 * k, acc[k]);
  for (std::size_t lane = 0; i < n; ++i, ++lane) lanes[lane] += x[i] * y[i];
  return simd_detail::combine16(lanes);
}

double squared_distance_avx2(const double* x, const double* y,
                             std::size_t n) {
  __m256d acc[4];
  for (auto& a : acc) a = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (std::size_t k = 0; k < 4; ++k) {
      const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i + 4 * k),
                                      _mm256_loadu_pd(y + i + 4 * k));
      acc[k] = _mm256_add_pd(acc[k], _mm256_mul_pd(d, d));
    }
  }
  alignas(32) double lanes[16];
  for (std::size_t k = 0; k < 4; ++k) _mm256_store_pd(lanes + 4 * k, acc[k]);
  for (std::size_t lane = 0; i < n; ++i, ++lane) {
    const double d = x[i] - y[i];
    lanes[lane] += d * d;
  }
  return simd_detail::combine16(lanes);
}

double reduce_add_avx2(const double* x, std::size_t n) {
  __m256d acc[4];
  for (auto& a : acc) a = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (std::size_t k = 0; k < 4; ++k) {
      acc[k] = _mm256_add_pd(acc[k], _mm256_loadu_pd(x + i + 4 * k));
    }
  }
  alignas(32) double lanes[16];
  for (std::size_t k = 0; k < 4; ++k) _mm256_store_pd(lanes + 4 * k, acc[k]);
  for (std::size_t lane = 0; i < n; ++i, ++lane) lanes[lane] += x[i];
  return simd_detail::combine16(lanes);
}

void axpy_avx2(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void scale_avx2(double* x, double alpha, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void diag_scale_avx2(double* y, double s, const double* w, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sw = _mm256_mul_pd(vs, _mm256_loadu_pd(w + i));
    _mm256_storeu_pd(y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i), sw));
  }
  for (; i < n; ++i) y[i] *= s * w[i];
}

void rotate_rows_avx2(double* x, double* y, double c, double s,
                      std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xi = _mm256_loadu_pd(x + i);
    const __m256d yi = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(
        x + i, _mm256_sub_pd(_mm256_mul_pd(vc, xi), _mm256_mul_pd(vs, yi)));
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_mul_pd(vs, xi), _mm256_mul_pd(vc, yi)));
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

void neg_div_avx2(const double* x, double denom, double* out,
                  std::size_t n) {
  const __m256d vd = _mm256_set1_pd(denom);
  const __m256d sign = _mm256_set1_pd(-0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_xor_pd(_mm256_div_pd(_mm256_loadu_pd(x + i), vd), sign));
  }
  for (; i < n; ++i) out[i] = -(x[i] / denom);
}

/// Lane `lane` of four adjacent panel columns: the sum over e ≡ lane
/// (mod 16), in increasing e, of (x[e] - col[e * stride])^2.
inline __m256d panel_lane(const double* x, const double* col,
                          std::size_t stride, std::size_t d,
                          std::size_t lane) {
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t e = lane; e < d; e += 16) {
    const __m256d diff = _mm256_sub_pd(_mm256_set1_pd(x[e]),
                                       _mm256_loadu_pd(col + e * stride));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  return acc;
}

/// Four columns per register. Each lane is summed on its own (lanes are
/// independent chains, so their order does not matter) and folded at once
/// in the combine16 tree, with the same operand order as the scalar fold.
void squared_distance_panel_avx2(const double* x, const double* panel,
                                 std::size_t stride, std::size_t d,
                                 std::size_t width, double* out) {
  std::size_t j = 0;
  for (; j + 4 <= width; j += 4) {
    const double* col = panel + j;
    const auto lane = [&](std::size_t l) {
      return panel_lane(x, col, stride, d, l);
    };
    const auto pair = [&](std::size_t l) {
      return _mm256_add_pd(_mm256_add_pd(lane(l), lane(l + 8)),
                           _mm256_add_pd(lane(l + 4), lane(l + 12)));
    };
    const __m256d v0 = pair(0);
    const __m256d v1 = pair(1);
    const __m256d v2 = pair(2);
    const __m256d v3 = pair(3);
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_add_pd(v0, v2),
                                            _mm256_add_pd(v1, v3)));
  }
  for (; j < width; ++j) {
    out[j] = simd_detail::panel_column(x, panel + j, stride, d);
  }
}

constexpr SimdKernels kAvx2Kernels{
    dot_avx2,        squared_distance_avx2,
    reduce_add_avx2, axpy_avx2,
    scale_avx2,      diag_scale_avx2,
    rotate_rows_avx2, neg_div_avx2,
    squared_distance_panel_avx2,
};

}  // namespace

namespace simd_detail {
const SimdKernels* avx2_table() { return &kAvx2Kernels; }
}  // namespace simd_detail

}  // namespace dasc::linalg

#else  // TU not built for AVX2

namespace dasc::linalg::simd_detail {
const SimdKernels* avx2_table() { return nullptr; }
}  // namespace dasc::linalg::simd_detail

#endif
