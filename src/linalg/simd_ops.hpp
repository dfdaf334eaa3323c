// Runtime-dispatched vectorized primitives for the Gram + embedding hot
// paths (AVX2 -> SSE2 -> scalar, chosen once at startup from the host CPU,
// overridable via the DASC_SIMD environment variable or
// DascParams::simd_level).
//
// Numerics contract: every dispatch level computes *bit-identical* results.
// Reductions use one canonical order at every level — sixteen accumulator
// lanes filled stride-16 (lane j takes elements with index ≡ j mod 16, in
// increasing index order) and combined by the shared fold in
// simd_detail::combine16, which is exactly what four 4-wide AVX2
// accumulators (or eight 2-wide SSE2 accumulators) produce. Sixteen lanes,
// not four, so the vector levels get enough independent add chains to
// cover FP-add latency — with a single accumulator chain AVX2 is
// latency-bound to scalar speed. Elementwise kernels are order-free. All
// three translation units
// are compiled with -ffp-contract=off so no level silently fuses a
// multiply-add the others perform as two roundings, and transcendental
// batches (the Gaussian row) funnel through the same scalar std::exp loop
// at every level. The differential suite in
// tests/linalg/test_simd_differential.cpp enforces 0-ULP agreement.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

namespace dasc::linalg {

/// Dispatch level. kAuto resolves to the best level the CPU supports
/// (after honoring DASC_SIMD); the others force a specific kernel set.
enum class SimdLevel { kAuto = 0, kScalar = 1, kSse2 = 2, kAvx2 = 3 };

/// Function-pointer table of one dispatch level's kernels. Raw pointers
/// (not spans) so the tails stay branch-cheap; the span wrappers below are
/// the public entry points.
struct SimdKernels {
  double (*dot)(const double* x, const double* y, std::size_t n);
  double (*squared_distance)(const double* x, const double* y,
                             std::size_t n);
  double (*reduce_add)(const double* x, std::size_t n);
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  void (*scale)(double* x, double alpha, std::size_t n);
  /// y[i] *= s * w[i] (the D^{-1/2} S D^{-1/2} row update).
  void (*diag_scale)(double* y, double s, const double* w, std::size_t n);
  /// Givens/Jacobi pair rotation: x' = c*x - s*y, y' = s*x + c*y.
  void (*rotate_rows)(double* x, double* y, double c, double s,
                      std::size_t n);
  /// out[i] = -(x[i] / denom): the Gaussian exponent batch, exp applied
  /// afterwards by gaussian_from_d2 (identical libm calls at every level).
  void (*neg_div)(const double* x, double denom, double* out, std::size_t n);
  /// Row-versus-panel squared distances: out[j] = ||x - column j||^2 for
  /// j < width, where column j of the dimension-major panel is
  /// panel[e * stride + j] for e < d. Each column is reduced in the
  /// canonical 16-lane order, so out[j] is bit-identical to
  /// squared_distance(x, column j) at every level; the vector levels
  /// carry 4 (AVX2) or 2 (SSE2) columns per register.
  void (*squared_distance_panel)(const double* x, const double* panel,
                                 std::size_t stride, std::size_t d,
                                 std::size_t width, double* out);
};

namespace simd {

/// True when this build/CPU can execute `level` (kAuto and kScalar always).
bool level_supported(SimdLevel level);

/// Kernel table for an explicit level (kAuto resolves to the startup
/// choice). Unsupported levels clamp down (kAvx2 -> kSse2 -> kScalar).
const SimdKernels& kernels(SimdLevel level);

/// The level the active table was built for (never kAuto).
SimdLevel active_level();

/// Swap the active dispatch table. kAuto re-resolves DASC_SIMD / CPUID.
/// Unsupported levels clamp down. Returns the level actually installed.
/// Not meant to race with in-flight kernels; call it between pipelines
/// (consumers apply DascParams::simd_level before spawning workers).
SimdLevel set_level(SimdLevel level);

/// Stable lowercase name ("auto", "scalar", "sse2", "avx2").
const char* level_name(SimdLevel level);

/// Parse a level name as accepted by DASC_SIMD; nullopt on junk.
std::optional<SimdLevel> parse_level(std::string_view name);

/// Numeric id exported as the `linalg.simd_level` gauge
/// (scalar=0, sse2=1, avx2=2).
int level_gauge_value(SimdLevel level);

/// Active-table accessor (relaxed atomic load; safe to cache per call).
const SimdKernels& active();

// ---- span convenience wrappers over the active table ----

inline double dot(std::span<const double> x, std::span<const double> y) {
  return active().dot(x.data(), y.data(), x.size());
}

inline double squared_distance(std::span<const double> x,
                               std::span<const double> y) {
  return active().squared_distance(x.data(), y.data(), x.size());
}

inline double reduce_add(std::span<const double> x) {
  return active().reduce_add(x.data(), x.size());
}

inline void axpy(double alpha, std::span<const double> x,
                 std::span<double> y) {
  active().axpy(alpha, x.data(), y.data(), x.size());
}

inline void scale(std::span<double> x, double alpha) {
  active().scale(x.data(), alpha, x.size());
}

inline void diag_scale(std::span<double> y, double s,
                       std::span<const double> w) {
  active().diag_scale(y.data(), s, w.data(), y.size());
}

inline void rotate_rows(std::span<double> x, std::span<double> y, double c,
                        double s) {
  active().rotate_rows(x.data(), y.data(), c, s, x.size());
}

/// out[i] = exp(-(d2[i] / denom)). The division is vectorized per level
/// (IEEE division is exactly rounded, so levels agree bitwise); the exp
/// batch is one shared scalar libm loop, so every level issues the exact
/// same sequence of std::exp calls.
void gaussian_from_d2(std::span<const double> d2, double denom,
                      std::span<double> out);

}  // namespace simd
}  // namespace dasc::linalg
