// Dispatch core + the scalar reference kernels. This TU is compiled with
// -ffp-contract=off (see src/linalg/CMakeLists.txt): the scalar kernels
// below are the oracle the differential suite holds every other level to,
// so the compiler must not fuse their multiply-adds.
#include "linalg/simd_ops.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>

#include "common/log.hpp"
#include "linalg/simd_ops_detail.hpp"

namespace dasc::linalg {
namespace {

// ---- scalar reference kernels (canonical 16-lane reduction order) ----
//
// Sixteen lanes, not four: the vector levels need several independent
// accumulator registers to cover FP-add latency, and the scalar reference
// must accumulate in the exact same order to stay bit-identical. Lane j
// takes elements with index ≡ j (mod 16); simd_detail::combine16 is the
// shared fold.

double dot_scalar(const double* x, const double* y, std::size_t n) {
  double lanes[16] = {};
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (std::size_t lane = 0; lane < 16; ++lane) {
      lanes[lane] += x[i + lane] * y[i + lane];
    }
  }
  for (std::size_t lane = 0; i < n; ++i, ++lane) lanes[lane] += x[i] * y[i];
  return simd_detail::combine16(lanes);
}

double squared_distance_scalar(const double* x, const double* y,
                               std::size_t n) {
  double lanes[16] = {};
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (std::size_t lane = 0; lane < 16; ++lane) {
      const double d = x[i + lane] - y[i + lane];
      lanes[lane] += d * d;
    }
  }
  for (std::size_t lane = 0; i < n; ++i, ++lane) {
    const double d = x[i] - y[i];
    lanes[lane] += d * d;
  }
  return simd_detail::combine16(lanes);
}

double reduce_add_scalar(const double* x, std::size_t n) {
  double lanes[16] = {};
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (std::size_t lane = 0; lane < 16; ++lane) lanes[lane] += x[i + lane];
  }
  for (std::size_t lane = 0; i < n; ++i, ++lane) lanes[lane] += x[i];
  return simd_detail::combine16(lanes);
}

void axpy_scalar(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale_scalar(double* x, double alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void diag_scale_scalar(double* y, double s, const double* w, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= s * w[i];
}

void rotate_rows_scalar(double* x, double* y, double c, double s,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

void neg_div_scalar(const double* x, double denom, double* out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = -(x[i] / denom);
}

void squared_distance_panel_scalar(const double* x, const double* panel,
                                   std::size_t stride, std::size_t d,
                                   std::size_t width, double* out) {
  for (std::size_t j = 0; j < width; ++j) {
    out[j] = simd_detail::panel_column(x, panel + j, stride, d);
  }
}

constexpr SimdKernels kScalarKernels{
    dot_scalar,        squared_distance_scalar,
    reduce_add_scalar, axpy_scalar,
    scale_scalar,      diag_scale_scalar,
    rotate_rows_scalar, neg_div_scalar,
    squared_distance_panel_scalar,
};

// ---- dispatch state ----

bool cpu_has(SimdLevel level) {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  switch (level) {
    case SimdLevel::kSse2:
      return __builtin_cpu_supports("sse2") != 0;
    case SimdLevel::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    default:
      return true;
  }
#else
  return level == SimdLevel::kScalar || level == SimdLevel::kAuto;
#endif
}

const SimdKernels* table_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::kSse2:
      return simd_detail::sse2_table();
    case SimdLevel::kAvx2:
      return simd_detail::avx2_table();
    default:
      return &kScalarKernels;
  }
}

SimdLevel clamp_down(SimdLevel level) {
  if (level == SimdLevel::kAvx2 && !simd::level_supported(level)) {
    level = SimdLevel::kSse2;
  }
  if (level == SimdLevel::kSse2 && !simd::level_supported(level)) {
    level = SimdLevel::kScalar;
  }
  return level;
}

SimdLevel best_supported() {
  if (simd::level_supported(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  if (simd::level_supported(SimdLevel::kSse2)) return SimdLevel::kSse2;
  return SimdLevel::kScalar;
}

/// DASC_SIMD honored once here; later kAuto set_level calls re-read it so
/// tests can exercise the override without re-execing.
SimdLevel resolve_auto() {
  const char* env = std::getenv("DASC_SIMD");
  if (env != nullptr && *env != '\0') {
    const auto parsed = simd::parse_level(env);
    if (!parsed.has_value()) {
      DASC_LOG(kWarn) << "DASC_SIMD=" << env
                      << " is not scalar|sse2|avx2|auto; using auto";
    } else if (*parsed != SimdLevel::kAuto) {
      const SimdLevel clamped = clamp_down(*parsed);
      if (clamped != *parsed) {
        DASC_LOG(kWarn) << "DASC_SIMD=" << env
                        << " unsupported on this host; falling back to "
                        << simd::level_name(clamped);
      }
      return clamped;
    }
  }
  return best_supported();
}

std::atomic<const SimdKernels*> g_active{nullptr};
std::atomic<SimdLevel> g_level{SimdLevel::kScalar};

void ensure_initialized() {
  if (g_active.load(std::memory_order_acquire) == nullptr) {
    simd::set_level(SimdLevel::kAuto);
  }
}

}  // namespace

namespace simd {

bool level_supported(SimdLevel level) {
  if (level == SimdLevel::kAuto || level == SimdLevel::kScalar) return true;
  return table_for(level) != nullptr && cpu_has(level);
}

const SimdKernels& kernels(SimdLevel level) {
  if (level == SimdLevel::kAuto) {
    ensure_initialized();
    return *g_active.load(std::memory_order_relaxed);
  }
  const SimdLevel usable = clamp_down(level);
  return *table_for(usable);
}

SimdLevel active_level() {
  ensure_initialized();
  return g_level.load(std::memory_order_relaxed);
}

SimdLevel set_level(SimdLevel level) {
  SimdLevel target =
      level == SimdLevel::kAuto ? resolve_auto() : clamp_down(level);
  if (level != SimdLevel::kAuto && target != level) {
    DASC_LOG(kWarn) << "simd level " << level_name(level)
                    << " unsupported; using " << level_name(target);
  }
  g_level.store(target, std::memory_order_relaxed);
  g_active.store(table_for(target), std::memory_order_release);
  return target;
}

const char* level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto:
      return "auto";
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<SimdLevel> parse_level(std::string_view name) {
  if (name == "auto") return SimdLevel::kAuto;
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "sse2") return SimdLevel::kSse2;
  if (name == "avx2") return SimdLevel::kAvx2;
  return std::nullopt;
}

int level_gauge_value(SimdLevel level) {
  switch (level) {
    case SimdLevel::kSse2:
      return 1;
    case SimdLevel::kAvx2:
      return 2;
    default:
      return 0;
  }
}

const SimdKernels& active() {
  ensure_initialized();
  return *g_active.load(std::memory_order_relaxed);
}

void gaussian_from_d2(std::span<const double> d2, double denom,
                      std::span<double> out) {
  active().neg_div(d2.data(), denom, out.data(), d2.size());
  // One shared libm loop: every dispatch level funnels through these exact
  // std::exp calls, which is half of the bit-identical-labels argument
  // (DESIGN.md section 10).
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::exp(out[i]);
}

}  // namespace simd
}  // namespace dasc::linalg
