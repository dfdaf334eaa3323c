// Differential gate for the SIMD dispatch layer (DESIGN.md section 10).
//
// Every primitive in SimdKernels is run at every dispatch level this build
// can execute and compared against the scalar reference table BITWISE
// (0 ULP, NaN compares equal to NaN) across adversarial shapes: lengths
// 0..67 (every tail residue), unaligned spans, denormals, signed zeros,
// NaN/Inf propagation, and large-magnitude cancellation. The end-to-end
// half of the gate asserts dasc_cluster labels are bit-identical across
// levels, thread counts, and an injected-fault run.
//
// Suite names all start with "SimdDifferential": the asan deflake job
// re-runs them via `ctest -R SimdDifferential --repeat until-fail:3`.
#include "linalg/simd_ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned_allocator.hpp"
#include "common/fault_injection.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/dasc_clusterer.hpp"
#include "data/synthetic.hpp"
#include "linalg/distance_panel.hpp"

namespace dasc::linalg {
namespace {

// ---- level plumbing ----

/// Restores the active dispatch level on scope exit, so a test that forces
/// a level cannot leak it into later tests in the same binary.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : previous_(simd::active_level()) {
    simd::set_level(level);
  }
  ~ScopedSimdLevel() { simd::set_level(previous_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel previous_;
};

std::vector<SimdLevel> supported_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (simd::level_supported(SimdLevel::kSse2)) {
    levels.push_back(SimdLevel::kSse2);
  }
  if (simd::level_supported(SimdLevel::kAvx2)) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

// ---- bitwise comparison (0 ULP; NaN == NaN) ----

bool bit_equal(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult bit_equal_vec(const std::vector<double>& got,
                                         const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!bit_equal(got[i], want[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": got " << got[i] << " (0x" << std::hex
             << std::bit_cast<std::uint64_t>(got[i]) << ") want " << want[i]
             << " (0x" << std::bit_cast<std::uint64_t>(want[i]) << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// ---- adversarial input families ----

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

struct InputFamily {
  const char* name;
  void (*fill)(std::vector<double>& x, Rng& rng);
};

const InputFamily kFamilies[] = {
    {"uniform",
     [](std::vector<double>& x, Rng& rng) {
       for (double& v : x) v = rng.uniform(-1.0, 1.0);
     }},
    {"denormals",
     [](std::vector<double>& x, Rng&) {
       for (std::size_t i = 0; i < x.size(); ++i) {
         x[i] = (i % 2 == 0 ? 1.0 : -1.0) * kDenorm *
                static_cast<double>(i + 1);
       }
     }},
    {"signed_zeros",
     [](std::vector<double>& x, Rng&) {
       for (std::size_t i = 0; i < x.size(); ++i) {
         x[i] = i % 2 == 0 ? 0.0 : -0.0;
       }
     }},
    {"nan_inf",
     [](std::vector<double>& x, Rng& rng) {
       for (std::size_t i = 0; i < x.size(); ++i) {
         switch (i % 5) {
           case 0: x[i] = kNaN; break;
           case 1: x[i] = kInf; break;
           case 2: x[i] = -kInf; break;
           default: x[i] = rng.uniform(-2.0, 2.0);
         }
       }
     }},
    {"cancellation",
     [](std::vector<double>& x, Rng& rng) {
       // Alternating huge values whose pairwise sums cancel; reduction
       // order changes the result by many ULPs, so bitwise agreement here
       // proves the levels share one order.
       for (std::size_t i = 0; i < x.size(); ++i) {
         const double huge = (i % 2 == 0 ? 1.0 : -1.0) * 1e15;
         x[i] = huge + rng.uniform(-1.0, 1.0);
       }
     }},
    {"mixed_magnitude",
     [](std::vector<double>& x, Rng&) {
       for (std::size_t i = 0; i < x.size(); ++i) {
         x[i] = (i % 3 == 0 ? -1.0 : 1.0) *
                std::ldexp(1.0, static_cast<int>(i % 120) - 60);
       }
     }},
};

constexpr std::size_t kMaxLen = 67;  // covers every 16-lane tail residue

/// Runs `check(x_span, y_span)` for every family x every length 0..kMaxLen,
/// aligned and one-past-aligned (data()+1), with independently generated
/// x/y contents.
template <typename Check>
void for_each_adversarial_pair(const Check& check) {
  for (const InputFamily& family : kFamilies) {
    Rng rng(0x51D0 + static_cast<std::uint64_t>(family.name[0]));
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      for (int unaligned = 0; unaligned < 2; ++unaligned) {
        std::vector<double> xbuf(n + 1, 0.0);
        std::vector<double> ybuf(n + 1, 0.0);
        std::vector<double> xs(n);
        std::vector<double> ys(n);
        family.fill(xs, rng);
        family.fill(ys, rng);
        const std::size_t off = unaligned == 0 ? 0 : 1;
        std::copy(xs.begin(), xs.end(), xbuf.begin() + off);
        std::copy(ys.begin(), ys.end(), ybuf.begin() + off);
        SCOPED_TRACE(std::string(family.name) + " n=" + std::to_string(n) +
                     (unaligned ? " unaligned" : " aligned"));
        check(std::span<const double>(xbuf.data() + off, n),
              std::span<const double>(ybuf.data() + off, n));
      }
    }
  }
}

// ---- per-primitive differential gates ----

TEST(SimdDifferentialReduce, DotBitIdenticalAcrossLevels) {
  const SimdKernels& ref = simd::kernels(SimdLevel::kScalar);
  for (SimdLevel level : supported_levels()) {
    const SimdKernels& k = simd::kernels(level);
    for_each_adversarial_pair([&](std::span<const double> x,
                                  std::span<const double> y) {
      EXPECT_PRED2(bit_equal, k.dot(x.data(), y.data(), x.size()),
                   ref.dot(x.data(), y.data(), x.size()))
          << simd::level_name(level);
    });
  }
}

TEST(SimdDifferentialReduce, SquaredDistanceBitIdenticalAcrossLevels) {
  const SimdKernels& ref = simd::kernels(SimdLevel::kScalar);
  for (SimdLevel level : supported_levels()) {
    const SimdKernels& k = simd::kernels(level);
    for_each_adversarial_pair([&](std::span<const double> x,
                                  std::span<const double> y) {
      EXPECT_PRED2(bit_equal,
                   k.squared_distance(x.data(), y.data(), x.size()),
                   ref.squared_distance(x.data(), y.data(), x.size()))
          << simd::level_name(level);
    });
  }
}

/// A dimension-major panel of `width` columns of `d` values each, stored
/// at `offset` doubles past an aligned base with row stride `stride`, plus
/// each column as its own contiguous row for the per-pair reference.
struct TestPanel {
  std::vector<double> storage;
  std::size_t offset = 0;
  std::size_t stride = 0;
  std::vector<std::vector<double>> columns;

  const double* data() const { return storage.data() + offset; }
};

TestPanel make_test_panel(const InputFamily& family, Rng& rng, std::size_t d,
                          std::size_t width, std::size_t offset,
                          std::size_t stride) {
  TestPanel panel;
  panel.offset = offset;
  panel.stride = stride;
  panel.storage.assign(offset + d * stride + 1, 0.0);
  for (std::size_t j = 0; j < width; ++j) {
    std::vector<double> column(d);
    family.fill(column, rng);
    for (std::size_t e = 0; e < d; ++e) {
      panel.storage[offset + e * stride + j] = column[e];
    }
    panel.columns.push_back(std::move(column));
  }
  return panel;
}

/// One quiet NaN for every NaN. Which of two NaN operands an add returns
/// depends on operand order, and the compiler may commute a scalar add, so
/// no level promises a NaN's sign or payload -- only that it is a NaN.
void canonicalize_nans(std::vector<double>& v) {
  for (double& x : v) {
    if (std::isnan(x)) x = kNaN;
  }
}

TEST(SimdDifferentialPanel, SquaredDistancePanelMatchesPerPairAtEveryLevel) {
  // out[j] must be the per-pair kernel's bytes (memcmp, NaNs canonicalized)
  // at the same level, and bit-equal to the scalar reference:
  // every d in 0..67, widths 1..13 (whole registers and leftovers), x and
  // panel one double off alignment, and a stride wider than the width.
  const SimdKernels& ref = simd::kernels(SimdLevel::kScalar);
  for (const InputFamily& family : kFamilies) {
    Rng rng(0x9A7E + static_cast<std::uint64_t>(family.name[0]));
    for (std::size_t d = 0; d <= kMaxLen; ++d) {
      for (std::size_t width = 1; width <= 13; ++width) {
        for (std::size_t unaligned = 0; unaligned < 2; ++unaligned) {
          std::vector<double> xbuf(d + 1, 0.0);
          std::vector<double> xs(d);
          family.fill(xs, rng);
          std::copy(xs.begin(), xs.end(), xbuf.begin() + unaligned);
          const double* x = xbuf.data() + unaligned;
          const TestPanel panel = make_test_panel(
              family, rng, d, width, unaligned, width + 3 * unaligned);
          SCOPED_TRACE(std::string(family.name) + " d=" + std::to_string(d) +
                       " width=" + std::to_string(width) +
                       (unaligned ? " unaligned" : " aligned"));
          for (SimdLevel level : supported_levels()) {
            const SimdKernels& k = simd::kernels(level);
            std::vector<double> got(width, 42.0);
            std::vector<double> pair(width);
            std::vector<double> scalar(width);
            k.squared_distance_panel(x, panel.data(), panel.stride, d, width,
                                     got.data());
            for (std::size_t j = 0; j < width; ++j) {
              pair[j] = k.squared_distance(x, panel.columns[j].data(), d);
              scalar[j] = ref.squared_distance(x, panel.columns[j].data(), d);
            }
            canonicalize_nans(got);
            canonicalize_nans(pair);
            EXPECT_EQ(std::memcmp(got.data(), pair.data(),
                                  width * sizeof(double)),
                      0)
                << simd::level_name(level);
            EXPECT_TRUE(bit_equal_vec(got, scalar)) << simd::level_name(level);
          }
        }
      }
    }
  }
}

TEST(SimdDifferentialPanel, DistancePanelMatchesPerPairAcrossCrossover) {
  // DistancePanel switches from the transposed panel to the per-pair sweep
  // above kPanelMaxDim; both sides of the switch, any row count (k > 64
  // chunks nearest()), any sub-range, and nearest()'s first-wins argmin.
  ScopedSimdLevel guard(simd::active_level());
  Rng rng(0xD157);
  for (SimdLevel level : supported_levels()) {
    simd::set_level(level);
    for (std::size_t d : {std::size_t{1}, std::size_t{11}, std::size_t{16},
                          std::size_t{17}, kPanelMaxDim, kPanelMaxDim + 1,
                          std::size_t{130}}) {
      for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{5}, std::size_t{13},
                                std::size_t{64}, std::size_t{65},
                                std::size_t{70}}) {
        SCOPED_TRACE(std::string(simd::level_name(level)) + " d=" +
                     std::to_string(d) + " count=" + std::to_string(count));
        AlignedVector rows(count * d);
        // A coarse grid, so exact ties between rows are common; tenths, so
        // the sums still round and a wrong lane order shows.
        for (double& v : rows) {
          v = 0.1 * static_cast<double>(rng.uniform_index(3));
        }
        const DistancePanel panel(rows.data(), count, d);
        ASSERT_EQ(panel.size(), count);
        for (int query = 0; query < 4; ++query) {
          std::vector<double> x(d);
          for (double& v : x) {
            v = 0.1 * static_cast<double>(rng.uniform_index(3));
          }
          std::vector<double> want(count);
          std::size_t want_nearest = 0;
          double best = std::numeric_limits<double>::infinity();
          for (std::size_t j = 0; j < count; ++j) {
            want[j] = simd::active().squared_distance(x.data(), panel.row(j),
                                                      d);
            if (want[j] < best) {
              best = want[j];
              want_nearest = j;
            }
          }
          const std::size_t begin = count / 3;
          std::vector<double> got(count - begin);
          panel.distances(x.data(), begin, count, got.data());
          EXPECT_TRUE(bit_equal_vec(
              got, std::vector<double>(want.begin() + begin, want.end())));
          EXPECT_EQ(panel.nearest(x.data()), want_nearest);
        }
      }
    }
  }
}

TEST(SimdDifferentialReduce, ReduceAddBitIdenticalAcrossLevels) {
  const SimdKernels& ref = simd::kernels(SimdLevel::kScalar);
  for (SimdLevel level : supported_levels()) {
    const SimdKernels& k = simd::kernels(level);
    for_each_adversarial_pair(
        [&](std::span<const double> x, std::span<const double>) {
          EXPECT_PRED2(bit_equal, k.reduce_add(x.data(), x.size()),
                       ref.reduce_add(x.data(), x.size()))
              << simd::level_name(level);
        });
  }
}

TEST(SimdDifferentialElementwise, AxpyBitIdenticalAcrossLevels) {
  const SimdKernels& ref = simd::kernels(SimdLevel::kScalar);
  const double alphas[] = {2.5, -0.75, kDenorm, -kInf, kNaN, 0.0};
  for (SimdLevel level : supported_levels()) {
    const SimdKernels& k = simd::kernels(level);
    for (double alpha : alphas) {
      for_each_adversarial_pair([&](std::span<const double> x,
                                    std::span<const double> y) {
        std::vector<double> got(y.begin(), y.end());
        std::vector<double> want(y.begin(), y.end());
        k.axpy(alpha, x.data(), got.data(), x.size());
        ref.axpy(alpha, x.data(), want.data(), x.size());
        EXPECT_TRUE(bit_equal_vec(got, want))
            << simd::level_name(level) << " alpha=" << alpha;
      });
    }
  }
}

TEST(SimdDifferentialElementwise, ScaleBitIdenticalAcrossLevels) {
  const SimdKernels& ref = simd::kernels(SimdLevel::kScalar);
  const double alphas[] = {3.0, -1e-300, kInf, kNaN, -0.0};
  for (SimdLevel level : supported_levels()) {
    const SimdKernels& k = simd::kernels(level);
    for (double alpha : alphas) {
      for_each_adversarial_pair(
          [&](std::span<const double> x, std::span<const double>) {
            std::vector<double> got(x.begin(), x.end());
            std::vector<double> want(x.begin(), x.end());
            k.scale(got.data(), alpha, got.size());
            ref.scale(want.data(), alpha, want.size());
            EXPECT_TRUE(bit_equal_vec(got, want))
                << simd::level_name(level) << " alpha=" << alpha;
          });
    }
  }
}

TEST(SimdDifferentialElementwise, DiagScaleBitIdenticalAcrossLevels) {
  const SimdKernels& ref = simd::kernels(SimdLevel::kScalar);
  const double scales[] = {0.5, -2.0, kDenorm, kInf};
  for (SimdLevel level : supported_levels()) {
    const SimdKernels& k = simd::kernels(level);
    for (double s : scales) {
      for_each_adversarial_pair([&](std::span<const double> y,
                                    std::span<const double> w) {
        std::vector<double> got(y.begin(), y.end());
        std::vector<double> want(y.begin(), y.end());
        k.diag_scale(got.data(), s, w.data(), got.size());
        ref.diag_scale(want.data(), s, w.data(), want.size());
        EXPECT_TRUE(bit_equal_vec(got, want))
            << simd::level_name(level) << " s=" << s;
      });
    }
  }
}

TEST(SimdDifferentialElementwise, RotateRowsBitIdenticalAcrossLevels) {
  const SimdKernels& ref = simd::kernels(SimdLevel::kScalar);
  // Jacobi produces |c| <= 1 with c^2 + s^2 = 1; also stress degenerates.
  const std::pair<double, double> rotations[] = {
      {std::cos(0.3), std::sin(0.3)}, {0.0, 1.0}, {1.0, 0.0}, {kNaN, 0.5}};
  for (SimdLevel level : supported_levels()) {
    const SimdKernels& k = simd::kernels(level);
    for (const auto& [c, s] : rotations) {
      for_each_adversarial_pair([&](std::span<const double> x,
                                    std::span<const double> y) {
        std::vector<double> gx(x.begin(), x.end());
        std::vector<double> gy(y.begin(), y.end());
        std::vector<double> wx(x.begin(), x.end());
        std::vector<double> wy(y.begin(), y.end());
        k.rotate_rows(gx.data(), gy.data(), c, s, gx.size());
        ref.rotate_rows(wx.data(), wy.data(), c, s, wx.size());
        EXPECT_TRUE(bit_equal_vec(gx, wx)) << simd::level_name(level);
        EXPECT_TRUE(bit_equal_vec(gy, wy)) << simd::level_name(level);
      });
    }
  }
}

TEST(SimdDifferentialElementwise, NegDivBitIdenticalAcrossLevels) {
  const SimdKernels& ref = simd::kernels(SimdLevel::kScalar);
  const double denoms[] = {2.0, 1e-300, 1e300, kInf};
  for (SimdLevel level : supported_levels()) {
    const SimdKernels& k = simd::kernels(level);
    for (double denom : denoms) {
      for_each_adversarial_pair(
          [&](std::span<const double> x, std::span<const double>) {
            std::vector<double> got(x.size(), 0.0);
            std::vector<double> want(x.size(), 0.0);
            k.neg_div(x.data(), denom, got.data(), x.size());
            ref.neg_div(x.data(), denom, want.data(), x.size());
            EXPECT_TRUE(bit_equal_vec(got, want))
                << simd::level_name(level) << " denom=" << denom;
          });
    }
  }
}

TEST(SimdDifferentialElementwise, GaussianFromD2BitIdenticalAcrossLevels) {
  // gaussian_from_d2 routes through the *active* table; force each level
  // via the RAII guard and compare against the scalar-level result.
  std::vector<std::vector<double>> reference;
  {
    ScopedSimdLevel guard(SimdLevel::kScalar);
    for_each_adversarial_pair(
        [&](std::span<const double> d2, std::span<const double>) {
          std::vector<double> out(d2.size(), 0.0);
          simd::gaussian_from_d2(d2, 0.875, out);
          reference.push_back(std::move(out));
        });
  }
  for (SimdLevel level : supported_levels()) {
    ScopedSimdLevel guard(level);
    std::size_t case_index = 0;
    for_each_adversarial_pair(
        [&](std::span<const double> d2, std::span<const double>) {
          std::vector<double> out(d2.size(), 0.0);
          simd::gaussian_from_d2(d2, 0.875, out);
          EXPECT_TRUE(bit_equal_vec(out, reference[case_index++]))
              << simd::level_name(level);
        });
  }
}

TEST(SimdDifferentialElementwise, NegDivMatchesNegatedQuotientExactly) {
  // The Gaussian exponent must round exactly like the pointwise kernel's
  // -(d2 / denom), including the sign of zero.
  for (SimdLevel level : supported_levels()) {
    const SimdKernels& k = simd::kernels(level);
    const double inputs[] = {0.0, -0.0, 1.0, kDenorm, 1e300, kInf, kNaN};
    for (double v : inputs) {
      double out = 42.0;
      k.neg_div(&v, 2.0, &out, 1);
      EXPECT_PRED2(bit_equal, out, -(v / 2.0)) << simd::level_name(level);
    }
  }
}

// ---- dispatch mechanics ----

TEST(SimdDifferentialDispatch, ParseLevelRoundTrips) {
  EXPECT_EQ(simd::parse_level("auto"), SimdLevel::kAuto);
  EXPECT_EQ(simd::parse_level("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(simd::parse_level("sse2"), SimdLevel::kSse2);
  EXPECT_EQ(simd::parse_level("avx2"), SimdLevel::kAvx2);
  EXPECT_FALSE(simd::parse_level("avx512").has_value());
  EXPECT_FALSE(simd::parse_level("").has_value());
  for (SimdLevel level : supported_levels()) {
    EXPECT_EQ(simd::parse_level(simd::level_name(level)), level);
  }
}

TEST(SimdDifferentialDispatch, SetLevelInstallsAndRestores) {
  const SimdLevel before = simd::active_level();
  for (SimdLevel level : supported_levels()) {
    ScopedSimdLevel guard(level);
    EXPECT_EQ(simd::active_level(), level);
    // The wrapper must route to the forced table.
    const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_PRED2(bit_equal, simd::dot(x, x),
                 simd::kernels(level).dot(x.data(), x.data(), x.size()));
  }
  EXPECT_EQ(simd::active_level(), before);
}

TEST(SimdDifferentialDispatch, UnsupportedLevelsClampDown) {
  // kAuto never stays kAuto, and whatever set_level installs must be a
  // level this machine supports.
  ScopedSimdLevel guard(simd::active_level());
  const SimdLevel resolved = simd::set_level(SimdLevel::kAuto);
  EXPECT_NE(resolved, SimdLevel::kAuto);
  EXPECT_TRUE(simd::level_supported(resolved));
  const SimdLevel forced = simd::set_level(SimdLevel::kAvx2);
  EXPECT_TRUE(simd::level_supported(forced));
  EXPECT_EQ(simd::active_level(), forced);
}

TEST(SimdDifferentialDispatch, GaugeValuesAreStable) {
  EXPECT_EQ(simd::level_gauge_value(SimdLevel::kScalar), 0);
  EXPECT_EQ(simd::level_gauge_value(SimdLevel::kSse2), 1);
  EXPECT_EQ(simd::level_gauge_value(SimdLevel::kAvx2), 2);
}

// ---- end-to-end label parity ----

std::vector<int> run_dasc(const data::PointSet& points, SimdLevel level,
                          std::size_t threads, const char* fault_plan,
                          MetricsRegistry* metrics) {
  core::DascParams params;
  params.seed = 97;
  params.threads = threads;
  params.simd_level = level;
  params.metrics = metrics;
  std::optional<FaultInjector> injector;
  if (fault_plan != nullptr) {
    injector.emplace(FaultPlan::parse(fault_plan), metrics);
    params.faults = &*injector;
    params.max_bucket_attempts = 4;
  }
  Rng rng(params.seed);
  return core::dasc_cluster(points, params, rng).labels;
}

TEST(SimdDifferentialEndToEnd, LabelsBitIdenticalAcrossLevelsThreadsFaults) {
  ScopedSimdLevel guard(simd::active_level());
  Rng data_rng(271);
  data::MixtureParams mix;
  mix.n = 400;
  mix.dim = 12;
  mix.k = 5;
  mix.cluster_stddev = 0.05;
  const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);

  const std::vector<int> reference =
      run_dasc(points, SimdLevel::kScalar, 1, nullptr, nullptr);
  ASSERT_EQ(reference.size(), points.size());

  const char* kPlan = "seed=3;alloc.gram_block:nth=2:max=3";
  for (SimdLevel level : supported_levels()) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const char* plan : {static_cast<const char*>(nullptr), kPlan}) {
        SCOPED_TRACE(std::string(simd::level_name(level)) + " threads=" +
                     std::to_string(threads) +
                     (plan ? " faulted" : " clean"));
        MetricsRegistry metrics;
        EXPECT_EQ(run_dasc(points, level, threads, plan, &metrics),
                  reference);
        // The resolved level must be reported in the gauge.
        EXPECT_EQ(metrics.gauge("linalg.simd_level").value(),
                  simd::level_gauge_value(level));
      }
    }
  }
}

}  // namespace
}  // namespace dasc::linalg
