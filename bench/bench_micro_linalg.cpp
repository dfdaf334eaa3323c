// Micro-benchmarks for the linear-algebra substrate: the dense QL path vs
// Lanczos for the top-K eigenvectors (the design choice behind the
// spectral step's dense_cutoff), Gram construction throughput, and the
// SIMD dispatch layer (scalar vs vectorized at matched numerics).
//
// Besides the timer entries, BENCH_micro_linalg.json carries two
// machine-independent gauges gated in CI: simd.sqdist_speedup_ppm and
// simd.gram_speedup_ppm (best-level over scalar wall-time ratio at
// 4096-dim, in parts-per-million; 2x == 2,000,000).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench_gbench.hpp"

#include "clustering/kernel.hpp"
#include "common/aligned_allocator.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "data/synthetic.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/simd_ops.hpp"
#include "linalg/symmetric_eigen.hpp"

namespace {

using namespace dasc;

linalg::DenseMatrix random_gram(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  data::MixtureParams params;
  params.n = n;
  params.dim = 16;
  params.k = 4;
  const data::PointSet points = data::make_gaussian_mixture(params, rng);
  return clustering::gaussian_gram(points, 0.5, 1);
}

void BM_DenseEigenFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::DenseMatrix gram = random_gram(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::symmetric_eigen(gram));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DenseEigenFull)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Complexity(benchmark::oNCubed)->Unit(benchmark::kMillisecond);

void BM_LanczosTopK(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::DenseMatrix gram = random_gram(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        linalg::lanczos_largest(linalg::as_operator(gram), 8));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LanczosTopK)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Complexity(benchmark::oNSquared)->Unit(benchmark::kMillisecond);

void BM_JacobiEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::DenseMatrix gram = random_gram(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::jacobi_eigen(gram));
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_GramConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  data::MixtureParams params;
  params.n = n;
  params.dim = 64;
  params.k = 4;
  const data::PointSet points = data::make_gaussian_mixture(params, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clustering::gaussian_gram(points, 0.5, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n) / 2);
}
BENCHMARK(BM_GramConstruction)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// ---- SIMD dispatch layer: scalar vs vectorized at matched numerics ----

// Cache-line aligned like DenseMatrix rows / PointSet rows, the buffers
// the production kernels actually sweep.
AlignedVector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  AlignedVector v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

template <linalg::SimdLevel kLevel>
void BM_SquaredDistance(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const AlignedVector x = random_vector(dim, 21);
  const AlignedVector y = random_vector(dim, 22);
  const linalg::SimdKernels& kernels = linalg::simd::kernels(kLevel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels.squared_distance(x.data(), y.data(), dim));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * dim *
                                                    sizeof(double)));
}
BENCHMARK(BM_SquaredDistance<dasc::linalg::SimdLevel::kScalar>)
    ->Name("BM_SquaredDistanceScalar")->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK(BM_SquaredDistance<dasc::linalg::SimdLevel::kAvx2>)
    ->Name("BM_SquaredDistanceSimd")->Arg(64)->Arg(512)->Arg(4096);

template <linalg::SimdLevel kLevel>
void BM_GramPanel(benchmark::State& state) {
  // One bucket-sized Gram at high dim: the panelized upper-triangle build
  // dominated by the squared-distance kernel.
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(23);
  data::MixtureParams params;
  params.n = 96;
  params.dim = dim;
  params.k = 4;
  const data::PointSet points = data::make_gaussian_mixture(params, rng);
  const linalg::SimdLevel previous = linalg::simd::active_level();
  linalg::simd::set_level(kLevel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clustering::gaussian_gram(points, 0.5, 1));
  }
  linalg::simd::set_level(previous);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(params.n * params.n / 2));
}
BENCHMARK(BM_GramPanel<dasc::linalg::SimdLevel::kScalar>)
    ->Name("BM_GramPanelScalar")->Arg(512)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GramPanel<dasc::linalg::SimdLevel::kAvx2>)
    ->Name("BM_GramPanelSimd")->Arg(512)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

template <bool kPanel>
void BM_RowVersusColumns(benchmark::State& state) {
  // One row against a 256-column tile at the active level: 256 per-pair
  // calls over row-major columns, or one panel call over the same columns
  // held dimension-major. Where the two cross is linalg::kPanelMaxDim.
  constexpr std::size_t kCols = 256;
  const auto dim = static_cast<std::size_t>(state.range(0));
  const AlignedVector rows = random_vector(kCols * dim, 24);
  const AlignedVector x = random_vector(dim, 25);
  AlignedVector panel(dim * kCols);
  for (std::size_t j = 0; j < kCols; ++j) {
    for (std::size_t e = 0; e < dim; ++e) {
      panel[e * kCols + j] = rows[j * dim + e];
    }
  }
  std::vector<double> out(kCols);
  const linalg::SimdKernels& kernels = linalg::simd::active();
  for (auto _ : state) {
    if constexpr (kPanel) {
      kernels.squared_distance_panel(x.data(), panel.data(), kCols, dim,
                                     kCols, out.data());
    } else {
      for (std::size_t j = 0; j < kCols; ++j) {
        out[j] = kernels.squared_distance(x.data(), rows.data() + j * dim,
                                          dim);
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kCols));
}
BENCHMARK(BM_RowVersusColumns<false>)
    ->Name("BM_PairDistance")->Arg(11)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Arg(256)->Arg(512);
BENCHMARK(BM_RowVersusColumns<true>)
    ->Name("BM_PanelDistance")->Arg(11)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Arg(256)->Arg(512);

/// Median of per-pass scalar/simd wall-time ratios, in parts-per-million.
/// Each pass times the two sides back to back, so they share frequency and
/// thermal state and the per-pass ratio is stable even when absolute times
/// drift; the median then discards interrupted passes. A min-over-passes
/// per side was tried first and proved fragile — one boosted scalar pass
/// against steady-state vectorized passes once produced a sub-1x reading
/// that contradicted the gbench timers in the same run. Dimensionless, so
/// CI can gate on it across machines.
template <typename TimeScalar, typename TimeSimd>
std::int64_t median_speedup_ppm(int passes, TimeScalar&& time_scalar,
                                TimeSimd&& time_simd) {
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(passes));
  for (int pass = 0; pass < passes; ++pass) {
    const double scalar_seconds = time_scalar();
    const double simd_seconds = time_simd();
    if (simd_seconds > 0.0) ratios.push_back(scalar_seconds / simd_seconds);
  }
  if (ratios.empty()) return 0;
  const auto mid = ratios.begin() +
                   static_cast<std::ptrdiff_t>(ratios.size() / 2);
  std::nth_element(ratios.begin(), mid, ratios.end());
  return static_cast<std::int64_t>(1e6 * *mid);
}

void record_simd_gauges(MetricsRegistry& registry) {
  constexpr std::size_t kDim = 4096;
  constexpr int kReps = 2000;
  constexpr int kPasses = 9;
  const AlignedVector x = random_vector(kDim, 31);
  const AlignedVector y = random_vector(kDim, 32);
  const linalg::SimdLevel best = linalg::simd::set_level(
      dasc::linalg::SimdLevel::kAuto);
  registry.gauge("linalg.simd_level")
      .set(linalg::simd::level_gauge_value(best));

  auto time_sqdist = [&](const linalg::SimdKernels& kernels) {
    double sink = 0.0;
    Stopwatch clock;
    for (int r = 0; r < kReps; ++r) {
      sink += kernels.squared_distance(x.data(), y.data(), kDim);
    }
    benchmark::DoNotOptimize(sink);
    return clock.seconds();
  };
  const auto& scalar = linalg::simd::kernels(linalg::SimdLevel::kScalar);
  const auto& simd = linalg::simd::kernels(best);
  time_sqdist(scalar);  // warm caches before any timed pass
  time_sqdist(simd);
  registry.gauge("simd.sqdist_speedup_ppm")
      .set(median_speedup_ppm(
          kPasses, [&] { return time_sqdist(scalar); },
          [&] { return time_sqdist(simd); }));

  Rng rng(33);
  data::MixtureParams params;
  params.n = 96;
  params.dim = kDim;
  params.k = 4;
  const data::PointSet points = data::make_gaussian_mixture(params, rng);
  auto time_gram = [&](linalg::SimdLevel level) {
    linalg::simd::set_level(level);
    Stopwatch clock;
    benchmark::DoNotOptimize(clustering::gaussian_gram(points, 0.5, 1));
    return clock.seconds();
  };
  time_gram(linalg::SimdLevel::kScalar);  // warm
  time_gram(best);
  registry.gauge("simd.gram_speedup_ppm")
      .set(median_speedup_ppm(
          kPasses, [&] { return time_gram(linalg::SimdLevel::kScalar); },
          [&] { return time_gram(best); }));
  linalg::simd::set_level(dasc::linalg::SimdLevel::kAuto);
}

}  // namespace

int main(int argc, char** argv) {
  return dasc::bench::gbench_main("micro_linalg", argc, argv,
                                  record_simd_gauges);
}
