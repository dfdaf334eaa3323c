#include "clustering/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/aligned_allocator.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "linalg/distance_panel.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/simd_ops.hpp"
#include "linalg/vector_ops.hpp"

namespace dasc::clustering {

double gaussian_kernel(std::span<const double> x, std::span<const double> y,
                       double sigma) {
  DASC_EXPECT(sigma > 0.0, "gaussian_kernel: sigma must be positive");
  DASC_EXPECT(x.size() == y.size(), "gaussian_kernel: size mismatch");
  // Same rounding sequence as the batched Gram path: canonical squared
  // distance, one IEEE division, one std::exp.
  return std::exp(-(linalg::simd::squared_distance(x, y) /
                    gaussian_denom(sigma)));
}

double suggest_bandwidth(const data::PointSet& points) {
  DASC_EXPECT(!points.empty(), "suggest_bandwidth: empty dataset");
  const std::size_t n = points.size();
  if (n < 2) return 1.0;

  constexpr std::size_t kTargetPairs = 2048;
  // Fixed internal seed: the sample depends only on the dataset, never on
  // caller RNG state, and the index-pair draw is uniform over {i < j} for
  // every n (the old strided flat-index walk overflowed n*n for huge n and
  // sampled a biased wedge whenever the stride divided n).
  Rng rng(0xDA5CBA7Dull);

  std::vector<double> distances;
  if (n <= 64) {
    // Small datasets: the full set of pairs fits the budget; enumerate.
    distances.reserve(n * (n - 1) / 2);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        distances.push_back(std::sqrt(
            linalg::squared_distance(points.point(i), points.point(j))));
      }
    }
  } else {
    distances.reserve(kTargetPairs);
    while (distances.size() < kTargetPairs) {
      const std::size_t i = rng.uniform_index(n);
      std::size_t j = rng.uniform_index(n - 1);
      if (j >= i) ++j;  // uniform over unordered distinct pairs
      distances.push_back(std::sqrt(
          linalg::squared_distance(points.point(i), points.point(j))));
    }
  }

  auto mid =
      distances.begin() + static_cast<std::ptrdiff_t>(distances.size() / 2);
  std::nth_element(distances.begin(), mid, distances.end());
  const double median = *mid;
  return median > 0.0 ? median : 1.0;
}

namespace {

/// Rows per panel: two panels (the i-rows and the j-rows) should sit in
/// roughly half an L2 (128 KiB budget), clamped to keep the exp batches
/// long enough to amortize and short enough to stay in L1.
std::size_t panel_rows(std::size_t dim) {
  const std::size_t row_bytes = std::max<std::size_t>(1, dim) * sizeof(double);
  const std::size_t t = (128 * 1024) / (2 * row_bytes);
  return std::clamp<std::size_t>(t, 8, 256);
}

/// Fill the strict upper triangle of rows [i0, i1) of `gram` with Gaussian
/// weights, tiling columns so each j-panel stays cache-resident across the
/// panel's rows. Squared distances of each row segment land directly in
/// the Gram row through one panel call, then the segment is exponentiated
/// in place through the shared batch.
void fill_upper(linalg::DenseMatrix& gram, const linalg::DistancePanel& cols,
                std::size_t i0, std::size_t i1, double denom,
                std::size_t tile) {
  const std::size_t n = cols.size();
  for (std::size_t jt = i0; jt < n; jt += tile) {
    const std::size_t jt_end = std::min(jt + tile, n);
    for (std::size_t i = i0; i < i1; ++i) {
      const std::size_t j0 = std::max(i + 1, jt);
      if (j0 >= jt_end) continue;
      double* out = gram.data() + i * n + j0;
      cols.distances(cols.row(i), j0, jt_end, out);
      const std::span<double> seg(out, jt_end - j0);
      linalg::simd::gaussian_from_d2(seg, denom, seg);
    }
  }
}

/// Deterministic panel-pair count for the metrics counter (must match what
/// fill_upper visits, independent of threading).
std::size_t count_panels(std::size_t n, std::size_t tile) {
  const std::size_t tiles = (n + tile - 1) / tile;
  // i-tile t spans column tiles t..tiles-1.
  return tiles * (tiles + 1) / 2;
}

void record_panel_metrics(MetricsRegistry* metrics, std::size_t n,
                          std::size_t tile) {
  if (metrics == nullptr || n == 0) return;
  metrics->counter("gram.panels")
      .add(static_cast<std::int64_t>(count_panels(n, tile)));
  metrics->gauge("gram.panel_rows").set_max(static_cast<std::int64_t>(tile));
}

/// Unit diagonal, and the strict lower triangle copied from the upper one
/// in square blocks, so reads and writes both stay within a few pages.
void mirror_upper(linalg::DenseMatrix& gram) {
  constexpr std::size_t kBlock = 32;
  const std::size_t n = gram.rows();
  double* g = gram.data();
  for (std::size_t ib = 0; ib < n; ib += kBlock) {
    const std::size_t ie = std::min(ib + kBlock, n);
    for (std::size_t jb = ib; jb < n; jb += kBlock) {
      const std::size_t je = std::min(jb + kBlock, n);
      for (std::size_t i = ib; i < ie; ++i) {
        for (std::size_t j = std::max(jb, i + 1); j < je; ++j) {
          g[j * n + i] = g[i * n + j];
        }
      }
    }
    for (std::size_t i = ib; i < ie; ++i) g[i * n + i] = 1.0;
  }
}

/// The one Gram build: `rows` is the row-major n x dim block, transposed
/// once into the column panel; i-tiles run in parallel (`threads`).
linalg::DenseMatrix gram_from_rows(const double* rows, std::size_t n,
                                   std::size_t dim, double sigma,
                                   std::size_t threads,
                                   MetricsRegistry* metrics) {
  const double denom = gaussian_denom(sigma);
  const std::size_t tile = panel_rows(dim);
  const linalg::DistancePanel cols(rows, n, dim);
  linalg::DenseMatrix gram(n, n, 0.0);
  const std::size_t tiles = (n + tile - 1) / tile;
  parallel_for(0, tiles, threads, [&](std::size_t ti) {
    const std::size_t i0 = ti * tile;
    fill_upper(gram, cols, i0, std::min(i0 + tile, n), denom, tile);
  });
  mirror_upper(gram);
  record_panel_metrics(metrics, n, tile);
  return gram;
}

}  // namespace

linalg::DenseMatrix gaussian_gram(const data::PointSet& points, double sigma,
                                  std::size_t threads,
                                  MetricsRegistry* metrics) {
  DASC_EXPECT(sigma > 0.0, "gaussian_gram: sigma must be positive");
  return gram_from_rows(points.values().data(), points.size(), points.dim(),
                        sigma, threads, metrics);
}

linalg::DenseMatrix gaussian_gram_subset(
    const data::PointSet& points, std::span<const std::size_t> indices,
    double sigma, MetricsRegistry* metrics) {
  DASC_EXPECT(sigma > 0.0, "gaussian_gram_subset: sigma must be positive");
  const std::size_t n = indices.size();
  const std::size_t dim = points.dim();
  AlignedVector rows(n * dim);
  for (std::size_t a = 0; a < n; ++a) {
    DASC_EXPECT(indices[a] < points.size(),
                "gaussian_gram_subset: index out of range");
    const auto p = points.point(indices[a]);
    std::copy(p.begin(), p.end(), rows.data() + a * dim);
  }
  // One thread: a bucket's Gram is built on the bucket's own worker.
  return gram_from_rows(rows.data(), n, dim, sigma, 1, metrics);
}

NystromFactorization nystrom_factor(const data::PointSet& points,
                                    std::span<const std::size_t> indices,
                                    std::size_t m, double sigma, Rng& rng) {
  const std::size_t n = indices.size();
  DASC_EXPECT(m >= 1 && m <= n,
              "nystrom_factor: landmarks must be in [1, |indices|]");

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = 0; i < m; ++i) {
    std::swap(order[i], order[i + rng.uniform_index(n - i)]);
  }
  NystromFactorization out;
  out.landmarks.resize(m);
  for (std::size_t j = 0; j < m; ++j) out.landmarks[j] = indices[order[j]];

  out.c = linalg::DenseMatrix(n, m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto x = points.point(indices[i]);
    for (std::size_t j = 0; j < m; ++j) {
      out.c(i, j) =
          gaussian_kernel(x, points.point(out.landmarks[j]), sigma);
    }
  }
  linalg::DenseMatrix w(m, m, 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) w(a, b) = out.c(order[a], b);
  }

  const linalg::SymmetricEigenResult eigen = linalg::jacobi_eigen(w);
  const double floor =
      kFactorEigenFloor * std::max(eigen.eigenvalues.back(), 1e-300);
  std::vector<std::size_t> kept;
  for (std::size_t e = 0; e < m; ++e) {
    if (eigen.eigenvalues[e] > floor) kept.push_back(e);
  }
  DASC_ENSURE(!kept.empty(), "nystrom_factor: landmark block numerically zero");

  out.p = linalg::DenseMatrix(m, kept.size(), 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t col = 0; col < kept.size(); ++col) {
      const std::size_t e = kept[col];
      out.p(a, col) =
          eigen.eigenvectors(a, e) / std::sqrt(eigen.eigenvalues[e]);
    }
  }
  return out;
}

}  // namespace dasc::clustering
