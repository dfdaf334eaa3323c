#include "baselines/psc.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "clustering/kernel.hpp"
#include "clustering/kmeans.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/sparse_csr.hpp"
#include "linalg/vector_ops.hpp"

namespace dasc::baselines {

std::size_t psc_auto_neighbours(std::size_t n) {
  DASC_EXPECT(n >= 2, "psc_auto_neighbours: need >= 2 points");
  const auto t = static_cast<std::size_t>(
      std::max(10.0, 2.0 * std::ceil(std::log2(static_cast<double>(n)))));
  return std::min(t, n - 1);
}

PscResult psc_cluster(const data::PointSet& points, const PscParams& params,
                      Rng& rng) {
  const std::size_t n = points.size();
  DASC_EXPECT(n >= 2, "psc_cluster: need >= 2 points");
  DASC_EXPECT(params.k >= 1, "psc_cluster: k must be >= 1");

  PscResult result;
  result.k = std::min(params.k, n);
  result.neighbours =
      params.t > 0 ? std::min(params.t, n - 1) : psc_auto_neighbours(n);
  const double sigma = params.sigma > 0.0
                           ? params.sigma
                           : clustering::suggest_bandwidth(points);

  // ---- t-nearest-neighbour graph (brute force, parallel over rows). ----
  const std::size_t t = result.neighbours;
  std::vector<std::vector<std::pair<std::size_t, double>>> neighbours(n);
  parallel_for(0, n, params.threads, [&](std::size_t i) {
    // Max-heap of (distance, index) keeping the t smallest distances.
    std::priority_queue<std::pair<double, std::size_t>> heap;
    const auto pi = points.point(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double d2 = linalg::squared_distance(pi, points.point(j));
      if (heap.size() < t) {
        heap.push({d2, j});
      } else if (d2 < heap.top().first) {
        heap.pop();
        heap.push({d2, j});
      }
    }
    auto& row = neighbours[i];
    row.reserve(heap.size());
    while (!heap.empty()) {
      const auto [d2, j] = heap.top();
      heap.pop();
      row.emplace_back(j, std::exp(-d2 / (2.0 * sigma * sigma)));
    }
  });

  // Symmetrize: keep an edge if either endpoint selected it.
  std::vector<linalg::Triplet> triplets;
  triplets.reserve(2 * n * t);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [j, w] : neighbours[i]) {
      triplets.push_back({i, j, w / 2.0});
      triplets.push_back({j, i, w / 2.0});
    }
  }
  const linalg::SparseCsr affinity(n, n, std::move(triplets));
  // CSR stores double values plus an int column index per nonzero.
  result.affinity_bytes = affinity.nnz() * (sizeof(double) + sizeof(int));

  // ---- Normalized Laplacian operator D^{-1/2} A D^{-1/2}. ----
  std::vector<double> degree = affinity.row_sums();
  std::vector<double> inv_sqrt(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    inv_sqrt[i] = degree[i] > 0.0 ? 1.0 / std::sqrt(degree[i]) : 0.0;
  }
  std::vector<double> scratch(n);
  linalg::LinearOperator laplacian;
  laplacian.dim = n;
  laplacian.apply = [&affinity, &inv_sqrt, &scratch, n](
                        std::span<const double> x, std::span<double> y,
                        std::size_t count) {
    for (std::size_t c = 0; c < count; ++c) {
      const auto xc = x.subspan(c * n, n);
      const auto yc = y.subspan(c * n, n);
      for (std::size_t i = 0; i < n; ++i) scratch[i] = inv_sqrt[i] * xc[i];
      affinity.matvec(scratch, yc);
      for (std::size_t i = 0; i < n; ++i) yc[i] *= inv_sqrt[i];
    }
  };

  // ---- First K eigenvectors via Lanczos (the PARPACK role). ----
  if (result.k <= 1) {
    result.labels.assign(n, 0);
    return result;
  }
  const linalg::LanczosResult eigen =
      linalg::lanczos_largest(laplacian, result.k);

  data::PointSet embedding(n, result.k);
  for (std::size_t i = 0; i < n; ++i) {
    auto row = embedding.point(i);
    for (std::size_t c = 0; c < result.k; ++c) {
      row[c] = eigen.eigenvectors(i, c);
    }
    linalg::normalize(row);
  }

  clustering::KMeansParams km;
  km.k = result.k;
  km.threads = params.threads;
  result.labels = clustering::kmeans(embedding, km, rng).labels;
  return result;
}

}  // namespace dasc::baselines
