#include "clustering/kmeans.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/aligned_allocator.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "linalg/distance_panel.hpp"
#include "linalg/vector_ops.hpp"

namespace dasc::clustering {

namespace {

std::vector<std::vector<double>> init_plus_plus(const data::PointSet& points,
                                                std::size_t k, Rng& rng) {
  const std::size_t n = points.size();
  std::vector<std::vector<double>> centroids;
  centroids.reserve(k);

  const std::size_t first = rng.uniform_index(n);
  const auto p0 = points.point(first);
  centroids.emplace_back(p0.begin(), p0.end());

  std::vector<double> dist2(n, std::numeric_limits<double>::infinity());
  while (centroids.size() < k) {
    const auto& last = centroids.back();
    for (std::size_t i = 0; i < n; ++i) {
      dist2[i] = std::min(
          dist2[i],
          linalg::squared_distance(points.point(i),
                                   std::span<const double>(last)));
    }
    double total = 0.0;
    for (double d : dist2) total += d;
    std::size_t pick;
    if (total <= 0.0) {
      pick = rng.uniform_index(n);  // all remaining points coincide
    } else {
      pick = rng.weighted_index(dist2);
    }
    const auto p = points.point(pick);
    centroids.emplace_back(p.begin(), p.end());
  }
  return centroids;
}

std::vector<std::vector<double>> init_random(const data::PointSet& points,
                                             std::size_t k, Rng& rng) {
  const std::size_t n = points.size();
  // Partial Fisher-Yates over indices for k distinct picks.
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(indices[i], indices[i + rng.uniform_index(n - i)]);
  }
  std::vector<std::vector<double>> centroids;
  centroids.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto p = points.point(indices[i]);
    centroids.emplace_back(p.begin(), p.end());
  }
  return centroids;
}

}  // namespace

KMeansResult kmeans(const data::PointSet& points, const KMeansParams& params,
                    Rng& rng) {
  const std::size_t n = points.size();
  const std::size_t k = params.k;
  const std::size_t d = points.dim();
  DASC_EXPECT(n > 0, "kmeans: empty dataset");
  DASC_EXPECT(k >= 1 && k <= n, "kmeans: k must be in [1, N]");
  DASC_EXPECT(params.max_iterations >= 1, "kmeans: need >= 1 iteration");

  ScopedTimer lloyd_timer(params.metrics, "kmeans.lloyd");
  KMeansResult result;
  result.centroids = params.init == KMeansInit::kPlusPlus
                         ? init_plus_plus(points, k, rng)
                         : init_random(points, k, rng);
  result.labels.assign(n, 0);

  std::vector<std::vector<double>> sums(k, std::vector<double>(d, 0.0));
  std::vector<std::size_t> counts(k, 0);
  AlignedVector centroid_rows(k * d);

  for (std::size_t iter = 0; iter < params.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Assignment step (parallel; labels are disjoint per point): one panel
    // over this iteration's centroids, the first strictly nearest wins.
    for (std::size_t c = 0; c < k; ++c) {
      std::copy(result.centroids[c].begin(), result.centroids[c].end(),
                centroid_rows.data() + c * d);
    }
    const linalg::DistancePanel centroid_panel(centroid_rows.data(), k, d);
    std::atomic<bool> any_changed{false};
    parallel_for(0, n, params.threads, [&](std::size_t i) {
      const int best_c =
          static_cast<int>(centroid_panel.nearest(points.point(i).data()));
      if (result.labels[i] != best_c) {
        result.labels[i] = best_c;
        any_changed.store(true, std::memory_order_relaxed);
      }
    });

    // Update step.
    for (auto& s : sums) std::fill(s.begin(), s.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = points.point(i);
      auto& s = sums[static_cast<std::size_t>(result.labels[i])];
      for (std::size_t dim = 0; dim < d; ++dim) s[dim] += p[dim];
      ++counts[static_cast<std::size_t>(result.labels[i])];
    }

    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: reseed at the point farthest from its centroid.
        double worst = -1.0;
        std::size_t worst_i = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const double dist = linalg::squared_distance(
              points.point(i),
              std::span<const double>(
                  result.centroids[static_cast<std::size_t>(
                      result.labels[i])]));
          if (dist > worst) {
            worst = dist;
            worst_i = i;
          }
        }
        const auto p = points.point(worst_i);
        result.centroids[c].assign(p.begin(), p.end());
        movement += worst;
        continue;
      }
      for (std::size_t dim = 0; dim < d; ++dim) {
        const double updated = sums[c][dim] / static_cast<double>(counts[c]);
        const double delta = updated - result.centroids[c][dim];
        movement += delta * delta;
        result.centroids[c][dim] = updated;
      }
    }

    if (!any_changed.load() || movement < params.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    result.inertia += linalg::squared_distance(
        points.point(i),
        std::span<const double>(
            result.centroids[static_cast<std::size_t>(result.labels[i])]));
  }

  if (params.metrics != nullptr) {
    params.metrics->counter("kmeans.runs").add(1);
    params.metrics->counter("kmeans.iterations")
        .add(static_cast<std::int64_t>(result.iterations));
  }
  return result;
}

}  // namespace dasc::clustering
