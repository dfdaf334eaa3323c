// Lloyd's K-means with k-means++ seeding (Hartigan & Wong lineage; the
// final step of spectral clustering in the paper).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "data/point_set.hpp"

namespace dasc {
class MetricsRegistry;
}

namespace dasc::clustering {

enum class KMeansInit {
  kPlusPlus,  ///< k-means++ D^2 seeding (default)
  kRandom,    ///< uniform random distinct points (ablation baseline)
};

struct KMeansParams {
  std::size_t k = 2;
  std::size_t max_iterations = 100;
  double tolerance = 1e-6;  ///< stop when centroid movement^2 falls below
  KMeansInit init = KMeansInit::kPlusPlus;
  /// Assignment-step parallelism (0 = auto). A call made on a ThreadPool
  /// worker or inside a parallel_for body (per-bucket K-means in the
  /// bucket pipeline or a MapReduce task) runs inline whatever this says;
  /// labels do not depend on the thread count.
  std::size_t threads = 0;
  /// Optional sink for the `kmeans.lloyd` timer and `kmeans.runs` /
  /// `kmeans.iterations` counters (null = off).
  MetricsRegistry* metrics = nullptr;
};

struct KMeansResult {
  std::vector<int> labels;            ///< cluster id per point, in [0, k)
  std::vector<std::vector<double>> centroids;
  double inertia = 0.0;               ///< sum of squared point-centroid dist
  std::size_t iterations = 0;
  bool converged = false;
};

/// Cluster `points` into params.k groups. Requires k <= N.
KMeansResult kmeans(const data::PointSet& points, const KMeansParams& params,
                    Rng& rng);

}  // namespace dasc::clustering
