#include "clustering/kmeans.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "clustering/metrics.hpp"
#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "linalg/vector_ops.hpp"

namespace dasc::clustering {
namespace {

TEST(KMeans, RecoversWellSeparatedBlobs) {
  dasc::Rng data_rng(51);
  data::MixtureParams mix;
  mix.n = 300;
  mix.dim = 8;
  mix.k = 3;
  mix.cluster_stddev = 0.02;
  const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);

  KMeansParams params;
  params.k = 3;
  dasc::Rng rng(52);
  const KMeansResult result = kmeans(points, params, rng);
  EXPECT_GT(clustering_accuracy(result.labels, points.labels()), 0.98);
}

TEST(KMeans, LabelsInRangeAndAllClustersUsed) {
  dasc::Rng data_rng(53);
  const data::PointSet points = data::make_uniform(200, 4, data_rng);
  KMeansParams params;
  params.k = 5;
  dasc::Rng rng(54);
  const KMeansResult result = kmeans(points, params, rng);
  std::vector<int> counts(5, 0);
  for (int label : result.labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, 5);
    ++counts[static_cast<std::size_t>(label)];
  }
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  dasc::Rng data_rng(55);
  const data::PointSet points = data::make_uniform(300, 6, data_rng);
  double prev = 1e300;
  for (std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
    KMeansParams params;
    params.k = k;
    dasc::Rng rng(56);
    const KMeansResult result = kmeans(points, params, rng);
    EXPECT_LT(result.inertia, prev + 1e-9);
    prev = result.inertia;
  }
}

TEST(KMeans, KEqualsOneCentroidIsMean) {
  const data::PointSet points(4, 1, {0.0, 2.0, 4.0, 6.0});
  KMeansParams params;
  params.k = 1;
  dasc::Rng rng(57);
  const KMeansResult result = kmeans(points, params, rng);
  ASSERT_EQ(result.centroids.size(), 1u);
  EXPECT_NEAR(result.centroids[0][0], 3.0, 1e-12);
  EXPECT_TRUE(result.converged);
}

TEST(KMeans, KEqualsNPerfectFit) {
  dasc::Rng data_rng(58);
  const data::PointSet points = data::make_uniform(10, 3, data_rng);
  KMeansParams params;
  params.k = 10;
  dasc::Rng rng(59);
  const KMeansResult result = kmeans(points, params, rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeans, DeterministicForSameSeed) {
  dasc::Rng data_rng(60);
  const data::PointSet points = data::make_uniform(150, 4, data_rng);
  KMeansParams params;
  params.k = 4;
  dasc::Rng r1(99);
  dasc::Rng r2(99);
  const auto a = kmeans(points, params, r1);
  const auto b = kmeans(points, params, r2);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(KMeans, PlusPlusBeatsRandomInitOnAverageInertia) {
  dasc::Rng data_rng(61);
  data::MixtureParams mix;
  mix.n = 240;
  mix.dim = 12;
  mix.k = 8;
  mix.cluster_stddev = 0.03;
  const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);

  double pp_total = 0.0;
  double rand_total = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    KMeansParams params;
    params.k = 8;
    params.max_iterations = 5;  // tight budget exposes init quality
    params.init = KMeansInit::kPlusPlus;
    dasc::Rng r1(1000 + trial);
    pp_total += kmeans(points, params, r1).inertia;
    params.init = KMeansInit::kRandom;
    dasc::Rng r2(1000 + trial);
    rand_total += kmeans(points, params, r2).inertia;
  }
  EXPECT_LE(pp_total, rand_total * 1.05);
}

TEST(KMeans, DuplicatePointsHandled) {
  // All points identical: any k partitions them without crashing.
  const data::PointSet points(6, 2, std::vector<double>(12, 0.5));
  KMeansParams params;
  params.k = 3;
  dasc::Rng rng(62);
  const KMeansResult result = kmeans(points, params, rng);
  EXPECT_EQ(result.labels.size(), 6u);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeans, RejectsBadParameters) {
  dasc::Rng data_rng(63);
  const data::PointSet points = data::make_uniform(5, 2, data_rng);
  KMeansParams params;
  params.k = 6;  // k > n
  dasc::Rng rng(64);
  EXPECT_THROW(kmeans(points, params, rng), dasc::InvalidArgument);
  params.k = 0;
  EXPECT_THROW(kmeans(points, params, rng), dasc::InvalidArgument);
  params.k = 2;
  params.max_iterations = 0;
  EXPECT_THROW(kmeans(points, params, rng), dasc::InvalidArgument);
}

TEST(KMeans, ParallelAssignmentMatchesSequential) {
  dasc::Rng data_rng(65);
  const data::PointSet points = data::make_uniform(200, 8, data_rng);
  KMeansParams params;
  params.k = 6;
  params.threads = 1;
  dasc::Rng r1(7);
  const auto seq = kmeans(points, params, r1);
  params.threads = 4;
  dasc::Rng r2(7);
  const auto par = kmeans(points, params, r2);
  EXPECT_EQ(seq.labels, par.labels);
}

/// The per-pair Lloyd loop kmeans() reproduces: k-means++ seeding, then one
/// linalg::squared_distance call per (point, centroid) pair with the first
/// strictly nearest centroid winning, the empty-cluster reseed and the same
/// stopping rule.
KMeansResult reference_kmeans(const data::PointSet& points, std::size_t k,
                              std::size_t max_iterations, double tolerance,
                              dasc::Rng& rng) {
  const std::size_t n = points.size();
  const std::size_t d = points.dim();
  const auto row = [&](std::size_t i) { return points.point(i); };
  const auto span = [](const std::vector<double>& v) {
    return std::span<const double>(v);
  };
  KMeansResult result;
  const auto first = row(rng.uniform_index(n));
  result.centroids.emplace_back(first.begin(), first.end());
  std::vector<double> dist2(n, std::numeric_limits<double>::infinity());
  while (result.centroids.size() < k) {
    for (std::size_t i = 0; i < n; ++i) {
      dist2[i] = std::min(dist2[i], linalg::squared_distance(
                                        row(i), span(result.centroids.back())));
    }
    double total = 0.0;
    for (double v : dist2) total += v;
    const std::size_t pick =
        total <= 0.0 ? rng.uniform_index(n) : rng.weighted_index(dist2);
    const auto p = row(pick);
    result.centroids.emplace_back(p.begin(), p.end());
  }
  result.labels.assign(n, 0);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      int best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double dist =
            linalg::squared_distance(row(i), span(result.centroids[c]));
        if (dist < best) {
          best = dist;
          best_c = static_cast<int>(c);
        }
      }
      changed = changed || result.labels[i] != best_c;
      result.labels[i] = best_c;
    }
    std::vector<std::vector<double>> sums(k, std::vector<double>(d, 0.0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(result.labels[i]);
      for (std::size_t e = 0; e < d; ++e) sums[c][e] += row(i)[e];
      ++counts[c];
    }
    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        double worst = -1.0;
        std::size_t worst_i = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const double dist = linalg::squared_distance(
              row(i), span(result.centroids[static_cast<std::size_t>(
                          result.labels[i])]));
          if (dist > worst) {
            worst = dist;
            worst_i = i;
          }
        }
        result.centroids[c].assign(row(worst_i).begin(), row(worst_i).end());
        movement += worst;
        continue;
      }
      for (std::size_t e = 0; e < d; ++e) {
        const double updated = sums[c][e] / static_cast<double>(counts[c]);
        const double delta = updated - result.centroids[c][e];
        movement += delta * delta;
        result.centroids[c][e] = updated;
      }
    }
    if (!changed || movement < tolerance) {
      result.converged = true;
      break;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    result.inertia += linalg::squared_distance(
        row(i),
        span(result.centroids[static_cast<std::size_t>(result.labels[i])]));
  }
  return result;
}

TEST(KMeans, MatchesPerPairLloydReference) {
  // Centroid counts that fill whole AVX2 registers, leave 1-3 columns
  // over, and span several nearest() chunks (k = 70 > 64); dimensions on
  // both sides of the panel/per-pair crossover (linalg::kPanelMaxDim).
  for (std::size_t d : {2, 11, 70}) {
    dasc::Rng data_rng(900 + d);
    data::MixtureParams mix;
    mix.n = 240;
    mix.dim = d;
    mix.k = 9;
    mix.cluster_stddev = 0.15;
    const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);
    std::vector<std::size_t> ks;
    for (std::size_t k = 1; k <= 17; ++k) ks.push_back(k);
    ks.push_back(33);
    ks.push_back(70);
    for (std::size_t k : ks) {
      SCOPED_TRACE("d=" + std::to_string(d) + " k=" + std::to_string(k));
      KMeansParams params;
      params.k = k;
      params.threads = 2;
      dasc::Rng rng(k);
      dasc::Rng ref_rng(k);
      const KMeansResult got = kmeans(points, params, rng);
      const KMeansResult want = reference_kmeans(
          points, k, params.max_iterations, params.tolerance, ref_rng);
      EXPECT_EQ(got.labels, want.labels);
      EXPECT_EQ(got.centroids, want.centroids);
      EXPECT_EQ(got.iterations, want.iterations);
      EXPECT_EQ(got.converged, want.converged);
      EXPECT_EQ(got.inertia, want.inertia);
    }
  }
}

}  // namespace
}  // namespace dasc::clustering
