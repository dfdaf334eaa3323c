#include "core/dasc_clusterer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>

#include "clustering/metrics.hpp"
#include "clustering/spectral.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "data/synthetic.hpp"
#include "serving/model_artifact.hpp"

namespace dasc::core {
namespace {

data::PointSet blobs(std::size_t n, std::size_t k, std::uint64_t seed) {
  dasc::Rng rng(seed);
  data::MixtureParams params;
  params.n = n;
  params.dim = 16;
  params.k = k;
  params.cluster_stddev = 0.03;
  return data::make_gaussian_mixture(params, rng);
}

TEST(BucketClusterCount, ProportionalAllocation) {
  // K = 10 over N = 100: a 50-point bucket gets 5 clusters.
  EXPECT_EQ(bucket_cluster_count(10, 50, 100), 5u);
  EXPECT_EQ(bucket_cluster_count(10, 100, 100), 10u);
  // Tiny buckets always get at least one cluster.
  EXPECT_EQ(bucket_cluster_count(10, 1, 100), 1u);
  // Never more clusters than points.
  EXPECT_EQ(bucket_cluster_count(100, 3, 100), 3u);
}

TEST(BucketClusterCount, RejectsBadInputs) {
  EXPECT_THROW(bucket_cluster_count(5, 10, 0), dasc::InvalidArgument);
  EXPECT_THROW(bucket_cluster_count(5, 11, 10), dasc::InvalidArgument);
}

TEST(ClusterBucket, TrivialCases) {
  dasc::Rng rng(1);
  EXPECT_TRUE(
      fit_bucket(linalg::DenseMatrix(0, 0), 2, 64, rng).labels.empty());
  const auto single =
      fit_bucket(linalg::DenseMatrix(1, 1, 1.0), 1, 64, rng).labels;
  EXPECT_EQ(single, std::vector<int>{0});
  const auto pair =
      fit_bucket(linalg::DenseMatrix(2, 2, 1.0), 2, 64, rng).labels;
  EXPECT_EQ(pair, (std::vector<int>{0, 0}));  // n <= 2 collapses to one
}

TEST(DascCluster, LabelsCoverDatasetWithValidIds) {
  const data::PointSet points = blobs(300, 4, 211);
  DascParams params;
  params.k = 4;
  dasc::Rng rng(2);
  const DascResult result = dasc_cluster(points, params, rng);
  ASSERT_EQ(result.labels.size(), 300u);
  for (int label : result.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, static_cast<int>(result.num_clusters));
  }
  EXPECT_GE(result.num_clusters, 1u);
  EXPECT_EQ(result.requested_k, 4u);
}

TEST(DascCluster, HighAccuracyOnSeparatedBlobs) {
  const data::PointSet points = blobs(400, 4, 212);
  DascParams params;
  params.k = 4;
  dasc::Rng rng(3);
  const DascResult result = dasc_cluster(points, params, rng);
  // DASC may produce more clusters than K (clusters split across buckets);
  // Hungarian-matched accuracy still reflects how pure the clusters are.
  EXPECT_GT(clustering::clustering_accuracy(result.labels, points.labels()),
            0.9);
}

TEST(DascCluster, CloseToFullSpectralClustering) {
  // Fig. 3/4 property: the approximation does not significantly hurt
  // clustering quality relative to exact SC on the same data. Purity is
  // the right yardstick because DASC may split one ground-truth cluster
  // across buckets (sum of per-bucket K's exceeds K), which a one-to-one
  // matching would count as an error even when every cluster is pure.
  const data::PointSet points = blobs(250, 3, 213);

  DascParams params;
  params.k = 3;
  dasc::Rng dasc_rng(4);
  const DascResult dasc = dasc_cluster(points, params, dasc_rng);
  const double dasc_purity =
      clustering::clustering_purity(dasc.labels, points.labels());

  clustering::SpectralParams sc_params;
  sc_params.k = 3;
  dasc::Rng sc_rng(5);
  const auto sc = clustering::spectral_cluster(points, sc_params, sc_rng);
  const double sc_purity =
      clustering::clustering_purity(sc.labels, points.labels());

  EXPECT_GT(dasc_purity, sc_purity - 0.1);
  EXPECT_GT(dasc_purity, 0.9);
}

TEST(DascCluster, UsesLessGramMemoryThanFull) {
  const data::PointSet points = blobs(500, 8, 214);
  DascParams params;
  params.k = 8;
  dasc::Rng rng(6);
  const DascResult result = dasc_cluster(points, params, rng);
  EXPECT_LT(result.stats.gram_bytes, result.stats.full_gram_bytes);
}

TEST(DascCluster, DeterministicForSameSeed) {
  const data::PointSet points = blobs(200, 4, 215);
  DascParams params;
  params.k = 4;
  dasc::Rng r1(7);
  dasc::Rng r2(7);
  const DascResult a = dasc_cluster(points, params, r1);
  const DascResult b = dasc_cluster(points, params, r2);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
}

TEST(DascCluster, SingleThreadMatchesMultiThread) {
  const data::PointSet points = blobs(200, 4, 216);
  DascParams params;
  params.k = 4;
  params.threads = 1;
  dasc::Rng r1(8);
  const DascResult seq = dasc_cluster(points, params, r1);
  params.threads = 4;
  dasc::Rng r2(8);
  const DascResult par = dasc_cluster(points, params, r2);
  EXPECT_EQ(seq.labels, par.labels);
}

TEST(DascCluster, ClusterIdsAreDisjointAcrossBuckets) {
  const data::PointSet points = blobs(300, 4, 217);
  DascParams params;
  params.k = 6;
  params.m = 6;
  dasc::Rng rng(9);
  const DascResult result = dasc_cluster(points, params, rng);
  // A cluster id must never span two buckets: recompute buckets with the
  // same seed and verify each label maps into exactly one bucket.
  dasc::Rng rng2(9);
  const auto buckets = bucket_points(points, params, rng2);
  std::vector<int> bucket_of_point(points.size(), -1);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    for (std::size_t idx : buckets[b].indices) {
      bucket_of_point[idx] = static_cast<int>(b);
    }
  }
  std::map<int, std::set<int>> buckets_of_label;
  for (std::size_t i = 0; i < points.size(); ++i) {
    buckets_of_label[result.labels[i]].insert(bucket_of_point[i]);
  }
  for (const auto& [label, bucket_set] : buckets_of_label) {
    EXPECT_EQ(bucket_set.size(), 1u) << "label " << label;
  }
}

// Golden labels for the fused in-process path on a problem whose buckets
// all exceed dense_cutoff (so the eigensolve is Lanczos) and get at least
// two clusters (so K-means runs), clustered on the 4-worker pipeline and
// inline. The CRC-32 of the label vector was recorded before the spectral
// step took ownership of its block, applied the Lanczos residual check as
// one blocked pass, and ran nested parallel_for calls inline; each of
// those keeps the arithmetic bit-exact, so the labels must not move.
constexpr std::uint32_t kFusedGoldenLabelCrc = 0xab393045u;

std::uint32_t label_crc(const std::vector<int>& labels) {
  return crc32(std::string_view(reinterpret_cast<const char*>(labels.data()),
                                labels.size() * sizeof(int)));
}

void expect_fused_golden(std::size_t threads) {
  const data::PointSet points = blobs(1600, 8, 230);
  MetricsRegistry metrics;
  DascParams params;
  params.k = 24;
  params.m = 3;
  params.p = 3;  // no merging: at most 8 buckets, k_bucket ~ 24 N_i / N
  params.threads = threads;
  params.metrics = &metrics;
  dasc::Rng rng(31);
  const DascResult result = dasc_cluster(points, params, rng);
  // The fixture must reach the code the golden guards: every bucket is
  // solved by Lanczos and clustered by K-means.
  const std::int64_t lanczos = metrics.counter("eigensolve.lanczos").value();
  EXPECT_GE(lanczos, 4);
  EXPECT_EQ(metrics.counter("eigensolve.dense").value(), 0);
  EXPECT_EQ(metrics.counter("kmeans.runs").value(), lanczos);
  EXPECT_EQ(label_crc(result.labels), kFusedGoldenLabelCrc);
}

TEST(DascFusedGolden, FourWorkerLabelsMatchRecordedCrc) {
  expect_fused_golden(4);
}

TEST(DascFusedGolden, InlineLabelsMatchRecordedCrc) {
  expect_fused_golden(1);
}

// Golden labels and artifact bytes for the factored backends: the fused
// golden's fixture with every bucket forced onto the Nystrom or the
// random-binning backend. The CRCs were recorded while each backend still
// carried its own copy of the landmark factorization and of the factored
// spectral solve; both now come from clustering/, and must not move a bit.
constexpr std::uint32_t kNystromGoldenLabelCrc = 0xc028030au;
constexpr std::uint32_t kBinningGoldenLabelCrc = 0xc7a6793bu;
constexpr std::uint32_t kNystromGoldenArtifactCrc = 0xda1e2f68u;

data::PointSet factored_golden_points() { return blobs(1600, 8, 230); }

DascParams factored_golden_params(GramBackendPolicy backend,
                                  MetricsRegistry* metrics) {
  DascParams params;
  params.k = 24;
  params.m = 3;
  params.p = 3;
  params.threads = 2;
  params.gram_backend = backend;
  params.metrics = metrics;
  return params;
}

std::uint32_t factored_golden_label_crc(GramBackendPolicy backend) {
  MetricsRegistry metrics;
  dasc::Rng rng(31);
  const DascResult result = dasc_cluster(
      factored_golden_points(), factored_golden_params(backend, &metrics),
      rng);
  // Every bucket takes the factored r x r solve and runs K-means.
  const std::int64_t factored =
      metrics.counter("eigensolve.factored").value();
  EXPECT_GE(factored, 4);
  EXPECT_EQ(metrics.counter("kmeans.runs").value(), factored);
  return label_crc(result.labels);
}

TEST(DascFactoredGolden, NystromLabelsMatchRecordedCrc) {
  EXPECT_EQ(factored_golden_label_crc(GramBackendPolicy::kNystrom),
            kNystromGoldenLabelCrc);
}

TEST(DascFactoredGolden, BinningLabelsMatchRecordedCrc) {
  EXPECT_EQ(factored_golden_label_crc(GramBackendPolicy::kRbfBinning),
            kBinningGoldenLabelCrc);
}

std::uint32_t golden_artifact_crc(const DascParams& params) {
  dasc::Rng rng(31);
  const serving::FitResult fit =
      serving::fit_model(factored_golden_points(), params, rng);
  // One file per test: ctest runs the golden tests as parallel processes.
  const std::string path =
      testing::TempDir() + "dasc_golden_artifact_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
  serving::save_model(fit.model, path, /*format_version=*/2);
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return crc32(bytes);
}

TEST(DascFactoredGolden, NystromArtifactBytesMatchRecordedCrc) {
  EXPECT_EQ(golden_artifact_crc(
                factored_golden_params(GramBackendPolicy::kNystrom, nullptr)),
            kNystromGoldenArtifactCrc);
}

// The dense-backend artifact of the same fixture, recorded while the
// serving fit still carried its own copy of the bucket-pipeline setup.
constexpr std::uint32_t kDenseGoldenArtifactCrc = 0x2dd61978u;

void expect_dense_artifact_golden(std::size_t threads) {
  DascParams params = factored_golden_params(GramBackendPolicy::kDense,
                                             nullptr);
  params.threads = threads;
  EXPECT_EQ(golden_artifact_crc(params), kDenseGoldenArtifactCrc);
}

TEST(DascFactoredGolden, DenseArtifactBytesMatchRecordedCrcInline) {
  expect_dense_artifact_golden(1);
}

TEST(DascFactoredGolden, DenseArtifactBytesMatchRecordedCrcFourWorkers) {
  expect_dense_artifact_golden(4);
}

TEST(DascCluster, RejectsEmptyDataset) {
  DascParams params;
  dasc::Rng rng(10);
  EXPECT_THROW(dasc_cluster(data::PointSet(), params, rng),
               dasc::InvalidArgument);
}

}  // namespace
}  // namespace dasc::core
