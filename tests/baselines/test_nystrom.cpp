#include "baselines/nystrom.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "clustering/metrics.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "linalg/dense_matrix.hpp"

namespace dasc::baselines {
namespace {

TEST(NystromAutoLandmarks, RuleAndClamping) {
  EXPECT_EQ(nystrom_auto_landmarks(10000), 400u);  // 4 * 100
  EXPECT_EQ(nystrom_auto_landmarks(4), 4u);        // capped at n
  EXPECT_EQ(nystrom_auto_landmarks(25), 20u);
  // Below the floor of 16 the rule is capped at n, and at 16 <= n the
  // floor of 16 wins until 4 sqrt(n) passes it.
  EXPECT_EQ(nystrom_auto_landmarks(1), 1u);
  EXPECT_EQ(nystrom_auto_landmarks(15), 15u);
  EXPECT_EQ(nystrom_auto_landmarks(16), 16u);
  EXPECT_EQ(nystrom_auto_landmarks(17), 16u);
}

TEST(Nystrom, RecoversSeparatedBlobs) {
  dasc::Rng data_rng(511);
  data::MixtureParams mix;
  mix.n = 300;
  mix.dim = 8;
  mix.k = 3;
  mix.cluster_stddev = 0.02;
  const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);

  NystromParams params;
  params.k = 3;
  dasc::Rng rng(512);
  const NystromResult result = nystrom_cluster(points, params, rng);
  EXPECT_GT(clustering::clustering_accuracy(result.labels, points.labels()),
            0.9);
}

TEST(Nystrom, KernelBytesScaleWithLandmarks) {
  dasc::Rng data_rng(513);
  const data::PointSet points = data::make_uniform(200, 4, data_rng);
  NystromParams params;
  params.k = 2;
  params.landmarks = 20;
  dasc::Rng rng(514);
  const NystromResult small = nystrom_cluster(points, params, rng);
  params.landmarks = 80;
  dasc::Rng rng2(515);
  const NystromResult large = nystrom_cluster(points, params, rng2);
  EXPECT_LT(small.kernel_bytes, large.kernel_bytes);
  EXPECT_EQ(small.kernel_bytes,
            linalg::gram_entry_bytes(200u * 20u + 20u * 20u));
}

TEST(Nystrom, MemoryBelowFullGramForModestLandmarks) {
  dasc::Rng data_rng(516);
  const data::PointSet points = data::make_uniform(400, 4, data_rng);
  NystromParams params;
  params.k = 4;
  dasc::Rng rng(517);
  const NystromResult result = nystrom_cluster(points, params, rng);
  EXPECT_LT(result.kernel_bytes, linalg::gram_entry_bytes(400u * 400u));
}

TEST(Nystrom, LandmarksClampedToDatasetAndK) {
  dasc::Rng data_rng(518);
  const data::PointSet points = data::make_uniform(30, 3, data_rng);
  NystromParams params;
  params.k = 5;
  params.landmarks = 1000;
  dasc::Rng rng(519);
  const NystromResult result = nystrom_cluster(points, params, rng);
  EXPECT_EQ(result.landmarks, 30u);

  params.landmarks = 2;  // below k: must be raised to k
  dasc::Rng rng2(520);
  const NystromResult raised = nystrom_cluster(points, params, rng2);
  EXPECT_GE(raised.landmarks, 5u);
}

TEST(Nystrom, LabelsValid) {
  dasc::Rng data_rng(521);
  const data::PointSet points = data::make_uniform(100, 5, data_rng);
  NystromParams params;
  params.k = 4;
  dasc::Rng rng(522);
  const NystromResult result = nystrom_cluster(points, params, rng);
  ASSERT_EQ(result.labels.size(), 100u);
  for (int label : result.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
}

TEST(Nystrom, KOneAndBadInputs) {
  dasc::Rng data_rng(523);
  const data::PointSet points = data::make_uniform(40, 3, data_rng);
  NystromParams params;
  params.k = 1;
  dasc::Rng rng(524);
  const NystromResult result = nystrom_cluster(points, params, rng);
  for (int label : result.labels) EXPECT_EQ(label, 0);

  params.k = 0;
  EXPECT_THROW(nystrom_cluster(points, params, rng), dasc::InvalidArgument);
}

TEST(Nystrom, FullLandmarksApproachesExactSpectral) {
  // With m = n, Nystrom is (numerically) full spectral clustering; it must
  // nail well-separated blobs.
  dasc::Rng data_rng(525);
  data::MixtureParams mix;
  mix.n = 120;
  mix.dim = 6;
  mix.k = 2;
  mix.cluster_stddev = 0.02;
  const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);
  NystromParams params;
  params.k = 2;
  params.landmarks = 120;
  dasc::Rng rng(526);
  const NystromResult result = nystrom_cluster(points, params, rng);
  EXPECT_GT(clustering::clustering_accuracy(result.labels, points.labels()),
            0.97);
}

// Golden NYST labels on a small Gaussian mixture, with the auto landmark
// rule and with m = 20. The CRCs were recorded while the baseline still
// formed W^{-1/2} and W^+ and solved its own m x m eigenproblem; it now
// shares the landmark factorization and the factored r x r solve of the
// Nystrom backend, and the labels must not move.
constexpr std::uint32_t kNystAutoGoldenLabelCrc = 0x0031913bu;
constexpr std::uint32_t kNystM20GoldenLabelCrc = 0x00f5dbc0u;

std::uint32_t nyst_golden_label_crc(std::size_t landmarks) {
  dasc::Rng data_rng(531);
  data::MixtureParams mix;
  mix.n = 300;
  mix.dim = 8;
  mix.k = 4;
  mix.cluster_stddev = 0.05;
  const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);
  NystromParams params;
  params.k = 4;
  params.landmarks = landmarks;
  dasc::Rng rng(532);
  const NystromResult result = nystrom_cluster(points, params, rng);
  return crc32(std::string_view(
      reinterpret_cast<const char*>(result.labels.data()),
      result.labels.size() * sizeof(int)));
}

TEST(NystromGolden, AutoLandmarkLabelsMatchRecordedCrc) {
  EXPECT_EQ(nyst_golden_label_crc(0), kNystAutoGoldenLabelCrc);
}

TEST(NystromGolden, TwentyLandmarkLabelsMatchRecordedCrc) {
  EXPECT_EQ(nyst_golden_label_crc(20), kNystM20GoldenLabelCrc);
}

}  // namespace
}  // namespace dasc::baselines
