#include "clustering/spectral.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "clustering/kernel.hpp"
#include "clustering/metrics.hpp"
#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "linalg/vector_ops.hpp"

namespace dasc::clustering {
namespace {

TEST(SpectralEmbedding, RowsAreUnitNorm) {
  dasc::Rng rng(91);
  const data::PointSet points = data::make_uniform(50, 3, rng);
  const linalg::DenseMatrix gram = gaussian_gram(points, 0.5);
  const linalg::DenseMatrix embedding = spectral_embedding(gram, 3, 128);
  ASSERT_EQ(embedding.rows(), 50u);
  ASSERT_EQ(embedding.cols(), 3u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(linalg::norm2(embedding.row(i)), 1.0, 1e-9);
  }
}

bool same_bytes(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bytes(const linalg::DenseMatrix& a, const linalg::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same_bytes({a.data(), a.size()}, {b.data(), b.size()});
}

TEST(SpectralEmbedding, MovedGramMatchesCopiedGram) {
  // Lanczos path (n > dense_cutoff): the Laplacian is built in the moved
  // block's storage and must be bit-identical to the copying entry point.
  dasc::Rng rng(94);
  data::MixtureParams mix;
  mix.n = 180;
  mix.dim = 5;
  mix.k = 3;
  mix.cluster_stddev = 0.05;
  const data::PointSet points = data::make_gaussian_mixture(mix, rng);
  const linalg::DenseMatrix gram = gaussian_gram(points, 0.3);
  const linalg::DenseMatrix pristine = gram;

  const SpectralEmbeddingDetail copied =
      spectral_embedding_detail(gram, 3, 128);
  EXPECT_TRUE(same_bytes(gram, pristine));  // the lvalue was copied
  linalg::DenseMatrix owned = gram;
  const SpectralEmbeddingDetail moved =
      spectral_embedding_detail(std::move(owned), 3, 128);

  EXPECT_TRUE(same_bytes(moved.embedding, copied.embedding));
  EXPECT_TRUE(same_bytes(moved.eigenvectors, copied.eigenvectors));
  EXPECT_TRUE(same_bytes(moved.eigenvalues, copied.eigenvalues));
  EXPECT_TRUE(same_bytes(moved.degrees, copied.degrees));
  EXPECT_TRUE(same_bytes(spectral_embedding(gram, 3, 128), moved.embedding));

  // The clustering entry points agree the same way.
  dasc::Rng copy_rng(5);
  dasc::Rng move_rng(5);
  const std::vector<int> copied_labels = spectral_cluster_gram(gram, 3,
                                                               copy_rng);
  const SpectralGramDetail moved_fit = spectral_cluster_gram_detail(
      linalg::DenseMatrix(gram), 3, move_rng);
  EXPECT_EQ(moved_fit.labels, copied_labels);
  EXPECT_TRUE(same_bytes(moved_fit.spectral.embedding, moved.embedding));
}

TEST(SpectralEmbedding, DensePathMatchesLanczosPath) {
  dasc::Rng rng(92);
  data::MixtureParams mix;
  mix.n = 60;
  mix.dim = 4;
  mix.k = 2;
  mix.cluster_stddev = 0.03;
  const data::PointSet points = data::make_gaussian_mixture(mix, rng);
  const linalg::DenseMatrix gram = gaussian_gram(points, 0.3);

  const linalg::DenseMatrix dense = spectral_embedding(gram, 2, 1000);
  const linalg::DenseMatrix lanczos = spectral_embedding(gram, 2, 1);
  // Embeddings are unique up to column sign; compare |<row_i, row_j>|
  // structure via pairwise dot products instead of raw entries.
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      const double d = std::abs(linalg::dot(dense.row(i), dense.row(j)));
      const double l = std::abs(linalg::dot(lanczos.row(i), lanczos.row(j)));
      EXPECT_NEAR(d, l, 1e-4);
    }
  }
}

TEST(SpectralCluster, SeparatesGaussianBlobs) {
  dasc::Rng data_rng(93);
  data::MixtureParams mix;
  mix.n = 150;
  mix.dim = 8;
  mix.k = 3;
  mix.cluster_stddev = 0.02;
  const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);

  SpectralParams params;
  params.k = 3;
  dasc::Rng rng(94);
  const SpectralResult result = spectral_cluster(points, params, rng);
  EXPECT_GT(clustering_accuracy(result.labels, points.labels()), 0.95);
  EXPECT_EQ(result.gram_bytes, linalg::gram_entry_bytes(150u * 150u));
}

TEST(SpectralCluster, SeparatesConcentricRings) {
  // The motivating case for spectral methods: K-means on raw coordinates
  // cannot split concentric rings; the spectral embedding can.
  dasc::Rng data_rng(95);
  const data::PointSet points = data::make_two_rings(200, 0.004, data_rng);

  SpectralParams params;
  params.k = 2;
  params.sigma = 0.05;  // local neighbourhood kernel
  dasc::Rng rng(96);
  const SpectralResult spectral = spectral_cluster(points, params, rng);
  const double spectral_acc =
      clustering_accuracy(spectral.labels, points.labels());

  KMeansParams km;
  km.k = 2;
  dasc::Rng km_rng(97);
  const auto kmeans_result = kmeans(points, km, km_rng);
  const double kmeans_acc =
      clustering_accuracy(kmeans_result.labels, points.labels());

  EXPECT_GT(spectral_acc, 0.95);
  EXPECT_GT(spectral_acc, kmeans_acc + 0.2);
}

TEST(SpectralClusterGram, KOneReturnsSingleCluster) {
  dasc::Rng rng(98);
  const data::PointSet points = data::make_uniform(20, 2, rng);
  const linalg::DenseMatrix gram = gaussian_gram(points, 0.5);
  const auto labels = spectral_cluster_gram(gram, 1, rng);
  for (int label : labels) EXPECT_EQ(label, 0);
}

TEST(SpectralClusterGram, KLargerThanNClamped) {
  dasc::Rng rng(99);
  const data::PointSet points = data::make_uniform(5, 2, rng);
  const linalg::DenseMatrix gram = gaussian_gram(points, 0.5);
  const auto labels = spectral_cluster_gram(gram, 10, rng);
  EXPECT_EQ(labels.size(), 5u);
  for (int label : labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 5);
  }
}

TEST(SpectralCluster, RejectsBadInputs) {
  dasc::Rng rng(100);
  SpectralParams params;
  params.k = 2;
  EXPECT_THROW(spectral_cluster(data::PointSet(), params, rng),
               dasc::InvalidArgument);
  EXPECT_THROW(spectral_embedding(linalg::DenseMatrix(3, 4), 1, 10),
               dasc::InvalidArgument);
  EXPECT_THROW(spectral_embedding(linalg::DenseMatrix(3, 3), 4, 10),
               dasc::InvalidArgument);
}

TEST(SpectralEmbedding, IsolatedPointGetsZeroRow) {
  // Two connected points and one with zero affinity to everything.
  linalg::DenseMatrix gram(3, 3, 0.0);
  gram(0, 1) = 1.0;
  gram(1, 0) = 1.0;
  gram(0, 0) = 1.0;
  gram(1, 1) = 1.0;
  gram(2, 2) = 1.0;  // diagonal ignored; point 2 is isolated
  const linalg::DenseMatrix embedding = spectral_embedding(gram, 1, 10);
  EXPECT_NEAR(linalg::norm2(embedding.row(2)), 0.0, 1e-12);
}

}  // namespace
}  // namespace dasc::clustering
