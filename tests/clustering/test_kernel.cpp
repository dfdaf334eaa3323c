#include "clustering/kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "linalg/simd_ops.hpp"

namespace dasc::clustering {
namespace {

// Golden median for SuggestBandwidth.PinnedSampledMedianRegression,
// computed once from this repo's deterministic sampler (see that test for
// why the value is host-independent).
constexpr double kGoldenSampledMedian = 0.78852774209595178;

TEST(GaussianKernel, KnownValues) {
  const std::vector<double> x{0.0, 0.0};
  const std::vector<double> y{3.0, 4.0};  // distance 5
  EXPECT_NEAR(gaussian_kernel(x, y, 1.0), std::exp(-12.5), 1e-15);
  EXPECT_DOUBLE_EQ(gaussian_kernel(x, x, 1.0), 1.0);
}

TEST(GaussianKernel, BandwidthControlsDecay) {
  const std::vector<double> x{0.0};
  const std::vector<double> y{1.0};
  EXPECT_LT(gaussian_kernel(x, y, 0.5), gaussian_kernel(x, y, 2.0));
}

TEST(GaussianKernel, RejectsNonPositiveSigma) {
  const std::vector<double> x{0.0};
  EXPECT_THROW(gaussian_kernel(x, x, 0.0), dasc::InvalidArgument);
  EXPECT_THROW(gaussian_kernel(x, x, -1.0), dasc::InvalidArgument);
}

TEST(SuggestBandwidth, PositiveAndScaleAware) {
  dasc::Rng rng(41);
  const data::PointSet small = data::make_uniform(100, 4, rng);
  const double sigma_small = suggest_bandwidth(small);
  EXPECT_GT(sigma_small, 0.0);

  // Scale the data by 10x: bandwidth should grow roughly accordingly.
  data::PointSet big(100, 4);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t d = 0; d < 4; ++d) {
      big.at(i, d) = small.at(i, d) * 10.0;
    }
  }
  const double sigma_big = suggest_bandwidth(big);
  EXPECT_GT(sigma_big, 3.0 * sigma_small);
}

TEST(SuggestBandwidth, DegenerateDatasetFallsBackToOne) {
  const data::PointSet points(5, 2, std::vector<double>(10, 0.5));
  EXPECT_DOUBLE_EQ(suggest_bandwidth(points), 1.0);
}

TEST(SuggestBandwidth, SingletonDatasetFallsBackToOne) {
  const data::PointSet points(1, 3, std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(suggest_bandwidth(points), 1.0);
}

TEST(SuggestBandwidth, DeterministicAcrossCalls) {
  // The sampler uses a fixed internal seed, so the suggestion is a pure
  // function of the dataset — repeated calls and call order cannot drift.
  dasc::Rng rng(47);
  const data::PointSet points = data::make_uniform(500, 6, rng);
  const double first = suggest_bandwidth(points);
  const double second = suggest_bandwidth(points);
  EXPECT_EQ(first, second);
}

TEST(SuggestBandwidth, SmallDatasetUsesExactMedian) {
  // n <= 64 enumerates all pairs: four collinear points at 0, 1, 2, 3
  // have pairwise distances {1,1,1,2,2,3}; lower median (index 3 of 6) = 2.
  data::PointSet points(4, 1, std::vector<double>{0.0, 1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(suggest_bandwidth(points), 2.0);
}

TEST(SuggestBandwidth, PinnedSampledMedianRegression) {
  // Golden value for the sampled (n > 64) path: every operation in the
  // pipeline (fixed-seed xoshiro draws, subtract/multiply/add in canonical
  // lane order, exactly-rounded sqrt, nth_element median) is IEEE
  // deterministic, so this double is exact on every host. A change means
  // the sampler's draw sequence or the distance numerics changed.
  dasc::Rng rng(48);
  const data::PointSet points = data::make_uniform(300, 4, rng);
  const double sigma = suggest_bandwidth(points);
  EXPECT_GT(sigma, 0.0);
  const double again = suggest_bandwidth(points);
  EXPECT_EQ(sigma, again);
  EXPECT_DOUBLE_EQ(sigma, kGoldenSampledMedian);
}

TEST(GaussianGram, SymmetricWithUnitDiagonal) {
  dasc::Rng rng(42);
  const data::PointSet points = data::make_uniform(40, 3, rng);
  const linalg::DenseMatrix gram = gaussian_gram(points, 0.5);
  EXPECT_TRUE(gram.is_symmetric(1e-12));
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_DOUBLE_EQ(gram(i, i), 1.0);
  }
}

TEST(GaussianGram, EntriesMatchKernelFunction) {
  dasc::Rng rng(43);
  const data::PointSet points = data::make_uniform(10, 4, rng);
  const linalg::DenseMatrix gram = gaussian_gram(points, 0.7);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      const double expected =
          i == j ? 1.0
                 : gaussian_kernel(points.point(i), points.point(j), 0.7);
      EXPECT_NEAR(gram(i, j), expected, 1e-15);
    }
  }
}

TEST(GaussianGram, ParallelMatchesSequential) {
  dasc::Rng rng(44);
  const data::PointSet points = data::make_uniform(60, 5, rng);
  const linalg::DenseMatrix seq = gaussian_gram(points, 0.4, 1);
  const linalg::DenseMatrix par = gaussian_gram(points, 0.4, 4);
  EXPECT_DOUBLE_EQ(seq.max_abs_diff(par), 0.0);
}

TEST(GaussianGramSubset, MatchesFullGramOnIndices) {
  dasc::Rng rng(45);
  const data::PointSet points = data::make_uniform(30, 3, rng);
  const linalg::DenseMatrix full = gaussian_gram(points, 0.6);
  const std::vector<std::size_t> indices{3, 7, 11, 29};
  const linalg::DenseMatrix sub =
      gaussian_gram_subset(points, indices, 0.6);
  for (std::size_t a = 0; a < indices.size(); ++a) {
    for (std::size_t b = 0; b < indices.size(); ++b) {
      EXPECT_NEAR(sub(a, b), full(indices[a], indices[b]), 1e-15);
    }
  }
}

/// Per-pair reference Gram over `indices`: unit diagonal, one pointwise
/// gaussian_kernel() call per upper-triangle entry, mirrored.
linalg::DenseMatrix reference_gram(const data::PointSet& points,
                                   const std::vector<std::size_t>& indices,
                                   double sigma) {
  const std::size_t n = indices.size();
  linalg::DenseMatrix gram(n, n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    gram(a, a) = 1.0;
    for (std::size_t b = a + 1; b < n; ++b) {
      gram(a, b) = gaussian_kernel(points.point(indices[a]),
                                   points.point(indices[b]), sigma);
      gram(b, a) = gram(a, b);
    }
  }
  return gram;
}

bool same_bytes(const linalg::DenseMatrix& a, const linalg::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(GaussianGram, SubsetMatchesPerPairKernelByteForByte) {
  // Bucket sizes from empty to several column tiles, and dimensions on
  // both sides of the 16-lane width and of the panel/per-pair crossover
  // (linalg::kPanelMaxDim = 64). Indices are a scattered permutation, so
  // the row gather is exercised too. Every level this host supports up to
  // 257 points; the largest bucket at the active level.
  constexpr std::size_t kPoints = 1031;  // prime: a * 37 % kPoints permutes
  const linalg::SimdLevel before = linalg::simd::active_level();
  std::vector<linalg::SimdLevel> levels{linalg::SimdLevel::kScalar};
  for (linalg::SimdLevel level :
       {linalg::SimdLevel::kSse2, linalg::SimdLevel::kAvx2}) {
    if (linalg::simd::level_supported(level)) levels.push_back(level);
  }
  for (std::size_t d : {1, 11, 16, 17, 64, 65}) {
    dasc::Rng rng(700 + d);
    const data::PointSet points = data::make_uniform(kPoints, d, rng);
    const double sigma = 0.5 * std::sqrt(static_cast<double>(d));
    for (std::size_t n : {0, 1, 2, 3, 5, 17, 257, 1025}) {
      std::vector<std::size_t> indices(n);
      for (std::size_t a = 0; a < n; ++a) indices[a] = a * 37 % kPoints;
      for (linalg::SimdLevel level : levels) {
        if (n > 257 && level != before) continue;
        linalg::simd::set_level(level);
        SCOPED_TRACE("d=" + std::to_string(d) + " n=" + std::to_string(n) +
                     " " + linalg::simd::level_name(level));
        EXPECT_TRUE(same_bytes(gaussian_gram_subset(points, indices, sigma),
                               reference_gram(points, indices, sigma)));
      }
      linalg::simd::set_level(before);
    }
  }
}

TEST(GaussianGram, FullGramEqualsSubsetOverIdentity) {
  for (std::size_t d : {3, 11, 65}) {
    for (std::size_t n : {1, 2, 7, 300}) {
      dasc::Rng rng(800 + d + n);
      const data::PointSet points = data::make_uniform(n, d, rng);
      std::vector<std::size_t> identity(n);
      std::iota(identity.begin(), identity.end(), std::size_t{0});
      SCOPED_TRACE("d=" + std::to_string(d) + " n=" + std::to_string(n));
      const linalg::DenseMatrix subset =
          gaussian_gram_subset(points, identity, 0.8);
      EXPECT_TRUE(same_bytes(gaussian_gram(points, 0.8, 1), subset));
      EXPECT_TRUE(same_bytes(gaussian_gram(points, 0.8, 4), subset));
    }
  }
}

TEST(GaussianGramSubset, RejectsOutOfRangeIndex) {
  dasc::Rng rng(46);
  const data::PointSet points = data::make_uniform(5, 2, rng);
  const std::vector<std::size_t> bad{0, 5};
  EXPECT_THROW(gaussian_gram_subset(points, bad, 0.5),
               dasc::InvalidArgument);
}

TEST(NystromFactor, LandmarksArePartialFisherYatesPrefixOfIndices) {
  dasc::Rng data_rng(47);
  const data::PointSet points = data::make_uniform(40, 3, data_rng);
  // A bucket-local subset: the draw runs over positions of `indices`.
  const std::vector<std::size_t> indices{2,  5,  7,  11, 13, 17,
                                         19, 23, 29, 31, 37, 39};
  const std::size_t m = 5;
  dasc::Rng rng(48);
  const NystromFactorization factor =
      nystrom_factor(points, indices, m, 0.7, rng);

  dasc::Rng ref(48);
  std::vector<std::size_t> order(indices.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = 0; i < m; ++i) {
    std::swap(order[i], order[i + ref.uniform_index(indices.size() - i)]);
  }
  ASSERT_EQ(factor.landmarks.size(), m);
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_EQ(factor.landmarks[j], indices[order[j]]) << "landmark " << j;
  }
  // The draw is the factorization's only use of the RNG.
  EXPECT_EQ(rng(), ref());

  ASSERT_EQ(factor.c.rows(), indices.size());
  ASSERT_EQ(factor.c.cols(), m);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(factor.c(i, j),
                gaussian_kernel(points.point(indices[i]),
                                points.point(factor.landmarks[j]), 0.7));
    }
  }

  // Distinct landmarks keep full rank, and F = C P reproduces the kernel
  // exactly on the landmarks (F F^T = C W^+ C^T, W^+ W = I there).
  ASSERT_EQ(factor.p.rows(), m);
  ASSERT_EQ(factor.p.cols(), m);
  const linalg::DenseMatrix f = factor.c.multiply(factor.p);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      double approx = 0.0;
      for (std::size_t c = 0; c < f.cols(); ++c) {
        approx += f(order[a], c) * f(order[b], c);
      }
      EXPECT_NEAR(approx,
                  gaussian_kernel(points.point(factor.landmarks[a]),
                                  points.point(factor.landmarks[b]), 0.7),
                  1e-8);
    }
  }
}

TEST(NystromFactor, FloorDropsRankOnDuplicatedPoints) {
  // Three distinct points, each present four times: the 12 x 12 landmark
  // block has rank 3, and the floor drops the other nine components.
  data::PointSet points(12, 2);
  const double distinct[3][2] = {{0.0, 0.0}, {1.0, 0.5}, {-0.5, 1.5}};
  for (std::size_t i = 0; i < 12; ++i) {
    points.at(i, 0) = distinct[i % 3][0];
    points.at(i, 1) = distinct[i % 3][1];
  }
  std::vector<std::size_t> indices(12);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  dasc::Rng rng(49);
  const NystromFactorization factor =
      nystrom_factor(points, indices, 12, 1.0, rng);
  EXPECT_EQ(factor.c.cols(), 12u);
  EXPECT_EQ(factor.p.rows(), 12u);
  EXPECT_EQ(factor.p.cols(), 3u);
}

TEST(NystromFactor, RejectsLandmarkCountOutsideIndices) {
  dasc::Rng data_rng(50);
  const data::PointSet points = data::make_uniform(10, 2, data_rng);
  const std::vector<std::size_t> indices{1, 4, 6};
  dasc::Rng rng(51);
  EXPECT_THROW(nystrom_factor(points, indices, 0, 0.5, rng),
               dasc::InvalidArgument);
  EXPECT_THROW(nystrom_factor(points, indices, 4, 0.5, rng),
               dasc::InvalidArgument);
  EXPECT_NO_THROW(nystrom_factor(points, indices, 3, 0.5, rng));
}

}  // namespace
}  // namespace dasc::clustering
