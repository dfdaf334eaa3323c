#include "core/lowrank_approximator.hpp"

#include <gtest/gtest.h>

#include "clustering/kernel.hpp"
#include "common/error.hpp"
#include "data/synthetic.hpp"

namespace dasc::core {
namespace {

TEST(LowRankGram, FullLandmarksReproduceExactGram) {
  // With m = N, Nystrom is exact: K~ = C W^{-1} C^T = K.
  dasc::Rng data_rng(941);
  const data::PointSet points = data::make_uniform(40, 4, data_rng);
  dasc::Rng rng(942);
  const LowRankGram approx =
      nystrom_approximate_kernel(points, 40, 0.5, rng);
  const linalg::DenseMatrix exact = clustering::gaussian_gram(points, 0.5);
  EXPECT_LT(approx.to_dense().max_abs_diff(exact), 1e-6);
  EXPECT_NEAR(approx.frobenius_norm(), exact.frobenius_norm(), 1e-6);
}

TEST(LowRankGram, FnormNeverExceedsExact) {
  dasc::Rng data_rng(943);
  const data::PointSet points = data::make_uniform(60, 4, data_rng);
  const linalg::DenseMatrix exact = clustering::gaussian_gram(points, 0.5);
  for (std::size_t m : {5u, 15u, 30u}) {
    dasc::Rng rng(944 + m);
    const LowRankGram approx =
        nystrom_approximate_kernel(points, m, 0.5, rng);
    EXPECT_LE(approx.frobenius_norm(), exact.frobenius_norm() + 1e-9)
        << "m = " << m;
    EXPECT_GT(approx.frobenius_norm(), 0.0);
  }
}

TEST(LowRankGram, MoreLandmarksImproveApproximation) {
  dasc::Rng data_rng(945);
  data::MixtureParams mix;
  mix.n = 80;
  mix.dim = 6;
  mix.k = 4;
  mix.cluster_stddev = 0.1;
  const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);
  const linalg::DenseMatrix exact = clustering::gaussian_gram(points, 0.6);

  double prev_error = 1e300;
  for (std::size_t m : {4u, 16u, 64u}) {
    dasc::Rng rng(77);  // same landmark stream prefix
    const LowRankGram approx =
        nystrom_approximate_kernel(points, m, 0.6, rng);
    const double error = approx.to_dense().max_abs_diff(exact);
    EXPECT_LE(error, prev_error + 0.1) << "m = " << m;
    prev_error = error;
  }
}

TEST(LowRankGram, FactorFootprintIsLinearInN) {
  dasc::Rng data_rng(946);
  const data::PointSet points = data::make_uniform(100, 3, data_rng);
  dasc::Rng rng(947);
  const LowRankGram approx =
      nystrom_approximate_kernel(points, 10, 0.5, rng);
  EXPECT_LE(approx.rank(), 10u);
  EXPECT_EQ(approx.stored_entries(), 100u * approx.rank());
  EXPECT_LT(approx.gram_bytes(), linalg::gram_entry_bytes(100u * 100u));
}

TEST(LowRankGram, ApproximationIsPsd) {
  // K~ = F F^T is PSD by construction: x^T K~ x = ||F^T x||^2 >= 0.
  dasc::Rng data_rng(948);
  const data::PointSet points = data::make_uniform(30, 3, data_rng);
  dasc::Rng rng(949);
  const LowRankGram approx =
      nystrom_approximate_kernel(points, 8, 0.5, rng);
  const linalg::DenseMatrix dense = approx.to_dense();
  dasc::Rng probe(950);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> x(30);
    for (double& v : x) v = probe.uniform(-1.0, 1.0);
    std::vector<double> kx(30, 0.0);
    dense.matvec(x, kx);
    double quad = 0.0;
    for (std::size_t i = 0; i < 30; ++i) quad += x[i] * kx[i];
    EXPECT_GE(quad, -1e-9);
  }
}

TEST(LowRankGram, RejectsBadInputs) {
  dasc::Rng data_rng(951);
  const data::PointSet points = data::make_uniform(10, 2, data_rng);
  dasc::Rng rng(952);
  EXPECT_THROW(nystrom_approximate_kernel(points, 0, 0.5, rng),
               dasc::InvalidArgument);
  EXPECT_THROW(nystrom_approximate_kernel(points, 11, 0.5, rng),
               dasc::InvalidArgument);
}

}  // namespace
}  // namespace dasc::core
