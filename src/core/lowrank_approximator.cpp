#include "core/lowrank_approximator.hpp"

#include <cmath>
#include <numeric>
#include <vector>

#include "clustering/kernel.hpp"
#include "common/error.hpp"
#include "core/bucket_embedder.hpp"

namespace dasc::core {

LowRankGram::LowRankGram(linalg::DenseMatrix factor, std::size_t landmarks)
    : factor_(std::move(factor)), landmarks_(landmarks) {}

std::size_t LowRankGram::gram_bytes() const {
  return BucketEmbedder::factor_bytes(factor_.rows(), factor_.cols());
}

double LowRankGram::frobenius_norm() const {
  // ||F F^T||_F = ||F^T F||_F; the Gram of the factor is rank x rank.
  const std::size_t r = factor_.cols();
  const std::size_t n = factor_.rows();
  double acc = 0.0;
  for (std::size_t a = 0; a < r; ++a) {
    for (std::size_t b = 0; b < r; ++b) {
      double entry = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        entry += factor_(i, a) * factor_(i, b);
      }
      acc += entry * entry;
    }
  }
  return std::sqrt(acc);
}

linalg::DenseMatrix LowRankGram::to_dense() const {
  const std::size_t n = factor_.rows();
  const std::size_t r = factor_.cols();
  linalg::DenseMatrix dense(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < r; ++c) {
        acc += factor_(i, c) * factor_(j, c);
      }
      dense(i, j) = acc;
    }
  }
  return dense;
}

LowRankGram nystrom_approximate_kernel(const data::PointSet& points,
                                       std::size_t landmarks, double sigma,
                                       Rng& rng) {
  const std::size_t n = points.size();
  DASC_EXPECT(n >= 1, "nystrom_approximate_kernel: empty dataset");
  const double bandwidth =
      sigma > 0.0 ? sigma : clustering::suggest_bandwidth(points);
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  const clustering::NystromFactorization factor =
      clustering::nystrom_factor(points, all, landmarks, bandwidth, rng);
  return LowRankGram(factor.c.multiply(factor.p), landmarks);
}

}  // namespace dasc::core
