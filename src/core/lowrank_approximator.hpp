// Low-rank (Nystrom) kernel approximation — the other family of kernel
// approximations the paper's related work surveys (Section 2: Williams &
// Seeger; "our proposed algorithm benefits from the advantages of both
// categories"). Provided so the two strategies can be compared head to
// head under equal memory budgets (bench_ablation_approx).
//
// K ~= C W^+ C^T is stored in factored form F = C P with P = U Lambda^{-1/2}
// of the landmark block W (valid for the PSD Gaussian kernel), so the
// footprint is N*r entries (r <= m) instead of N^2.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "data/point_set.hpp"
#include "linalg/dense_matrix.hpp"

namespace dasc::core {

/// Factored low-rank Gram approximation K ~= F F^T.
class LowRankGram {
 public:
  LowRankGram(linalg::DenseMatrix factor, std::size_t landmarks);

  std::size_t num_points() const { return factor_.rows(); }
  /// Retained rank (columns of F; <= requested landmarks).
  std::size_t rank() const { return factor_.cols(); }
  std::size_t landmarks() const { return landmarks_; }

  const linalg::DenseMatrix& factor() const { return factor_; }

  /// ||F F^T||_F, computed from the rank x rank matrix F^T F.
  double frobenius_norm() const;

  /// Stored entries (N * rank) and the Eq. 12-style byte count at the
  /// factor's actual element size. Routed through
  /// BucketEmbedder::factor_bytes — the one accounting rule shared with
  /// BlockGram and pipeline admission.
  std::size_t stored_entries() const { return factor_.size(); }
  std::size_t gram_bytes() const;

  /// Materialize K~ (tests / Fnorm comparisons only).
  linalg::DenseMatrix to_dense() const;

 private:
  linalg::DenseMatrix factor_;
  std::size_t landmarks_ = 0;
};

/// Build a Nystrom approximation of the Gaussian Gram matrix from
/// `landmarks` uniformly sampled points (clustering::nystrom_factor over
/// every point; F = C P). sigma 0 = median heuristic; landmark-block
/// eigenvalues at or below kFactorEigenFloor * largest are dropped (rank()
/// reports what survived). Throws InvalidArgument unless 1 <= landmarks
/// <= N.
LowRankGram nystrom_approximate_kernel(const data::PointSet& points,
                                       std::size_t landmarks, double sigma,
                                       Rng& rng);

}  // namespace dasc::core
