// Gaussian (RBF) kernel and Gram-matrix construction (paper Eq. 1):
//   S_lm = exp(-||X_l - X_m||^2 / (2 sigma^2)).
//
// Gram construction is panelized: points are tiled into L2-sized row
// panels, only the upper triangle is evaluated (then mirrored), the rows
// are held once more dimension-major so each row segment's squared
// distances are one call of the dispatched row-versus-panel kernel
// (linalg::DistancePanel), and the exponents of each segment are batched
// through one shared std::exp loop (linalg::simd::gaussian_from_d2).
// Every entry is bit-identical to a pointwise gaussian_kernel() call and
// across dispatch levels.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "data/point_set.hpp"
#include "linalg/dense_matrix.hpp"

namespace dasc {
class MetricsRegistry;
}

namespace dasc::clustering {

/// The Gaussian denominator 2 sigma^2, shared by the pointwise kernel and
/// the batched Gram path so both round identically.
inline double gaussian_denom(double sigma) { return 2.0 * sigma * sigma; }

/// Gaussian kernel value between two points. sigma must be positive.
double gaussian_kernel(std::span<const double> x, std::span<const double> y,
                       double sigma);

/// Heuristic bandwidth: median pairwise distance over a bounded,
/// deterministically sampled set of index pairs (fixed internal seed, so
/// the result depends only on the dataset). Never returns <= 0 for a
/// dataset with at least two distinct points; degenerate datasets get 1.0.
double suggest_bandwidth(const data::PointSet& points);

/// Full N x N Gram matrix (the paper's exact baseline). The diagonal is 1.
/// `threads` parallelizes panel construction (0 = hardware default).
/// `metrics` (optional) receives the `gram.panels` counter (tile pairs
/// of the upper triangle, T(T+1)/2 for T row tiles) and the
/// `gram.panel_rows` gauge (rows per tile, clamp(8192 / dim, 8, 256));
/// neither depends on the dispatch level or the thread count.
linalg::DenseMatrix gaussian_gram(const data::PointSet& points, double sigma,
                                  std::size_t threads = 0,
                                  MetricsRegistry* metrics = nullptr);

/// Gram matrix restricted to `indices` (one LSH bucket): entry (a, b) is
/// the kernel between points indices[a] and indices[b].
linalg::DenseMatrix gaussian_gram_subset(
    const data::PointSet& points, std::span<const std::size_t> indices,
    double sigma, MetricsRegistry* metrics = nullptr);

/// Relative spectral floor of every factored eigenproblem (the landmark
/// block here, the r x r core in factored_spectral): components with
/// lambda <= kFactorEigenFloor * lambda_max carry no mass and are dropped.
inline constexpr double kFactorEigenFloor = 1e-12;

/// One Nystrom landmark factorization (Williams & Seeger) of the Gram
/// matrix over the rows `indices`: F = C P with F F^T = C W^+ C^T.
struct NystromFactorization {
  std::vector<std::size_t> landmarks;  ///< m point indices, in draw order
  linalg::DenseMatrix c;  ///< n x m kernel between rows and landmarks
  linalg::DenseMatrix p;  ///< m x r, P = U_kept Lambda_kept^{-1/2} of W
};

/// Draw m landmarks uniformly without replacement from `indices` (a
/// partial Fisher-Yates over the positions of `indices`; `rng`'s first
/// consumer, so the draw is part of every caller's determinism contract),
/// form C and the landmark block W, and keep the eigenpairs of W above
/// kFactorEigenFloor * lambda_max (r <= m of them). `sigma` must already
/// be resolved. Throws InvalidArgument unless 1 <= m <= indices.size().
NystromFactorization nystrom_factor(const data::PointSet& points,
                                    std::span<const std::size_t> indices,
                                    std::size_t m, double sigma, Rng& rng);

}  // namespace dasc::clustering
