// Nystrom-extension spectral clustering baseline (the paper's "NYST"
// comparator; Schuetter & Shi 2011 / Fowlkes et al. lineage).
//
// m landmark points are sampled and factored by clustering::nystrom_factor
// (the N x m kernel slab C, the m x m landmark kernel W, and
// P = U_kept Lambda_kept^{-1/2} of W, so F = C P has F F^T = C W^+ C^T).
// clustering::factored_spectral then takes degrees d = F (F^T 1) and
// recovers the top-K eigenvectors of the normalized affinity from the
// r x r problem G^T G with G = D^{-1/2} F, r <= m — the same factored path
// as the DASC Nystrom bucket backend.
// Cost: O(N m^2 + m^3) time and O(N m) memory.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "data/point_set.hpp"

namespace dasc::baselines {

struct NystromParams {
  std::size_t k = 2;       ///< clusters
  std::size_t landmarks = 0;  ///< sample size m; 0 = auto
  double sigma = 0.0;      ///< Gaussian bandwidth; 0 = auto
};

struct NystromResult {
  std::vector<int> labels;
  std::size_t k = 0;
  std::size_t landmarks = 0;  ///< resolved m
  /// Bytes of the C and W kernel slabs at float precision.
  std::size_t kernel_bytes = 0;
};

/// Auto landmark count: m = min(N, max(16, floor(4 sqrt(N)))).
std::size_t nystrom_auto_landmarks(std::size_t n);

/// Run Nystrom spectral clustering on a dataset.
NystromResult nystrom_cluster(const data::PointSet& points,
                              const NystromParams& params, Rng& rng);

}  // namespace dasc::baselines
