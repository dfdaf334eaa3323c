// The full DASC pipeline (paper Section 3): kernel approximation followed
// by per-bucket spectral clustering. Buckets are independent, so the
// per-bucket work runs in parallel — the property the MapReduce deployment
// exploits across machines (dasc_mapreduce.hpp) and this in-process driver
// exploits across threads.
#pragma once

#include <cstddef>
#include <vector>

#include "clustering/spectral.hpp"
#include "common/rng.hpp"
#include "core/bucket_pipeline.hpp"
#include "core/dasc_params.hpp"
#include "core/kernel_approximator.hpp"
#include "data/point_set.hpp"

namespace dasc::core {

struct DascResult {
  /// Cluster id per input point; ids are globally unique across buckets.
  std::vector<int> labels;
  /// Total clusters produced (sum of per-bucket cluster counts).
  std::size_t num_clusters = 0;
  /// Requested/resolved global K the per-bucket counts were derived from.
  std::size_t requested_k = 0;

  ApproximatorStats stats;
  /// Wall time of the fused pipeline phase (per-bucket Gram build +
  /// spectral + K-means); stats.gram_seconds / stats.consume_seconds hold
  /// the summed per-bucket split.
  double cluster_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Run DASC end-to-end on `points`.
///
/// Per-bucket cluster counts follow K_i = max(1, round(K * N_i / N)) so the
/// total tracks the requested K (the paper leaves this allocation
/// unspecified; see DESIGN.md).
DascResult dasc_cluster(const data::PointSet& points, const DascParams& params,
                        Rng& rng);

/// Spectral clustering of one precomputed bucket block; returns local
/// labels in [0, k_bucket). Exposed for the MapReduce reducer and tests.
/// (The allocation rule bucket_cluster_count lives in bucket_pipeline.hpp,
/// re-exported through the include above.) With `metrics`, the eigensolve
/// and K-means stages report their timers/counters into it.
std::vector<int> cluster_bucket(const linalg::DenseMatrix& block,
                                std::size_t k_bucket, std::size_t dense_cutoff,
                                Rng& rng, MetricsRegistry* metrics = nullptr);

/// cluster_bucket, additionally returning the fitted per-bucket state
/// (raw eigenpairs, degrees, K-means centroids) that the serving subsystem
/// persists for out-of-sample assignment. Labels are bit-identical to
/// cluster_bucket for the same inputs: the plain entry point is a wrapper
/// over this one. `detail.k == 0` marks the trivial path (k_bucket <= 1 or
/// <= 2 points): labels are all zero and no spectral state exists. The
/// block is taken by value and becomes the Laplacian in place; a consumer
/// done with its block passes it with std::move.
clustering::SpectralGramDetail fit_bucket(linalg::DenseMatrix block,
                                          std::size_t k_bucket,
                                          std::size_t dense_cutoff, Rng& rng,
                                          MetricsRegistry* metrics = nullptr);

}  // namespace dasc::core
