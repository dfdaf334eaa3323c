// The full DASC pipeline (paper Section 3): kernel approximation followed
// by per-bucket spectral clustering. Buckets are independent, so the
// per-bucket work runs in parallel — the property the MapReduce deployment
// exploits across machines (dasc_mapreduce.hpp) and this in-process driver
// exploits across threads.
//
// Step 4 (Algorithm 2's per-bucket spectral clustering) has one entry
// point, cluster_buckets: the in-process driver calls it over every
// bucket, the serving fit calls it with a hook that keeps each bucket's
// fitted state, and the MapReduce reducer calls it over its one bucket.
// Bounded memory is a budget, not a driver: max_inflight_blocks = 1 keeps
// one Gram block alive at a time with the same labels.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "clustering/spectral.hpp"
#include "common/rng.hpp"
#include "core/bucket_embedder.hpp"
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

/// Receives each bucket's fitted embedding, factored serving state
/// included, after its labels are written. Runs on the pipeline's worker
/// threads, again on a retried attempt: it must write only into
/// `job.index`'s own slot.
using BucketKeep =
    std::function<void(const BucketJob& job, BucketEmbedding&& embedding)>;

/// Step 4 over planned buckets: pick each bucket's Gram backend
/// (EmbedderSet), set the Eq. 12 stats.gram_bytes, run the bucket pipeline
/// under `params`' budgets with bandwidth `sigma`, spectrally cluster each
/// bucket from the job's seed, and fold the pipeline stats into `stats`.
/// Returns one label per point of `points`: label_offset + local label for
/// every bucket member (points outside all buckets stay 0). With `keep`,
/// each bucket's embedding also carries its factor and is handed over.
std::vector<int> cluster_buckets(const data::PointSet& points,
                                 const std::vector<lsh::Bucket>& buckets,
                                 const std::vector<BucketJob>& jobs,
                                 const DascParams& params, double sigma,
                                 ApproximatorStats& stats,
                                 const BucketKeep& keep = {});

/// Spectral clustering of one precomputed bucket block, returning the
/// local labels in [0, k_bucket) and the fitted per-bucket state (raw
/// eigenpairs, degrees, K-means centroids) that the serving subsystem
/// persists for out-of-sample assignment. `detail.k == 0` marks the
/// trivial path (trivial_bucket in bucket_embedder.hpp: k_bucket <= 1 or
/// <= 2 points): labels are all zero and no spectral state exists. The
/// block is taken by value and becomes the Laplacian in place; a consumer
/// done with its block passes it with std::move. (The allocation rule
/// bucket_cluster_count lives in bucket_pipeline.hpp, re-exported through
/// the include above.) With `metrics`, the eigensolve and K-means stages
/// report their timers/counters into it.
clustering::SpectralGramDetail fit_bucket(linalg::DenseMatrix block,
                                          std::size_t k_bucket,
                                          std::size_t dense_cutoff, Rng& rng,
                                          MetricsRegistry* metrics = nullptr);

}  // namespace dasc::core
