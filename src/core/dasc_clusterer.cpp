#include "core/dasc_clusterer.hpp"

#include <algorithm>
#include <utility>

#include "clustering/spectral.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/bucket_embedder.hpp"

namespace dasc::core {

clustering::SpectralGramDetail fit_bucket(linalg::DenseMatrix block,
                                          std::size_t k_bucket,
                                          std::size_t dense_cutoff, Rng& rng,
                                          MetricsRegistry* metrics) {
  const std::size_t n = block.rows();
  DASC_EXPECT(block.cols() == n, "fit_bucket: block must be square");
  clustering::SpectralGramDetail fit;
  if (trivial_bucket(n, k_bucket)) {
    fit.labels.assign(n, 0);
    return fit;
  }

  clustering::SpectralParams params;
  params.dense_cutoff = dense_cutoff;
  params.metrics = metrics;
  return clustering::spectral_cluster_gram_detail(
      std::move(block), std::min(k_bucket, n), rng, params);
}

std::vector<int> cluster_buckets(const data::PointSet& points,
                                 const std::vector<lsh::Bucket>& buckets,
                                 const std::vector<BucketJob>& jobs,
                                 const DascParams& params, double sigma,
                                 ApproximatorStats& stats,
                                 const BucketKeep& keep) {
  // Per-bucket backend plan (dense for every bucket under the defaults);
  // the Eq. 12 stat reflects what the chosen backends actually store.
  const EmbedderSet embedder_set(params, sigma);
  stats.gram_bytes = embedder_set.total_gram_bytes(buckets, points.dim());

  // Steps 3-4 fused per bucket on the shared executor. Each consumer
  // writes only its own bucket's (disjoint) label slots, so any execution
  // order produces the same labels.
  BucketPipelineOptions options = pipeline_options(params, sigma);
  options.embedders = embedder_set.plan(buckets);
  const bool want_factor = static_cast<bool>(keep);
  std::vector<int> labels(points.size(), 0);
  const BucketPipelineStats pipeline = run_bucket_pipeline(
      points, buckets, jobs, options,
      [&](linalg::DenseMatrix&& block, const lsh::Bucket& bucket,
          const BucketJob& job) {
        Rng bucket_rng(job.seed);
        BucketEmbedding embedding =
            options.embedders[job.index]->fit_with_block(
                points, bucket.indices, job.k_bucket, bucket_rng,
                want_factor, std::move(block));
        const auto& indices = bucket.indices;
        for (std::size_t i = 0; i < indices.size(); ++i) {
          labels[indices[i]] =
              static_cast<int>(job.label_offset) + embedding.fit.labels[i];
        }
        if (keep) keep(job, std::move(embedding));
      });
  fold_pipeline_stats(pipeline, stats);
  return labels;
}

DascResult dasc_cluster(const data::PointSet& points, const DascParams& params,
                        Rng& rng) {
  DASC_EXPECT(!points.empty(), "dasc_cluster: empty dataset");
  Stopwatch total_clock;

  DascResult result;
  result.requested_k = resolve_cluster_count(params, points.size());

  // Steps 1-2: bucket membership only; Gram blocks are built lazily by the
  // pipeline so peak memory obeys the in-flight budget instead of paying
  // the full sum-Ni^2 up front.
  const std::vector<lsh::Bucket> buckets =
      bucket_points(points, params, rng, &result.stats);
  const std::vector<BucketJob> jobs =
      plan_bucket_jobs(buckets, result.requested_k, points.size(), rng);
  result.num_clusters = total_label_count(jobs);

  Stopwatch cluster_clock;
  result.labels = cluster_buckets(points, buckets, jobs, params,
                                  resolve_bandwidth(params, points),
                                  result.stats);
  result.cluster_seconds = cluster_clock.seconds();
  result.total_seconds = total_clock.seconds();
  return result;
}

}  // namespace dasc::core
