#include "core/approx_kernel_pca.hpp"

#include <algorithm>

#include "clustering/kernel_pca.hpp"
#include "common/error.hpp"
#include "core/bucket_pipeline.hpp"

namespace dasc::core {

ApproxKpcaResult approx_kernel_pca(const data::PointSet& points,
                                   std::size_t p, const DascParams& params,
                                   Rng& rng) {
  DASC_EXPECT(!points.empty(), "approx_kernel_pca: empty dataset");
  DASC_EXPECT(p >= 1, "approx_kernel_pca: p must be positive");

  ApproxKpcaResult result;
  const std::vector<lsh::Bucket> buckets =
      bucket_points(points, params, rng, &result.stats);

  result.embedding = linalg::DenseMatrix(points.size(), p, 0.0);
  result.bucket_of_point.assign(points.size(), 0);

  // KPCA draws no per-bucket randomness, but rides the same executor:
  // blocks are built, reduced, and discarded under the in-flight budget
  // instead of being materialized all at once.
  const std::vector<BucketJob> jobs =
      plan_bucket_jobs(buckets, 0, points.size(), rng);
  const BucketPipelineOptions options =
      pipeline_options(params, resolve_bandwidth(params, points));
  const BucketPipelineStats pipeline = run_bucket_pipeline(
      points, buckets, jobs, options,
      [&](linalg::DenseMatrix&& block, const lsh::Bucket& bucket,
          const BucketJob& job) {
        const auto& indices = bucket.indices;
        const std::size_t local_p = std::min(p, indices.size());
        const clustering::KernelPcaResult local =
            clustering::kernel_pca(block, local_p);
        for (std::size_t i = 0; i < indices.size(); ++i) {
          result.bucket_of_point[indices[i]] = job.index;
          for (std::size_t c = 0; c < local_p; ++c) {
            result.embedding(indices[i], c) = local.embedding(i, c);
          }
        }
      });
  fold_pipeline_stats(pipeline, result.stats);
  return result;
}

}  // namespace dasc::core
