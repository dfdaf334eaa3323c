// Streaming DASC: dasc_cluster at a one-block in-flight budget — the
// paper's "incrementally processed, split by split" (Section 5.1). Each
// bucket's Gram block is built, clustered and discarded before the next
// is admitted, so peak tracked matrix memory is O(max_i Ni^2) instead of
// O(sum_i Ni^2), with labels identical to the unbounded run.
#include <gtest/gtest.h>

#include "clustering/metrics.hpp"
#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "core/dasc_clusterer.hpp"
#include "data/synthetic.hpp"

namespace dasc::core {
namespace {

data::PointSet blobs(std::size_t n, std::size_t k, std::uint64_t seed) {
  dasc::Rng rng(seed);
  data::MixtureParams params;
  params.n = n;
  params.dim = 12;
  params.k = k;
  params.cluster_stddev = 0.03;
  return data::make_gaussian_mixture(params, rng);
}

DascResult one_block_dasc(const data::PointSet& points, DascParams params,
                          dasc::Rng& rng) {
  params.max_inflight_blocks = 1;
  return dasc_cluster(points, params, rng);
}

TEST(StreamingDasc, MatchesBatchDriverExactly) {
  const data::PointSet points = blobs(300, 4, 1011);
  DascParams params;
  params.k = 4;
  params.threads = 1;

  dasc::Rng r1(9);
  const DascResult batch = dasc_cluster(points, params, r1);
  dasc::Rng r2(9);
  const DascResult streaming = one_block_dasc(points, params, r2);

  EXPECT_EQ(streaming.labels, batch.labels);
  EXPECT_EQ(streaming.num_clusters, batch.num_clusters);
  EXPECT_EQ(streaming.stats.merged_buckets, batch.stats.merged_buckets);
}

TEST(StreamingDasc, PeakMatrixMemoryIsBoundedByLargestBlock) {
  // The point of the one-block budget: the tracked high-water mark for
  // matrix memory stays near ONE block, not the sum of all blocks.
  const data::PointSet points = blobs(600, 6, 1012);
  DascParams params;
  params.k = 6;
  params.m = 8;

  dasc::Rng rng(10);
  MemoryTracker::reset_peak();
  const std::size_t before = MemoryTracker::current();
  const DascResult result = one_block_dasc(points, params, rng);
  const std::size_t peak_delta = MemoryTracker::peak() - before;

  // Tracked peak must stay well under the total approximated Gram
  // footprint whenever the data spreads over several buckets of
  // comparable size. (gram_bytes now reports actual double bytes.)
  ASSERT_GT(result.stats.merged_buckets, 2u);
  EXPECT_LT(peak_delta, result.stats.gram_bytes);
  // And it must be at least the largest single block.
  EXPECT_GE(peak_delta, result.stats.peak_block_bytes);
}

TEST(StreamingDasc, PeakBlockBytesReported) {
  const data::PointSet points = blobs(200, 4, 1013);
  DascParams params;
  params.k = 4;
  dasc::Rng rng(11);
  const DascResult result = one_block_dasc(points, params, rng);
  EXPECT_EQ(result.stats.peak_block_bytes,
            linalg::gram_entry_bytes(result.stats.largest_bucket *
                                     result.stats.largest_bucket));
}

TEST(StreamingDasc, WorksWithBalancingCap) {
  const data::PointSet points = blobs(400, 4, 1014);
  DascParams params;
  params.k = 4;
  params.m = 4;
  params.max_bucket_points = 64;
  dasc::Rng rng(12);
  const DascResult result = one_block_dasc(points, params, rng);
  EXPECT_LE(result.stats.peak_block_bytes,
            linalg::gram_entry_bytes(64u * 64u));
  EXPECT_GT(clustering::clustering_purity(result.labels, points.labels()),
            0.9);
}

TEST(StreamingDasc, RejectsEmptyDataset) {
  DascParams params;
  dasc::Rng rng(13);
  EXPECT_THROW(one_block_dasc(data::PointSet(), params, rng),
               dasc::InvalidArgument);
}

}  // namespace
}  // namespace dasc::core
