#include "core/bucket_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/checksum.hpp"
#include "common/metrics.hpp"
#include "core/bucket_embedder.hpp"
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

std::vector<lsh::Bucket> toy_buckets(const std::vector<std::size_t>& sizes) {
  std::vector<lsh::Bucket> buckets(sizes.size());
  std::size_t next = 0;
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    for (std::size_t i = 0; i < sizes[b]; ++i) {
      buckets[b].indices.push_back(next++);
    }
  }
  return buckets;
}

TEST(PlanBucketJobs, DisjointLabelRangesAndTotals) {
  const auto buckets = toy_buckets({5, 3, 7});
  dasc::Rng rng(21);
  const auto jobs = plan_bucket_jobs(buckets, 6, 15, rng);

  ASSERT_EQ(jobs.size(), 3u);
  std::size_t expected_offset = 0;
  for (std::size_t b = 0; b < jobs.size(); ++b) {
    EXPECT_EQ(jobs[b].index, b);
    EXPECT_EQ(jobs[b].k_bucket,
              bucket_cluster_count(6, buckets[b].indices.size(), 15));
    EXPECT_EQ(jobs[b].label_offset, expected_offset);
    expected_offset += jobs[b].k_bucket;
  }
  EXPECT_EQ(total_label_count(jobs), expected_offset);
}

TEST(PlanBucketJobs, SeedsDeterministicAndDistinct) {
  const auto buckets = toy_buckets({4, 4, 4, 4});
  dasc::Rng r1(33);
  dasc::Rng r2(33);
  const auto a = plan_bucket_jobs(buckets, 4, 16, r1);
  const auto b = plan_bucket_jobs(buckets, 4, 16, r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
  // Seeds are overwhelmingly distinct draws, not a repeated constant.
  EXPECT_NE(a[0].seed, a[1].seed);

  const auto seedless = plan_bucket_jobs(buckets, 4, 16);
  for (const auto& job : seedless) EXPECT_EQ(job.seed, 0u);
}

TEST(BucketPipeline, BuildsEachBlockOnceWithPlannedShape) {
  const data::PointSet points = blobs(60, 3, 501);
  const auto buckets = toy_buckets({20, 25, 15});
  const auto jobs = plan_bucket_jobs(buckets, 3, 60);

  BucketPipelineOptions options;
  options.sigma = 0.5;
  options.threads = 4;
  std::vector<int> calls(buckets.size(), 0);
  std::mutex mutex;
  const auto stats = run_bucket_pipeline(
      points, buckets, jobs, options,
      [&](linalg::DenseMatrix&& block, const lsh::Bucket& bucket,
          const BucketJob& job) {
        std::lock_guard lock(mutex);
        ++calls[job.index];
        EXPECT_EQ(block.rows(), bucket.indices.size());
        EXPECT_EQ(block.cols(), bucket.indices.size());
      });

  EXPECT_TRUE(std::all_of(calls.begin(), calls.end(),
                          [](int c) { return c == 1; }));
  EXPECT_EQ(stats.buckets, buckets.size());
  EXPECT_EQ(stats.peak_block_bytes, linalg::gram_entry_bytes(25u * 25u));
  EXPECT_EQ(stats.total_block_bytes,
            linalg::gram_entry_bytes(20u * 20u + 25u * 25u + 15u * 15u));
  EXPECT_GE(stats.peak_inflight_bytes, stats.peak_block_bytes);
  EXPECT_LE(stats.peak_inflight_bytes, stats.total_block_bytes);
}

TEST(BucketPipeline, OneBlockBudgetNeverHoldsTwoBlocks) {
  const data::PointSet points = blobs(90, 3, 502);
  const auto buckets = toy_buckets({30, 30, 30});
  const auto jobs = plan_bucket_jobs(buckets, 3, 90);

  BucketPipelineOptions options;
  options.sigma = 0.5;
  options.threads = 4;
  options.max_inflight_blocks = 1;
  const auto stats = run_bucket_pipeline(
      points, buckets, jobs, options,
      [](linalg::DenseMatrix&&, const lsh::Bucket&, const BucketJob&) {});

  // Serialized blocks: the in-flight high-water equals ONE block.
  EXPECT_EQ(stats.peak_inflight_bytes, linalg::gram_entry_bytes(30u * 30u));
  EXPECT_EQ(stats.peak_block_bytes, linalg::gram_entry_bytes(30u * 30u));
}

TEST(BucketPipeline, ConsumerExceptionPropagates) {
  const data::PointSet points = blobs(20, 2, 503);
  const auto buckets = toy_buckets({10, 10});
  const auto jobs = plan_bucket_jobs(buckets, 2, 20);
  BucketPipelineOptions options;
  options.sigma = 0.5;
  options.threads = 2;
  EXPECT_THROW(
      run_bucket_pipeline(points, buckets, jobs, options,
                          [](linalg::DenseMatrix&&, const lsh::Bucket&,
                             const BucketJob&) {
                            throw std::runtime_error("consumer failed");
                          }),
      std::runtime_error);
}

TEST(DascDeterminism, LabelsIdenticalAcrossThreadCounts) {
  const data::PointSet points = blobs(400, 5, 504);
  DascParams params;
  params.k = 5;
  params.m = 8;

  params.threads = 1;
  dasc::Rng r1(77);
  const DascResult serial = dasc_cluster(points, params, r1);

  params.threads = 8;
  dasc::Rng r8(77);
  const DascResult threaded = dasc_cluster(points, params, r8);

  ASSERT_GT(serial.stats.merged_buckets, 2u);
  EXPECT_EQ(serial.labels, threaded.labels);
  EXPECT_EQ(serial.num_clusters, threaded.num_clusters);
}

TEST(DascDeterminism, LabelsIdenticalAcrossInflightBudgets) {
  const data::PointSet points = blobs(300, 4, 505);
  DascParams params;
  params.k = 4;
  params.m = 8;
  params.threads = 8;

  dasc::Rng r1(78);
  const DascResult unlimited = dasc_cluster(points, params, r1);

  params.max_inflight_blocks = 1;
  dasc::Rng r2(78);
  const DascResult one_block = dasc_cluster(points, params, r2);

  EXPECT_EQ(unlimited.labels, one_block.labels);
}

TEST(DascDeterminism, ThreadedBatchMatchesStreaming) {
  const data::PointSet points = blobs(300, 4, 506);
  DascParams params;
  params.k = 4;
  params.m = 8;
  params.threads = 8;

  dasc::Rng r1(79);
  const DascResult batch = dasc_cluster(points, params, r1);
  params.max_inflight_blocks = 1;  // streaming: one Gram block at a time
  dasc::Rng r2(79);
  const DascResult streaming = dasc_cluster(points, params, r2);

  EXPECT_EQ(batch.labels, streaming.labels);
  EXPECT_EQ(batch.num_clusters, streaming.num_clusters);
}

TEST(DascDeterminism, OneBlockBudgetBoundsPeakGramBytes) {
  const data::PointSet points = blobs(400, 4, 507);
  DascParams params;
  params.k = 8;  // k_bucket >= 2 for the largest bucket: it builds a block
  params.m = 8;
  params.threads = 8;
  params.max_inflight_blocks = 1;

  dasc::Rng rng(80);
  const DascResult result = dasc_cluster(points, params, rng);

  ASSERT_GT(result.stats.merged_buckets, 2u);
  const std::size_t largest_block_bytes = linalg::gram_entry_bytes(
      result.stats.largest_bucket * result.stats.largest_bucket);
  EXPECT_EQ(result.stats.peak_block_bytes, largest_block_bytes);
  EXPECT_LE(result.stats.peak_inflight_bytes, largest_block_bytes);
  // The budget changed memory, not the answer: all labels valid.
  for (int label : result.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, static_cast<int>(result.num_clusters));
  }
}

// --- Trivial buckets take no Gram block ---

TEST(TrivialBucketSkip, PlanSkipsTrivialBlocksAndNoPlanBuildsAll) {
  const data::PointSet points = blobs(40, 2, 509);
  // k_bucket = ceil(8 * n / 40): 1 for the 4- and 2-point buckets (and the
  // 2-point one is trivial at any k), 2 and 3 for the others.
  const auto buckets = toy_buckets({10, 4, 12, 2, 12});
  const auto jobs = plan_bucket_jobs(buckets, 8, 40);
  DascParams params;
  const EmbedderSet embedders(params, 0.5);

  for (const bool with_plan : {true, false}) {
    SCOPED_TRACE(with_plan ? "embedder plan" : "no plan");
    MetricsRegistry metrics;
    BucketPipelineOptions options;
    options.sigma = 0.5;
    options.threads = 2;
    options.max_inflight_blocks = 1;
    options.metrics = &metrics;
    if (with_plan) options.embedders = embedders.plan(buckets);
    std::mutex mutex;
    std::vector<std::size_t> rows(buckets.size(), 99);
    const BucketPipelineStats stats = run_bucket_pipeline(
        points, buckets, jobs, options,
        [&](linalg::DenseMatrix&& block, const lsh::Bucket&,
            const BucketJob& job) {
          std::lock_guard lock(mutex);
          rows[job.index] = block.rows();
        });

    // Every consumer ran; a planned trivial bucket saw an empty block.
    const std::vector<std::size_t> expected_rows =
        with_plan ? std::vector<std::size_t>{10, 0, 12, 0, 12}
                  : std::vector<std::size_t>{10, 4, 12, 2, 12};
    EXPECT_EQ(rows, expected_rows);
    const std::size_t skipped = with_plan ? 2 : 0;
    std::size_t built = 0;
    for (const std::size_t n : expected_rows) {
      built += linalg::gram_entry_bytes(n * n);
    }
    EXPECT_EQ(stats.skipped_blocks, skipped);
    EXPECT_EQ(stats.total_block_bytes, built);
    EXPECT_EQ(stats.peak_block_bytes, linalg::gram_entry_bytes(12u * 12u));
    EXPECT_EQ(metrics.counter_value("pipeline.gram_blocks_skipped"),
              static_cast<std::int64_t>(skipped));
    EXPECT_EQ(metrics.counter_value("pipeline.blocks_admitted"),
              static_cast<std::int64_t>(buckets.size() - skipped));
    EXPECT_EQ(metrics.timer_count("pipeline.gram_build"),
              static_cast<std::int64_t>(buckets.size() - skipped));
    EXPECT_EQ(metrics.timer_count("pipeline.consume"),
              static_cast<std::int64_t>(buckets.size()));
  }
}

// Golden labels for a dasc_cluster run that mixes trivial (k_bucket = 1)
// and non-trivial buckets. The CRC-32 of the label vector was recorded
// while every bucket still built its Gram block; skipping the blocks no
// one reads must not move a label at any thread count or in-flight budget.
constexpr std::uint32_t kMixedTrivialLabelCrc = 0xe060c53du;

TEST(TrivialBucketSkip, MixedRunLabelsMatchRecordedCrcAndBuildOnlyNonTrivial) {
  // Uniform points spread over buckets of uneven size, so k_bucket =
  // ceil(24 n / 600) is 1 for some buckets and at least 2 for others.
  dasc::Rng data_rng(508);
  const data::PointSet points = data::make_uniform(600, 8, data_rng);
  DascParams base;
  base.k = 24;
  base.m = 6;
  base.max_bucket_points = 128;

  // The buckets and jobs dasc_cluster plans for this seed.
  dasc::Rng plan_rng(81);
  const std::vector<lsh::Bucket> buckets =
      bucket_points(points, base, plan_rng);
  const std::vector<BucketJob> jobs = plan_bucket_jobs(
      buckets, resolve_cluster_count(base, points.size()), points.size(),
      plan_rng);
  std::int64_t trivial = 0;
  std::size_t non_trivial_bytes = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::size_t n = buckets[b].indices.size();
    if (trivial_bucket(n, jobs[b].k_bucket)) {
      ++trivial;
    } else {
      non_trivial_bytes += BucketEmbedder::dense_bytes(n);
    }
  }
  ASSERT_GT(trivial, 0);
  ASSERT_LT(trivial, static_cast<std::int64_t>(buckets.size()));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t inflight : {std::size_t{0}, std::size_t{1}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " max_inflight_blocks=" + std::to_string(inflight));
      MetricsRegistry metrics;
      DascParams params = base;
      params.threads = threads;
      params.max_inflight_blocks = inflight;
      params.metrics = &metrics;
      dasc::Rng rng(81);
      const DascResult result = dasc_cluster(points, params, rng);
      const std::uint32_t crc = crc32(std::string_view(
          reinterpret_cast<const char*>(result.labels.data()),
          result.labels.size() * sizeof(int)));
      EXPECT_EQ(crc, kMixedTrivialLabelCrc);
      EXPECT_EQ(metrics.counter_value("pipeline.gram_bytes_built"),
                static_cast<std::int64_t>(non_trivial_bytes));
      EXPECT_EQ(metrics.counter_value("pipeline.gram_blocks_skipped"),
                trivial);
    }
  }
}

}  // namespace
}  // namespace dasc::core
