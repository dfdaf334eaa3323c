#include "core/kernel_approximator.hpp"

#include <gtest/gtest.h>

#include <set>

#include "clustering/kernel.hpp"
#include "common/error.hpp"
#include "data/synthetic.hpp"

namespace dasc::core {
namespace {

data::PointSet blobs(std::size_t n, std::size_t k, std::uint64_t seed) {
  dasc::Rng rng(seed);
  data::MixtureParams params;
  params.n = n;
  params.dim = 16;
  params.k = k;
  params.cluster_stddev = 0.03;
  return data::make_gaussian_mixture(params, rng);
}

TEST(ParamResolution, SignatureBitsAutoRule) {
  DascParams params;
  EXPECT_EQ(resolve_signature_bits(params, 1024), 4u);
  params.m = 12;
  EXPECT_EQ(resolve_signature_bits(params, 1024), 12u);
  params.m = 100;
  EXPECT_THROW(resolve_signature_bits(params, 1024), dasc::InvalidArgument);
}

TEST(ParamResolution, MergeBitsDefaultIsMMinusOne) {
  DascParams params;
  EXPECT_EQ(resolve_merge_bits(params, 8), 7u);
  EXPECT_EQ(resolve_merge_bits(params, 1), 1u);
  params.p = 5;
  EXPECT_EQ(resolve_merge_bits(params, 8), 5u);
  params.p = 9;
  EXPECT_THROW(resolve_merge_bits(params, 8), dasc::InvalidArgument);
}

TEST(ParamResolution, ClusterCountUsesWikiFit) {
  DascParams params;
  EXPECT_EQ(resolve_cluster_count(params, 1024), 17u);
  EXPECT_EQ(resolve_cluster_count(params, 512), 2u);  // clamped up to 2
  params.k = 5;
  EXPECT_EQ(resolve_cluster_count(params, 1024), 5u);
  params.k = 2000;
  EXPECT_EQ(resolve_cluster_count(params, 1024), 1024u);  // clamped to N
}

TEST(BucketPoints, PartitionsTheDataset) {
  const data::PointSet points = blobs(300, 4, 111);
  DascParams params;
  dasc::Rng rng(1);
  ApproximatorStats stats;
  const auto buckets = bucket_points(points, params, rng, &stats);

  std::set<std::size_t> seen;
  for (const auto& bucket : buckets) {
    for (std::size_t idx : bucket.indices) {
      EXPECT_TRUE(seen.insert(idx).second);
    }
  }
  EXPECT_EQ(seen.size(), 300u);
  EXPECT_EQ(stats.merged_buckets, buckets.size());
  EXPECT_GE(stats.raw_buckets, stats.merged_buckets);
  EXPECT_EQ(stats.signature_bits, 4u);  // auto for N=300 -> ceil(8.23/2)-1=4
}

TEST(ApproximateKernel, BlocksMatchDirectKernelEvaluation) {
  const data::PointSet points = blobs(150, 3, 112);
  DascParams params;
  params.sigma = 0.4;
  dasc::Rng rng(2);
  const BlockGram gram = approximate_kernel(points, params, rng);

  for (std::size_t b = 0; b < gram.num_blocks(); ++b) {
    const auto& indices = gram.bucket(b).indices;
    const linalg::DenseMatrix expected =
        clustering::gaussian_gram_subset(points, indices, 0.4);
    EXPECT_DOUBLE_EQ(gram.block(b).max_abs_diff(expected), 0.0);
  }
}

TEST(ApproximateKernel, FrobeniusNeverExceedsFullGram) {
  const data::PointSet points = blobs(200, 4, 113);
  DascParams params;
  params.sigma = 0.3;
  dasc::Rng rng(3);
  const BlockGram approx = approximate_kernel(points, params, rng);
  const linalg::DenseMatrix full =
      clustering::gaussian_gram(points, 0.3);
  // The approximation zeroes entries, so Fnorm(approx) <= Fnorm(full).
  EXPECT_LE(approx.frobenius_norm(), full.frobenius_norm() + 1e-9);
  EXPECT_GT(approx.frobenius_norm(), 0.0);
}

TEST(ApproximateKernel, ToDenseAgreesWithBlocks) {
  const data::PointSet points = blobs(80, 2, 114);
  DascParams params;
  params.sigma = 0.5;
  dasc::Rng rng(4);
  const BlockGram approx = approximate_kernel(points, params, rng);
  const linalg::DenseMatrix dense = approx.to_dense();
  EXPECT_EQ(dense.rows(), 80u);
  EXPECT_NEAR(dense.frobenius_norm(), approx.frobenius_norm(), 1e-9);
  EXPECT_TRUE(dense.is_symmetric(1e-12));
}

TEST(ApproximateKernel, StatsReflectCompression) {
  const data::PointSet points = blobs(400, 8, 115);
  DascParams params;
  params.m = 8;  // plenty of buckets
  dasc::Rng rng(5);
  ApproximatorStats stats;
  const BlockGram gram = approximate_kernel(points, params, rng, &stats);

  EXPECT_EQ(stats.gram_bytes, gram.gram_bytes());
  EXPECT_EQ(stats.full_gram_bytes, linalg::gram_entry_bytes(400u * 400u));
  EXPECT_LT(stats.gram_bytes, stats.full_gram_bytes);
  EXPECT_GT(stats.fill_ratio, 0.0);
  EXPECT_LT(stats.fill_ratio, 1.0);
  EXPECT_GE(stats.largest_bucket, 1u);
}

TEST(ApproximateKernel, MoreBitsMeansMoreBucketsAndLessMemory) {
  const data::PointSet points = blobs(500, 8, 116);
  std::size_t prev_buckets = 0;
  std::size_t prev_bytes = SIZE_MAX;
  for (std::size_t m : {2u, 4u, 8u}) {
    DascParams params;
    params.m = m;
    params.p = m;  // no merging, isolate bucket-count effect
    dasc::Rng rng(6);
    ApproximatorStats stats;
    approximate_kernel(points, params, rng, &stats);
    EXPECT_GE(stats.merged_buckets, prev_buckets);
    EXPECT_LE(stats.gram_bytes, prev_bytes);
    prev_buckets = stats.merged_buckets;
    prev_bytes = stats.gram_bytes;
  }
}

TEST(ApproximateKernel, AllHashFamiliesProduceValidPartitions) {
  const data::PointSet points = blobs(150, 3, 117);
  for (HashFamily family :
       {HashFamily::kRandomProjection, HashFamily::kMinHash,
        HashFamily::kSimHash}) {
    DascParams params;
    params.family = family;
    dasc::Rng rng(7);
    const BlockGram gram = approximate_kernel(points, params, rng);
    std::size_t covered = 0;
    for (std::size_t b = 0; b < gram.num_blocks(); ++b) {
      covered += gram.bucket(b).indices.size();
    }
    EXPECT_EQ(covered, 150u);
  }
}

TEST(BalanceBuckets, CapsEveryBucket) {
  const data::PointSet points = blobs(300, 2, 118);
  DascParams params;
  params.m = 2;  // coarse hash: guaranteed oversized buckets
  params.p = 2;
  dasc::Rng rng(8);
  auto buckets = bucket_points(points, params, rng);
  const auto balanced = balance_buckets(points, std::move(buckets), 40);

  std::set<std::size_t> seen;
  for (const auto& bucket : balanced) {
    EXPECT_LE(bucket.indices.size(), 40u);
    for (std::size_t idx : bucket.indices) {
      EXPECT_TRUE(seen.insert(idx).second);
    }
  }
  EXPECT_EQ(seen.size(), 300u);  // still a partition
}

TEST(BalanceBuckets, NoOpWhenAlreadyUnderCap) {
  const data::PointSet points = blobs(100, 4, 119);
  DascParams params;
  params.m = 8;
  dasc::Rng rng(9);
  auto buckets = bucket_points(points, params, rng);
  const std::size_t before = buckets.size();
  const auto balanced =
      balance_buckets(points, std::move(buckets), points.size());
  EXPECT_EQ(balanced.size(), before);
}

TEST(BalanceBuckets, CoincidentPointsCannotSplit) {
  // 50 identical points: the cap is unattainable; the bucket must survive
  // unsplit instead of looping forever.
  const data::PointSet points(50, 2, std::vector<double>(100, 0.5));
  std::vector<lsh::Bucket> buckets(1);
  for (std::size_t i = 0; i < 50; ++i) buckets[0].indices.push_back(i);
  const auto balanced = balance_buckets(points, std::move(buckets), 10);
  ASSERT_EQ(balanced.size(), 1u);
  EXPECT_EQ(balanced[0].indices.size(), 50u);
}

TEST(BalanceBuckets, SplitsAlongWidestDimension) {
  // Points spread along dim 1 only; the median split must produce two
  // halves separated in that dimension.
  data::PointSet points(20, 2);
  for (std::size_t i = 0; i < 20; ++i) {
    points.at(i, 0) = 0.5;
    points.at(i, 1) = static_cast<double>(i) / 20.0;
  }
  std::vector<lsh::Bucket> buckets(1);
  for (std::size_t i = 0; i < 20; ++i) buckets[0].indices.push_back(i);
  const auto balanced = balance_buckets(points, std::move(buckets), 10);
  ASSERT_EQ(balanced.size(), 2u);
  EXPECT_EQ(balanced[0].indices.size(), 10u);
  EXPECT_EQ(balanced[1].indices.size(), 10u);
  // One half holds indices 0..9, the other 10..19 (median split on dim 1).
  const auto& low = balanced[0].indices[0] == 0 ? balanced[0] : balanced[1];
  for (std::size_t pos = 0; pos < 10; ++pos) {
    EXPECT_EQ(low.indices[pos], pos);
  }
}

TEST(BalanceBuckets, OutputIsLargestFirstAndStable) {
  // The executor plans label offsets from the bucket order, so the order
  // contract matters: sizes non-increasing, and the order (including ties)
  // identical on every call with the same input.
  const data::PointSet points = blobs(300, 3, 121);
  DascParams params;
  params.m = 2;  // coarse hash: some buckets exceed the cap and split
  params.p = 2;
  dasc::Rng rng(10);
  auto run = [&points](std::vector<lsh::Bucket> input) {
    return balance_buckets(points, std::move(input), 40);
  };
  dasc::Rng rng2(10);
  const auto first = run(bucket_points(points, params, rng));
  const auto second = run(bucket_points(points, params, rng2));

  ASSERT_FALSE(first.empty());
  for (std::size_t b = 1; b < first.size(); ++b) {
    EXPECT_GE(first[b - 1].indices.size(), first[b].indices.size());
  }
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t b = 0; b < first.size(); ++b) {
    EXPECT_EQ(first[b].indices, second[b].indices);
  }
}

TEST(BalanceBuckets, MembersTiedAtTheMinimumStillSplit) {
  // 200 points at x = 0 and 100 at x = 1: the median is 0, so nothing lies
  // below it; the tied members must form one side instead of the bucket
  // staying whole above the cap.
  data::PointSet points(300, 1);
  for (std::size_t i = 200; i < 300; ++i) points.at(i, 0) = 1.0;
  std::vector<lsh::Bucket> buckets(1);
  for (std::size_t i = 0; i < 300; ++i) buckets[0].indices.push_back(i);
  const auto balanced = balance_buckets(points, std::move(buckets), 256);
  ASSERT_EQ(balanced.size(), 2u);
  ASSERT_EQ(balanced[0].indices.size(), 200u);
  ASSERT_EQ(balanced[1].indices.size(), 100u);
  EXPECT_EQ(balanced[0].indices.front(), 0u);
  EXPECT_EQ(balanced[1].indices.front(), 200u);

  // Sparse rows: the tied side is itself over the cap and splits again
  // along the dimension where it still has a span.
  data::PointSet sparse(400, 2);
  for (std::size_t i = 0; i < 300; ++i) {
    sparse.at(i, 1) = static_cast<double>(i) / 1000.0;
  }
  for (std::size_t i = 300; i < 400; ++i) sparse.at(i, 0) = 1.0;
  std::vector<lsh::Bucket> whole(1);
  for (std::size_t i = 0; i < 400; ++i) whole[0].indices.push_back(i);
  const auto split = balance_buckets(sparse, std::move(whole), 256);
  std::set<std::size_t> seen;
  for (const auto& bucket : split) {
    EXPECT_LE(bucket.indices.size(), 256u);
    for (std::size_t idx : bucket.indices) {
      EXPECT_TRUE(seen.insert(idx).second);
    }
  }
  EXPECT_EQ(split.size(), 3u);
  EXPECT_EQ(seen.size(), 400u);
}

/// The serial walk balance_buckets parallelizes: one LIFO stack over every
/// bucket, the right child pushed last so it is split first. It predates
/// the rule for members tied at a minimum median, which the continuous
/// data it is compared on never triggers.
std::vector<lsh::Bucket> serial_balance(const data::PointSet& points,
                                        std::vector<lsh::Bucket> work,
                                        std::size_t max_points) {
  std::vector<lsh::Bucket> out;
  while (!work.empty()) {
    lsh::Bucket bucket = std::move(work.back());
    work.pop_back();
    if (bucket.indices.size() <= max_points) {
      out.push_back(std::move(bucket));
      continue;
    }
    std::size_t best_dim = 0;
    double best_span = -1.0;
    for (std::size_t dim = 0; dim < points.dim(); ++dim) {
      double lo = points.at(bucket.indices[0], dim);
      double hi = lo;
      for (std::size_t idx : bucket.indices) {
        lo = std::min(lo, points.at(idx, dim));
        hi = std::max(hi, points.at(idx, dim));
      }
      if (hi - lo > best_span) {
        best_span = hi - lo;
        best_dim = dim;
      }
    }
    std::vector<double> column;
    for (std::size_t idx : bucket.indices) {
      column.push_back(points.at(idx, best_dim));
    }
    auto mid = column.begin() + static_cast<std::ptrdiff_t>(column.size() / 2);
    std::nth_element(column.begin(), mid, column.end());
    const double median = *mid;
    lsh::Bucket left{bucket.signature, {}};
    lsh::Bucket right{bucket.signature, {}};
    for (std::size_t idx : bucket.indices) {
      (points.at(idx, best_dim) < median ? left : right)
          .indices.push_back(idx);
    }
    if (left.indices.empty()) {
      out.push_back(std::move(bucket));
      continue;
    }
    work.push_back(std::move(left));
    work.push_back(std::move(right));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const lsh::Bucket& x, const lsh::Bucket& y) {
                     return x.indices.size() > y.indices.size();
                   });
  return out;
}

TEST(BalanceBuckets, ParallelSplitMatchesTheSerialWalk) {
  // A coarse hash leaves a few buckets of ~500 points; a cap of 12 splits
  // each about six levels deep, into many equal-sized leaves whose order
  // is fixed only by the walk.
  const data::PointSet points = blobs(2000, 5, 122);
  DascParams params;
  params.m = 2;
  params.p = 2;
  dasc::Rng rng(11);
  const std::vector<lsh::Bucket> buckets = bucket_points(points, params, rng);
  ASSERT_GE(buckets.size(), 2u);
  const std::vector<lsh::Bucket> expected =
      serial_balance(points, buckets, 12);
  ASSERT_GE(expected.size(), 128u);

  for (const std::size_t threads : {1, 2, 4}) {
    const std::vector<lsh::Bucket> got =
        balance_buckets(points, buckets, 12, threads);
    ASSERT_EQ(got.size(), expected.size()) << threads << " threads";
    for (std::size_t b = 0; b < got.size(); ++b) {
      EXPECT_EQ(got[b].signature.bits, expected[b].signature.bits)
          << threads << " threads, bucket " << b;
      EXPECT_EQ(got[b].indices, expected[b].indices)
          << threads << " threads, bucket " << b;
    }
  }
}

TEST(BalanceBuckets, RejectsTinyCap) {
  const data::PointSet points = blobs(20, 2, 120);
  EXPECT_THROW(balance_buckets(points, {}, 1), dasc::InvalidArgument);
}

TEST(ApproximateKernel, BalancingCapReducesGramBytes) {
  const data::PointSet points = blobs(400, 2, 121);
  DascParams coarse;
  coarse.m = 2;
  coarse.p = 2;
  dasc::Rng r1(10);
  ApproximatorStats without_cap;
  bucket_points(points, coarse, r1, &without_cap);

  DascParams capped = coarse;
  capped.max_bucket_points = 50;
  dasc::Rng r2(10);
  ApproximatorStats with_cap;
  bucket_points(points, capped, r2, &with_cap);

  EXPECT_LT(with_cap.gram_bytes, without_cap.gram_bytes);
  EXPECT_LE(with_cap.largest_bucket, 50u);
}

TEST(BlockGram, ValidatesConstruction) {
  // Bucket/block shape mismatch must be rejected.
  std::vector<lsh::Bucket> buckets(1);
  buckets[0].indices = {0, 1};
  std::vector<linalg::DenseMatrix> blocks;
  blocks.emplace_back(3, 3);  // wrong size
  EXPECT_THROW(BlockGram(std::move(buckets), std::move(blocks), 2),
               dasc::InvalidArgument);

  // Buckets must cover all points.
  std::vector<lsh::Bucket> partial(1);
  partial[0].indices = {0};
  std::vector<linalg::DenseMatrix> small_blocks;
  small_blocks.emplace_back(1, 1);
  EXPECT_THROW(BlockGram(std::move(partial), std::move(small_blocks), 2),
               dasc::InvalidArgument);
}

}  // namespace
}  // namespace dasc::core
