#include "core/dasc_mapreduce.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstring>
#include <limits>

#include "clustering/metrics.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "core/dasc_clusterer.hpp"
#include "data/dataset_io.hpp"
#include "mapreduce/virtual_cluster.hpp"
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

TEST(MemberCodec, RoundTrip) {
  const std::vector<double> point{0.25, -1.5, 3.14159};
  const std::string encoded = encode_member(42, point);
  const auto [index, decoded] = decode_member(encoded);
  EXPECT_EQ(index, 42u);
  ASSERT_EQ(decoded.size(), 3u);
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_DOUBLE_EQ(decoded[d], point[d]);
  }
}

TEST(MemberCodec, RejectsMalformedValue) {
  EXPECT_THROW(decode_member("no separator here"), dasc::InvalidArgument);
}

TEST(MemberCodec, RoundTripIsBitExact) {
  const double inf = std::numeric_limits<double>::infinity();
  const double subnormal = std::numeric_limits<double>::denorm_min();
  const std::vector<double> point{-0.0, subnormal, inf, -inf, DBL_MAX, 0.1};
  const std::size_t max_index = std::numeric_limits<std::uint64_t>::max();
  const std::string encoded = encode_member(max_index, point);
  EXPECT_EQ(encoded.size(), 8 + 8 * point.size());
  const auto [index, decoded] = decode_member(encoded);
  EXPECT_EQ(index, max_index);
  ASSERT_EQ(decoded.size(), point.size());
  EXPECT_EQ(std::memcmp(decoded.data(), point.data(),
                        point.size() * sizeof(double)),
            0);
}

TEST(MemberCodec, ZeroDimensionalPointRoundTrips) {
  const std::string encoded = encode_member(7, {});
  EXPECT_EQ(encoded.size(), 8u);
  const auto [index, decoded] = decode_member(encoded);
  EXPECT_EQ(index, 7u);
  EXPECT_TRUE(decoded.empty());
}

TEST(MemberCodec, RejectsTruncatedOrMisalignedValues) {
  for (std::size_t size = 0; size < 8; ++size) {
    EXPECT_THROW(decode_member(std::string(size, '\x01')),
                 dasc::InvalidArgument)
        << size << " bytes";
  }
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t r = 1; r < 8; ++r) {
      const std::size_t size = 8 + 8 * k + r;
      EXPECT_THROW(decode_member(std::string(size, '\x01')),
                   dasc::InvalidArgument)
          << size << " bytes";
    }
  }
}

TEST(MapReduceDasc, ProducesValidLabeling) {
  const data::PointSet points = blobs(200, 4, 311);
  MapReduceDascParams params;
  params.dasc.k = 4;
  dasc::Rng rng(1);
  const MapReduceDascResult result =
      dasc_cluster_mapreduce(points, params, rng);

  ASSERT_EQ(result.labels.size(), 200u);
  for (int label : result.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, static_cast<int>(result.num_clusters));
  }
  EXPECT_GT(result.num_clusters, 0u);
}

TEST(MapReduceDasc, AccuracyComparableToInProcessPipeline) {
  const data::PointSet points = blobs(300, 3, 312);

  MapReduceDascParams mr_params;
  mr_params.dasc.k = 3;
  dasc::Rng mr_rng(2);
  const auto mr = dasc_cluster_mapreduce(points, mr_params, mr_rng);
  const double mr_acc =
      clustering::clustering_accuracy(mr.labels, points.labels());

  DascParams local_params;
  local_params.k = 3;
  dasc::Rng local_rng(2);
  const auto local = dasc_cluster(points, local_params, local_rng);
  const double local_acc =
      clustering::clustering_accuracy(local.labels, points.labels());

  EXPECT_GT(mr_acc, 0.85);
  EXPECT_NEAR(mr_acc, local_acc, 0.1);
}

TEST(MapReduceDasc, JobAccountingIsPopulated) {
  const data::PointSet points = blobs(256, 4, 313);
  MapReduceDascParams params;
  params.dasc.k = 4;
  params.conf.split_records = 64;
  dasc::Rng rng(3);
  const auto result = dasc_cluster_mapreduce(points, params, rng);

  EXPECT_EQ(result.lsh_job.counters.map_input_records, 256u);
  EXPECT_EQ(result.lsh_job.counters.map_output_records, 256u);
  EXPECT_EQ(result.lsh_job.num_map_tasks, 4u);  // 256 / 64
  EXPECT_EQ(result.cluster_job.counters.reduce_input_groups,
            result.stats.merged_buckets);
  EXPECT_GT(result.simulated_seconds, 0.0);
  EXPECT_GE(result.real_seconds, 0.0);
  EXPECT_LT(result.stats.gram_bytes, result.stats.full_gram_bytes);
}

TEST(MapReduceDasc, StatsMatchInProcessBucketing) {
  const data::PointSet points = blobs(200, 4, 314);

  MapReduceDascParams mr_params;
  mr_params.dasc.k = 4;
  dasc::Rng mr_rng(4);
  const auto mr = dasc_cluster_mapreduce(points, mr_params, mr_rng);

  DascParams local_params = mr_params.dasc;
  dasc::Rng local_rng(4);
  ApproximatorStats local_stats;
  bucket_points(points, local_params, local_rng, &local_stats);

  // Same seed -> same fitted hasher -> identical bucketing statistics.
  EXPECT_EQ(mr.stats.signature_bits, local_stats.signature_bits);
  EXPECT_EQ(mr.stats.raw_buckets, local_stats.raw_buckets);
  EXPECT_EQ(mr.stats.merged_buckets, local_stats.merged_buckets);
  EXPECT_EQ(mr.stats.largest_bucket, local_stats.largest_bucket);
}

TEST(MapReduceDasc, MoreNodesReduceSimulatedTime) {
  // Run once, then reschedule the SAME measured task durations onto wider
  // clusters (re-running would compare two noisy measurements and flake).
  const data::PointSet points = blobs(512, 8, 315);
  MapReduceDascParams params;
  params.dasc.k = 8;
  params.conf.split_records = 32;
  dasc::Rng rng(5);
  const auto result = dasc_cluster_mapreduce(points, params, rng);

  auto simulated = [&](std::size_t nodes) {
    return mapreduce::makespan_lpt(result.lsh_job.map_task_seconds, nodes,
                                   4) +
           mapreduce::makespan_lpt(result.lsh_job.reduce_task_seconds,
                                   nodes, 2) +
           mapreduce::makespan_lpt(result.cluster_job.map_task_seconds,
                                   nodes, 4) +
           mapreduce::makespan_lpt(result.cluster_job.reduce_task_seconds,
                                   nodes, 2);
  };
  EXPECT_LE(simulated(16), simulated(1));
  EXPECT_GT(simulated(1), 0.0);
}

TEST(MapReduceDasc, DfsVariantMatchesInMemoryPipeline) {
  const data::PointSet points = blobs(150, 3, 317);

  // Stage the dataset in the DFS, one record per line.
  mapreduce::DfsConfig dfs_config;
  dfs_config.block_size_bytes = 2048;
  mapreduce::Dfs dfs(dfs_config);
  std::vector<std::string> lines;
  lines.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    lines.push_back(data::point_to_record(points.point(i)));
  }
  dfs.write_file("/data/points", lines);

  MapReduceDascParams params;
  params.dasc.k = 3;
  dasc::Rng r1(7);
  const auto from_dfs = dasc_cluster_mapreduce_dfs(dfs, "/data/points",
                                                   "/out/dasc", params, r1);
  dasc::Rng r2(7);
  const auto in_memory = dasc_cluster_mapreduce(points, params, r2);

  EXPECT_EQ(from_dfs.labels, in_memory.labels);
  EXPECT_EQ(from_dfs.num_clusters, in_memory.num_clusters);
  EXPECT_GT(from_dfs.lsh_job.num_map_tasks, 1u);  // block-local splits

  // The assignment landed in the DFS.
  const auto out = dfs.read_file("/out/dasc/part-r-00000");
  ASSERT_EQ(out.size(), points.size());
  EXPECT_NE(out[0].find('\t'), std::string::npos);
}

TEST(MapReduceDasc, DfsVariantRejectsBadInput) {
  mapreduce::Dfs dfs({});
  MapReduceDascParams params;
  dasc::Rng rng(8);
  EXPECT_THROW(
      dasc_cluster_mapreduce_dfs(dfs, "/missing", "/out", params, rng),
      dasc::IoError);
  dfs.write_file("/ragged", {"1.0,2.0", "3.0"});
  EXPECT_THROW(
      dasc_cluster_mapreduce_dfs(dfs, "/ragged", "/out", params, rng),
      dasc::InvalidArgument);
}

// Golden labels: the CRC-32 of the label vector on one fixed problem, as the
// decimal text record format produced it. The binary codec moves every
// coordinate bit-exactly and keeps the stage-2 reduce keys, so the labels
// must not move on any path.
constexpr std::uint32_t kGoldenLabelCrc = 0xa2d2e302u;

std::uint32_t label_crc(const std::vector<int>& labels) {
  return crc32(std::string_view(reinterpret_cast<const char*>(labels.data()),
                                labels.size() * sizeof(int)));
}

MapReduceDascParams golden_params() {
  MapReduceDascParams params;
  params.dasc.k = 6;
  params.dasc.max_bucket_points = 48;  // split buckets share a signature
  params.conf.split_records = 64;
  params.conf.num_reducers = 3;
  return params;
}

TEST(MapReduceDascGolden, InProcessLabelsMatchTextCodecLabels) {
  const data::PointSet points = blobs(600, 6, 320);
  dasc::Rng rng(11);
  const auto result = dasc_cluster_mapreduce(points, golden_params(), rng);
  EXPECT_EQ(label_crc(result.labels), kGoldenLabelCrc);
}

TEST(MapReduceDascGolden, SpilledLabelsMatchTextCodecLabels) {
  const data::PointSet points = blobs(600, 6, 320);
  MapReduceDascParams params = golden_params();
  params.dasc.spill_budget_bytes = 4096;
  dasc::Rng rng(11);
  const auto result = dasc_cluster_mapreduce(points, params, rng);
  EXPECT_EQ(label_crc(result.labels), kGoldenLabelCrc);
}

TEST(MapReduceDascGolden, DfsLabelsMatchTextCodecLabels) {
  const data::PointSet points = blobs(600, 6, 320);
  mapreduce::DfsConfig dfs_config;
  dfs_config.block_size_bytes = 8192;
  mapreduce::Dfs dfs(dfs_config);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < points.size(); ++i) {
    lines.push_back(data::point_to_record(points.point(i)));
  }
  dfs.write_file("/data/points", lines);
  dasc::Rng rng(11);
  const auto result = dasc_cluster_mapreduce_dfs(dfs, "/data/points", "/out",
                                                 golden_params(), rng);
  EXPECT_GT(result.lsh_job.num_map_tasks, 1u);
  EXPECT_EQ(label_crc(result.labels), kGoldenLabelCrc);
}

TEST(MapReduceDascGolden, ShuffleBytesFollowTheRecordFormat) {
  const data::PointSet points = blobs(600, 6, 320);
  const MapReduceDascParams params = golden_params();
  dasc::Rng rng(11);
  const auto result = dasc_cluster_mapreduce(points, params, rng);

  // Same seed -> same buckets, in the order the driver keys them.
  dasc::Rng bucket_rng(11);
  const std::vector<lsh::Bucket> buckets =
      bucket_points(points, params.dasc, bucket_rng);
  ASSERT_EQ(buckets.size(), result.stats.merged_buckets);

  // shuffle_bytes counts key + value + 2 per record. A member value is a
  // u64 index plus dim doubles; the stage-1 key is the u64 signature; the
  // stage-2 key of bucket b is its m-bit string, '#', then b in decimal.
  const std::uint64_t n = points.size();
  const std::uint64_t member = 8 + 8 * points.dim();
  const std::uint64_t m = result.stats.signature_bits;
  EXPECT_EQ(result.lsh_job.counters.shuffle_bytes, n * (8 + member + 2));
  std::uint64_t stage2_key_bytes = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    stage2_key_bytes +=
        buckets[b].indices.size() * (m + 1 + std::to_string(b).size());
  }
  EXPECT_EQ(result.cluster_job.counters.shuffle_bytes,
            n * (member + 2) + stage2_key_bytes);
}

TEST(MapReduceDasc, RejectsUnsupportedHashFamily) {
  const data::PointSet points = blobs(50, 2, 316);
  MapReduceDascParams params;
  params.dasc.family = HashFamily::kMinHash;
  dasc::Rng rng(6);
  EXPECT_THROW(dasc_cluster_mapreduce(points, params, rng),
               dasc::InvalidArgument);
}

}  // namespace
}  // namespace dasc::core
