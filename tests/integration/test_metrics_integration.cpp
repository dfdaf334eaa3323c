// End-to-end metrics coverage: a full dasc_cluster run must report every
// pipeline stage into the registry handed down through DascParams, obey
// the AdmissionGate byte budget in its gauges, and produce identical
// counters at any thread count (the CI regression-gate contract).
#include <gtest/gtest.h>

#include <cstddef>

#include "common/metrics.hpp"
#include "core/dasc_clusterer.hpp"
#include "core/dasc_mapreduce.hpp"
#include "data/synthetic.hpp"

namespace dasc {
namespace {

data::PointSet metrics_points(std::size_t n) {
  Rng rng(77);
  data::MixtureParams mix;
  mix.n = n;
  mix.dim = 16;
  mix.k = 4;
  mix.cluster_stddev = 0.05;
  return data::make_gaussian_mixture(mix, rng);
}

core::DascParams metrics_params(MetricsRegistry* registry,
                                std::size_t threads) {
  core::DascParams params;
  params.k = 24;
  // Cap the bucket size so every Gram block (<= 192^2 doubles = 288 KB)
  // fits the byte budget below — then peak_inflight_bytes <= budget holds
  // (an oversized single block would be admitted alone by design and
  // legitimately exceed it).
  params.max_bucket_points = 192;
  params.max_inflight_bytes = 1 << 20;
  params.threads = threads;
  params.metrics = registry;
  return params;
}

TEST(MetricsIntegration, EveryStageReports) {
  MetricsRegistry registry;
  Rng rng(1);
  const core::DascResult result = core::dasc_cluster(
      metrics_points(900), metrics_params(&registry, 4), rng);
  EXPECT_EQ(result.labels.size(), 900u);

  // Stage timers: signatures, bucketing, gram build, eigensolve, K-means.
  EXPECT_GT(registry.timer_count("lsh.signatures"), 0);
  EXPECT_GT(registry.timer_count("lsh.bucketing"), 0);
  EXPECT_GT(registry.timer_count("pipeline.gram_build"), 0);
  EXPECT_GT(registry.timer_total_ms("pipeline.gram_build"), 0.0);
  EXPECT_GT(registry.timer_count("spectral.eigensolve"), 0);
  EXPECT_GT(registry.timer_count("kmeans.lloyd"), 0);
  EXPECT_EQ(registry.timer_count("pipeline.wall"), 1);

  // Work counters.
  EXPECT_EQ(registry.counter_value("lsh.points_hashed"), 900);
  EXPECT_GT(registry.counter_value("lsh.raw_buckets"), 0);
  EXPECT_GT(registry.counter_value("pipeline.buckets"), 0);
  // Every bucket is either admitted with a block or, being trivial,
  // skipped without one.
  EXPECT_EQ(registry.counter_value("pipeline.blocks_admitted") +
                registry.counter_value("pipeline.gram_blocks_skipped"),
            registry.counter_value("pipeline.buckets"));
  EXPECT_GT(registry.counter_value("kmeans.runs"), 0);
  EXPECT_GE(registry.counter_value("kmeans.iterations"),
            registry.counter_value("kmeans.runs"));

  // AdmissionGate gauges: the high-water mark respects the byte budget
  // because the bucket cap bounds every single block below it.
  const std::int64_t peak =
      registry.gauge_value("pipeline.peak_inflight_bytes");
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, 1 << 20);
  EXPECT_GE(peak, registry.gauge_value("pipeline.peak_block_bytes"));
  EXPECT_GE(registry.gauge_value("pipeline.peak_inflight_blocks"), 1);
}

TEST(MetricsIntegration, CountersIdenticalAcrossThreadCounts) {
  MetricsRegistry serial;
  MetricsRegistry threaded;
  {
    Rng rng(5);
    core::dasc_cluster(metrics_points(900), metrics_params(&serial, 1), rng);
  }
  {
    Rng rng(5);
    core::dasc_cluster(metrics_points(900), metrics_params(&threaded, 8),
                       rng);
  }
  // The regression-gate contract: counters are work counts, deterministic
  // for a fixed seed regardless of scheduling. (Timers and gauges vary.)
  EXPECT_EQ(serial.counters_snapshot(), threaded.counters_snapshot());
}

TEST(MetricsIntegration, MapReduceJobReports) {
  MetricsRegistry registry;
  core::MapReduceDascParams params;
  params.dasc.k = 8;
  params.dasc.m = 8;
  params.dasc.metrics = &registry;
  params.conf.num_reducers = 4;
  params.conf.split_records = 64;
  Rng rng(3);
  const auto result =
      core::dasc_cluster_mapreduce(metrics_points(400), params, rng);
  EXPECT_EQ(result.labels.size(), 400u);

  // Two jobs ran (signature stage + cluster stage).
  EXPECT_EQ(registry.counter_value("mapreduce.jobs"), 2);
  EXPECT_GT(registry.timer_count("mapreduce.map"), 0);
  EXPECT_GT(registry.timer_count("mapreduce.shuffle"), 0);
  EXPECT_GT(registry.timer_count("mapreduce.reduce"), 0);
  // Stage 1 maps every point once; stage 2 maps every grouped member.
  EXPECT_EQ(registry.counter_value("mapreduce.map_input_records"), 800);
  EXPECT_GT(registry.counter_value("mapreduce.reduce_input_records"), 0);
  EXPECT_GT(registry.counter_value("mapreduce.shuffle_bytes"), 0);
  EXPECT_EQ(registry.counter_value("mapreduce.failed_task_attempts"), 0);
  // The reducers ran the shared bucket pipeline + spectral stages.
  EXPECT_GT(registry.counter_value("pipeline.buckets"), 0);
  EXPECT_GT(registry.timer_count("pipeline.gram_build"), 0);
}

TEST(MetricsIntegration, NullRegistryRunsClean) {
  Rng rng(9);
  core::DascParams params = metrics_params(nullptr, 2);
  const core::DascResult result =
      core::dasc_cluster(metrics_points(300), params, rng);
  EXPECT_EQ(result.labels.size(), 300u);
}

}  // namespace
}  // namespace dasc
