// The out-of-core invariant (DESIGN.md section 12): labels are
// bit-identical with spilling forced on (tiny budget) vs off, across
// consumers, thread counts, and backends — and the tiny budget really
// does move bytes through disk.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "core/dasc_clusterer.hpp"
#include "core/dasc_mapreduce.hpp"
#include "data/synthetic.hpp"
#include "serving/model_artifact.hpp"

namespace dasc {
namespace {

data::PointSet parity_points() {
  Rng rng(310);
  data::MixtureParams params;
  params.n = 240;
  params.dim = 8;
  params.k = 4;
  params.cluster_stddev = 0.03;
  return data::make_gaussian_mixture(params, rng);
}

core::DascParams parity_params(std::size_t spill_budget, std::size_t threads,
                               core::GramBackendPolicy backend,
                               MetricsRegistry* metrics) {
  core::DascParams params;
  // K = 16 gives the larger buckets k_bucket >= 2, so they build (and
  // spill) a dense block; trivial buckets build none.
  params.k = 16;
  params.m = 6;
  params.threads = threads;
  params.spill_budget_bytes = spill_budget;
  params.gram_backend = backend;
  params.metrics = metrics;
  return params;
}

std::vector<int> run_batch(const data::PointSet& points,
                           const core::DascParams& params) {
  Rng rng(77);
  return core::dasc_cluster(points, params, rng).labels;
}

TEST(SpillParity, BatchLabelsIdenticalAcrossBudgetsAndThreads) {
  const data::PointSet points = parity_points();
  const std::vector<int> ram = run_batch(
      points, parity_params(0, 1, core::GramBackendPolicy::kAuto, nullptr));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t budget : {std::size_t{1}, std::size_t{64} << 10}) {
      MetricsRegistry registry;
      const std::vector<int> spilled = run_batch(
          points, parity_params(budget, threads,
                                core::GramBackendPolicy::kAuto, &registry));
      EXPECT_EQ(spilled, ram) << "threads=" << threads
                              << " budget=" << budget;
      if (budget == 1) {
        // Every dense block is over a 1-byte budget: the run must have
        // actually gone through disk.
        EXPECT_GT(registry.counter_value("pipeline.blocks_spilled"), 0);
        EXPECT_GT(registry.gauge_value("spill.bytes_written"), 0);
        EXPECT_EQ(registry.gauge_value("spill.bytes_written"),
                  registry.gauge_value("spill.bytes_read"));
        EXPECT_GT(registry.gauge_value("spill.pages"), 0);
        EXPECT_GT(registry.timer_count("spill.page_io"), 0);
      }
    }
  }
}

TEST(SpillParity, BlocksSpilledCounterIsThreadCountInvariant) {
  const data::PointSet points = parity_points();
  std::int64_t reference = -1;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    MetricsRegistry registry;
    run_batch(points, parity_params(1, threads,
                                    core::GramBackendPolicy::kAuto,
                                    &registry));
    const std::int64_t spilled =
        registry.counter_value("pipeline.blocks_spilled");
    EXPECT_GT(spilled, 0);
    if (reference < 0) {
      reference = spilled;
    } else {
      EXPECT_EQ(spilled, reference);
    }
  }
}

TEST(SpillParity, StreamingLabelsIdenticalUnderTinyBudget) {
  const data::PointSet points = parity_points();
  const auto run = [&](std::size_t budget, MetricsRegistry* metrics) {
    core::DascParams params =
        parity_params(budget, 1, core::GramBackendPolicy::kAuto, metrics);
    params.max_inflight_blocks = 1;  // one Gram block at a time
    return run_batch(points, params);
  };
  MetricsRegistry registry;
  EXPECT_EQ(run(1, &registry), run(0, nullptr));
  EXPECT_GT(registry.counter_value("pipeline.blocks_spilled"), 0);
}

TEST(SpillParity, ServingFitLabelsAndArtifactIdenticalUnderTinyBudget) {
  const data::PointSet points = parity_points();
  const auto fit = [&](std::size_t budget, MetricsRegistry* metrics,
                       std::vector<int>& labels) {
    Rng rng(77);
    const serving::FitResult result = serving::fit_model(
        points,
        parity_params(budget, 1, core::GramBackendPolicy::kDense, metrics),
        rng);
    labels = result.offline.labels;
    const std::string path = testing::TempDir() + "dasc_spill_parity_" +
                             std::to_string(budget) + ".bin";
    serving::save_model(result.model, path);
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return bytes;
  };
  std::vector<int> ram_labels;
  const std::string ram_model = fit(0, nullptr, ram_labels);
  MetricsRegistry registry;
  std::vector<int> spilled_labels;
  const std::string spilled_model = fit(1, &registry, spilled_labels);
  EXPECT_EQ(spilled_labels, ram_labels);
  EXPECT_FALSE(ram_model.empty());
  EXPECT_TRUE(spilled_model == ram_model) << "artifact bytes differ";
  // The serving fit honors the spill budget like every other driver.
  EXPECT_GT(registry.counter_value("pipeline.blocks_spilled"), 0);
}

TEST(SpillParity, NystromBackendLabelsIdenticalUnderTinyBudget) {
  // Factored buckets never pre-build a dense block, so they never spill —
  // parity must still hold with the knob set.
  const data::PointSet points = parity_points();
  const std::vector<int> ram = run_batch(
      points,
      parity_params(0, 1, core::GramBackendPolicy::kNystrom, nullptr));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_EQ(run_batch(points,
                        parity_params(1, threads,
                                      core::GramBackendPolicy::kNystrom,
                                      nullptr)),
              ram);
  }
}

TEST(SpillParity, MapReduceLabelsIdenticalAndShuffleSpills) {
  const data::PointSet points = parity_points();
  const auto run = [&](std::size_t budget, MetricsRegistry* metrics) {
    core::MapReduceDascParams mr;
    mr.dasc = parity_params(budget, 1, core::GramBackendPolicy::kAuto,
                            metrics);
    mr.conf.num_reducers = 3;
    mr.conf.split_records = 60;
    mr.conf.physical_threads = 1;
    Rng rng(77);
    return core::dasc_cluster_mapreduce(points, mr, rng).labels;
  };
  const std::vector<int> ram = run(0, nullptr);
  MetricsRegistry registry;
  EXPECT_EQ(run(1, &registry), ram);
  // The 1-byte budget forces both the shuffle spool and the reduce-side
  // Gram blocks through disk.
  EXPECT_GT(registry.gauge_value("spill.bytes_written"), 0);
  EXPECT_GT(registry.counter_value("pipeline.blocks_spilled"), 0);
}

}  // namespace
}  // namespace dasc
