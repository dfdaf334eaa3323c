// Chaos test matrix (the headline invariant of the fault-injection layer):
// for every fault site x trigger x consumer combination, a run that
// survives its injected faults produces labels BIT-IDENTICAL to the
// fault-free run with the same seed, and the retry counters account for
// every injected fault exactly.
//
// Probability-triggered cases run with threads=1 so the per-site call
// sequence — and therefore which attempts fail — is fully deterministic;
// nth-triggered cases are index-pure and deterministic at any thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/metrics.hpp"
#include "core/dasc_clusterer.hpp"
#include "core/dasc_mapreduce.hpp"
#include "data/dataset_io.hpp"
#include "data/synthetic.hpp"
#include "mapreduce/dfs.hpp"
#include "mapreduce/job_conf.hpp"
#include "serving/model_artifact.hpp"

namespace dasc {
namespace {

enum class Consumer {
  kBatch,         ///< core::dasc_cluster
  kStreaming,     ///< core::dasc_cluster at a one-block budget
  kServingFit,    ///< serving::fit_model (offline labels)
  kMapReduce,     ///< core::dasc_cluster_mapreduce
  kMapReduceDfs,  ///< DFS-backed MapReduce driver (exercises dfs.read)
};

struct ChaosCase {
  const char* name;     ///< gtest parameter name ([A-Za-z0-9_] only)
  Consumer consumer;
  const char* site;     ///< fault site the plan targets
  const char* counter;  ///< retry counter that must account for the faults
  const char* plan;     ///< fault-plan text
  /// Gram backend the run is forced to (default kAuto = historical dense
  /// path at this dataset size). Factored backends re-randomize landmark /
  /// grid draws on every retry from the recreated bucket Rng, which is
  /// exactly what the bit-identical invariant stresses.
  core::GramBackendPolicy backend = core::GramBackendPolicy::kAuto;
  /// Out-of-core spill budget applied to BOTH the clean and the faulted
  /// run, so spill cases test fault-parity of the spilled execution itself
  /// (1 forces every dense Gram block and shuffle spool page to disk).
  std::size_t spill_budget = 0;
  /// Execution mode of the faulted run only — the clean baseline always
  /// runs in-process, so multi-process cases assert cross-mode label
  /// parity and fault recovery in one comparison.
  mapreduce::ExecutionMode execution_mode =
      mapreduce::ExecutionMode::kInProcess;
  /// Worker-process count for multi-process cases (0 = JobConf default).
  std::size_t num_workers = 0;
  /// The plan kills a worker whose map outputs a reducer then pulls, so
  /// the run must go through the reducers' dead-owner recovery (kPullFailed
  /// -> map re-execution on the reducer's worker -> a fresh kReducePull):
  /// worker.map_reexecutions >= 1.
  bool expect_reexecution = false;
};

const ChaosCase kCases[] = {
    // alloc.gram_block (bucket pipeline) across every pipeline consumer.
    {"BatchGramNth", Consumer::kBatch, "alloc.gram_block",
     "retry.bucket_attempts", "seed=3;alloc.gram_block:nth=2:max=3"},
    {"BatchGramProb", Consumer::kBatch, "alloc.gram_block",
     "retry.bucket_attempts", "seed=3;alloc.gram_block:prob=0.3"},
    {"StreamingGramNth", Consumer::kStreaming, "alloc.gram_block",
     "retry.bucket_attempts", "seed=4;alloc.gram_block:nth=3:max=2"},
    {"ServingFitGramNth", Consumer::kServingFit, "alloc.gram_block",
     "retry.bucket_attempts", "seed=5;alloc.gram_block:nth=2:max=2"},
    {"MapReduceGramNth", Consumer::kMapReduce, "alloc.gram_block",
     "retry.bucket_attempts", "seed=6;alloc.gram_block:nth=2:max=2"},
    // The virtual cluster's own sites, through the MapReduce driver.
    {"MapTaskNth", Consumer::kMapReduce, "map.task", "retry.map_attempts",
     "seed=7;map.task:nth=2:max=3"},
    {"MapTaskProb", Consumer::kMapReduce, "map.task", "retry.map_attempts",
     "seed=7;map.task:prob=0.25"},
    {"ReduceTaskNth", Consumer::kMapReduce, "reduce.task",
     "retry.reduce_attempts", "seed=8;reduce.task:nth=1:max=3"},
    {"ShuffleFetchNth", Consumer::kMapReduce, "shuffle.fetch",
     "retry.shuffle_fetch", "seed=9;shuffle.fetch:nth=2:max=4"},
    {"ShuffleCorruptNth", Consumer::kMapReduce, "shuffle.fetch",
     "retry.shuffle_fetch", "seed=9;shuffle.fetch:nth=3:max=3:kind=corrupt"},
    {"DfsReadCorruptNth", Consumer::kMapReduceDfs, "dfs.read",
     "retry.dfs_read", "seed=10;dfs.read:nth=4:max=4:kind=corrupt"},
    {"DfsReadErrorProb", Consumer::kMapReduceDfs, "dfs.read",
     "retry.dfs_read", "seed=10;dfs.read:prob=0.2"},
    // Multi-site storm: every MapReduce-path site at once.
    {"MapReduceStorm", Consumer::kMapReduce, "", "",
     "seed=11;map.task:nth=3:max=2;reduce.task:nth=2:max=2;"
     "shuffle.fetch:nth=2:max=2:kind=corrupt;alloc.gram_block:nth=5:max=2"},
    // Factored backends under the same gram-block faults: the landmark /
    // binning draws restart from the recreated per-bucket Rng on retry, so
    // survived runs must still be bit-identical to the fault-free run.
    {"BatchGramNthNystromBackend", Consumer::kBatch, "alloc.gram_block",
     "retry.bucket_attempts", "seed=3;alloc.gram_block:nth=2:max=3",
     core::GramBackendPolicy::kNystrom},
    {"BatchGramProbNystromBackend", Consumer::kBatch, "alloc.gram_block",
     "retry.bucket_attempts", "seed=3;alloc.gram_block:prob=0.3",
     core::GramBackendPolicy::kNystrom},
    {"StreamingGramNthNystromBackend", Consumer::kStreaming,
     "alloc.gram_block", "retry.bucket_attempts",
     "seed=4;alloc.gram_block:nth=3:max=2",
     core::GramBackendPolicy::kNystrom},
    {"ServingFitGramNthNystromBackend", Consumer::kServingFit,
     "alloc.gram_block", "retry.bucket_attempts",
     "seed=5;alloc.gram_block:nth=2:max=2",
     core::GramBackendPolicy::kNystrom},
    {"MapReduceGramNthNystromBackend", Consumer::kMapReduce,
     "alloc.gram_block", "retry.bucket_attempts",
     "seed=6;alloc.gram_block:nth=2:max=2",
     core::GramBackendPolicy::kNystrom},
    {"BatchGramNthBinningBackend", Consumer::kBatch, "alloc.gram_block",
     "retry.bucket_attempts", "seed=3;alloc.gram_block:nth=2:max=3",
     core::GramBackendPolicy::kRbfBinning},
    // spill.page_io (out-of-core page reads/writes) with a 1-byte budget:
    // every dense Gram block — and, on the MapReduce path, every shuffle
    // spool page — goes through disk, and the injected I/O failures (error
    // kind) and CRC-caught corruptions (corrupt kind) must leave the labels
    // bit-identical to the same spilled run without faults.
    {"BatchSpillPageIoErrorNth", Consumer::kBatch, "spill.page_io",
     "retry.spill_page_io", "seed=12;spill.page_io:nth=2:max=4",
     core::GramBackendPolicy::kAuto, 1},
    {"BatchSpillPageIoCorruptNth", Consumer::kBatch, "spill.page_io",
     "retry.spill_page_io", "seed=12;spill.page_io:nth=3:max=5:kind=corrupt",
     core::GramBackendPolicy::kAuto, 1},
    {"StreamingSpillPageIoErrorNth", Consumer::kStreaming, "spill.page_io",
     "retry.spill_page_io", "seed=13;spill.page_io:nth=2:max=3",
     core::GramBackendPolicy::kAuto, 1},
    {"ServingFitSpillPageIoErrorNth", Consumer::kServingFit, "spill.page_io",
     "retry.spill_page_io", "seed=27;spill.page_io:nth=2:max=3",
     core::GramBackendPolicy::kAuto, 1},
    {"MapReduceSpillPageIoCorruptNth", Consumer::kMapReduce, "spill.page_io",
     "retry.spill_page_io", "seed=14;spill.page_io:nth=3:max=6:kind=corrupt",
     core::GramBackendPolicy::kAuto, 1},
    // Spill + shuffle faults at once: page corruption while the shuffle
    // fetch layer is also corrupting records.
    {"MapReduceSpillStorm", Consumer::kMapReduce, "", "",
     "seed=15;spill.page_io:nth=4:max=3;"
     "shuffle.fetch:nth=2:max=2:kind=corrupt",
     core::GramBackendPolicy::kAuto, 1},
    // Multi-process execution: the faulted run uses real worker processes
    // while the clean baseline stays in-process, so every case below also
    // asserts cross-mode label parity. Task faults fire supervisor-side;
    // shuffle faults fire in the pulling workers and travel back in
    // kReducePullDone, so the exact retry accounting carries over.
    {"MultiprocMapTaskNth", Consumer::kMapReduce, "map.task",
     "retry.map_attempts", "seed=16;map.task:nth=2:max=3",
     core::GramBackendPolicy::kAuto, 0,
     mapreduce::ExecutionMode::kMultiProcess, 2},
    {"MultiprocReduceTaskNth", Consumer::kMapReduce, "reduce.task",
     "retry.reduce_attempts", "seed=17;reduce.task:nth=2:max=2",
     core::GramBackendPolicy::kAuto, 0,
     mapreduce::ExecutionMode::kMultiProcess, 2},
    {"MultiprocShuffleCorruptNth", Consumer::kMapReduce, "shuffle.fetch",
     "retry.shuffle_fetch", "seed=18;shuffle.fetch:nth=3:max=3:kind=corrupt",
     core::GramBackendPolicy::kAuto, 0,
     mapreduce::ExecutionMode::kMultiProcess, 2},
    // worker.kill: SIGKILL the assigned worker right after a task ships.
    // Retry accounting is not exact-per-fire (recovery may re-execute map
    // tasks whose outputs died with their owner), so site/counter are
    // blank and only survival + parity + total_fired are asserted. The
    // pipeline's first stage has 4 map dispatches then 3 reduce
    // dispatches, so nth<=4 kills mid-map and nth in [5,7] mid-reduce.
    {"MultiprocKillMidMapW1", Consumer::kMapReduce, "", "",
     "seed=19;worker.kill:nth=2:max=1", core::GramBackendPolicy::kAuto, 0,
     mapreduce::ExecutionMode::kMultiProcess, 1, true},
    {"MultiprocKillMidMapW2", Consumer::kMapReduce, "", "",
     "seed=19;worker.kill:nth=3:max=1", core::GramBackendPolicy::kAuto, 0,
     mapreduce::ExecutionMode::kMultiProcess, 2, true},
    {"MultiprocKillMidReduceW4", Consumer::kMapReduce, "", "",
     "seed=19;worker.kill:nth=6:max=1", core::GramBackendPolicy::kAuto, 0,
     mapreduce::ExecutionMode::kMultiProcess, 4, true},
    // Worker death while tasks are also failing and shuffle transfers are
    // being corrupted: the full multi-process recovery stack at once.
    {"MultiprocStorm", Consumer::kMapReduce, "", "",
     "seed=20;map.task:nth=3:max=2;"
     "shuffle.fetch:nth=2:max=2:kind=corrupt;worker.kill:nth=5:max=1",
     core::GramBackendPolicy::kAuto, 0,
     mapreduce::ExecutionMode::kMultiProcess, 2, true},
    // Reducers pull partitions straight from mapper workers, so
    // worker.kill can strand map outputs whose owner died — forcing the
    // kPullFailed -> re-execution -> re-pull recovery. Crossed
    // with spill budgets so the pulled spool itself runs resident (64Ki),
    // fully spilled (1), and unbudgeted (0).
    {"W2WShuffleErrorNthW2", Consumer::kMapReduce, "shuffle.fetch",
     "retry.shuffle_fetch", "seed=21;shuffle.fetch:nth=2:max=2",
     core::GramBackendPolicy::kAuto, 0,
     mapreduce::ExecutionMode::kMultiProcess, 2},
    {"W2WShuffleCorruptNthW2Spill1", Consumer::kMapReduce, "shuffle.fetch",
     "retry.shuffle_fetch",
     "seed=22;shuffle.fetch:nth=3:max=2:kind=corrupt",
     core::GramBackendPolicy::kAuto, 1,
     mapreduce::ExecutionMode::kMultiProcess, 2},
    {"W2WShuffleCorruptNthW4Spill64K", Consumer::kMapReduce,
     "shuffle.fetch", "retry.shuffle_fetch",
     "seed=23;shuffle.fetch:nth=2:max=1:kind=corrupt",
     core::GramBackendPolicy::kAuto, 64 * 1024,
     mapreduce::ExecutionMode::kMultiProcess, 4},
    {"W2WSpillPageIoCorruptNth", Consumer::kMapReduce, "spill.page_io",
     "retry.spill_page_io",
     "seed=24;spill.page_io:nth=3:max=4:kind=corrupt",
     core::GramBackendPolicy::kAuto, 1,
     mapreduce::ExecutionMode::kMultiProcess, 2},
    {"W2WKillMidMapW2", Consumer::kMapReduce, "", "",
     "seed=25;worker.kill:nth=2:max=1", core::GramBackendPolicy::kAuto, 0,
     mapreduce::ExecutionMode::kMultiProcess, 2},
    {"W2WKillMidReduceW4Spill1", Consumer::kMapReduce, "", "",
     "seed=25;worker.kill:nth=6:max=1", core::GramBackendPolicy::kAuto, 1,
     mapreduce::ExecutionMode::kMultiProcess, 4, true},
    // Kill + corruption at once through the pull path: a reducer dies,
    // its re-dispatched pull both re-executes orphaned map tasks and
    // retries CRC-caught corrupt transfers, and the labels still match.
    {"W2WStorm", Consumer::kMapReduce, "", "",
     "seed=26;worker.kill:nth=5:max=1;"
     "shuffle.fetch:nth=2:max=2:kind=corrupt",
     core::GramBackendPolicy::kAuto, 1,
     mapreduce::ExecutionMode::kMultiProcess, 2, true},
};

data::PointSet chaos_points() {
  dasc::Rng rng(310);
  data::MixtureParams params;
  params.n = 240;
  params.dim = 8;
  params.k = 4;
  params.cluster_stddev = 0.03;
  return data::make_gaussian_mixture(params, rng);
}

core::DascParams chaos_params(FaultInjector* faults, MetricsRegistry* metrics,
                              core::GramBackendPolicy backend,
                              std::size_t spill_budget) {
  core::DascParams params;
  // K = 16 gives the larger buckets k_bucket >= 2: a trivial bucket
  // (k_bucket = 1) builds no Gram block, so it never reaches the
  // alloc.gram_block site or the Gram spill these cases fault.
  params.k = 16;
  params.m = 6;
  params.threads = 1;  // deterministic call order for probability triggers
  params.max_bucket_attempts = 10;  // headroom: every bucket must succeed
  params.faults = faults;
  params.metrics = metrics;
  params.gram_backend = backend;
  params.spill_budget_bytes = spill_budget;
  return params;
}

/// Run one consumer end-to-end and return its labels.
std::vector<int> run_consumer(Consumer consumer, const data::PointSet& points,
                              FaultInjector* faults, MetricsRegistry* metrics,
                              core::GramBackendPolicy backend,
                              std::size_t spill_budget,
                              mapreduce::ExecutionMode execution_mode =
                                  mapreduce::ExecutionMode::kInProcess,
                              std::size_t num_workers = 0) {
  const core::DascParams params =
      chaos_params(faults, metrics, backend, spill_budget);
  Rng rng(77);
  switch (consumer) {
    case Consumer::kBatch:
      return core::dasc_cluster(points, params, rng).labels;
    case Consumer::kStreaming: {
      core::DascParams one_block = params;
      one_block.max_inflight_blocks = 1;
      return core::dasc_cluster(points, one_block, rng).labels;
    }
    case Consumer::kServingFit:
      return serving::fit_model(points, params, rng).offline.labels;
    case Consumer::kMapReduce:
    case Consumer::kMapReduceDfs: {
      core::MapReduceDascParams mr;
      mr.dasc = params;
      mr.conf.num_reducers = 3;
      mr.conf.split_records = 60;  // several map tasks -> several fetches
      mr.conf.physical_threads = 1;
      mr.conf.max_task_attempts = 10;
      mr.conf.max_fetch_attempts = 10;
      mr.conf.execution_mode = execution_mode;
      if (num_workers > 0) mr.conf.num_workers = num_workers;
      if (consumer == Consumer::kMapReduce) {
        return core::dasc_cluster_mapreduce(points, mr, rng).labels;
      }
      mapreduce::DfsConfig dfs_config;
      dfs_config.block_size_bytes = 2048;  // several blocks -> several reads
      dfs_config.read_attempts = 10;
      dfs_config.faults = faults;
      dfs_config.metrics = metrics;
      mapreduce::Dfs dfs(dfs_config);
      std::vector<std::string> lines;
      lines.reserve(points.size());
      for (std::size_t i = 0; i < points.size(); ++i) {
        lines.push_back(data::point_to_record(points.point(i)));
      }
      dfs.write_file("/chaos/points", lines);
      return core::dasc_cluster_mapreduce_dfs(dfs, "/chaos/points",
                                              "/chaos/out", mr, rng)
          .labels;
    }
  }
  return {};
}

class ChaosMatrix : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosMatrix, LabelsSurviveFaultsBitIdentically) {
  const ChaosCase& test_case = GetParam();
  const data::PointSet points = chaos_points();

  // The baseline is always in-process: for kMultiProcess cases the single
  // EXPECT_EQ below therefore covers both fault recovery and cross-mode
  // label parity.
  const std::vector<int> clean =
      run_consumer(test_case.consumer, points, nullptr, nullptr,
                   test_case.backend, test_case.spill_budget);
  ASSERT_FALSE(clean.empty());

  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse(test_case.plan), &registry);
  const std::vector<int> faulted =
      run_consumer(test_case.consumer, points, &injector, &registry,
                   test_case.backend, test_case.spill_budget,
                   test_case.execution_mode, test_case.num_workers);

  // The invariant: the run survived, so the labels are exactly the
  // fault-free labels.
  EXPECT_EQ(faulted, clean);

  // The case must have actually injected something...
  EXPECT_GT(injector.total_fired(), 0u) << "plan never fired: "
                                        << test_case.plan;
  EXPECT_GT(registry.counter_value("fault.injected"), 0);

  if (test_case.expect_reexecution) {
    EXPECT_GE(registry.gauge_value("worker.map_reexecutions"), 1);
  }

  // ...and the retry machinery must account for every fault: each injected
  // fault failed exactly one attempt, and (since the run succeeded) each
  // failed attempt was retried exactly once.
  if (test_case.site[0] != '\0') {
    const auto fired =
        static_cast<std::int64_t>(injector.fired(test_case.site));
    EXPECT_EQ(registry.counter_value(
                  std::string("fault.injected.") + test_case.site),
              fired);
    EXPECT_EQ(registry.counter_value(test_case.counter), fired);
  }

  // Determinism of the injection itself: replaying the identical plan
  // against the identical consumer fires the identical fault count and
  // yields the identical labels again.
  MetricsRegistry replay_registry;
  FaultInjector replay(FaultPlan::parse(test_case.plan), &replay_registry);
  const std::vector<int> replayed =
      run_consumer(test_case.consumer, points, &replay, &replay_registry,
                   test_case.backend, test_case.spill_budget,
                   test_case.execution_mode, test_case.num_workers);
  EXPECT_EQ(replayed, clean);
  EXPECT_EQ(replay.total_fired(), injector.total_fired());
}

INSTANTIATE_TEST_SUITE_P(AllSitesAndConsumers, ChaosMatrix,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<ChaosCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace dasc
