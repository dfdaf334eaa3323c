// Recovery-path tests of the runtime under injected faults: task retry,
// speculative re-execution, checksum-verified DFS reads and shuffle
// transfers, and per-bucket retry / graceful degradation in the pipeline.
// The common shape: inject a bounded number of faults, assert the run
// SUCCEEDS with output identical to the fault-free run, and assert the
// retry counters match the plan exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/metrics.hpp"
#include "core/bucket_pipeline.hpp"
#include "data/synthetic.hpp"
#include "mapreduce/dfs.hpp"
#include "mapreduce/job.hpp"

namespace dasc {
namespace {

using mapreduce::Emitter;
using mapreduce::JobResult;
using mapreduce::JobSpec;
using mapreduce::Mapper;
using mapreduce::Record;
using mapreduce::Reducer;
using mapreduce::run_job;

class WordCountMapper final : public Mapper {
 public:
  void map(const std::string& /*key*/, const std::string& value,
           Emitter& out) override {
    std::istringstream stream(value);
    std::string word;
    while (stream >> word) out.emit(word, "1");
  }
};

class SumReducer final : public Reducer {
 public:
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) override {
    long total = 0;
    for (const auto& v : values) total += std::stol(v);
    out.emit(key, std::to_string(total));
  }
};

JobSpec word_count_spec() {
  JobSpec spec;
  spec.conf.num_reducers = 3;
  spec.conf.split_records = 2;
  spec.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  spec.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  return spec;
}

std::vector<Record> word_count_input() {
  return {
      {"0", "the quick brown fox"}, {"1", "the lazy dog"},
      {"2", "the quick dog"},       {"3", "fox fox fox"},
      {"4", "dog"},                 {"5", "lazy lazy fox"},
  };
}

TEST(JobRetry, MapFaultsAreRetriedAndOutputIsIdentical) {
  const JobResult clean = run_job(word_count_spec(), word_count_input());

  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse("map.task:nth=1:max=2"));
  JobSpec spec = word_count_spec();
  spec.conf.max_task_attempts = 4;
  spec.faults = &injector;
  spec.metrics = &registry;
  const JobResult faulted = run_job(spec, word_count_input());

  EXPECT_EQ(faulted.output, clean.output);
  EXPECT_EQ(faulted.counters.failed_task_attempts, 2u);
  EXPECT_EQ(registry.counter_value("retry.map_attempts"), 2);
  EXPECT_EQ(registry.counter_value("retry.reduce_attempts"), 0);
  EXPECT_EQ(injector.fired("map.task"), 2u);
}

TEST(JobRetry, ReduceFaultsAreRetriedAndOutputIsIdentical) {
  const JobResult clean = run_job(word_count_spec(), word_count_input());

  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse("reduce.task:nth=1:max=2"));
  JobSpec spec = word_count_spec();
  spec.conf.max_task_attempts = 4;
  spec.faults = &injector;
  spec.metrics = &registry;
  const JobResult faulted = run_job(spec, word_count_input());

  EXPECT_EQ(faulted.output, clean.output);
  EXPECT_EQ(faulted.counters.failed_task_attempts, 2u);
  EXPECT_EQ(registry.counter_value("retry.reduce_attempts"), 2);
}

TEST(JobRetry, ExhaustedAttemptsFailTheJob) {
  FaultInjector injector(FaultPlan::parse("map.task:nth=1"));  // every call
  JobSpec spec = word_count_spec();
  spec.conf.max_task_attempts = 3;
  spec.faults = &injector;
  EXPECT_THROW(run_job(spec, word_count_input()), FaultInjectedError);
}

TEST(JobRetry, DefaultConfFailsFast) {
  // max_task_attempts defaults to 1: the first injected fault is fatal and
  // no retries are attempted — preserving the legacy failure semantics.
  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse("map.task:nth=1:max=1"));
  JobSpec spec = word_count_spec();
  spec.faults = &injector;
  spec.metrics = &registry;
  EXPECT_THROW(run_job(spec, word_count_input()), FaultInjectedError);
  EXPECT_EQ(registry.counter_value("retry.map_attempts"), 0);
}

TEST(JobRetry, CountsOneMapAttemptPerRetry) {
  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse("map.task:nth=1:max=3"));
  JobSpec spec = word_count_spec();
  spec.conf.max_task_attempts = 5;
  spec.faults = &injector;
  spec.metrics = &registry;
  run_job(spec, word_count_input());
  EXPECT_EQ(registry.counter_value("retry.map_attempts"), 3);
}

TEST(JobRetry, ShuffleCorruptionIsDetectedAndRefetched) {
  const JobResult clean = run_job(word_count_spec(), word_count_input());

  MetricsRegistry registry;
  FaultInjector injector(
      FaultPlan::parse("shuffle.fetch:nth=1:max=2:kind=corrupt"));
  JobSpec spec = word_count_spec();
  spec.faults = &injector;
  spec.metrics = &registry;
  const JobResult faulted = run_job(spec, word_count_input());

  EXPECT_EQ(faulted.output, clean.output);
  EXPECT_EQ(registry.counter_value("retry.shuffle_fetch"), 2);
}

TEST(JobRetry, ShuffleFetchExhaustionThrowsIoError) {
  FaultInjector injector(FaultPlan::parse("shuffle.fetch:nth=1"));
  JobSpec spec = word_count_spec();
  spec.conf.max_fetch_attempts = 2;
  spec.faults = &injector;
  EXPECT_THROW(run_job(spec, word_count_input()), IoError);
}

TEST(JobRetry, InProcessFetchChecksArePerReduceTask) {
  // Each reduce attempt fetches every map output itself, so a job makes
  // one shuffle.fetch check per (reduce task, map output) pair.
  const std::vector<Record> input = word_count_input();
  JobSpec spec = word_count_spec();
  const JobResult clean = run_job(spec, input);
  ASSERT_EQ(clean.num_map_tasks, 3u);
  FaultInjector counting(FaultPlan::parse("shuffle.fetch:nth=1000"));
  spec.faults = &counting;
  EXPECT_EQ(run_job(spec, input).output, clean.output);
  EXPECT_EQ(counting.calls("shuffle.fetch"), 3u * spec.conf.num_reducers);
  EXPECT_EQ(counting.fired("shuffle.fetch"), 0u);

  // Fewer fires than max_fetch_attempts can never exhaust a fetch, however
  // the reduce tasks interleave: every fire is retried exactly once.
  for (const std::size_t threads : {1u, 4u}) {
    MetricsRegistry registry;
    FaultInjector injector(
        FaultPlan::parse("shuffle.fetch:nth=2:max=3:kind=corrupt"),
        &registry);
    JobSpec faulted_spec = word_count_spec();
    faulted_spec.conf.physical_threads = threads;
    faulted_spec.faults = &injector;
    faulted_spec.metrics = &registry;
    const JobResult faulted = run_job(faulted_spec, input);
    EXPECT_EQ(faulted.output, clean.output) << "threads=" << threads;
    EXPECT_EQ(injector.fired("shuffle.fetch"), 3u);
    EXPECT_EQ(registry.counter_value("fault.injected.shuffle.fetch"), 3);
    EXPECT_EQ(registry.counter_value("retry.shuffle_fetch"), 3);
    EXPECT_EQ(registry.counter_value("retry.reduce_attempts"), 0);
  }

  // One thread runs the reduce tasks in order: both fires land on reduce
  // task 0's fetch of map output 0 and exhaust it, which fails that
  // attempt; the retried attempt fetches cleanly.
  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse("shuffle.fetch:nth=1:max=2"),
                         &registry);
  JobSpec exhausting = word_count_spec();
  exhausting.conf.physical_threads = 1;
  exhausting.conf.max_fetch_attempts = 2;
  exhausting.conf.max_task_attempts = 2;
  exhausting.faults = &injector;
  exhausting.metrics = &registry;
  const JobResult recovered = run_job(exhausting, input);
  EXPECT_EQ(recovered.output, clean.output);
  EXPECT_EQ(injector.fired("shuffle.fetch"), 2u);
  EXPECT_EQ(registry.counter_value("retry.shuffle_fetch"), 1);
  EXPECT_EQ(registry.counter_value("retry.reduce_attempts"), 1);
  EXPECT_EQ(recovered.counters.failed_task_attempts, 1u);
}

TEST(JobRetry, SpeculationRescuesAStalledStraggler) {
  // The first map-task attempt stalls for 300ms; every other task commits
  // in well under the speculative threshold, so the monitor launches a
  // backup for the straggler, the backup commits, and the job finishes with
  // correct output long before the stall would.
  std::vector<Record> input;
  for (int i = 0; i < 16; ++i) {
    input.push_back({std::to_string(i), "alpha beta gamma"});
  }
  JobSpec spec = word_count_spec();
  spec.conf.split_records = 2;  // 8 map tasks
  spec.conf.physical_threads = 4;
  spec.conf.enable_speculation = true;
  spec.conf.speculative_min_ms = 5.0;

  const JobResult clean = run_job(spec, input);

  MetricsRegistry registry;
  FaultInjector injector(
      FaultPlan::parse("map.task:nth=1:max=1:kind=stall:stall_ms=300"));
  spec.faults = &injector;
  spec.metrics = &registry;
  const JobResult faulted = run_job(spec, input);

  EXPECT_EQ(faulted.output, clean.output);
  EXPECT_EQ(injector.fired("map.task"), 1u);
  EXPECT_GE(registry.gauge_value("retry.speculative_launches"), 1);
  // The backup is a duplicate of a healthy task, not a failure.
  EXPECT_EQ(faulted.counters.failed_task_attempts, 0u);
}

TEST(JobRetry, SpeculativeBackupReStreamsAStalledReducePartition) {
  // The first reduce attempt stalls for 300ms, so the monitor launches a
  // backup that fetches and spools the partition again from the retained
  // map outputs, as the primary does once it wakes; exactly one of them
  // commits.
  const std::vector<Record> input = word_count_input();
  JobSpec spec = word_count_spec();
  spec.conf.physical_threads = 4;
  spec.conf.enable_speculation = true;
  spec.conf.speculative_min_ms = 5.0;

  const JobResult clean = run_job(spec, input);

  MetricsRegistry registry;
  FaultInjector injector(
      FaultPlan::parse("reduce.task:nth=1:max=1:kind=stall:stall_ms=300"));
  spec.faults = &injector;
  spec.metrics = &registry;
  const JobResult faulted = run_job(spec, input);

  EXPECT_EQ(faulted.output, clean.output);
  EXPECT_EQ(faulted.counters.reduce_output_records,
            clean.counters.reduce_output_records);  // no double commit
  EXPECT_EQ(injector.fired("reduce.task"), 1u);
  EXPECT_GE(registry.gauge_value("retry.speculative_launches"), 1);
  EXPECT_EQ(faulted.counters.failed_task_attempts, 0u);
}

TEST(DfsRetry, CorruptedReadIsCaughtByChecksumAndRetried) {
  mapreduce::DfsConfig clean_config;
  mapreduce::Dfs clean_dfs(clean_config);
  const std::vector<std::string> lines = {"alpha", "beta", "gamma", "delta"};
  clean_dfs.write_file("/data/in.txt", lines);
  ASSERT_EQ(clean_dfs.read_file("/data/in.txt"), lines);

  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse("dfs.read:nth=1:max=2:kind=corrupt"));
  mapreduce::DfsConfig config;
  config.faults = &injector;
  config.metrics = &registry;
  mapreduce::Dfs dfs(config);
  dfs.write_file("/data/in.txt", lines);

  EXPECT_EQ(dfs.read_file("/data/in.txt"), lines);
  EXPECT_EQ(registry.counter_value("retry.dfs_read"), 2);
  EXPECT_EQ(injector.fired("dfs.read"), 2u);
}

TEST(DfsRetry, ErrorFaultsAreRetriedLikeReplicaFailover) {
  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse("dfs.read:nth=2"));
  mapreduce::DfsConfig config;
  config.read_attempts = 3;
  config.faults = &injector;
  config.metrics = &registry;
  mapreduce::Dfs dfs(config);
  const std::vector<std::string> lines = {"one", "two", "three"};
  dfs.write_file("/data/in.txt", lines);
  // Attempt 1 succeeds, so a single read never even retries; a second read
  // hits the nth=2 fault on its first attempt and falls back.
  EXPECT_EQ(dfs.read_file("/data/in.txt"), lines);
  EXPECT_EQ(dfs.read_file("/data/in.txt"), lines);
  EXPECT_EQ(registry.counter_value("retry.dfs_read"), 1);
}

TEST(DfsRetry, ExhaustedReadAttemptsThrowIoError) {
  FaultInjector injector(FaultPlan::parse("dfs.read:nth=1"));
  mapreduce::DfsConfig config;
  config.read_attempts = 2;
  config.faults = &injector;
  mapreduce::Dfs dfs(config);
  dfs.write_file("/data/in.txt", {"payload"});
  EXPECT_THROW(dfs.read_file("/data/in.txt"), IoError);
}

data::PointSet pipeline_points(std::size_t n) {
  dasc::Rng rng(601);
  data::MixtureParams params;
  params.n = n;
  params.dim = 8;
  params.k = 3;
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

TEST(BucketPipelineRetry, FaultedBucketsAreReattempted) {
  const data::PointSet points = pipeline_points(30);
  const auto buckets = toy_buckets({10, 10, 10});
  const auto jobs = core::plan_bucket_jobs(buckets, 3, 30);

  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse("alloc.gram_block:nth=1:max=2"));
  core::BucketPipelineOptions options;
  options.sigma = 0.5;
  options.threads = 2;
  options.faults = &injector;
  options.max_bucket_attempts = 3;
  options.metrics = &registry;

  std::vector<int> commits(buckets.size(), 0);
  std::mutex mutex;
  core::run_bucket_pipeline(
      points, buckets, jobs, options,
      [&](linalg::DenseMatrix&&, const lsh::Bucket&,
          const core::BucketJob& job) {
        std::lock_guard lock(mutex);
        ++commits[job.index];
      });

  // Every bucket's consumer ran exactly once despite the two faults.
  EXPECT_TRUE(std::all_of(commits.begin(), commits.end(),
                          [](int c) { return c == 1; }));
  EXPECT_EQ(registry.counter_value("retry.bucket_attempts"), 2);
}

TEST(BucketPipelineRetry, ExhaustedBucketFailsTheRunByDefault) {
  const data::PointSet points = pipeline_points(20);
  const auto buckets = toy_buckets({10, 10});
  const auto jobs = core::plan_bucket_jobs(buckets, 2, 20);

  FaultInjector injector(FaultPlan::parse("alloc.gram_block:nth=1"));
  core::BucketPipelineOptions options;
  options.sigma = 0.5;
  options.threads = 1;
  options.faults = &injector;
  options.max_bucket_attempts = 2;
  EXPECT_THROW(core::run_bucket_pipeline(
                   points, buckets, jobs, options,
                   [](linalg::DenseMatrix&&, const lsh::Bucket&,
                      const core::BucketJob&) {}),
               FaultInjectedError);
}

}  // namespace
}  // namespace dasc
