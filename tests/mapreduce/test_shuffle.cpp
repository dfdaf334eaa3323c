#include "mapreduce/shuffle.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/spool.hpp"
#include "mapreduce/task_exec.hpp"

namespace dasc::mapreduce {
namespace {

TEST(Partitioner, StableAndInRange) {
  for (const std::string key : {"a", "b", "signature01", ""}) {
    const std::size_t p = partition_for_key(key, 7);
    EXPECT_LT(p, 7u);
    EXPECT_EQ(p, partition_for_key(key, 7));  // deterministic
  }
  EXPECT_THROW(partition_for_key("x", 0), dasc::InvalidArgument);
}

TEST(Partitioner, SpreadsKeys) {
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 800; ++i) {
    ++counts[partition_for_key("key" + std::to_string(i), 8)];
  }
  for (int c : counts) EXPECT_GT(c, 20);  // no partition starves
}

TEST(SortAndGroup, GroupsEqualKeys) {
  const auto groups = sort_and_group(
      {{"b", "1"}, {"a", "2"}, {"b", "3"}, {"a", "4"}, {"c", "5"}});
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].key, "a");
  EXPECT_EQ(groups[0].values, (std::vector<std::string>{"2", "4"}));
  EXPECT_EQ(groups[1].key, "b");
  EXPECT_EQ(groups[1].values, (std::vector<std::string>{"1", "3"}));
  EXPECT_EQ(groups[2].key, "c");
}

TEST(SortAndGroup, StableWithinKey) {
  const auto groups =
      sort_and_group({{"k", "first"}, {"k", "second"}, {"k", "third"}});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].values,
            (std::vector<std::string>{"first", "second", "third"}));
}

TEST(SortAndGroup, EmptyInput) {
  EXPECT_TRUE(sort_and_group({}).empty());
}

std::vector<std::vector<Record>> synthetic_outputs(std::size_t tasks,
                                                   std::size_t per_task) {
  dasc::Rng rng(41);
  std::vector<std::vector<Record>> outputs(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    for (std::size_t i = 0; i < per_task; ++i) {
      // Few distinct keys so groups span tasks; values record provenance
      // so stable ordering is observable.
      outputs[t].push_back({"sig" + std::to_string(rng() % 9),
                            "t" + std::to_string(t) + "v" +
                                std::to_string(i)});
    }
  }
  return outputs;
}

/// Passes each record through unchanged.
struct IdentityMapper final : Mapper {
  void map(const std::string& key, const std::string& value,
           Emitter& out) override {
    out.emit(key, value);
  }
};

/// Each task's records as the map task that emitted them hands them to the
/// shuffle: framed into `num_partitions` partition runs.
std::vector<MapOutput> map_outputs(
    const std::vector<std::vector<Record>>& outputs,
    std::size_t num_partitions) {
  std::vector<MapOutput> mapped;
  for (const auto& output : outputs) {
    std::string run;
    for (const Record& record : output) {
      append_record_frame(run, record.key, record.value);
    }
    mapped.push_back(
        detail::execute_map_task(
            [] { return std::make_unique<IdentityMapper>(); }, nullptr,
            /*use_combiner=*/false, run, num_partitions)
            .output);
  }
  return mapped;
}

/// A reducer that records every group it is handed.
struct GroupRecorder final : Reducer {
  explicit GroupRecorder(std::vector<KeyGroup>& out) : groups(out) {}
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& /*out*/) override {
    groups.push_back({key, values});
  }
  std::vector<KeyGroup>& groups;
};

/// What one reduce task saw: the groups it was handed, in order, and its
/// partition's record bytes.
struct ReducedPartition {
  std::vector<KeyGroup> groups;
  std::uint64_t record_bytes = 0;
};

/// Reduce task `partition` as the in-process executor runs it: run
/// `partition` of every map output, in task order, through fetch_verified
/// (each re-fetch counts `retry.shuffle_fetch` in `metrics`) into
/// execute_reduce_task, with the spool's faults and metrics set to the
/// arguments.
ReducedPartition reduce_partition(const std::vector<MapOutput>& outputs,
                                  std::size_t partition,
                                  FaultInjector* faults,
                                  std::size_t max_attempts,
                                  MetricsRegistry* metrics,
                                  SpoolConfig spool) {
  spool.faults = faults;
  spool.metrics = metrics;
  const auto on_retry = [metrics] {
    if (metrics != nullptr) metrics->counter("retry.shuffle_fetch").add();
  };
  ReducedPartition reduced;
  reduced.record_bytes =
      detail::execute_reduce_task(
          [&] { return std::make_unique<GroupRecorder>(reduced.groups); },
          outputs.size(),
          [&](std::size_t map_task) {
            fetch_verified(map_task, faults, max_attempts, [] {}, on_retry);
            return outputs[map_task].run(partition);
          },
          spool)
          .record_bytes;
  return reduced;
}

/// The reference shuffle: each record into its partition_for_key
/// partition in task order, then sort_and_group per partition.
std::vector<std::vector<KeyGroup>> reference_groups(
    const std::vector<std::vector<Record>>& outputs,
    std::size_t num_partitions) {
  std::vector<std::vector<Record>> partitions(num_partitions);
  for (const auto& output : outputs) {
    for (const auto& record : output) {
      partitions[partition_for_key(record.key, num_partitions)].push_back(
          record);
    }
  }
  std::vector<std::vector<KeyGroup>> groups;
  for (auto& partition : partitions) {
    groups.push_back(sort_and_group(std::move(partition)));
  }
  return groups;
}

void expect_same_groups(const std::vector<KeyGroup>& a,
                        const std::vector<KeyGroup>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(a[g].key, b[g].key);
    EXPECT_EQ(a[g].values, b[g].values);
  }
}

TEST(ShuffleRetry, ReduceTasksMatchPartitionOutputs) {
  const std::vector<std::vector<Record>> outputs = {
      {{"a", "1"}, {"b", "2"}, {"c", "3"}},
      {{"b", "4"}, {"d", "5"}},
      {{"a", "6"}},
  };
  const auto reference = reference_groups(outputs, 3);
  const SpoolConfig spool = shuffle_spool_config(0, "", 4);
  const std::vector<MapOutput> mapped = map_outputs(outputs, 3);

  // Corrupt fires fail their attempt and are re-fetched; with or without
  // an injector the runs append in place. Both shuffles hold the
  // reference partitions.
  MetricsRegistry registry;
  FaultInjector injector(
      FaultPlan::parse("shuffle.fetch:nth=1:max=2:kind=corrupt"));
  for (std::size_t p = 0; p < 3; ++p) {
    expect_same_groups(
        reduce_partition(mapped, p, &injector, /*max_attempts=*/4, &registry,
                         spool)
            .groups,
        reference[p]);
    expect_same_groups(
        reduce_partition(mapped, p, nullptr, 4, nullptr, spool).groups,
        reference[p]);
  }
  EXPECT_EQ(registry.counter_value("retry.shuffle_fetch"), 2);

  // A corrupt fire fails the attempt of an empty output too, and the
  // re-fetch delivers the empty output. With one attempt, the same fire
  // exhausts the fetch.
  const std::vector<MapOutput> empty = map_outputs({std::vector<Record>()}, 2);
  MetricsRegistry empty_registry;
  FaultInjector empty_injector(
      FaultPlan::parse("shuffle.fetch:nth=1:max=1:kind=corrupt"));
  std::uint64_t refetched_bytes = 0;
  for (std::size_t p = 0; p < 2; ++p) {
    const ReducedPartition refetched = reduce_partition(
        empty, p, &empty_injector, 2, &empty_registry, spool);
    EXPECT_TRUE(refetched.groups.empty());
    refetched_bytes += refetched.record_bytes;
  }
  EXPECT_EQ(empty_registry.counter_value("retry.shuffle_fetch"), 1);
  EXPECT_EQ(refetched_bytes, 0u);
  FaultInjector exhausting(
      FaultPlan::parse("shuffle.fetch:nth=1:max=1:kind=corrupt"));
  EXPECT_THROW(reduce_partition(empty, 0, &exhausting, 1, nullptr, spool),
               IoError);
}

TEST(ShuffleRetry, FetchVerifiedFailsEachFiredAttemptOnce) {
  std::size_t transfers = 0;
  std::size_t retries = 0;
  const auto transfer = [&] { ++transfers; };
  const auto on_retry = [&] { ++retries; };

  // No injector, nothing fires: one transfer, no retry.
  fetch_verified(0, nullptr, 1, transfer, on_retry);
  EXPECT_EQ(transfers, 1u);
  EXPECT_EQ(retries, 0u);

  // An error fire transfers nothing: only the third attempt transfers.
  transfers = retries = 0;
  FaultInjector errors(FaultPlan::parse("shuffle.fetch:nth=1:max=2"));
  fetch_verified(0, &errors, 3, transfer, on_retry);
  EXPECT_EQ(transfers, 1u);
  EXPECT_EQ(retries, 2u);

  // A corrupt fire transfers once and then fails its attempt.
  transfers = retries = 0;
  FaultInjector corrupt(
      FaultPlan::parse("shuffle.fetch:nth=1:max=2:kind=corrupt"));
  fetch_verified(0, &corrupt, 3, transfer, on_retry);
  EXPECT_EQ(transfers, 3u);
  EXPECT_EQ(retries, 2u);

  // The attempt cap throws IoError; the last failed attempt is not
  // followed by a retry.
  transfers = retries = 0;
  FaultInjector always(FaultPlan::parse("shuffle.fetch:nth=1:kind=corrupt"));
  EXPECT_THROW(fetch_verified(0, &always, 2, transfer, on_retry), IoError);
  EXPECT_EQ(transfers, 2u);
  EXPECT_EQ(retries, 1u);
  EXPECT_EQ(always.fired("shuffle.fetch"), 2u);
}

TEST(SpilledShuffle, GroupsMatchRamPathAcrossBudgetsAndPageSizes) {
  const auto outputs = synthetic_outputs(5, 40);
  const std::size_t num_partitions = 3;
  const auto reference = reference_groups(outputs, num_partitions);
  const std::vector<MapOutput> mapped = map_outputs(outputs, num_partitions);
  std::size_t reference_bytes = 0;
  for (const auto& output : outputs) {
    for (const auto& record : output) {
      reference_bytes += record.key.size() + record.value.size() + 2;
    }
  }

  for (const std::size_t budget :
       {std::size_t{0}, std::size_t{512}, std::size_t{1} << 22,
        std::numeric_limits<std::size_t>::max()}) {
    for (const std::size_t page_bytes : {std::size_t{64},
                                         std::size_t{4096}}) {
      SpoolConfig spool;
      spool.budget_bytes = budget;
      spool.page_bytes = page_bytes;
      std::size_t bytes = 0;
      for (std::size_t p = 0; p < num_partitions; ++p) {
        const ReducedPartition reduced =
            reduce_partition(mapped, p, nullptr, 4, nullptr, spool);
        bytes += reduced.record_bytes;
        expect_same_groups(reduced.groups, reference[p]);
      }
      EXPECT_EQ(bytes, reference_bytes);
    }
  }
}

TEST(SpilledShuffle, GroupsSurviveFetchAndPageFaults) {
  const auto outputs = synthetic_outputs(4, 30);
  const std::size_t num_partitions = 2;
  const auto reference = reference_groups(outputs, num_partitions);
  const std::vector<MapOutput> mapped = map_outputs(outputs, num_partitions);

  MetricsRegistry registry;
  FaultInjector injector(
      FaultPlan::parse("seed=5;shuffle.fetch:nth=2:max=2:kind=corrupt;"
                       "spill.page_io:nth=3:max=5:kind=corrupt"),
      &registry);
  SpoolConfig spool;
  spool.page_bytes = 128;
  for (std::size_t p = 0; p < num_partitions; ++p) {
    expect_same_groups(
        reduce_partition(mapped, p, &injector, 6, &registry, spool).groups,
        reference[p]);
  }
  EXPECT_GT(injector.total_fired(), 0u);
}

TEST(SpilledShuffle, GroupsAreRepeatable) {
  // Each reduce attempt rebuilds its spool from the retained map outputs:
  // a re-attempt sees the same stream again.
  const auto outputs = synthetic_outputs(3, 25);
  const std::vector<MapOutput> mapped = map_outputs(outputs, 2);
  SpoolConfig spool;
  spool.page_bytes = 96;
  for (std::size_t p = 0; p < 2; ++p) {
    const auto first =
        reduce_partition(mapped, p, nullptr, 4, nullptr, spool).groups;
    expect_same_groups(
        reduce_partition(mapped, p, nullptr, 4, nullptr, spool).groups,
        first);
  }
}

}  // namespace
}  // namespace dasc::mapreduce
