#include "mapreduce/job.hpp"

#include "mapreduce/virtual_cluster.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/spool.hpp"
#include "mapreduce/shuffle.hpp"

namespace dasc::mapreduce {
namespace {

/// Classic word count: the canonical end-to-end exercise of the runtime.
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
  spec.conf.split_records = 4;
  spec.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  spec.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  return spec;
}

std::vector<Record> word_count_input() {
  return {
      {"0", "the quick brown fox"},
      {"1", "the lazy dog"},
      {"2", "the quick dog"},
      {"3", "fox fox fox"},
      {"4", "dog"},
  };
}

std::map<std::string, long> to_counts(const JobOutput& output) {
  std::map<std::string, long> counts;
  output.for_each([&counts](std::string_view key, std::string_view value) {
    counts[std::string(key)] += std::stol(std::string(value));
  });
  return counts;
}

TEST(Job, WordCountEndToEnd) {
  const JobResult result = run_job(word_count_spec(), word_count_input());
  const auto counts = to_counts(result.output);
  EXPECT_EQ(counts.at("the"), 3);
  EXPECT_EQ(counts.at("fox"), 4);
  EXPECT_EQ(counts.at("dog"), 3);
  EXPECT_EQ(counts.at("quick"), 2);
  EXPECT_EQ(counts.at("brown"), 1);
  EXPECT_EQ(counts.at("lazy"), 1);
}

TEST(Job, CountersAreConsistent) {
  const JobResult result = run_job(word_count_spec(), word_count_input());
  EXPECT_EQ(result.counters.map_input_records, 5u);
  EXPECT_EQ(result.counters.map_output_records, 14u);  // 14 words total
  // The combiner folds duplicate words within each split.
  EXPECT_EQ(result.counters.combine_input_records, 14u);
  EXPECT_LT(result.counters.combine_output_records, 14u);
  EXPECT_EQ(result.counters.reduce_input_groups, 6u);  // distinct words
  EXPECT_EQ(result.counters.reduce_output_records, 6u);
  EXPECT_GT(result.counters.shuffle_bytes, 0u);
}

TEST(Job, CombinerDoesNotChangeResult) {
  JobSpec with = word_count_spec();
  JobSpec without = word_count_spec();
  without.conf.enable_combiner = false;
  const auto counts_with = to_counts(run_job(with, word_count_input()).output);
  const auto counts_without =
      to_counts(run_job(without, word_count_input()).output);
  EXPECT_EQ(counts_with, counts_without);
}

TEST(Job, SplitsRespectSplitRecords) {
  JobSpec spec = word_count_spec();
  spec.conf.split_records = 2;
  const JobResult result = run_job(spec, word_count_input());
  EXPECT_EQ(result.num_map_tasks, 3u);  // ceil(5 / 2)
  EXPECT_EQ(result.map_task_seconds.size(), 3u);
}

TEST(Job, EmptyInputStillRuns) {
  const JobResult result = run_job(word_count_spec(), {});
  EXPECT_TRUE(result.output.empty());
  EXPECT_EQ(result.counters.map_input_records, 0u);
  EXPECT_EQ(result.num_map_tasks, 1u);
}

/// `records` in the spool's framing: one JobOutput part.
std::string framed(const std::vector<Record>& records) {
  std::string run;
  for (const Record& record : records) {
    append_record_frame(run, record.key, record.value);
  }
  return run;
}

/// A JobOutput whose part p holds parts[p].
JobOutput output_of(const std::vector<std::vector<Record>>& parts) {
  JobOutput output(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    output.set_part(p, framed(parts[p]), parts[p].size());
  }
  return output;
}

std::vector<Record> visited(const JobOutput& output) {
  std::vector<Record> records;
  output.for_each([&records](std::string_view key, std::string_view value) {
    records.push_back({std::string(key), std::string(value)});
  });
  return records;
}

TEST(JobOutput, EmptyJobHasNoRecords) {
  for (const JobOutput& output : {JobOutput(), JobOutput(3)}) {
    EXPECT_EQ(output.size(), 0u);
    EXPECT_TRUE(output.empty());
    EXPECT_TRUE(visited(output).empty());
    EXPECT_TRUE(output.records().empty());
  }
  const JobResult result = run_job(word_count_spec(), {});
  ASSERT_EQ(result.output.num_parts(), 3u);  // one per reduce task
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(result.output.part(p).empty());
    EXPECT_EQ(result.output.part_size(p), 0u);
  }
}

TEST(JobOutput, WalksPartsInOrderAcrossEmptyParts) {
  std::vector<std::vector<Record>> parts(7);
  parts[1] = {{"b", "1"}, {"a", "2"}};
  parts[4] = {{"", ""}};
  parts[5] = {{"c", "33"}};
  const JobOutput output = output_of(parts);
  std::vector<Record> concatenated;
  for (const auto& part : parts) {
    concatenated.insert(concatenated.end(), part.begin(), part.end());
  }
  EXPECT_EQ(output.size(), 4u);
  EXPECT_FALSE(output.empty());
  ASSERT_EQ(output.num_parts(), parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    EXPECT_EQ(output.part_size(p), parts[p].size());
    EXPECT_EQ(output.part(p), framed(parts[p]));
  }
  EXPECT_EQ(visited(output), concatenated);
  EXPECT_EQ(output.records(), concatenated);
  EXPECT_EQ(output, output_of(parts));
  // The same records split into other parts are another output.
  std::vector<std::vector<Record>> shifted = parts;
  shifted.erase(shifted.begin());
  EXPECT_NE(output, output_of(shifted));
}

TEST(JobOutput, PartPIsReduceTaskPsOutputAtAnySpillBudget) {
  const JobResult baseline = run_job(word_count_spec(), word_count_input());
  const JobOutput& output = baseline.output;
  ASSERT_EQ(output.num_parts(), 3u);
  EXPECT_EQ(output.size(), baseline.counters.reduce_output_records);
  for (std::size_t p = 0; p < output.num_parts(); ++p) {
    const auto in_partition_p = [p](std::string_view key, std::string_view) {
      EXPECT_EQ(partition_for_key(std::string(key), 3), p) << key;
    };
    for_each_record_frame(output.part(p), in_partition_p);
  }
  for (const std::size_t budget : {0u, 1u, 4096u}) {
    JobSpec spec = word_count_spec();
    spec.conf.spill_budget_bytes = budget;
    EXPECT_EQ(run_job(spec, word_count_input()).output, output)
        << "budget=" << budget;
  }
}

TEST(InProcessShuffle, PartsAndSpillPagesMatchAcrossThreadsAndBudgets) {
  // Each reduce task spools its own partition on the task pool, so how
  // many threads run the tasks may change neither the output parts, nor
  // the shuffle volume, nor the pages spilled at a given budget.
  std::vector<Record> input;
  for (int line = 0; line < 4000; ++line) {
    std::string text;
    for (int word = 0; word < 8; ++word) {
      text += "word" + std::to_string((line * 8 + word) % 499) + " ";
    }
    input.push_back({std::to_string(line), text});
  }
  JobSpec spec = word_count_spec();
  spec.conf.num_reducers = 4;
  spec.conf.split_records = 200;  // 20 map tasks
  spec.combiner_factory = nullptr;  // ship every word: ~75 KB a partition

  const JobResult reference = run_job(spec, input);
  ASSERT_GT(reference.counters.shuffle_bytes, 4u * 64 * 1024);
  for (const std::size_t budget : {0u, 1u, 4096u, 64u * 1024}) {
    std::int64_t pages = -1;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      MetricsRegistry registry;
      JobSpec cell = spec;
      cell.conf.spill_budget_bytes = budget;
      cell.conf.physical_threads = threads;
      cell.metrics = &registry;
      const JobResult result = run_job(cell, input);
      const std::string label = "budget=" + std::to_string(budget) +
                                " threads=" + std::to_string(threads);
      ASSERT_EQ(result.output.num_parts(), 4u) << label;
      for (std::size_t p = 0; p < 4; ++p) {
        EXPECT_EQ(result.output.part(p), reference.output.part(p)) << label;
      }
      EXPECT_EQ(result.counters.shuffle_bytes,
                reference.counters.shuffle_bytes)
          << label;
      EXPECT_EQ(registry.counter_value("mapreduce.shuffle_bytes"),
                static_cast<std::int64_t>(reference.counters.shuffle_bytes))
          << label;
      const std::int64_t spilled = registry.gauge_value("spill.pages");
      if (pages < 0) pages = spilled;
      EXPECT_EQ(spilled, pages) << label;
      EXPECT_EQ(spilled > 0, budget > 0) << label;
    }
  }
}

TEST(Job, SimulatedTimeShrinksWithMoreNodes) {
  // Build a heavier input so task durations are measurable, then reschedule
  // the SAME measured task set onto wider clusters: the virtual-cluster
  // makespan must be monotone in node count (re-running the job would
  // compare two different noisy measurements instead).
  std::vector<Record> input;
  for (int i = 0; i < 256; ++i) {
    std::string text;
    for (int w = 0; w < 200; ++w) {
      text += "word" + std::to_string((i * 31 + w) % 50) + " ";
    }
    input.push_back({std::to_string(i), text});
  }
  JobSpec spec = word_count_spec();
  spec.conf.split_records = 8;
  const JobResult result = run_job(spec, input);

  const double t1 =
      makespan_lpt(result.map_task_seconds, 1, spec.conf.map_slots_per_node) +
      makespan_lpt(result.reduce_task_seconds, 1,
                   spec.conf.reduce_slots_per_node);
  const double t8 =
      makespan_lpt(result.map_task_seconds, 8, spec.conf.map_slots_per_node) +
      makespan_lpt(result.reduce_task_seconds, 8,
                   spec.conf.reduce_slots_per_node);
  EXPECT_LE(t8, t1);
  EXPECT_GT(t1, 0.0);
}

TEST(Job, MissingFactoriesRejected) {
  JobSpec spec;
  spec.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  EXPECT_THROW(run_job(spec, {}), dasc::InvalidArgument);
  spec = word_count_spec();
  spec.reducer_factory = nullptr;
  EXPECT_THROW(run_job(spec, {}), dasc::InvalidArgument);
}

TEST(Job, InvalidConfRejected) {
  JobSpec spec = word_count_spec();
  spec.conf.num_reducers = 0;
  EXPECT_THROW(run_job(spec, {}), dasc::InvalidArgument);
}

TEST(Job, DfsJobReadsBlocksAndWritesParts) {
  DfsConfig dfs_config;
  dfs_config.block_size_bytes = 64;
  Dfs dfs(dfs_config);
  std::vector<std::string> lines;
  for (int i = 0; i < 40; ++i) {
    lines.push_back("alpha beta gamma alpha");
  }
  dfs.write_file("/input/corpus", lines);

  JobSpec spec = word_count_spec();
  const JobResult result = run_job_dfs(spec, dfs, "/input/corpus", "/output");

  EXPECT_GT(result.num_map_tasks, 1u);  // one task per block
  const auto counts = to_counts(result.output);
  EXPECT_EQ(counts.at("alpha"), 80);
  EXPECT_EQ(counts.at("beta"), 40);

  // Output persisted as part files.
  const auto parts = dfs.list("/output/part-r-");
  ASSERT_EQ(parts.size(), 1u);
  const auto part_lines = dfs.read_file(parts[0]);
  EXPECT_EQ(part_lines.size(), result.output.size());
  EXPECT_NE(part_lines[0].find('\t'), std::string::npos);
}

/// Emits (word, input key) for every word of the value: which input
/// records, keyed how, reached which map task shows in the output.
class WordLinesMapper final : public Mapper {
 public:
  void map(const std::string& key, const std::string& value,
           Emitter& out) override {
    std::istringstream stream(value);
    std::string word;
    while (stream >> word) out.emit(word, key);
  }
};

/// Joins a group's values, in shuffle order, with commas.
class JoinReducer final : public Reducer {
 public:
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) override {
    std::string joined;
    for (const std::string& value : values) {
      if (!joined.empty()) joined += ',';
      joined += value;
    }
    out.emit(key, joined);
  }
};

TEST(Job, DfsSplitsKeyEachLineByItsGlobalLineNumber) {
  // One map task per block, mapping (global line number, line) records in
  // line order: each word's joined keys are its line numbers in ascending
  // order, in either execution mode, and the part file holds the output's
  // records as key<TAB>value lines.
  DfsConfig dfs_config;
  dfs_config.block_size_bytes = 64;
  Dfs dfs(dfs_config);
  std::vector<std::string> lines;
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 40; ++i) {
    const std::string word = std::string("w") + std::to_string(i % 3);
    lines.push_back(word + " common");
    for (const std::string& key : {word, std::string("common")}) {
      if (!expected[key].empty()) expected[key] += ',';
      expected[key] += std::to_string(i);
    }
  }
  dfs.write_file("/input/lines", lines);
  const std::size_t blocks = dfs.block_locations("/input/lines").size();
  ASSERT_GT(blocks, 4u);

  JobSpec spec;
  spec.conf.num_reducers = 3;
  spec.mapper_factory = [] { return std::make_unique<WordLinesMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<JoinReducer>(); };
  const JobResult result =
      run_job_dfs(spec, dfs, "/input/lines", "/output/in-process");
  EXPECT_EQ(result.num_map_tasks, blocks);
  EXPECT_EQ(result.counters.map_input_records, 40u);
  std::map<std::string, std::string> joined;
  std::vector<std::string> part_lines;
  result.output.for_each([&](std::string_view key, std::string_view value) {
    joined[std::string(key)] = std::string(value);
    part_lines.push_back(std::string(key) + "\t" + std::string(value));
  });
  EXPECT_EQ(joined, expected);
  EXPECT_EQ(dfs.read_file("/output/in-process/part-r-00000"), part_lines);

  JobSpec multi = spec;
  multi.conf.execution_mode = ExecutionMode::kMultiProcess;
  multi.conf.num_workers = 2;
  const JobResult remote =
      run_job_dfs(multi, dfs, "/input/lines", "/output/multi-process");
  EXPECT_EQ(remote.output, result.output);
  EXPECT_EQ(remote.counters, result.counters);
  EXPECT_EQ(dfs.read_file("/output/multi-process/part-r-00000"), part_lines);
}

/// `input` cut into splits of `split_records`, framed by hand, as a caller
/// that never builds Records would pass them.
std::vector<RecordRun> framed_splits(const std::vector<Record>& input,
                                     std::size_t split_records) {
  std::vector<RecordRun> splits;
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (i % split_records == 0) splits.emplace_back();
    append_record_frame(splits.back().run, input[i].key, input[i].value);
    ++splits.back().records;
  }
  return splits;
}

TEST(JobSplits, RecordAdapterAndFramedSplitsGiveOneOutput) {
  // run_job frames Records into the splits run_job_splits takes; either
  // way every cell's output parts are the same bytes and its counters the
  // same numbers.
  std::vector<Record> input;
  for (int line = 0; line < 60; ++line) {
    std::string text = "alpha w";
    text += std::to_string(line % 7);
    text += " beta w";
    text += std::to_string(line % 11);
    text += " alpha";
    input.push_back({std::to_string(line), text});
  }
  for (const bool combine : {false, true}) {
    for (const std::size_t split_records : {1u, 7u, 1024u}) {
      JobSpec spec = word_count_spec();
      spec.conf.enable_combiner = combine;
      spec.conf.split_records = split_records;
      spec.conf.physical_threads = 1;
      const JobResult reference = run_job(spec, input);
      ASSERT_EQ(reference.counters.map_input_records, input.size());
      ASSERT_EQ(reference.num_map_tasks,
                (input.size() + split_records - 1) / split_records);
      for (const ExecutionMode mode :
           {ExecutionMode::kInProcess, ExecutionMode::kMultiProcess}) {
        for (const std::size_t threads : {1u, 4u}) {
          JobSpec cell = spec;
          cell.conf.execution_mode = mode;
          cell.conf.num_workers = 2;
          cell.conf.physical_threads = threads;
          const std::string label =
              "combine=" + std::to_string(combine) +
              " split_records=" + std::to_string(split_records) +
              " multi_process=" +
              std::to_string(mode == ExecutionMode::kMultiProcess) +
              " threads=" + std::to_string(threads);
          const JobResult adapted = run_job(cell, input);
          const JobResult framed =
              run_job_splits(cell, framed_splits(input, split_records));
          for (const JobResult* result : {&adapted, &framed}) {
            ASSERT_EQ(result->output.num_parts(), 3u) << label;
            for (std::size_t p = 0; p < 3; ++p) {
              EXPECT_EQ(result->output.part(p), reference.output.part(p))
                  << label << " part " << p;
            }
            EXPECT_EQ(result->counters, reference.counters) << label;
            EXPECT_EQ(result->num_map_tasks, reference.num_map_tasks)
                << label;
          }
        }
      }
    }
  }
}

TEST(JobSplits, MalformedSplitFailsEveryAttempt) {
  // A split whose run ends mid-frame fails each attempt that maps it with
  // an IoError, in process and on a worker alike; once the attempts are
  // spent the job throws it.
  std::vector<RecordRun> splits = framed_splits(word_count_input(), 2);
  splits[1].run.pop_back();
  for (const ExecutionMode mode :
       {ExecutionMode::kInProcess, ExecutionMode::kMultiProcess}) {
    MetricsRegistry registry;
    JobSpec spec = word_count_spec();
    spec.conf.execution_mode = mode;
    spec.conf.num_workers = 2;
    spec.conf.max_task_attempts = 2;
    spec.metrics = &registry;
    EXPECT_THROW(run_job_splits(spec, splits), IoError);
    EXPECT_EQ(registry.counter_value("retry.map_attempts"), 1);
  }
}

TEST(Job, ZeroSpillBudgetNeverSpills) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("dasc-nospill-test-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  MetricsRegistry registry;
  JobSpec spec = word_count_spec();
  spec.conf.spill_dir = dir.string();
  spec.metrics = &registry;
  run_job(spec, word_count_input());
  EXPECT_EQ(registry.gauge_value("spill.bytes_written"), 0);
  EXPECT_EQ(registry.gauge_value("spill.pages"), 0);
  EXPECT_TRUE(fs::is_empty(dir));  // no dasc-spool-* file
  fs::remove_all(dir);
}

TEST(Job, FlakyMapperSucceedsWithRetries) {
  // A mapper whose first attempt per task fails must succeed when the
  // configuration allows retries, with counters unaffected by the failed
  // attempts (Hadoop discards their output).
  // A fresh mapper instance is constructed per attempt, so the "fail only
  // on the first attempt" state must live outside the mapper.
  static std::atomic<int> attempts{0};
  attempts = 0;
  class SharedFlakyMapper final : public Mapper {
   public:
    void map(const std::string& key, const std::string& value,
             Emitter& out) override {
      if (key == "0" && attempts.fetch_add(1) == 0) {
        throw std::runtime_error("transient failure");
      }
      std::istringstream stream(value);
      std::string word;
      while (stream >> word) out.emit(word, "1");
    }
  };

  JobSpec spec = word_count_spec();
  spec.conf.max_task_attempts = 3;
  spec.mapper_factory = [] { return std::make_unique<SharedFlakyMapper>(); };
  const JobResult result = run_job(spec, word_count_input());
  const auto counts = to_counts(result.output);
  EXPECT_EQ(counts.at("the"), 3);
  EXPECT_EQ(counts.at("fox"), 4);
  EXPECT_EQ(result.counters.failed_task_attempts, 1u);
  EXPECT_EQ(result.counters.map_input_records, 5u);  // no double counting
}

TEST(Job, PersistentFailureStillFailsAfterRetries) {
  class AlwaysFailingMapper final : public Mapper {
   public:
    void map(const std::string&, const std::string&, Emitter&) override {
      throw std::runtime_error("permanent failure");
    }
  };
  JobSpec spec = word_count_spec();
  spec.conf.max_task_attempts = 3;
  spec.mapper_factory = [] {
    return std::make_unique<AlwaysFailingMapper>();
  };
  EXPECT_THROW(run_job(spec, word_count_input()), std::runtime_error);
}

TEST(Job, ZeroAttemptConfigRejected) {
  JobSpec spec = word_count_spec();
  spec.conf.max_task_attempts = 0;
  EXPECT_THROW(run_job(spec, word_count_input()), dasc::InvalidArgument);
}

TEST(Job, MapperExceptionPropagates) {
  class ThrowingMapper final : public Mapper {
   public:
    void map(const std::string&, const std::string&, Emitter&) override {
      throw std::runtime_error("mapper failure");
    }
  };
  JobSpec spec = word_count_spec();
  spec.mapper_factory = [] { return std::make_unique<ThrowingMapper>(); };
  EXPECT_THROW(run_job(spec, word_count_input()), std::runtime_error);
}

TEST(Job, ReducerExceptionPropagates) {
  class ThrowingReducer final : public Reducer {
   public:
    void reduce(const std::string&, const std::vector<std::string>&,
                Emitter&) override {
      throw std::runtime_error("reducer failure");
    }
  };
  JobSpec spec = word_count_spec();
  spec.combiner_factory = nullptr;
  spec.reducer_factory = [] { return std::make_unique<ThrowingReducer>(); };
  EXPECT_THROW(run_job(spec, word_count_input()), std::runtime_error);
}

}  // namespace
}  // namespace dasc::mapreduce
