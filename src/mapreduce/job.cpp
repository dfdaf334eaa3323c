#include "mapreduce/job.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/spool.hpp"
#include "common/stopwatch.hpp"
#include "mapreduce/remote_runner.hpp"
#include "mapreduce/shuffle.hpp"
#include "mapreduce/task_exec.hpp"
#include "mapreduce/virtual_cluster.hpp"

namespace dasc::mapreduce {

void JobOutput::set_part(std::size_t task, std::string run,
                         std::size_t records) {
  DASC_EXPECT(task < parts_.size(), "JobOutput: no such reduce task");
  parts_[task] = {std::move(run), records};
}

std::size_t JobOutput::size() const {
  std::size_t total = 0;
  for (const RecordRun& part : parts_) total += part.records;
  return total;
}

std::vector<Record> JobOutput::records() const {
  std::vector<Record> out;
  out.reserve(size());
  for_each([&out](std::string_view key, std::string_view value) {
    out.push_back({std::string(key), std::string(value)});
  });
  return out;
}

namespace {

using detail::execute_map_task;
using detail::execute_reduce_task;
using detail::run_task_phase;

/// In-process execution: tasks run on a host thread pool, each mapping its
/// split's run in place.
JobResult execute_in_process(const JobSpec& spec,
                             std::vector<RecordRun> splits) {
  Stopwatch total_clock;
  JobResult result;
  result.num_map_tasks = splits.size();
  result.num_reduce_tasks = spec.conf.num_reducers;
  result.map_task_seconds.assign(splits.size(), 0.0);
  result.map_task_workers = assign_tasks(
      splits.size(), spec.conf.num_workers, spec.conf.placement_seed);
  result.reduce_task_workers =
      assign_tasks(spec.conf.num_reducers, spec.conf.num_workers,
                   spec.conf.placement_seed + 1);

  DASC_LOG(kInfo) << spec.conf.job_name << ": " << splits.size()
                  << " map tasks, " << spec.conf.num_reducers
                  << " reduce tasks on " << spec.conf.num_nodes << " nodes";

  // ---- Map phase (parallel over tasks; one mapper instance per task) ----
  std::vector<MapOutput> map_outputs(splits.size());
  std::atomic<std::uint64_t> map_in{0};
  std::atomic<std::uint64_t> map_out{0};
  std::atomic<std::uint64_t> combine_in{0};
  std::atomic<std::uint64_t> combine_out{0};

  const bool use_combiner =
      spec.conf.enable_combiner && spec.combiner_factory != nullptr;
  std::atomic<std::uint64_t> failed_attempts{0};
  std::atomic<std::uint64_t> speculative_launches{0};

  run_task_phase(
      spec, splits.size(), "map.task", "retry.map_attempts", failed_attempts,
      speculative_launches, result.map_task_seconds,
      [&](std::size_t task, bool /*backup*/) -> detail::TaskAttempt {
        detail::MapTaskResult mapped = execute_map_task(
            spec.mapper_factory, spec.combiner_factory, use_combiner,
            splits[task].run, spec.conf.num_reducers);

        // The commit closure runs only for the attempt that wins the task,
        // so a retried or speculative attempt never double-counts (Hadoop
        // discards failed attempts' output). A losing attempt's output is
        // a process-local temporary, dropped with its closure.
        return {[&, task, emitted = mapped.emitted,
                 combined_count = mapped.combined,
                 output = std::move(mapped.output)]() mutable {
                  map_in.fetch_add(splits[task].records,
                                   std::memory_order_relaxed);
                  map_out.fetch_add(emitted, std::memory_order_relaxed);
                  if (use_combiner) {
                    combine_in.fetch_add(emitted, std::memory_order_relaxed);
                    combine_out.fetch_add(combined_count,
                                          std::memory_order_relaxed);
                  }
                  map_outputs[task] = std::move(output);
                }};
      });

  // Every map attempt has finished, so no split is read again.
  std::vector<RecordRun>().swap(splits);

  result.counters.map_input_records = map_in.load();
  result.counters.map_output_records = map_out.load();
  result.counters.combine_input_records = combine_in.load();
  result.counters.combine_output_records = combine_out.load();

  // ---- Reduce phase: each task shuffles its own partition ----
  // A reduce attempt fetches run `task` of every map output in task order
  // into its own sort-on-seal spool, as a worker's reducer pulls it, so the
  // shuffle runs on the task pool and overlaps other tasks' reduces. In
  // process nothing is copied: the transfer is empty and only injected
  // fires fail a fetch; one that exhausts max_fetch_attempts fails the
  // attempt, which retries like any reduce attempt.
  const std::size_t num_reduce_tasks = spec.conf.num_reducers;
  for (const MapOutput& output : map_outputs) {
    DASC_EXPECT(output.num_partitions() == num_reduce_tasks,
                "run_job: map output has another partition count");
  }
  SpoolConfig spool = shuffle_spool_config(spec.conf.spill_budget_bytes,
                                           spec.conf.spill_dir,
                                           spec.conf.max_fetch_attempts);
  spool.faults = spec.faults;
  spool.metrics = spec.metrics;
  const auto on_fetch_retry = [&spec] {
    if (spec.metrics != nullptr) {
      spec.metrics->counter("retry.shuffle_fetch").add();
    }
  };
  result.reduce_task_seconds.assign(num_reduce_tasks, 0.0);
  result.output = JobOutput(num_reduce_tasks);
  std::atomic<std::uint64_t> shuffle_bytes{0};
  std::atomic<std::uint64_t> reduce_groups{0};
  std::atomic<std::uint64_t> reduce_in{0};
  std::atomic<std::uint64_t> reduce_out{0};

  run_task_phase(
      spec, num_reduce_tasks, "reduce.task", "retry.reduce_attempts",
      failed_attempts, speculative_launches, result.reduce_task_seconds,
      [&](std::size_t task, bool /*backup*/) -> detail::TaskAttempt {
        detail::ReduceTaskResult reduced = execute_reduce_task(
            spec.reducer_factory, map_outputs.size(),
            [&](std::size_t map_task) {
              fetch_verified(map_task, spec.faults,
                             spec.conf.max_fetch_attempts, [] {},
                             on_fetch_retry);
              return map_outputs[map_task].run(task);
            },
            spool);
        return {[&, task, reduced = std::move(reduced)]() mutable {
                  shuffle_bytes.fetch_add(reduced.record_bytes,
                                          std::memory_order_relaxed);
                  reduce_groups.fetch_add(reduced.num_groups,
                                          std::memory_order_relaxed);
                  reduce_in.fetch_add(reduced.in_records,
                                      std::memory_order_relaxed);
                  reduce_out.fetch_add(reduced.out_records,
                                       std::memory_order_relaxed);
                  result.output.set_part(task, std::move(reduced.output),
                                         reduced.out_records);
                }};
      });

  // Every reduce attempt has finished, so no map output is read again.
  std::vector<MapOutput>().swap(map_outputs);

  result.counters.shuffle_bytes = shuffle_bytes.load();
  result.counters.reduce_input_groups = reduce_groups.load();
  result.counters.reduce_input_records = reduce_in.load();
  result.counters.reduce_output_records = reduce_out.load();
  result.counters.failed_task_attempts = failed_attempts.load();

  // ---- Simulated cluster time, metrics, completion log ----
  result.real_seconds = total_clock.seconds();
  detail::finalize_job_result(spec, speculative_launches.load(), result);
  return result;
}

}  // namespace

JobResult run_job_splits(const JobSpec& spec, std::vector<RecordRun> splits) {
  spec.conf.validate();
  DASC_EXPECT(spec.mapper_factory != nullptr, "run_job: missing mapper");
  DASC_EXPECT(spec.reducer_factory != nullptr, "run_job: missing reducer");
  if (splits.empty()) splits.emplace_back();  // empty job still runs
  if (spec.conf.execution_mode == ExecutionMode::kMultiProcess) {
    return run_job_multiproc(spec, std::move(splits));
  }
  return execute_in_process(spec, std::move(splits));
}

JobResult run_job(const JobSpec& spec, std::vector<Record> input) {
  spec.conf.validate();
  std::vector<RecordRun> splits;
  for (std::size_t start = 0; start < input.size();
       start += spec.conf.split_records) {
    const std::size_t end =
        std::min(input.size(), start + spec.conf.split_records);
    RecordRun& split = splits.emplace_back();
    split.records = end - start;
    std::size_t bytes = 0;
    for (std::size_t i = start; i < end; ++i) {
      bytes += 8 + input[i].key.size() + input[i].value.size();
    }
    split.run.reserve(bytes);
    for (std::size_t i = start; i < end; ++i) {
      append_record_frame(split.run, input[i].key, input[i].value);
    }
  }
  std::vector<Record>().swap(input);  // framed: free the records now
  return run_job_splits(spec, std::move(splits));
}

JobResult run_job_dfs(const JobSpec& spec, Dfs& dfs,
                      const std::string& input_path,
                      const std::string& output_path) {
  spec.conf.validate();
  const std::vector<BlockInfo> blocks = dfs.block_locations(input_path);

  // One split per DFS block, (global line number, line) records: the
  // data-local layout a Hadoop job would use.
  std::vector<RecordRun> splits(blocks.size());
  std::size_t line_offset = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::vector<std::string> lines = dfs.read_block(input_path, b);
    for (const std::string& line : lines) {
      append_record_frame(splits[b].run, std::to_string(line_offset++), line);
    }
    splits[b].records = lines.size();
  }

  JobResult result = run_job_splits(spec, std::move(splits));

  // Persist reduce output as part files, Hadoop-style.
  std::vector<std::string> lines;
  lines.reserve(result.output.size());
  for (const Record& record : result.output.records()) {
    lines.push_back(record.key + "\t" + record.value);
  }
  char name[32];
  std::snprintf(name, sizeof(name), "/part-r-%05d", 0);
  dfs.write_file(output_path + name, lines);
  return result;
}

}  // namespace dasc::mapreduce
