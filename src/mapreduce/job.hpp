// The job tracker: splits input, runs map tasks, shuffles, runs reduce
// tasks, and accounts both real wall-clock and simulated cluster time.
//
// Execution model (see DESIGN.md): tasks execute for real on a host thread
// pool; each task's measured duration is then scheduled onto the virtual
// cluster described by JobConf (num_nodes x slots) to obtain the makespan a
// Hadoop deployment of that size would observe. Map and reduce phases are
// separated by a barrier, as in Hadoop.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/dfs.hpp"
#include "mapreduce/job_conf.hpp"
#include "mapreduce/types.hpp"

namespace dasc {
class FaultInjector;
class MetricsRegistry;
}  // namespace dasc

namespace dasc::mapreduce {

/// A complete job description. Factories are invoked once per task, so
/// mapper/reducer instances never need to be thread-safe.
struct JobSpec {
  JobConf conf;
  std::function<std::unique_ptr<Mapper>()> mapper_factory;
  std::function<std::unique_ptr<Reducer>()> reducer_factory;
  /// Optional combiner (run per map task when conf.enable_combiner).
  std::function<std::unique_ptr<Reducer>()> combiner_factory;
  /// Optional sink for `mapreduce.{map,shuffle,reduce}` timers and the
  /// `mapreduce.*` record counters (null = off).
  MetricsRegistry* metrics = nullptr;
  /// Optional fault source (sites `map.task`, `reduce.task`,
  /// `shuffle.fetch`). Task attempts are committed exactly once, retried
  /// with capped exponential backoff up to conf.max_task_attempts, and —
  /// when conf.enable_speculation — speculatively re-executed for
  /// stragglers; shuffle transfers are checksum-verified and re-fetched.
  /// For a fixed plan seed, job output is bit-identical with and without
  /// faults as long as every task eventually succeeds. Null = off.
  FaultInjector* faults = nullptr;
};

struct JobResult {
  /// Reduce outputs concatenated in partition order.
  std::vector<Record> output;
  Counters counters;

  std::size_t num_map_tasks = 0;
  std::size_t num_reduce_tasks = 0;
  std::vector<double> map_task_seconds;
  std::vector<double> reduce_task_seconds;

  /// Task -> worker placement plan (assign_tasks over conf.placement_seed).
  /// In kMultiProcess mode this is the real initial dispatch plan (a task
  /// may migrate if its worker dies); kInProcess records the same seeded
  /// plan so placement determinism holds across execution modes.
  std::vector<std::size_t> map_task_workers;
  std::vector<std::size_t> reduce_task_workers;

  /// Simulated phase makespans on the virtual cluster.
  double map_makespan_seconds = 0.0;
  double reduce_makespan_seconds = 0.0;
  /// map + reduce makespans (the job's simulated elapsed time).
  double simulated_seconds = 0.0;
  /// Actual wall-clock of this in-process run.
  double real_seconds = 0.0;
};

/// Run a job over in-memory input records (split every conf.split_records).
/// The records move into the splits, so a caller that passes an rvalue
/// (such as the previous job's output) hands them over without a copy.
JobResult run_job(const JobSpec& spec, std::vector<Record> input);

/// Run a job over a DFS file: one map task per block (data-local splits),
/// writing reduce outputs to `<output_path>/part-r-NNNNN` files of
/// tab-separated key/value lines.
JobResult run_job_dfs(const JobSpec& spec, Dfs& dfs,
                      const std::string& input_path,
                      const std::string& output_path);

}  // namespace dasc::mapreduce
