// The job tracker: splits input, runs map tasks, shuffles, runs reduce
// tasks, and accounts both real wall-clock and simulated cluster time.
//
// Execution model (see DESIGN.md): tasks execute for real on a host thread
// pool; each task's measured duration is then scheduled onto the virtual
// cluster described by JobConf (num_nodes x slots) to obtain the makespan a
// Hadoop deployment of that size would observe. Map and reduce phases are
// separated by a barrier, as in Hadoop.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/spool.hpp"
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

/// A job's output as its reduce tasks wrote it: one run of records in the
/// spool's framing (append_record_frame) per reduce task, in partition
/// order, never joined into one array. Part p holds reduce task p's output
/// in emit order; for_each visits part 0's records, then part 1's, and so
/// on. Hadoop likewise leaves one part-r-NNNNN file per reduce task.
class JobOutput {
 public:
  JobOutput() = default;
  explicit JobOutput(std::size_t num_parts) : parts_(num_parts) {}

  /// Installs reduce task `task`'s run of `records` frames. Distinct tasks
  /// may be set concurrently; the run must be well-formed framing (a run
  /// from another process is checked before it gets here).
  void set_part(std::size_t task, std::string run, std::size_t records);

  std::size_t num_parts() const { return parts_.size(); }
  /// Reduce task `task`'s framed run.
  std::string_view part(std::size_t task) const { return parts_[task].run; }
  /// The number of records in part `task`.
  std::size_t part_size(std::size_t task) const { return parts_[task].records; }

  /// The number of records over all parts.
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// Calls visit(key, value) for every record, part by part; the views
  /// alias this output.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const RecordRun& part : parts_) {
      for_each_record_frame(part.run, visit);
    }
  }

  /// Every record copied out, in for_each order.
  std::vector<Record> records() const;

  friend bool operator==(const JobOutput&, const JobOutput&) = default;

 private:
  std::vector<RecordRun> parts_;
};

struct JobResult {
  /// Reduce outputs, one framed run per reduce task.
  JobOutput output;
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

/// Run a job over its input splits: one map task per split, in order, each
/// mapping its run's records in run order. A split's `records` must be its
/// run's frame count (it is the task's map_input_records). No splits runs
/// one empty map task. Map tasks read their records straight out of the
/// runs, which are freed once the map phase ends; a malformed frame fails
/// the attempt that reads it.
JobResult run_job_splits(const JobSpec& spec, std::vector<RecordRun> splits);

/// Run a job over in-memory input records: frames them into a split every
/// conf.split_records and calls run_job_splits.
JobResult run_job(const JobSpec& spec, std::vector<Record> input);

/// Run a job over a DFS file: one map task per block (data-local splits),
/// writing reduce outputs to `<output_path>/part-r-NNNNN` files of
/// tab-separated key/value lines.
JobResult run_job_dfs(const JobSpec& spec, Dfs& dfs,
                      const std::string& input_path,
                      const std::string& output_path);

}  // namespace dasc::mapreduce
