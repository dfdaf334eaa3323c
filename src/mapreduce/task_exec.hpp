// Shared task-attempt machinery for the in-process executor (job.cpp) and
// the multi-process remote runner (remote_runner.cpp).
//
// Both execution modes run phases through the same run_task_phase — fault
// injection before each attempt, commit-once idempotence, retries,
// optional speculative re-execution — and both execute the *work*
// of a task through the same execute_map_task / execute_reduce_task
// helpers (the in-process mode calls them on the job's thread pool, a
// worker process calls them inside its serve loop). Sharing the code is
// what makes the modes' outputs byte-identical by construction rather than
// by testing alone.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/job.hpp"
#include "mapreduce/shuffle.hpp"
#include "mapreduce/types.hpp"

namespace dasc::mapreduce::detail {

/// What one finished task attempt hands back to the phase runner: `commit`
/// applies the attempt's side effects (output slot + counters). Only the
/// attempt that wins the task's commit race runs it, so retried and
/// speculative attempts are idempotent — a discarded attempt leaves no
/// trace in the job's result, like Hadoop discarding a failed attempt's
/// output.
struct TaskAttempt {
  std::function<void()> commit;
};

/// A task attempt body: does the work for `task` and returns its
/// TaskAttempt. `backup` is true for a speculative backup attempt — the
/// multi-process runner places backups on a different worker than the
/// primary's current slot, which is what makes commit arbitration between
/// live processes race-free.
using TaskBody = std::function<TaskAttempt(std::size_t task, bool backup)>;

/// One phase of task attempts with Hadoop-style fault tolerance:
///   - fault injection at `fault_site` before each attempt (JobSpec.faults),
///   - per-task retry up to conf.max_task_attempts, at once (the phase
///     `retry_counter` counts retried attempts),
///   - commit-once idempotence via the TaskBody contract above,
///   - optional speculative re-execution: once at least half the tasks
///     have committed, any task slower than speculative_slowdown x the
///     median committed duration (and speculative_min_ms) gets one backup
///     attempt; first commit wins (`retry.speculative_launches` gauge; a
///     backup that wins also bumps the `worker.spec_commits_won` gauge)
///     and the loser's attempt is dropped.
/// The committing attempt's duration lands in task_seconds (a backup that
/// wins shortens the task, which is the point of speculation). The first
/// permanent task failure is rethrown after every task settles.
void run_task_phase(const JobSpec& spec, std::size_t num_tasks,
                    std::string_view fault_site, const char* retry_counter,
                    std::atomic<std::uint64_t>& failed_attempts,
                    std::atomic<std::uint64_t>& speculative_launches,
                    std::vector<double>& task_seconds, const TaskBody& body);

struct MapTaskResult {
  MapOutput output;
  std::uint64_t emitted = 0;   ///< mapper output records (pre-combine)
  std::uint64_t combined = 0;  ///< combiner output records (0 if unused)
};

/// Run one map task: map every record of `input`, a run in the spool's
/// framing, in one pass, then (when `use_combiner`) sort/group the local
/// output and fold it through the combiner. Output records are framed
/// straight into their runs of `num_partitions`. A malformed frame throws
/// IoError, and the attempt's partial output is dropped with it.
MapTaskResult execute_map_task(
    const std::function<std::unique_ptr<Mapper>()>& mapper_factory,
    const std::function<std::unique_ptr<Reducer>()>& combiner_factory,
    bool use_combiner, std::string_view input, std::size_t num_partitions);

struct ReduceTaskResult {
  /// The reducer's output records in the spool's framing, in emit order:
  /// the task's JobOutput part.
  std::string output;
  std::uint64_t out_records = 0;
  std::uint64_t num_groups = 0;
  std::uint64_t in_records = 0;
  /// The partition's record bytes (key + value + 2 per record): the task's
  /// share of the job's shuffle_bytes.
  std::uint64_t record_bytes = 0;
};

/// Hands a reduce task run `partition` of map output `map_task`, fetched
/// and checked by the execution mode (through fetch_verified). The view
/// need only stay valid until the next call.
using RunFetcher = std::function<std::string_view(std::size_t map_task)>;

/// One reduce task's copy, sort-merge and reduce — the one path both
/// execution modes run, so a partition's record sequence and groups cannot
/// differ between them. Appends fetch_run(m) for every map task m in task
/// order to a SpoolBuffer built from `spool` (the spill budget only
/// decides where its sorted pages live) and seals it, recording the
/// fetches, appends and seal as one `mapreduce.shuffle` sample in
/// spool.metrics. It then streams groups off the merged order (a stable
/// sort by key), so only one group is resident at a time whatever the
/// budget, and frames the reducer's output straight into one run. Each
/// call builds its own spool, so concurrent attempts of one task share
/// nothing but the map outputs they read.
ReduceTaskResult execute_reduce_task(
    const std::function<std::unique_ptr<Reducer>()>& reducer_factory,
    std::size_t num_map_tasks, const RunFetcher& fetch_run,
    const SpoolConfig& spool);

/// Fill in the simulated makespans, record the job's metrics, and log the
/// completion line — the common tail of both execution modes. Expects
/// result.{map,reduce}_task_seconds and result.counters to be complete.
void finalize_job_result(const JobSpec& spec,
                         std::uint64_t speculative_launches, JobResult& result);

}  // namespace dasc::mapreduce::detail
