// Job and cluster configuration, defaulted to the paper's Elastic MapReduce
// setup (Table 2) and its five-node local cluster (Section 5.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dasc::mapreduce {

/// How task attempts execute physically (the virtual-cluster *time*
/// simulation is identical either way):
///   kInProcess    — tasks run on a host thread pool in this process (the
///                   historical mode).
///   kMultiProcess — tasks run in forked/exec'd worker processes over the
///                   ipc transport; shuffle fetches are real serialized
///                   CRC-verified transfers (DESIGN.md section 13). Job
///                   output is byte-identical to kInProcess.
enum class ExecutionMode { kInProcess, kMultiProcess };

/// Parses "in_process" / "multi_process"; throws InvalidArgument otherwise.
ExecutionMode parse_execution_mode(const std::string& text);
const char* to_string(ExecutionMode mode);

/// The multi-process shuffle topology. There is one: reducers pull their
/// partitions from the mapper workers (DESIGN.md section 14). The enum
/// survives so callers that name it keep compiling; nothing reads it.
enum class ShuffleMode { kWorkerToWorker };

/// Hadoop daemon heap sizes from Table 2. They do not influence the
/// simulation result but are carried (and printed by the elasticity bench)
/// so runs document the configuration they model.
struct DaemonHeaps {
  std::size_t jobtracker_mb = 768;
  std::size_t namenode_mb = 256;
  std::size_t tasktracker_mb = 512;
  std::size_t datanode_mb = 256;
};

struct JobConf {
  /// Virtual cluster width (the paper runs 5 local or 16/32/64 EMR nodes).
  std::size_t num_nodes = 5;
  /// Table 2: "Maximum map tasks in tasktracker".
  std::size_t map_slots_per_node = 4;
  /// Table 2: "Maximum reduce tasks in tasktracker".
  std::size_t reduce_slots_per_node = 2;
  /// Table 2: "Data replication ratio in DFS".
  std::size_t dfs_replication = 3;
  /// Reduce task count (number of output partitions).
  std::size_t num_reducers = 4;
  /// Records per input split when reading in-memory input (DFS input uses
  /// one split per block instead).
  std::size_t split_records = 1024;
  /// Physical worker threads executing tasks (0 = host concurrency).
  std::size_t physical_threads = 0;
  /// Run the combiner on map outputs when one is provided.
  bool enable_combiner = true;
  /// Attempts per task before the job fails (Hadoop retries failed task
  /// attempts; 1 = fail fast).
  std::size_t max_task_attempts = 1;
  /// Attempts per shuffle fetch before the job fails (only exercised when a
  /// FaultInjector is attached: each `shuffle.fetch` fire fails one).
  std::size_t max_fetch_attempts = 4;
  /// Launch duplicate attempts for straggling tasks (Hadoop speculative
  /// execution): once half the phase has finished, a task whose elapsed
  /// time exceeds `speculative_slowdown` x the median completed duration
  /// (and `speculative_min_ms`) gets one backup attempt; the first attempt
  /// to finish commits, the other is discarded. Works in both execution
  /// modes: under multi_process the backup is dispatched to a different
  /// live worker than the primary's current slot, and the losing attempt's
  /// map output stays on its worker, unread, until the job ends (DESIGN.md
  /// section 15).
  bool enable_speculation = false;
  double speculative_slowdown = 4.0;
  double speculative_min_ms = 5.0;
  /// Resident-byte budget of the shuffle's per-partition spool buffers
  /// (external merge sort): sealed pages past it spill to disk. 0 keeps
  /// every page resident and never spills. Labels/output are bit-identical
  /// for any budget.
  std::size_t spill_budget_bytes = 0;
  /// Directory for spill files ("" = the system temp directory).
  std::string spill_dir;
  /// Physical execution substrate for task attempts.
  ExecutionMode execution_mode = ExecutionMode::kInProcess;
  /// Multi-process shuffle topology (the single worker-to-worker one).
  ShuffleMode shuffle_mode = ShuffleMode::kWorkerToWorker;
  /// Worker processes running tasks in kMultiProcess mode.
  std::size_t num_workers = 2;
  /// Pre-forked spare workers that replace killed ones (worker.kill
  /// recovery); spares idle unless a primary dies.
  std::size_t worker_spares = 1;
  /// Seed of the deterministic task -> worker placement permutation (see
  /// assign_tasks in virtual_cluster.hpp). Same seed => same assignment,
  /// in both execution modes.
  std::uint64_t placement_seed = 0;
  /// Worker liveness heartbeat period while a task runs (0 = off).
  std::size_t heartbeat_interval_ms = 25;
  /// kMultiProcess launch: "" forks workers that inherit this job's
  /// mapper/reducer factories; a path execs that binary per worker, which
  /// must serve a *registered* job looked up by job_name (see
  /// remote_runner.hpp) — arbitrary std::function factories cannot cross
  /// an exec boundary.
  std::string worker_binary;
  /// Human-readable job name for logging (and the exec-mode registry key).
  std::string job_name = "job";

  DaemonHeaps heaps;

  std::size_t total_map_slots() const { return num_nodes * map_slots_per_node; }
  std::size_t total_reduce_slots() const {
    return num_nodes * reduce_slots_per_node;
  }

  /// Throws InvalidArgument if any field is inconsistent.
  void validate() const;
};

}  // namespace dasc::mapreduce
