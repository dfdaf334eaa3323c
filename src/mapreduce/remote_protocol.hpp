// Internal to the multi-process runtime: the wire vocabulary and worker
// state its three units share (worker_loop.cpp, pull_client.cpp,
// remote_runner.cpp). Conversations: remote_runner.hpp, DESIGN.md 13-15.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "ipc/conn_pool.hpp"
#include "ipc/message.hpp"
#include "mapreduce/remote_runner.hpp"
#include "mapreduce/shuffle.hpp"
#include "mapreduce/task_exec.hpp"
#include "mapreduce/types.hpp"

namespace dasc::mapreduce::remote {

/// No worker: a map task whose output has no owner.
constexpr std::size_t kNoOwner = static_cast<std::size_t>(-1);

/// Slot `slot`'s data-plane address in `options`' table: empty when the
/// slot has none (kNoOwner included).
inline std::string data_socket_path(const WorkerOptions& options,
                                    std::size_t slot) {
  return slot < options.data_socket_paths.size()
             ? options.data_socket_paths[slot]
             : std::string();
}

/// Reads a wire-decoded entry count and rejects one that the bytes left
/// in the payload cannot hold at `min_entry_bytes` per entry, so a forged
/// count is a typed IoError rather than a huge allocation.
inline std::size_t read_count(ipc::WireReader& reader,
                              std::size_t min_entry_bytes) {
  const std::uint64_t count = reader.u64();
  if (count > reader.remaining() / min_entry_bytes) {
    throw IoError("ipc: entry count " + std::to_string(count) +
                  " exceeds the payload");
  }
  return static_cast<std::size_t>(count);
}

/// The kTaskError reply reporting that `task` failed with `what`.
inline ipc::Message task_error(std::uint64_t task, const std::string& what) {
  ipc::WireWriter writer;
  writer.u64(task);
  writer.bytes(what);
  return {ipc::MessageType::kTaskError, writer.take()};
}

/// Throws the worker-reported task failure a kTaskError reply carries.
[[noreturn]] inline void rethrow_task_error(const ipc::Message& reply) {
  ipc::WireReader reader(reply.payload);
  reader.u64();  // task
  throw IoError("worker task failed: " + std::string(reader.bytes()));
}

/// kReducePull: one pull-based reduce assignment.
struct ReducePull {
  std::uint64_t task = 0;
  std::uint64_t num_partitions = 1;
  std::uint64_t spill_budget = 0;  ///< JobConf semantics: 0 = no spilling
  std::string spill_dir;
  std::uint64_t max_fetch_attempts = 1;
  /// The owner slot of each map task's output (kNoOwner: none), indexed by
  /// map task. The reducer dials a slot at the data-plane address its
  /// WorkerOptions table gives it.
  std::vector<std::size_t> owners;

  ipc::Message encode() const;
  static ReducePull decode(const ipc::Message& message);
};

/// kFetchPart: one reducer's request to one owner for `partition` of each
/// listed map output. The owner answers one reply per listed task, in list
/// order: kFetchData, or kTaskError when that output is not resident.
struct FetchPart {
  std::uint64_t partition = 0;
  std::uint64_t num_partitions = 1;
  std::vector<std::uint64_t> map_tasks;

  ipc::Message encode() const;
  static FetchPart decode(const ipc::Message& message);
};

/// kPullFailed: the reducer running `reduce_task` could not reach `owner`,
/// the worker its partition map names for `map_task`'s output. It is the
/// kReducePull's only reply; the supervisor recovers and pulls again.
struct PullFailed {
  std::uint64_t reduce_task = 0;
  std::uint64_t map_task = 0;
  std::uint64_t owner = kNoOwner;

  ipc::Message encode() const;
  static PullFailed decode(const ipc::Message& message);
};

/// The worker a kPullFailed lets the supervisor retire, or kNoOwner: the
/// owner the reducer failed to reach, and only while `current_owner` says
/// it still holds the output. Once another reducer's recovery has re-homed
/// the output, a report naming the old owner is stale, and the current
/// owner is a healthy worker that must not be killed for it.
inline std::size_t owner_to_retire(const PullFailed& failed,
                                   std::size_t current_owner,
                                   std::size_t reducer_slot) {
  if (failed.owner != current_owner || current_owner == reducer_slot) {
    return kNoOwner;
  }
  return current_owner;
}

/// kReducePullDone: the reduce result (the pulled byte volume included)
/// plus the spill, fault, and connection work the supervisor absorbs into
/// its own registry and injector when the attempt commits. On the wire
/// the reduce output is the payload's tail: the reducer's framed run,
/// unchanged.
struct PullReport {
  std::uint64_t task = 0;
  detail::ReduceTaskResult reduced;
  std::uint64_t spill_bytes_written = 0;
  std::uint64_t spill_bytes_read = 0;
  std::uint64_t spill_pages = 0;
  std::uint64_t fetch_fires = 0;
  std::uint64_t fetch_retries = 0;
  /// Also the spool's fire count: every realized spool fire was retried on
  /// the way to a report. (The injector's fired() delta would also count
  /// `spill.page_io` fires inside user map/reduce code, whose retries stay
  /// worker-local.)
  std::uint64_t spill_retries = 0;
  std::uint64_t conns_opened = 0;  ///< data-plane dials this task paid
  std::uint64_t pulls = 0;         ///< map-output runs gathered
  std::uint64_t fetch_requests = 0;  ///< kFetchPart sent, restarts included

  ipc::Message encode() const;
  /// Throws IoError on a truncated payload, malformed output framing, or
  /// an output record count other than the declared one.
  static PullReport decode(ipc::Message message);
};

/// A worker's map outputs and outbound data-plane connections, shared by
/// its serve loop (which stores outputs), its data-plane threads (which
/// serve runs to other reducers), and its own pull client. An output stays
/// resident until the worker exits; a later map of the same task replaces
/// it.
class WorkerState {
 public:
  void store(std::uint64_t map_task, MapOutput output) {
    std::lock_guard lock(mutex_);
    outputs_[map_task] = std::move(output);
  }
  /// The kFetchData reply carrying `map_task`'s run for `partition`, or
  /// kTaskError when the output is not resident here or has no such
  /// partition of `num_partitions`. Served to remote pullers and, decoded
  /// the same way, to this worker's own pull client.
  ipc::Message fetch_reply(std::uint64_t map_task, std::uint64_t partition,
                           std::uint64_t num_partitions);
  /// Pooled data-plane connections to map-output owners, reused across
  /// pulls, reduce tasks, and re-attempts (DESIGN.md section 15).
  ipc::ConnPool& pool() { return pool_; }

 private:
  std::mutex mutex_;
  std::map<std::uint64_t, MapOutput> outputs_;
  ipc::ConnPool pool_;
};

/// Runs the kMapAssign whose payload `reader` holds (positioned after the
/// task id: the partition count, then the split's run, mapped in place),
/// retains the partitioned output in `state`, and returns the kMapDone
/// reply. Throws when the map task fails, malformed framing included.
/// Defined in worker_loop.cpp.
ipc::Message run_map_assign(const WorkerJob& job, WorkerState& state,
                            std::uint64_t task, ipc::WireReader& reader);

/// The reducer half of kReducePull: pulls `request.task`'s run of every
/// map output in map-task order into one sort-on-seal spool and reduces
/// off it. Returns the kReducePullDone report, or kPullFailed when an
/// owner cannot be reached; that pass reports nothing, and its spool is
/// gone by the time this returns. Throws when the task fails. Defined in
/// pull_client.cpp.
ipc::Message run_reduce_pull(const WorkerJob& job,
                             const WorkerOptions& options, WorkerState& state,
                             const ReducePull& request);

}  // namespace dasc::mapreduce::remote
