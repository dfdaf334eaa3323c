// Multi-process job execution: the supervisor side (run_job_multiproc) and
// the worker side (serve_worker_loop) of JobConf::execution_mode ==
// kMultiProcess. Three units implement it: the supervisor's phase driver
// (remote_runner.cpp), the worker serve loop and data plane
// (worker_loop.cpp), and the reducer-side pull client (pull_client.cpp).
//
// The control plane is a supervisor-mediated star (DESIGN.md section 13):
// the supervisor — the process that called run_job — forks (or execs) the
// workers before spawning any job threads, drives both phases through the
// same detail::run_task_phase as the in-process executor, and moves data
// as CRC-framed messages: each message, however large, is one
// ipc::Transport frame checked by one CRC-32, and a blocking socket write
// is the only flow control. A message above ipc::kMaxPayloadBytes (1 GiB)
// fails its attempt with a typed error.
//
// The shuffle is worker-to-worker (DESIGN.md section 14), as Hadoop
// reducers fetch map output straight from the mappers: each worker binds a
// data-plane Listener, and reducers pull their partitions from the mapper
// workers — the supervisor relays no shuffle bytes. Every supervisor ->
// worker conversation is one request and one reply, heartbeats aside:
//
//   map:     kMapAssign{task, P, split run}   -> kMapDone{counters}
//   reduce:  kReducePull{task, owner slots}   -> kReducePullDone{records,
//                                                spill/fault accounting}
//                                              | kPullFailed{reduce_task,
//                                                map_task, owner}
//   pull:    kFetchPart{partition, map tasks} -> one kFetchData{map_task,
//                                                run} per task
//            (reducer -> owner's data plane: one pooled request per
//            owner, restarted at the task a retry needs — DESIGN.md
//            section 15)
//
// A split crosses kMapAssign as its stored run, in the spool's framing, and
// the worker maps it in place. Every worker learns each slot's data-plane
// address at launch, so a partition map names owner slots only. Map tasks
// write one framed run per partition; pulled runs append, as bytes, to
// one SpoolBuffer per reduce task, so
// JobConf::spill_budget_bytes bounds reducer residency. A reducer that
// cannot reach a map-output owner answers kPullFailed; within the same
// task attempt the supervisor retires that owner, re-executes its map
// tasks on the reducer's worker (plain kMapAssign conversations), and
// sends the kReducePull again with the refreshed partition map. A
// speculative backup runs on a different live worker; reducers pull only
// the committed attempt's output, so a loser's output is never read and
// stays on its worker until the job ends (section 15).
//
// Job output is byte-identical to kInProcess for any worker count, any
// spill budget, and any fault plan that lets the job finish. `map.task`,
// `reduce.task` and `worker.kill` fire in the supervisor; `shuffle.fetch`
// and `spill.page_io` fire in the pulling worker, and their fires and
// retries come back in kReducePullDone.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/job.hpp"
#include "mapreduce/types.hpp"

namespace dasc {
class FaultInjector;
}  // namespace dasc

namespace dasc::ipc {
class Transport;
}  // namespace dasc::ipc

namespace dasc::mapreduce {

/// What a worker process needs to execute tasks: the same factories a
/// JobSpec carries, plus whether map tasks should run the combiner.
struct WorkerJob {
  std::function<std::unique_ptr<Mapper>()> mapper_factory;
  std::function<std::unique_ptr<Reducer>()> reducer_factory;
  std::function<std::unique_ptr<Reducer>()> combiner_factory;
  bool use_combiner = false;
};

/// Per-worker runtime knobs for serve_worker_loop. Forked workers get
/// these from the supervisor's closure; exec'd workers parse them out of
/// kJobSetup.
struct WorkerOptions {
  /// The worker's slot index (logging and self-pull detection).
  std::size_t ordinal = 0;
  /// kHeartbeat period while a task runs (0 = off).
  std::size_t heartbeat_ms = 0;
  /// Every slot's data-plane address (AF_UNIX path), indexed by slot: the
  /// worker binds its Listener on entry `ordinal`, so other reducers can
  /// pull its map outputs, and dials a map output's owner slot at that
  /// slot's entry. A slot without an entry, or with an empty one, has no
  /// data plane (a worker driven directly over a socketpair can still pull
  /// its own outputs).
  std::vector<std::string> data_socket_paths;
  /// Worker-side fault injection (`shuffle.fetch` during pulls,
  /// `spill.page_io` in the reduce spool). May be null. Forked workers
  /// share the supervisor's injector copy-on-write (metrics detached);
  /// exec'd workers own one built from the kJobSetup plan text.
  FaultInjector* faults = nullptr;
};

/// A worker process's whole life: serve task assignments from `transport`
/// until kShutdown or EOF (supervisor gone). Runs map tasks with
/// execute_map_task (outputs retained for data-plane pulls) and reduce
/// tasks (kReducePull) by pulling each map task's run of the partition
/// into execute_reduce_task, the reduce path both modes share. A
/// task that throws is reported as kTaskError and the loop keeps serving
/// (the supervisor decides whether to retry). While a task is executing, a
/// companion thread sends kHeartbeat every options.heartbeat_ms.
void serve_worker_loop(ipc::Transport& transport, const WorkerJob& job,
                       const WorkerOptions& options);

/// Registry of jobs an exec-mode worker binary can serve by name
/// (JobConf::job_name travels in kJobSetup). "wordcount" — the canonical
/// end-to-end demo — is pre-registered, so the dasc_worker binary and the
/// supervisor share one definition by construction.
void register_worker_job(const std::string& name,
                         std::function<WorkerJob()> factory);

/// Build a registered job. Throws InvalidArgument for unknown names.
WorkerJob make_registered_worker_job(const std::string& name);

/// Execute a job on forked (or, with conf.worker_binary set, exec'd)
/// worker processes. Called by run_job/run_job_dfs when
/// conf.execution_mode == kMultiProcess; call sequence, speculation, and
/// determinism contract in the file comment.
JobResult run_job_multiproc(const JobSpec& spec,
                            std::vector<RecordRun> splits);

}  // namespace dasc::mapreduce
