// The supervisor side of the multi-process runtime: launches the workers,
// drives the map and reduce phases through detail::run_task_phase, and
// re-homes the map outputs of owners that reducers cannot reach. Protocol
// and contracts in remote_runner.hpp.
#include "mapreduce/remote_runner.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/stopwatch.hpp"
#include "ipc/transport.hpp"
#include "ipc/worker_supervisor.hpp"
#include "mapreduce/remote_protocol.hpp"
#include "mapreduce/task_exec.hpp"
#include "mapreduce/virtual_cluster.hpp"

namespace dasc::mapreduce {

namespace {

using ipc::Message;
using ipc::MessageType;
using ipc::WireReader;
using ipc::WireWriter;
using remote::kNoOwner;
using remote::rethrow_task_error;

/// Adds a nonzero `value` to gauge `name` (null-safe; zero adds nothing, so
/// a gauge appears only once something happened).
void add_gauge(MetricsRegistry* metrics, const char* name,
               std::uint64_t value) {
  if (metrics != nullptr && value > 0) {
    metrics->gauge(name).add(static_cast<std::int64_t>(value));
  }
}

/// Supervisor-side conversation driver over the workers' transports.
class WorkerExchange {
 public:
  WorkerExchange(ipc::WorkerSupervisor& supervisor, MetricsRegistry* metrics)
      : supervisor_(supervisor), metrics_(metrics) {}
  WorkerExchange(const WorkerExchange&) = delete;
  WorkerExchange& operator=(const WorkerExchange&) = delete;

  /// One request/response conversation with `slot`, serialized by the
  /// slot's exchange mutex: the reply is the first frame that is not a
  /// heartbeat (heartbeats feed the worker.heartbeats gauge). With
  /// `kill_after_send` the worker is SIGKILLed right after the request
  /// ships, so worker.kill lands genuinely mid-task. Transport failure or
  /// EOF marks the slot dead and throws IoError.
  Message converse(std::size_t slot, const Message& request,
                   bool kill_after_send = false) {
    std::lock_guard lock(supervisor_.exchange_mutex(slot));
    try {
      supervisor_.transport(slot).send(request);
    } catch (const std::exception&) {
      supervisor_.mark_dead(slot);
      throw IoError("ipc: worker " + std::to_string(slot) +
                    " unreachable (send failed)");
    }
    if (kill_after_send) supervisor_.kill_worker(slot);
    while (true) {
      std::optional<Message> reply;
      try {
        reply = supervisor_.transport(slot).recv();
      } catch (const IoError&) {
        supervisor_.mark_dead(slot);
        throw;
      }
      if (!reply.has_value()) {
        supervisor_.mark_dead(slot);
        throw IoError("ipc: worker " + std::to_string(slot) +
                      " died mid-task (connection closed)");
      }
      if (reply->type != MessageType::kHeartbeat) return *std::move(reply);
      note_heartbeat();
    }
  }

 private:
  void note_heartbeat() {
    if (metrics_ != nullptr) metrics_->gauge("worker.heartbeats").add(1);
  }

  ipc::WorkerSupervisor& supervisor_;
  MetricsRegistry* metrics_ = nullptr;
};

/// One phase's placement bookkeeping, shared by its primary, retry, and
/// backup attempts: each task's retry shift (a failed attempt moves the
/// task to the next live slot) and the slot its latest primary attempt
/// dispatched to, which a speculative backup avoids. Backups run
/// concurrently with their primaries' retries, so both are atomics.
class PhasePlacement {
 public:
  PhasePlacement(const ipc::WorkerSupervisor& supervisor,
                 WorkerExchange& exchange,
                 const std::vector<std::size_t>& plan)
      : supervisor_(supervisor), exchange_(exchange), plan_(plan),
        shift_(plan.size()), primary_slot_(plan.size()) {
    // Seeded from the plan so a backup launched while the primary is
    // still pre-dispatch (stalled in fault injection) avoids the slot the
    // primary is about to use.
    for (std::size_t t = 0; t < plan.size(); ++t) {
      primary_slot_[t].store(plan[t], std::memory_order_relaxed);
    }
  }

  /// The worker for one attempt of `task`: the first live slot from
  /// plan[task] + shift over every provisioned slot, spares included —
  /// deterministic given the plan and which workers are dead. A backup
  /// skips the primary's slot, or it would queue behind the very serve loop
  /// it is meant to outrun.
  std::size_t pick(std::size_t task, bool backup) {
    const std::size_t shift = shift_[task].load(std::memory_order_acquire);
    const std::size_t avoid =
        backup ? primary_slot_[task].load(std::memory_order_acquire)
               : kNoOwner;
    const std::size_t total = supervisor_.provisioned();
    for (std::size_t i = 0; i < total; ++i) {
      const std::size_t slot = (plan_[task] + shift + i) % total;
      if (slot == avoid || !supervisor_.alive(slot)) continue;
      if (!backup) primary_slot_[task].store(slot, std::memory_order_release);
      return slot;
    }
    throw IoError(backup ? "ipc: no distinct live worker for a backup attempt"
                         : "ipc: no live workers remain");
  }

  /// One attempt's conversation; when it fails with an IoError the task
  /// shifts, so its next attempt tries another worker.
  Message dispatch(std::size_t task, std::size_t slot, const Message& request,
                   bool kill_after_send) {
    try {
      return exchange_.converse(slot, request, kill_after_send);
    } catch (const IoError&) {
      shift_[task].fetch_add(1, std::memory_order_acq_rel);
      throw;
    }
  }

 private:
  const ipc::WorkerSupervisor& supervisor_;
  WorkerExchange& exchange_;
  const std::vector<std::size_t>& plan_;
  std::vector<std::atomic<std::size_t>> shift_;
  std::vector<std::atomic<std::size_t>> primary_slot_;
};

/// Every provisioned slot (spares included) gets a data-plane address up
/// front, supervisor-pid-namespaced so concurrent jobs sharing a spill_dir
/// cannot collide.
std::vector<std::string> data_socket_paths(const JobConf& conf) {
  namespace fs = std::filesystem;
  const fs::path base = conf.spill_dir.empty() ? fs::temp_directory_path()
                                               : fs::path(conf.spill_dir);
  std::vector<std::string> paths;
  for (std::size_t slot = 0; slot < conf.num_workers + conf.worker_spares;
       ++slot) {
    paths.push_back((base / ("dasc-data-" + std::to_string(::getpid()) +
                             "-" + std::to_string(slot) + ".sock"))
                        .string());
  }
  return paths;
}

/// A JobResult with the task counts, time slots, output parts, and the
/// placement plan the in-process executor records filled in.
JobResult planned_result(const JobConf& conf, std::size_t num_map_tasks) {
  JobResult result;
  result.num_map_tasks = num_map_tasks;
  result.num_reduce_tasks = conf.num_reducers;
  result.map_task_seconds.assign(num_map_tasks, 0.0);
  result.reduce_task_seconds.assign(conf.num_reducers, 0.0);
  result.output = JobOutput(conf.num_reducers);
  result.map_task_workers =
      assign_tasks(num_map_tasks, conf.num_workers, conf.placement_seed);
  result.reduce_task_workers = assign_tasks(
      conf.num_reducers, conf.num_workers, conf.placement_seed + 1);
  return result;
}

/// One job on worker processes, from launch to shutdown.
class MultiprocRun {
 public:
  MultiprocRun(const JobSpec& spec, std::vector<RecordRun> splits)
      : spec_(spec), conf_(spec_.conf), splits_(std::move(splits)),
        use_combiner_(conf_.enable_combiner &&
                      spec_.combiner_factory != nullptr),
        data_paths_(data_socket_paths(conf_)),
        result_(planned_result(conf_, splits_.size())),
        map_owner_(splits_.size(), kNoOwner),
        // Workers launch before any job thread exists: fork safety.
        supervisor_(worker_launch()),
        exchange_(supervisor_, spec_.metrics),
        map_placement_(supervisor_, exchange_, result_.map_task_workers),
        reduce_placement_(supervisor_, exchange_,
                          result_.reduce_task_workers) {}
  // Commit closures hold `this`.
  MultiprocRun(const MultiprocRun&) = delete;
  MultiprocRun& operator=(const MultiprocRun&) = delete;

  JobResult run() {
    DASC_LOG(kInfo) << conf_.job_name << ": " << splits_.size()
                    << " map tasks, " << conf_.num_reducers
                    << " reduce tasks on " << supervisor_.primaries() << "+"
                    << (supervisor_.provisioned() - supervisor_.primaries())
                    << " worker processes ("
                    << (conf_.worker_binary.empty() ? "forked"
                                                    : conf_.worker_binary)
                    << ")";
    if (!conf_.worker_binary.empty()) send_job_setup();

    detail::run_task_phase(
        spec_, splits_.size(), "map.task", "retry.map_attempts",
        failed_attempts_, speculative_launches_, result_.map_task_seconds,
        [this](std::size_t task, bool backup) {
          return map_attempt(task, backup);
        });

    detail::run_task_phase(
        spec_, conf_.num_reducers, "reduce.task", "retry.reduce_attempts",
        failed_attempts_, speculative_launches_, result_.reduce_task_seconds,
        [this](std::size_t task, bool backup) {
          return reduce_attempt(task, backup);
        });

    result_.counters.failed_task_attempts = failed_attempts_.load();

    supervisor_.shutdown();
    // Workers unlink their data sockets with their Listeners, but a
    // SIGKILLed worker cannot; sweep the paths so shared spill_dirs stay
    // clean.
    for (const auto& path : data_paths_) ::unlink(path.c_str());

    result_.real_seconds = clock_.seconds();
    detail::finalize_job_result(spec_, speculative_launches_.load(), result_);
    return std::move(result_);
  }

 private:
  ipc::WorkerLaunch worker_launch() const {
    ipc::WorkerLaunch launch;
    launch.num_workers = conf_.num_workers;
    launch.num_spares = conf_.worker_spares;
    launch.spill_dir = conf_.spill_dir;
    launch.socket_dir = conf_.spill_dir;
    launch.metrics = spec_.metrics;
    if (!conf_.worker_binary.empty()) {
      launch.exec_argv = {conf_.worker_binary};
      return launch;
    }
    WorkerJob job;
    job.mapper_factory = spec_.mapper_factory;
    job.reducer_factory = spec_.reducer_factory;
    job.combiner_factory = spec_.combiner_factory;
    job.use_combiner = use_combiner_;
    launch.worker_main = [job = std::move(job), faults = spec_.faults,
                          heartbeat_ms = conf_.heartbeat_interval_ms,
                          data_paths = data_paths_](ipc::Transport& transport,
                                                    std::size_t slot) {
      // The child's copy-on-write FaultInjector must never touch the
      // parent-owned MetricsRegistry. Worker-side sites (`shuffle.fetch`
      // during pulls, `spill.page_io` in the reduce spool) still evaluate
      // here; their fires are reported back in kReducePullDone and re-homed
      // into the supervisor's injector and registry.
      if (faults != nullptr) faults->detach_metrics();
      WorkerOptions options;
      options.ordinal = slot;
      options.heartbeat_ms = heartbeat_ms;
      options.data_socket_paths = data_paths;
      options.faults = faults;
      serve_worker_loop(transport, job, options);
    };
    return launch;
  }

  /// Exec'd binaries reconstruct the job from the registry; every slot
  /// (spares included) learns its assignment-independent setup up front.
  void send_job_setup() {
    for (std::size_t slot = 0; slot < supervisor_.provisioned(); ++slot) {
      WireWriter writer;
      writer.u64(slot);
      writer.u64(conf_.heartbeat_interval_ms);
      writer.u32(use_combiner_ ? 1 : 0);
      writer.bytes(conf_.job_name);
      writer.u64(data_paths_.size());
      for (const std::string& path : data_paths_) writer.bytes(path);
      writer.bytes(spec_.faults != nullptr ? spec_.faults->plan().to_string()
                                           : std::string());
      supervisor_.transport(slot).send({MessageType::kJobSetup, writer.take()});
    }
  }

  /// Injected worker.kill: SIGKILL the assigned worker after this task's
  /// assignment ships (recovery = the attempt's transport error + retry).
  bool kill_fires() const {
    return spec_.faults != nullptr &&
           spec_.faults->check("worker.kill") != FaultInjector::Outcome::kNone;
  }

  /// A losing attempt's output stays resident on its worker until the job
  /// ends; reducers pull map task m only from map_owner_[m], the slot of
  /// the attempt that committed.
  detail::TaskAttempt map_attempt(std::size_t task, bool backup) {
    const std::size_t slot = map_placement_.pick(task, backup);
    const Message reply =
        map_placement_.dispatch(task, slot, map_assign(task), kill_fires());
    if (reply.type == MessageType::kTaskError) rethrow_task_error(reply);
    DASC_ENSURE(reply.type == MessageType::kMapDone,
                "ipc: unexpected reply to kMapAssign");
    WireReader reader(reply.payload);
    DASC_ENSURE(reader.u64() == task, "ipc: kMapDone task mismatch");
    const std::uint64_t emitted = reader.u64();
    const std::uint64_t combined = reader.u64();
    return {[this, task, slot, emitted, combined] {
              std::lock_guard lock(commit_mutex_);
              Counters& counters = result_.counters;
              counters.map_input_records += splits_[task].records;
              counters.map_output_records += emitted;
              if (use_combiner_) {
                counters.combine_input_records += emitted;
                counters.combine_output_records += combined;
              }
              map_owner_[task] = slot;
            }};
  }

  /// kMapAssign: the task, the partition count, then the split's run as
  /// stored, which the worker maps in place.
  Message map_assign(std::size_t task) const {
    WireWriter writer;
    writer.u64(task);
    writer.u64(conf_.num_reducers);
    std::string payload = writer.take();
    payload += splits_[task].run;
    return {MessageType::kMapAssign, std::move(payload)};
  }

  /// Ships the partition map and lets the reducer pull and spool its own
  /// partition, then absorbs its report on commit. A reducer that cannot
  /// reach an owner answers kPullFailed instead; the attempt recovers that
  /// owner's outputs and sends the pull again with the refreshed map, so a
  /// recovery costs no task attempt.
  detail::TaskAttempt reduce_attempt(std::size_t task, bool backup) {
    const std::size_t slot = reduce_placement_.pick(task, backup);
    bool kill = kill_fires();
    Message reply;
    while (true) {
      const remote::ReducePull request = reduce_pull_request(task);
      reply = reduce_placement_.dispatch(task, slot, request.encode(),
                                         std::exchange(kill, false));
      if (reply.type != MessageType::kPullFailed) break;
      recover_owner(slot, request, remote::PullFailed::decode(reply));
    }
    if (reply.type == MessageType::kTaskError) rethrow_task_error(reply);
    DASC_ENSURE(reply.type == MessageType::kReducePullDone,
                "ipc: unexpected reply to kReducePull");
    remote::PullReport report = remote::PullReport::decode(std::move(reply));
    DASC_ENSURE(report.task == task, "ipc: kReducePullDone task mismatch");
    return {[this, report = std::move(report)]() mutable {
      commit_pull_report(std::move(report));
    }};
  }

  remote::ReducePull reduce_pull_request(std::size_t task) {
    remote::ReducePull request;
    request.task = task;
    request.num_partitions = conf_.num_reducers;
    request.spill_budget = conf_.spill_budget_bytes;
    request.spill_dir = conf_.spill_dir;
    request.max_fetch_attempts = conf_.max_fetch_attempts;
    std::lock_guard lock(owner_mutex_);
    request.owners = map_owner_;
    return request;
  }

  /// Dead-owner recovery (DESIGN.md section 14) for the reducer on
  /// `reducer_slot`, whose `request` ended in `failed`. Retires the owner
  /// it could not reach (even if its control socket lingers) and
  /// re-executes every map task that owner committed on the reducer's
  /// slot, re-homing the outputs there. The whole recovery holds the owner
  /// table, so a second reducer reporting the same owner finds its outputs
  /// re-homed and only pulls again. A report that retires no one and
  /// follows no re-home of its map task since `request` was built fails
  /// the attempt.
  void recover_owner(std::size_t reducer_slot,
                     const remote::ReducePull& request,
                     const remote::PullFailed& failed) {
    const std::uint64_t map_task = failed.map_task;
    DASC_ENSURE(failed.reduce_task == request.task,
                "ipc: kPullFailed task mismatch");
    DASC_ENSURE(map_task < splits_.size(),
                "ipc: kPullFailed map task out of range");
    std::lock_guard lock(owner_mutex_);
    const std::size_t owner =
        remote::owner_to_retire(failed, map_owner_[map_task], reducer_slot);
    if (owner == kNoOwner) {
      if (map_owner_[map_task] != request.owners[map_task]) return;
      throw IoError("ipc: worker " + std::to_string(reducer_slot) +
                    " cannot reach map output " + std::to_string(map_task) +
                    ", and no owner can be retired for it");
    }
    supervisor_.kill_worker(owner);
    for (std::size_t m = 0; m < map_owner_.size(); ++m) {
      if (map_owner_[m] != owner) continue;
      DASC_LOG(kWarn) << conf_.job_name << ": re-executing map task " << m
                      << " on reducer worker " << reducer_slot << " (owner "
                      << owner << " unreachable during pull for reduce task "
                      << request.task << ")";
      add_gauge(spec_.metrics, "worker.map_reexecutions", 1);
      const Message reply = exchange_.converse(reducer_slot, map_assign(m));
      if (reply.type == MessageType::kTaskError) rethrow_task_error(reply);
      DASC_ENSURE(reply.type == MessageType::kMapDone,
                  "ipc: unexpected reply to kMapAssign (owner recovery)");
      WireReader done(reply.payload);
      DASC_ENSURE(done.u64() == m,
                  "ipc: kMapDone task mismatch (owner recovery)");
      map_owner_[m] = reducer_slot;
    }
  }

  /// Publishes the committing attempt's results and re-homes its worker-
  /// side accounting into the supervisor's registry and injector: spill
  /// gauges accumulate, retry counters count, and every reported fire lands
  /// in fault.injected.<site>. (A failed attempt's report is discarded
  /// whole, keeping the views consistent.)
  void commit_pull_report(remote::PullReport report) {
    {
      std::lock_guard lock(commit_mutex_);
      Counters& counters = result_.counters;
      counters.reduce_input_groups += report.reduced.num_groups;
      counters.reduce_input_records += report.reduced.in_records;
      counters.reduce_output_records += report.reduced.out_records;
      // The reducers moved the shuffle bytes; the supervisor only tallies
      // them, in the spool's key+value+2 convention, so the counter is
      // worker-count-invariant and equal to the in-process one.
      counters.shuffle_bytes += report.reduced.record_bytes;
      // The reducer's run, checked by decode, is the task's output part.
      result_.output.set_part(report.task, std::move(report.reduced.output),
                              report.reduced.out_records);
    }

    MetricsRegistry* metrics = spec_.metrics;
    // Connection economics are scheduling-shaped (how many distinct owners a
    // reducer pulls from, pool reuse across its tasks), so they are gauges
    // like the spill volumes; bench_multiproc gates the dials and the
    // kFetchPart requests per pull.
    add_gauge(metrics, "spill.bytes_written", report.spill_bytes_written);
    add_gauge(metrics, "spill.bytes_read", report.spill_bytes_read);
    add_gauge(metrics, "spill.pages", report.spill_pages);
    add_gauge(metrics, "shuffle.conns_opened", report.conns_opened);
    add_gauge(metrics, "shuffle.pulls", report.pulls);
    add_gauge(metrics, "shuffle.fetch_requests", report.fetch_requests);
    if (metrics != nullptr) {
      for (const auto& [name, retries] :
           {std::pair{"retry.shuffle_fetch", report.fetch_retries},
            std::pair{"retry.spill_page_io", report.spill_retries}}) {
        if (retries > 0) {
          metrics->counter(name).add(static_cast<std::int64_t>(retries));
        }
      }
    }
    if (spec_.faults != nullptr) {
      spec_.faults->record_remote_fires("shuffle.fetch", report.fetch_fires);
      spec_.faults->record_remote_fires("spill.page_io", report.spill_retries);
    }
  }

  Stopwatch clock_;
  const JobSpec spec_;
  const JobConf& conf_;
  const std::vector<RecordRun> splits_;
  const bool use_combiner_;
  const std::vector<std::string> data_paths_;
  JobResult result_;
  // Commit closures run concurrently on the phase pools; they publish
  // counters and outputs into result_ under this lock.
  std::mutex commit_mutex_;
  std::atomic<std::uint64_t> failed_attempts_{0};
  std::atomic<std::uint64_t> speculative_launches_{0};
  // The owner slot of each map task's committed output. The map phase
  // needs no lock (commit-once arbitration makes each task's committing
  // attempt the entry's only writer, and the phases are separated by the
  // pool join); from the reduce phase on, concurrent reduce attempts read
  // the table while a kPullFailed recovery, holding the lock throughout,
  // rewrites the re-homed entries.
  std::vector<std::size_t> map_owner_;
  std::mutex owner_mutex_;
  ipc::WorkerSupervisor supervisor_;
  WorkerExchange exchange_;
  PhasePlacement map_placement_;
  PhasePlacement reduce_placement_;
};

}  // namespace

JobResult run_job_multiproc(const JobSpec& spec,
                            std::vector<RecordRun> splits) {
  return MultiprocRun(spec, std::move(splits)).run();
}

}  // namespace dasc::mapreduce
