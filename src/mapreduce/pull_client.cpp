// The reducer side of the worker-to-worker shuffle (DESIGN.md sections
// 14-15) and the kReducePull / kReducePullDone codecs. Pull order fixes the
// partition's record sequence to exactly what the in-process
// fetch_and_partition appends, and both spool it under the same
// shuffle_spool_config, so the reduce is byte-identical in either mode.
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/spool.hpp"
#include "ipc/stream.hpp"
#include "ipc/transport.hpp"
#include "mapreduce/remote_protocol.hpp"

namespace dasc::mapreduce::remote {

using ipc::Message;
using ipc::MessageType;
using ipc::WireReader;
using ipc::WireWriter;

Message ReducePull::encode() const {
  WireWriter writer;
  writer.u64(task);
  writer.u64(num_partitions);
  writer.u64(owners.size());
  writer.u64(spill_budget);
  writer.bytes(spill_dir);
  writer.u64(max_fetch_attempts);
  for (const OwnerRef& owner : owners) {
    writer.u64(static_cast<std::uint64_t>(owner.slot));
    writer.bytes(owner.path);
  }
  return {MessageType::kReducePull, writer.take()};
}

ReducePull ReducePull::decode(const Message& message) {
  WireReader reader(message.payload);
  ReducePull request;
  request.task = reader.u64();
  request.num_partitions = reader.u64();
  request.owners.resize(static_cast<std::size_t>(reader.u64()));
  request.spill_budget = reader.u64();
  request.spill_dir = std::string(reader.bytes());
  request.max_fetch_attempts = reader.u64();
  for (OwnerRef& owner : request.owners) {
    owner.slot = static_cast<std::size_t>(reader.u64());
    owner.path = std::string(reader.bytes());
  }
  return request;
}

Message PullReport::encode() const {
  WireWriter writer;
  writer.u64(task);
  writer.u64(reduced.num_groups);
  writer.u64(reduced.in_records);
  writer.u64(reduced.output.size());
  for (const std::uint64_t field :
       {record_bytes, spill_bytes_written, spill_bytes_read, spill_pages,
        fetch_fires, fetch_retries, spill_retries, conns_opened, pulls}) {
    writer.u64(field);
  }
  append_records(writer, reduced.output);
  return {MessageType::kReducePullDone, writer.take()};
}

PullReport PullReport::decode(const Message& message) {
  WireReader reader(message.payload);
  PullReport report;
  report.task = reader.u64();
  report.reduced.num_groups = reader.u64();
  report.reduced.in_records = reader.u64();
  const std::uint64_t out_count = reader.u64();
  for (std::uint64_t* field :
       {&report.record_bytes, &report.spill_bytes_written,
        &report.spill_bytes_read, &report.spill_pages, &report.fetch_fires,
        &report.fetch_retries, &report.spill_retries,
        &report.conns_opened, &report.pulls}) {
    *field = reader.u64();
  }
  report.reduced.output = read_records(reader);
  DASC_ENSURE(report.reduced.output.size() == out_count,
              "ipc: kReducePullDone record count mismatch");
  return report;
}

namespace {

/// kFetchPart requests a reducer keeps in flight per owner connection.
constexpr std::size_t kPipelineDepth = 4;

/// Thrown inside a pull when the owner's data plane is unreachable: the
/// reducer reports kPullFailed so the supervisor re-homes the map output,
/// rather than burning fetch attempts on a peer that cannot answer.
struct OwnerUnreachable {
  std::string reason;
};

void request_part(ipc::Transport& peer, const ReducePull& request,
                  std::uint64_t map_task) {
  WireWriter writer;
  writer.u64(map_task);
  writer.u64(request.task);
  writer.u64(request.num_partitions);
  peer.send({MessageType::kFetchPart, writer.take()});
}

/// Parses the owner's kFetchData reply for `map_task`; a kTaskError reply
/// (the output is not resident there) is rethrown typed.
FetchedSlice decode_fetch_data(const Message& reply, std::uint64_t map_task) {
  if (reply.type == MessageType::kTaskError) rethrow_task_error(reply);
  DASC_ENSURE(reply.type == MessageType::kFetchData,
              "ipc: unexpected reply to kFetchPart");
  WireReader data(reply.payload);
  DASC_ENSURE(data.u64() == map_task, "ipc: kFetchData map task mismatch");
  FetchedSlice slice;
  slice.crc = data.u32();
  const std::uint64_t count = data.u64();
  slice.records = read_records(data);
  DASC_ENSURE(slice.records.size() == count,
              "ipc: kFetchData record count mismatch");
  return slice;
}

/// Pipelined prefetch over pooled connections (DESIGN.md section 15): a
/// window of kFetchPart requests stays in flight per remote owner, and
/// replies are consumed strictly in request order, which keeps a pooled
/// connection at a message boundary. Any wobble — an error, a mismatched
/// reply, out-of-order consumption — breaks the owner's pipeline: the lease
/// is invalidated and the affected pulls fall back to one-shot pulls, which
/// reproduce the owner's typed error or unreachability.
class OwnerPipelines {
 public:
  OwnerPipelines(ipc::ConnPool& pool, const ReducePull& request,
                 std::size_t self, const ipc::StreamConfig& stream)
      : request_(request), stream_(stream) {
    for (std::uint64_t m = 0; m < request.owners.size(); ++m) {
      const OwnerRef& owner = request.owners[m];
      // An owner without a data-plane address (kNoOwner) surfaces as
      // unreachable in the one-shot pull.
      if (owner.slot == self || owner.path.empty()) continue;
      Pipe& pipe = pipes_[owner.slot];
      pipe.path = owner.path;
      pipe.tasks.push_back(m);
    }
    for (auto& [slot, pipe] : pipes_) {
      try {
        pipe.lease.emplace(pool.lease(slot, pipe.path));
      } catch (const IoError&) {
        pipe.broken = true;  // dead owner: surfaces as unreachable later
        continue;
      }
      top_up(pipe);
    }
  }
  OwnerPipelines(const OwnerPipelines&) = delete;
  OwnerPipelines& operator=(const OwnerPipelines&) = delete;

  /// Consumes the pipelined reply for `map_task`, if one is in flight.
  /// Called exactly once per map task, in task order, before its attempt
  /// loop; nullopt means the pull falls back to a one-shot pull.
  std::optional<FetchedSlice> take(std::uint64_t map_task) {
    const auto it = pipes_.find(request_.owners[map_task].slot);
    if (it == pipes_.end()) return std::nullopt;
    Pipe& pipe = it->second;
    if (pipe.broken || !pipe.lease.has_value()) return std::nullopt;
    if (pipe.pending.empty() || pipe.pending.front() != map_task) {
      break_pipe(pipe);  // out of order would desynchronize the connection
      return std::nullopt;
    }
    try {
      std::optional<Message> reply = ipc::recv_message(**pipe.lease, stream_);
      if (!reply.has_value()) {
        break_pipe(pipe);
        return std::nullopt;
      }
      pipe.pending.pop_front();
      top_up(pipe);
      // A kTaskError leaves the connection clean (the serve loop answers
      // errors in-band); the fallback pull surfaces the same typed error.
      if (reply->type == MessageType::kTaskError) return std::nullopt;
      return decode_fetch_data(*reply, map_task);
    } catch (const std::exception&) {
      break_pipe(pipe);
      return std::nullopt;
    }
  }

  /// Unconsumed pipelined replies (a failed reduce task) leave a
  /// connection mid-conversation: close it instead of pooling it.
  ~OwnerPipelines() {
    for (auto& entry : pipes_) {
      if (!entry.second.pending.empty()) break_pipe(entry.second);
    }
  }

 private:
  struct Pipe {
    std::string path;
    std::optional<ipc::ConnPool::Lease> lease;
    std::vector<std::uint64_t> tasks;   ///< owner's map tasks, pull order
    std::size_t next_request = 0;       ///< tasks[next_request..) unsent
    std::deque<std::uint64_t> pending;  ///< requested, reply unread
    bool broken = false;
  };

  void break_pipe(Pipe& pipe) {
    pipe.broken = true;
    if (pipe.lease.has_value()) {
      pipe.lease->invalidate();
      pipe.lease.reset();
    }
  }

  void top_up(Pipe& pipe) {
    if (pipe.broken || !pipe.lease.has_value()) return;
    try {
      while (pipe.pending.size() < kPipelineDepth &&
             pipe.next_request < pipe.tasks.size()) {
        request_part(**pipe.lease, request_, pipe.tasks[pipe.next_request]);
        pipe.pending.push_back(pipe.tasks[pipe.next_request]);
        ++pipe.next_request;
      }
    } catch (const IoError&) {
      break_pipe(pipe);
    }
  }

  const ReducePull& request_;
  const ipc::StreamConfig& stream_;
  std::map<std::size_t, Pipe> pipes_;
};

/// One kReducePull attempt on this worker.
class PullClient {
 public:
  PullClient(ipc::Transport& control, const WorkerJob& job,
             const WorkerOptions& options, WorkerState& state,
             ReducePull request)
      : control_(control), job_(job), options_(options), state_(state),
        request_(std::move(request)),
        stream_(ipc::adaptive_stream_config()) {}

  PullReport run() {
    FaultInjector* faults = options_.faults;
    const std::uint64_t fetch_base =
        faults != nullptr ? faults->fired("shuffle.fetch") : 0;
    const std::uint64_t conns_base = state_.pool().opened();

    // Spill gauges snapshot into the report; the supervisor re-homes them
    // in its own registry when the task commits.
    MetricsRegistry task_metrics;
    SpoolConfig spool_config = shuffle_spool_config(
        static_cast<std::size_t>(request_.spill_budget), request_.spill_dir,
        static_cast<std::size_t>(request_.max_fetch_attempts));
    spool_config.faults = faults;
    spool_config.metrics = &task_metrics;
    SpoolBuffer spool(spool_config);

    {
      OwnerPipelines pipes(state_.pool(), request_, options_.ordinal,
                           stream_);
      for (std::uint64_t m = 0; m < request_.owners.size(); ++m) {
        for (const auto& record : pull(m, pipes)) {
          spool.append(record.key, record.value);
        }
        ++report_.pulls;
      }
    }
    spool.finish();

    report_.task = request_.task;
    report_.reduced =
        detail::execute_reduce_spooled(job_.reducer_factory, spool);
    report_.record_bytes = spool.record_bytes();
    report_.spill_bytes_written = static_cast<std::uint64_t>(
        task_metrics.gauge_value("spill.bytes_written"));
    report_.spill_bytes_read = static_cast<std::uint64_t>(
        task_metrics.gauge_value("spill.bytes_read"));
    report_.spill_pages =
        static_cast<std::uint64_t>(task_metrics.gauge_value("spill.pages"));
    report_.spill_retries = static_cast<std::uint64_t>(
        task_metrics.counter_value("retry.spill_page_io"));
    if (faults != nullptr) {
      report_.fetch_fires = faults->fired("shuffle.fetch") - fetch_base;
    }
    report_.conns_opened = state_.pool().opened() - conns_base;
    return report_;
  }

 private:
  /// One map task's verified slice. The pipelined reply, if any, serves
  /// the first attempt that actually transfers; a retry always re-pulls
  /// fresh, because a corrupt transfer must not be reused.
  std::vector<Record> pull(std::uint64_t map_task, OwnerPipelines& pipes) {
    std::optional<FetchedSlice> prefetched = pipes.take(map_task);
    const auto transfer = [&]() -> FetchedSlice {
      if (!prefetched.has_value()) return pull_once(map_task);
      FetchedSlice slice = *std::move(prefetched);
      prefetched.reset();
      return slice;
    };
    // Two rounds suffice: a failed pull re-homes the output onto this
    // worker, and a local pull cannot lose its owner.
    for (std::size_t round = 0;; ++round) {
      try {
        return fetch_verified(map_task, options_.faults,
                              request_.max_fetch_attempts, transfer,
                              [this] { ++report_.fetch_retries; });
      } catch (const OwnerUnreachable& unreachable) {
        if (round >= 1) {
          throw IoError("pull: map output " + std::to_string(map_task) +
                        " unreachable after re-homing: " +
                        unreachable.reason);
        }
        recover_owner(map_task, unreachable.reason);
      }
    }
  }

  FetchedSlice pull_once(std::uint64_t map_task) {
    const OwnerRef& owner = request_.owners[map_task];
    if (owner.slot == options_.ordinal) {
      std::optional<FetchedSlice> slice =
          state_.slice(map_task, request_.task, request_.num_partitions);
      if (!slice.has_value()) {
        throw IoError("pull: map output " + std::to_string(map_task) +
                      " not resident on this worker");
      }
      return *std::move(slice);
    }
    if (owner.path.empty()) {
      throw OwnerUnreachable{"owner has no data-plane address"};
    }
    return pull_remote(owner, map_task);
  }

  FetchedSlice pull_remote(const OwnerRef& owner, std::uint64_t map_task) {
    // Any transport failure here — a dead process's stale socket, EOF
    // mid-reply — is the owner being gone, not a verification failure, so
    // it routes to recovery. The lease is invalidated so a desynchronized
    // socket is closed, never pooled.
    std::optional<Message> reply;
    try {
      ipc::ConnPool::Lease lease =
          state_.pool().lease(owner.slot, owner.path);
      try {
        request_part(*lease, request_, map_task);
        reply = ipc::recv_message(*lease, stream_);
      } catch (...) {
        lease.invalidate();
        throw;
      }
      if (!reply.has_value()) lease.invalidate();
    } catch (const IoError& error) {
      throw OwnerUnreachable{error.what()};
    }
    if (!reply.has_value()) {
      throw OwnerUnreachable{"owner closed the data plane mid-pull"};
    }
    return decode_fetch_data(*reply, map_task);
  }

  /// Dead-owner recovery (state machine in DESIGN.md section 14): report
  /// the dead owner, serve the supervisor's inline kMapAssign re-execution
  /// of that map task, and resume with the output re-homed onto this
  /// worker. The whole dance happens inside the kReducePull conversation,
  /// so it needs no second supervisor thread and works at any worker count.
  void recover_owner(std::uint64_t map_task, const std::string& reason) {
    DASC_LOG(kWarn) << "worker " << options_.ordinal << ": map output "
                    << map_task << " owner unreachable (" << reason
                    << "); asking the supervisor to re-home it";
    // Any idle pooled connection to the dead owner is garbage now — its
    // next incarnation listens on a fresh accept queue.
    const std::size_t dead_slot = request_.owners[map_task].slot;
    if (dead_slot != kNoOwner && dead_slot != options_.ordinal) {
      state_.pool().invalidate(dead_slot);
    }
    WireWriter failed;
    failed.u64(request_.task);
    failed.u64(map_task);
    control_.send({MessageType::kPullFailed, failed.take()});
    while (true) {
      std::optional<Message> frame = ipc::recv_message(control_, stream_);
      if (!frame.has_value()) {
        throw IoError("pull: supervisor vanished during owner recovery");
      }
      if (frame->type == MessageType::kMapAssign) {
        WireReader assign(frame->payload);
        const std::uint64_t task = assign.u64();
        control_.send(run_map_assign(job_, state_, task, assign));
        continue;
      }
      if (frame->type != MessageType::kPullResume) {
        throw IoError(
            "pull: unexpected message type " +
            std::to_string(static_cast<std::uint32_t>(frame->type)) +
            " during owner recovery");
      }
      WireReader resume(frame->payload);
      DASC_ENSURE(resume.u64() == map_task,
                  "ipc: kPullResume map task mismatch");
      request_.owners[map_task] = OwnerRef{options_.ordinal, std::string()};
      return;
    }
  }

  ipc::Transport& control_;
  const WorkerJob& job_;
  const WorkerOptions& options_;
  WorkerState& state_;
  ReducePull request_;  ///< its owners re-homed by recovery
  const ipc::StreamConfig stream_;
  PullReport report_;
};

}  // namespace

PullReport run_reduce_pull(ipc::Transport& control, const WorkerJob& job,
                           const WorkerOptions& options, WorkerState& state,
                           ReducePull request) {
  return PullClient(control, job, options, state, std::move(request)).run();
}

}  // namespace dasc::mapreduce::remote
