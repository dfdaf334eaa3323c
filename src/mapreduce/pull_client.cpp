// The reducer side of the worker-to-worker shuffle (DESIGN.md sections
// 14-15) and the kReducePull / kFetchPart / kReducePullDone codecs. A
// reducer asks each remote owner once for its partition's run of every
// map output that owner holds and appends the runs, as bytes, as it walks
// the map tasks in order; a retry or a broken stream restarts that owner's
// request at the task being pulled. The pulls feed execute_reduce_task,
// the copy, sort-merge and reduce an in-process reduce task runs too, in
// the same task order and under the same shuffle_spool_config, so the
// reduce is byte-identical in either mode. An owner that cannot be reached
// ends the pass: the reply is kPullFailed, and the supervisor re-homes the
// owner's outputs and sends the pull again.
#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/spool.hpp"
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
  for (const std::size_t owner : owners) {
    writer.u64(static_cast<std::uint64_t>(owner));
  }
  return {MessageType::kReducePull, writer.take()};
}

ReducePull ReducePull::decode(const Message& message) {
  WireReader reader(message.payload);
  ReducePull request;
  request.task = reader.u64();
  request.num_partitions = reader.u64();
  // An owner is a u64 slot.
  request.owners.resize(read_count(reader, 8));
  request.spill_budget = reader.u64();
  request.spill_dir = std::string(reader.bytes());
  request.max_fetch_attempts = reader.u64();
  for (std::size_t& owner : request.owners) {
    owner = static_cast<std::size_t>(reader.u64());
  }
  return request;
}

Message FetchPart::encode() const {
  WireWriter writer;
  writer.u64(partition);
  writer.u64(num_partitions);
  writer.u64(map_tasks.size());
  for (const std::uint64_t map_task : map_tasks) writer.u64(map_task);
  return {MessageType::kFetchPart, writer.take()};
}

FetchPart FetchPart::decode(const Message& message) {
  WireReader reader(message.payload);
  FetchPart request;
  request.partition = reader.u64();
  request.num_partitions = reader.u64();
  request.map_tasks.resize(read_count(reader, 8));
  for (std::uint64_t& map_task : request.map_tasks) map_task = reader.u64();
  return request;
}

Message PullFailed::encode() const {
  WireWriter writer;
  writer.u64(reduce_task);
  writer.u64(map_task);
  writer.u64(owner);
  return {MessageType::kPullFailed, writer.take()};
}

PullFailed PullFailed::decode(const Message& message) {
  WireReader reader(message.payload);
  PullFailed failed;
  failed.reduce_task = reader.u64();
  failed.map_task = reader.u64();
  failed.owner = reader.u64();
  return failed;
}

Message PullReport::encode() const {
  WireWriter writer;
  writer.u64(task);
  writer.u64(reduced.num_groups);
  writer.u64(reduced.in_records);
  writer.u64(reduced.out_records);
  for (const std::uint64_t field :
       {reduced.record_bytes, spill_bytes_written, spill_bytes_read,
        spill_pages, fetch_fires, fetch_retries, spill_retries, conns_opened,
        pulls, fetch_requests}) {
    writer.u64(field);
  }
  std::string payload = writer.take();
  payload += reduced.output;
  return {MessageType::kReducePullDone, std::move(payload)};
}

PullReport PullReport::decode(Message message) {
  WireReader reader(message.payload);
  PullReport report;
  report.task = reader.u64();
  report.reduced.num_groups = reader.u64();
  report.reduced.in_records = reader.u64();
  report.reduced.out_records = reader.u64();
  for (std::uint64_t* field :
       {&report.reduced.record_bytes, &report.spill_bytes_written,
        &report.spill_bytes_read, &report.spill_pages, &report.fetch_fires,
        &report.fetch_retries, &report.spill_retries,
        &report.conns_opened, &report.pulls, &report.fetch_requests}) {
    *field = reader.u64();
  }
  // The tail is the reducer's output run, checked once here as untrusted
  // framing and then kept as is.
  const std::size_t run_begin = message.payload.size() - reader.remaining();
  const std::size_t frames =
      count_record_frames(std::string_view(message.payload).substr(run_begin));
  if (frames != report.reduced.out_records) {
    throw IoError("ipc: kReducePullDone record count mismatch");
  }
  report.reduced.output = std::move(message.payload);
  report.reduced.output.erase(0, run_begin);
  return report;
}

namespace {

/// Thrown inside a pull when the owner's data plane is unreachable: the
/// reducer reports kPullFailed so the supervisor re-homes the map output,
/// rather than burning fetch attempts on a peer that cannot answer.
struct OwnerUnreachable {
  std::uint64_t map_task = 0;
  std::string reason;
};

/// The run a kFetchData reply for `map_task` carries: a view of `reply`
/// past the task id. A kTaskError reply (the output is not resident there,
/// say) is rethrown typed.
std::string_view fetch_data_run(const Message& reply,
                                std::uint64_t map_task) {
  if (reply.type == MessageType::kTaskError) rethrow_task_error(reply);
  DASC_ENSURE(reply.type == MessageType::kFetchData,
              "ipc: unexpected reply to kFetchPart");
  WireReader data(reply.payload);
  DASC_ENSURE(data.u64() == map_task, "ipc: kFetchData map task mismatch");
  return std::string_view(reply.payload).substr(sizeof(std::uint64_t));
}

/// The reply stream from one remote owner (DESIGN.md section 15): one
/// kFetchPart on a pooled connection names tasks[next..), and the owner
/// answers one reply per task, in that order.
struct OwnerStream {
  std::string path;
  std::vector<std::uint64_t> tasks;  ///< the owner's map tasks, pull order
  std::optional<ipc::ConnPool::Lease> lease;
  std::size_t next = 0;  ///< tasks[next] is the next unread reply

  /// A fully read stream pools its connection; one with replies still
  /// unread (a failed reduce task) is mid-conversation and is closed.
  ~OwnerStream() {
    if (next < tasks.size()) drop();
  }

  bool positioned_at(std::uint64_t map_task) const {
    return lease.has_value() && next < tasks.size() &&
           tasks[next] == map_task;
  }
  /// Closes the connection instead of pooling it.
  void drop() {
    if (!lease.has_value()) return;
    lease->invalidate();
    lease.reset();
  }
};

/// One kReducePull pass on this worker.
class PullClient {
 public:
  PullClient(const WorkerJob& job, const WorkerOptions& options,
             WorkerState& state, const ReducePull& request)
      : job_(job), options_(options), state_(state), request_(request) {
    for (std::uint64_t m = 0; m < request_.owners.size(); ++m) {
      const std::size_t owner = request_.owners[m];
      // An owner without a data-plane address (kNoOwner) surfaces as
      // unreachable in pull_once.
      if (owner == options_.ordinal) continue;
      std::string path = data_socket_path(options_, owner);
      if (path.empty()) continue;
      OwnerStream& stream = owners_[owner];
      stream.path = std::move(path);
      stream.tasks.push_back(m);
    }
  }

  /// The pass's reply: kReducePullDone, or kPullFailed naming the first
  /// owner it could not reach.
  Message run() {
    try {
      return reduce().encode();
    } catch (const OwnerUnreachable& unreachable) {
      const std::size_t dead = request_.owners[unreachable.map_task];
      DASC_LOG(kWarn) << "worker " << options_.ordinal << ": map output "
                      << unreachable.map_task << " owner unreachable ("
                      << unreachable.reason << "); reporting it";
      // Any idle pooled connection to the dead owner is garbage now: its
      // slot's next incarnation listens on a fresh accept queue.
      state_.pool().invalidate(dead);
      return PullFailed{request_.task, unreachable.map_task, dead}.encode();
    }
  }

 private:
  PullReport reduce() {
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

    Message reply;
    report_.task = request_.task;
    report_.reduced = detail::execute_reduce_task(
        job_.reducer_factory, request_.owners.size(),
        [&](std::size_t map_task) {
          ++report_.pulls;
          return pull(map_task, reply);
        },
        spool_config);
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
    return std::move(report_);
  }

  /// One map task's run, a view into `reply`: one `shuffle.fetch` check
  /// and at most one transfer per attempt, in task order.
  std::string_view pull(std::uint64_t map_task, Message& reply) {
    std::string_view run;
    fetch_verified(
        map_task, options_.faults, request_.max_fetch_attempts,
        [&] {
          reply = pull_once(map_task);
          run = fetch_data_run(reply, map_task);
        },
        [this] { ++report_.fetch_retries; });
    return run;
  }

  Message pull_once(std::uint64_t map_task) {
    const std::size_t owner = request_.owners[map_task];
    if (owner == options_.ordinal) {
      return state_.fetch_reply(map_task, request_.task,
                                request_.num_partitions);
    }
    const auto stream = owners_.find(owner);
    if (stream == owners_.end()) {
      throw OwnerUnreachable{map_task, "owner has no data-plane address"};
    }
    return read_reply(stream->second, map_task);
  }

  /// Takes `map_task`'s reply off its owner's stream: the next unread one
  /// if it is that task's, else the stream restarts at `map_task` (an
  /// injected error transferred nothing, so the reply is still next; an
  /// injected corruption consumed it). A stream that breaks — a frame that
  /// fails its CRC, say — restarts once more; a second transport failure —
  /// a dead process's stale socket, EOF mid-reply, a refused dial — is the
  /// owner being gone, which ends the pass.
  Message read_reply(OwnerStream& owner, std::uint64_t map_task) {
    for (std::size_t round = 0;; ++round) {
      try {
        if (!owner.positioned_at(map_task)) restart(owner, map_task);
        std::optional<Message> reply = (*owner.lease)->recv();
        if (!reply.has_value()) {
          throw IoError("owner closed the data plane mid-pull");
        }
        ++owner.next;
        return *std::move(reply);
      } catch (const IoError& error) {
        owner.drop();  // a desynchronized socket is closed, never pooled
        if (round >= 1) throw OwnerUnreachable{map_task, error.what()};
      }
    }
  }

  /// Drops the owner's stream and asks again, on a fresh lease, for
  /// `map_task` and every later task that owner holds.
  void restart(OwnerStream& owner, std::uint64_t map_task) {
    owner.drop();
    owner.next = static_cast<std::size_t>(
        std::lower_bound(owner.tasks.begin(), owner.tasks.end(), map_task) -
        owner.tasks.begin());
    const std::size_t slot = request_.owners[map_task];
    owner.lease.emplace(state_.pool().lease(slot, owner.path));
    const FetchPart request{
        request_.task, request_.num_partitions,
        std::vector<std::uint64_t>(
            owner.tasks.begin() + static_cast<std::ptrdiff_t>(owner.next),
            owner.tasks.end())};
    (*owner.lease)->send(request.encode());
    ++report_.fetch_requests;
  }

  const WorkerJob& job_;
  const WorkerOptions& options_;
  WorkerState& state_;
  const ReducePull& request_;
  std::map<std::size_t, OwnerStream> owners_;  ///< by remote owner slot
  PullReport report_;
};

}  // namespace

Message run_reduce_pull(const WorkerJob& job, const WorkerOptions& options,
                        WorkerState& state, const ReducePull& request) {
  return PullClient(job, options, state, request).run();
}

}  // namespace dasc::mapreduce::remote
