// The worker side of the multi-process runtime: the job registry exec'd
// workers build their job from, the control-plane serve loop, and the
// data plane that serves this worker's map outputs to pulling reducers.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "ipc/transport.hpp"
#include "mapreduce/remote_protocol.hpp"

namespace dasc::mapreduce {

namespace remote {

ipc::Message WorkerState::fetch_reply(std::uint64_t map_task,
                                      std::uint64_t partition,
                                      std::uint64_t num_partitions) {
  std::lock_guard lock(mutex_);
  const auto it = outputs_.find(map_task);
  if (it == outputs_.end()) {
    return task_error(map_task,
                      "fetch_part: map output not resident on this worker");
  }
  const MapOutput& output = it->second;
  if (num_partitions != output.num_partitions() ||
      partition >= num_partitions) {
    return task_error(map_task, "fetch_part: no partition " +
                                    std::to_string(partition) + " of " +
                                    std::to_string(num_partitions) +
                                    " in a map output of " +
                                    std::to_string(output.num_partitions()));
  }
  ipc::WireWriter writer;
  writer.u64(map_task);
  std::string payload = writer.take();
  payload.append(output.run(partition));
  return {ipc::MessageType::kFetchData, std::move(payload)};
}

ipc::Message run_map_assign(const WorkerJob& job, WorkerState& state,
                            std::uint64_t task, ipc::WireReader& reader) {
  const std::uint64_t num_partitions = reader.u64();
  detail::MapTaskResult mapped = detail::execute_map_task(
      job.mapper_factory, job.combiner_factory,
      job.use_combiner && job.combiner_factory != nullptr, reader.rest(),
      static_cast<std::size_t>(num_partitions));
  ipc::WireWriter writer;
  writer.u64(task);
  writer.u64(mapped.emitted);
  writer.u64(mapped.combined);
  state.store(task, std::move(mapped.output));
  return {ipc::MessageType::kMapDone, writer.take()};
}

}  // namespace remote

namespace {

using ipc::Message;
using ipc::MessageType;
using ipc::WireReader;
using remote::WorkerState;

/// The canonical wordcount job, pre-registered so exec-mode workers and
/// supervisors agree on its semantics by sharing this single definition.
class WordCountMapper final : public Mapper {
 public:
  void map(const std::string& /*key*/, const std::string& value,
           Emitter& out) override {
    std::istringstream stream(value);
    std::string word;
    while (stream >> word) out.emit(word, "1");
  }
};

class WordCountSumReducer final : public Reducer {
 public:
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) override {
    long total = 0;
    for (const auto& value : values) total += std::stol(value);
    out.emit(key, std::to_string(total));
  }
};

WorkerJob builtin_wordcount_job() {
  WorkerJob job;
  job.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  job.reducer_factory = [] { return std::make_unique<WordCountSumReducer>(); };
  job.combiner_factory = [] {
    return std::make_unique<WordCountSumReducer>();
  };
  return job;
}

std::map<std::string, std::function<WorkerJob()>>& job_registry() {
  static std::map<std::string, std::function<WorkerJob()>> registry = {
      {"wordcount", builtin_wordcount_job},
  };
  return registry;
}

std::mutex& job_registry_mutex() {
  static std::mutex mutex;
  return mutex;
}

/// Serve one data-plane connection until the puller closes it. A
/// kFetchPart names one partition and a list of map tasks; the answer is
/// one reply per task, in list order: kFetchData, or kTaskError when that
/// output is not resident here. Pullers hold a pooled connection across
/// many requests and keep at most one outstanding on it; a dead puller
/// costs nothing but this loop's EOF, or a failed send of its replies.
void serve_data_peer(ipc::Transport& peer, WorkerState& state) {
  while (true) {
    const std::optional<Message> request = peer.recv();
    if (!request.has_value()) return;  // puller closed cleanly
    if (request->type != MessageType::kFetchPart) {
      throw IoError("data plane: unexpected message type " +
                    std::to_string(
                        static_cast<std::uint32_t>(request->type)));
    }
    const remote::FetchPart fetch = remote::FetchPart::decode(*request);
    for (const std::uint64_t map_task : fetch.map_tasks) {
      peer.send(
          state.fetch_reply(map_task, fetch.partition, fetch.num_partitions));
    }
  }
}

/// The worker's data-plane listener and its serving threads. It binds
/// before the serve loop answers its first assignment, so any address a
/// reducer learns from a partition map is already accepting. Each peer gets
/// its own thread: a reducer holds its pooled connection across many
/// pulls, and serving one peer to EOF would park every other reducer.
class DataPlane {
 public:
  DataPlane(const WorkerOptions& options, WorkerState& state)
      : options_(options), state_(state) {
    const std::string path =
        remote::data_socket_path(options, options.ordinal);
    if (path.empty()) return;
    listener_ = std::make_unique<ipc::Listener>(path);
    acceptor_ = std::thread([this] { accept_loop(); });
  }
  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  /// Stops accepting, closes our own outbound pool first (so peer
  /// workers' serving threads see EOF too), then wakes any serving thread
  /// still blocked on an inbound recv with a half-close — close() would be
  /// unsafe cross-thread, the fd could be reused under the reader.
  ~DataPlane() {
    if (listener_ != nullptr) listener_->wake();
    if (acceptor_.joinable()) acceptor_.join();
    state_.pool().clear();
    {
      std::lock_guard lock(peers_mutex_);
      for (ipc::Transport* peer : live_peers_) peer->shutdown_rw();
    }
    for (std::thread& thread : peer_threads_) thread.join();
  }

 private:
  void accept_loop() {
    // Blocks until a peer dials or the destructor wakes the listener: the
    // supervisor's shutdown waits for this worker to exit, so any polling
    // period would sit on every job's tail.
    while (true) {
      std::unique_ptr<ipc::Transport> peer;
      try {
        peer = listener_->try_accept(ipc::Listener::kNoTimeout);
      } catch (const std::exception& error) {
        DASC_LOG(kWarn) << "worker " << options_.ordinal
                        << ": data-plane listener failed: " << error.what();
        return;
      }
      if (peer == nullptr) return;  // woken: the worker is stopping
      std::lock_guard lock(peers_mutex_);
      live_peers_.push_back(peer.get());
      peer_threads_.emplace_back(
          [this, peer = std::move(peer)] { serve_peer(*peer); });
    }
  }

  void serve_peer(ipc::Transport& peer) {
    try {
      serve_data_peer(peer, state_);
    } catch (const std::exception& error) {
      // One misbehaving puller must not take the plane down; its failed
      // pull surfaces on the puller's side.
      DASC_LOG(kWarn) << "worker " << options_.ordinal
                      << ": data-plane connection failed: " << error.what();
    }
    std::lock_guard lock(peers_mutex_);
    live_peers_.erase(
        std::find(live_peers_.begin(), live_peers_.end(), &peer));
  }

  const WorkerOptions& options_;
  WorkerState& state_;
  std::unique_ptr<ipc::Listener> listener_;
  std::mutex peers_mutex_;
  std::vector<ipc::Transport*> live_peers_;
  std::vector<std::thread> peer_threads_;
  std::thread acceptor_;
};

/// Sends kHeartbeat every period while a task is executing. That is when
/// the supervisor is blocked in the exchange's recv loop draining them, so
/// unread frames stay bounded even between phases. Stopping wakes the
/// thread at once: worker exit is on the supervisor's shutdown path.
class Heartbeat {
 public:
  Heartbeat(ipc::Transport& transport, std::size_t period_ms) {
    if (period_ms == 0) return;
    thread_ = std::thread([this, &transport, period_ms] {
      std::unique_lock lock(mutex_);
      while (!wake_.wait_for(lock, std::chrono::milliseconds(period_ms),
                             [this] { return stop_; })) {
        if (!busy_.load(std::memory_order_acquire)) continue;
        try {
          transport.send({MessageType::kHeartbeat, {}});
        } catch (const std::exception&) {
          return;  // supervisor gone; the serve loop will see EOF too
        }
      }
    });
  }
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  ~Heartbeat() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void set_busy(bool busy) { busy_.store(busy, std::memory_order_release); }

 private:
  std::atomic<bool> busy_{false};
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

void register_worker_job(const std::string& name,
                         std::function<WorkerJob()> factory) {
  DASC_EXPECT(factory != nullptr, "register_worker_job: null factory");
  std::lock_guard lock(job_registry_mutex());
  job_registry()[name] = std::move(factory);
}

WorkerJob make_registered_worker_job(const std::string& name) {
  std::function<WorkerJob()> factory;
  {
    std::lock_guard lock(job_registry_mutex());
    const auto it = job_registry().find(name);
    if (it == job_registry().end()) {
      throw InvalidArgument("worker job not registered: '" + name + "'");
    }
    factory = it->second;
  }
  return factory();
}

void serve_worker_loop(ipc::Transport& transport, const WorkerJob& job,
                       const WorkerOptions& options) {
  DASC_EXPECT(job.mapper_factory != nullptr, "worker: missing mapper");
  DASC_EXPECT(job.reducer_factory != nullptr, "worker: missing reducer");

  // Declaration order is teardown order, reversed: heartbeats stop first,
  // then the data plane, then the outputs it served.
  WorkerState state;
  DataPlane data_plane(options, state);
  Heartbeat heartbeat(transport, options.heartbeat_ms);

  // Runs one task with heartbeats on and replies with its result, or with
  // a kTaskError naming `where` when it throws; the loop keeps serving. The
  // body decodes its assignment (task id first) inside the try, so a
  // malformed one fails that task, not the worker. It runs as a parallel
  // region: a parallel_for inside it (per-bucket K-means) runs inline, as
  // it would on an in-process executor's pool thread.
  const auto run_task =
      [&](const Message& assignment, const char* where,
          const std::function<Message(std::uint64_t, WireReader&)>& body) {
        heartbeat.set_busy(true);
        std::uint64_t task = 0;
        Message reply;
        try {
          const ParallelRegion region;
          WireReader reader(assignment.payload);
          task = reader.u64();
          reply = body(task, reader);
        } catch (const std::exception& error) {
          reply = remote::task_error(task, std::string(where) + ": " +
                                               error.what());
        }
        transport.send(reply);
        heartbeat.set_busy(false);
      };

  while (true) {
    const std::optional<Message> message = transport.recv();
    // EOF: the supervisor closed or died.
    if (!message.has_value() || message->type == MessageType::kShutdown) {
      return;
    }
    switch (message->type) {
      case MessageType::kMapAssign:
        run_task(*message, "map", [&](std::uint64_t task,
                                      WireReader& reader) {
          return remote::run_map_assign(job, state, task, reader);
        });
        break;
      case MessageType::kReducePull:
        run_task(*message, "reduce_pull", [&](std::uint64_t, WireReader&) {
          return remote::run_reduce_pull(
              job, options, state, remote::ReducePull::decode(*message));
        });
        break;
      default:
        DASC_LOG(kWarn) << "worker " << options.ordinal
                        << ": ignoring unexpected message type "
                        << static_cast<std::uint32_t>(message->type);
        break;
    }
  }
}

}  // namespace dasc::mapreduce
