#include "ipc/worker_supervisor.hpp"

#include <poll.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"

namespace dasc::ipc {

namespace {

/// Blocking waitpid riding out EINTR. The caller guarantees the pid is an
/// unreaped child, so this cannot block forever once the child has exited
/// or been SIGKILLed.
void reap_pid(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

/// How long shutdown() waits, for all workers together, before it
/// SIGKILLs the ones still running.
constexpr std::chrono::milliseconds kShutdownGrace{1000};

/// Waits until the unreaped child `pid` exits or `deadline` passes, with
/// no polling step, and reaps it if it exited. It waits on a pidfd; where
/// pidfd_open is unavailable, on the hangup of the worker's control socket
/// `control_fd`, which a worker closes only on its way out.
bool reap_by(pid_t pid, int control_fd,
             std::chrono::steady_clock::time_point deadline) {
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  pollfd watch{control_fd, POLLRDHUP, 0};
  if (pidfd >= 0) watch = {pidfd, POLLIN, 0};
  int ready = 0;
  do {
    const auto left = deadline - std::chrono::steady_clock::now();
    const auto left_ms =
        std::chrono::ceil<std::chrono::milliseconds>(left).count();
    ready = ::poll(&watch, 1, left_ms > 0 ? static_cast<int>(left_ms) : 0);
  } while (ready < 0 && errno == EINTR);
  if (pidfd >= 0) ::close(pidfd);
  if (ready <= 0) return false;
  reap_pid(pid);
  return true;
}

}  // namespace

std::size_t sweep_spool_files(const std::string& dir, long pid) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path base =
      dir.empty() ? fs::temp_directory_path(ec) : fs::path(dir);
  if (ec) return 0;
  // Exactly "dasc-spool-<pid>-<digits>.spl". Workers in worker-to-worker
  // shuffle mode share the supervisor's spill_dir, so the match must never
  // alias across pids: the "-" after the pid stops prefix collisions
  // (123 vs 1234) and the all-digits middle stops any other live worker's
  // name shape from matching a dead pid's sweep.
  const std::string prefix = "dasc-spool-" + std::to_string(pid) + "-";
  const std::string suffix = ".spl";
  std::size_t removed = 0;
  fs::directory_iterator it(base, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    std::error_code type_ec;
    if (!entry.is_regular_file(type_ec) || type_ec) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.size() < prefix.size() + suffix.size() + 1) continue;
    if (name.substr(name.size() - suffix.size()) != suffix) continue;
    const std::string middle = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    bool digits = !middle.empty();
    for (const char c : middle) digits = digits && c >= '0' && c <= '9';
    if (!digits) continue;
    std::error_code remove_ec;
    if (fs::remove(entry.path(), remove_ec)) ++removed;
  }
  return removed;
}

WorkerSupervisor::WorkerSupervisor(WorkerLaunch launch)
    : launch_(std::move(launch)) {
  DASC_EXPECT(launch_.num_workers >= 1,
              "WorkerSupervisor: need at least one worker");
  const bool exec_mode = !launch_.exec_argv.empty();
  DASC_EXPECT(exec_mode || launch_.worker_main != nullptr,
              "WorkerSupervisor: fork mode needs a worker_main");

  const std::size_t total = launch_.num_workers + launch_.num_spares;
  slots_.reserve(total);
  for (std::size_t slot = 0; slot < total; ++slot) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }

  std::vector<int> parent_fds;
  parent_fds.reserve(total);
  for (std::size_t slot = 0; slot < total; ++slot) {
    if (exec_mode) {
      spawn_execed(slot);
    } else {
      spawn_forked(slot, parent_fds);
    }
  }
  for (std::size_t slot = 0; slot < total; ++slot) expect_hello(slot);

  if (launch_.metrics != nullptr) {
    launch_.metrics->gauge("worker.forked")
        .add(static_cast<std::int64_t>(total));
  }
  record_active();
  DASC_LOG(kInfo) << "supervisor: " << launch_.num_workers << " workers + "
                  << launch_.num_spares << " spares "
                  << (exec_mode ? "exec'd" : "forked");
}

WorkerSupervisor::~WorkerSupervisor() {
  try {
    shutdown();
  } catch (...) {
  }
}

void WorkerSupervisor::spawn_forked(std::size_t slot,
                                    std::vector<int>& parent_fds) {
  auto [parent_fd, child_fd] = make_socketpair();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(parent_fd);
    ::close(child_fd);
    throw IoError("supervisor: fork failed");
  }
  if (pid == 0) {
    // Worker child. Sever every parent-side end inherited from earlier
    // workers — holding one would keep a sibling's socket open and defeat
    // the supervisor's EOF-based death detection.
    for (const int fd : parent_fds) ::close(fd);
    ::close(parent_fd);
    ::signal(SIGPIPE, SIG_IGN);
    int exit_code = 0;
    try {
      Transport transport(child_fd);
      WireWriter hello;
      hello.u64(static_cast<std::uint64_t>(::getpid()));
      transport.send({MessageType::kHello, hello.take()});
      launch_.worker_main(transport, slot);
    } catch (...) {
      exit_code = 1;
    }
    // _exit: a forked worker must not run the parent's static destructors
    // or flush its inherited stdio buffers.
    ::_exit(exit_code);
  }
  ::close(child_fd);
  parent_fds.push_back(parent_fd);
  WorkerSlot& state = *slots_[slot];
  state.pid = pid;
  state.transport = std::make_unique<Transport>(parent_fd, launch_.metrics);
  state.alive.store(true, std::memory_order_release);
}

void WorkerSupervisor::spawn_execed(std::size_t slot) {
  namespace fs = std::filesystem;
  const fs::path base = launch_.socket_dir.empty()
                            ? fs::temp_directory_path()
                            : fs::path(launch_.socket_dir);
  const std::string socket_path =
      (base / ("dasc-worker-" + std::to_string(::getpid()) + "-" +
               std::to_string(slot) + ".sock"))
          .string();
  Listener listener(socket_path);

  const pid_t pid = ::fork();
  if (pid < 0) throw IoError("supervisor: fork for exec failed");
  if (pid == 0) {
    std::vector<std::string> args = launch_.exec_argv;
    args.push_back(socket_path);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; the parent's accept() times out
  }
  WorkerSlot& state = *slots_[slot];
  state.pid = pid;
  try {
    state.transport =
        listener.accept(launch_.connect_timeout_ms, launch_.metrics);
  } catch (...) {
    ::kill(pid, SIGKILL);
    reap_pid(pid);
    throw;
  }
  state.alive.store(true, std::memory_order_release);
}

void WorkerSupervisor::expect_hello(std::size_t slot) {
  WorkerSlot& state = *slots_[slot];
  std::optional<Message> hello;
  try {
    hello = state.transport->recv();
  } catch (...) {
    hello.reset();
  }
  if (!hello || hello->type != MessageType::kHello) {
    reap_locked(state);
    throw IoError("supervisor: worker " + std::to_string(slot) +
                  " failed its kHello handshake");
  }
  WireReader reader(hello->payload);
  const auto reported = static_cast<pid_t>(reader.u64());
  DASC_ENSURE(reported == state.pid,
              "supervisor: worker reported an unexpected pid");
}

bool WorkerSupervisor::alive(std::size_t slot) const {
  return slots_[slot]->alive.load(std::memory_order_acquire);
}

std::size_t WorkerSupervisor::alive_count() const {
  std::size_t count = 0;
  for (const auto& slot : slots_) {
    if (slot->alive.load(std::memory_order_acquire)) ++count;
  }
  return count;
}

pid_t WorkerSupervisor::pid(std::size_t slot) const {
  return slots_[slot]->pid;
}

Transport& WorkerSupervisor::transport(std::size_t slot) {
  return *slots_[slot]->transport;
}

std::mutex& WorkerSupervisor::exchange_mutex(std::size_t slot) {
  return slots_[slot]->exchange_mutex;
}

bool WorkerSupervisor::reap_locked(WorkerSlot& slot) {
  std::lock_guard lock(slot.lifecycle_mutex);
  if (!slot.alive.load(std::memory_order_acquire)) return false;
  reap_pid(slot.pid);
  slot.alive.store(false, std::memory_order_release);
  const std::size_t swept =
      sweep_spool_files(launch_.spill_dir, static_cast<long>(slot.pid));
  if (launch_.metrics != nullptr && swept > 0) {
    launch_.metrics->gauge("worker.spool_files_swept")
        .add(static_cast<std::int64_t>(swept));
  }
  return true;
}

void WorkerSupervisor::kill_worker(std::size_t slot) {
  WorkerSlot& state = *slots_[slot];
  {
    std::lock_guard lock(state.lifecycle_mutex);
    if (!state.alive.load(std::memory_order_acquire)) return;
    // SIGKILL inside the lifecycle lock: alive==true guarantees the pid is
    // not yet reaped, so it cannot have been recycled.
    ::kill(state.pid, SIGKILL);
    reap_pid(state.pid);
    state.alive.store(false, std::memory_order_release);
    const std::size_t swept =
        sweep_spool_files(launch_.spill_dir, static_cast<long>(state.pid));
    if (launch_.metrics != nullptr) {
      launch_.metrics->gauge("worker.killed").add(1);
      if (swept > 0) {
        launch_.metrics->gauge("worker.spool_files_swept")
            .add(static_cast<std::int64_t>(swept));
      }
    }
  }
  DASC_LOG(kWarn) << "supervisor: killed worker " << slot << " (pid "
                  << state.pid << ")";
  record_active();
}

void WorkerSupervisor::mark_dead(std::size_t slot) {
  if (reap_locked(*slots_[slot])) {
    DASC_LOG(kWarn) << "supervisor: reaped dead worker " << slot << " (pid "
                    << slots_[slot]->pid << ")";
    record_active();
  }
}

void WorkerSupervisor::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;

  for (const auto& slot : slots_) {
    if (!slot->alive.load(std::memory_order_acquire)) continue;
    try {
      slot->transport->send({MessageType::kShutdown, {}});
    } catch (...) {
      // already dying; the reap below handles it
    }
  }
  // One bounded grace window for every worker's voluntary exit, then
  // SIGKILL. It only matters for a wedged worker; a healthy one exits on
  // kShutdown within one serve-loop iteration, and is reaped the moment
  // it does.
  const auto deadline = std::chrono::steady_clock::now() + kShutdownGrace;
  for (const auto& slot : slots_) {
    std::lock_guard lock(slot->lifecycle_mutex);
    if (!slot->alive.load(std::memory_order_acquire)) continue;
    if (!reap_by(slot->pid, slot->transport->fd(), deadline)) {
      ::kill(slot->pid, SIGKILL);
      reap_pid(slot->pid);
    }
    slot->alive.store(false, std::memory_order_release);
    const std::size_t swept =
        sweep_spool_files(launch_.spill_dir, static_cast<long>(slot->pid));
    if (launch_.metrics != nullptr && swept > 0) {
      launch_.metrics->gauge("worker.spool_files_swept")
          .add(static_cast<std::int64_t>(swept));
    }
  }
  record_active();
}

void WorkerSupervisor::record_active() const {
  if (launch_.metrics != nullptr) {
    launch_.metrics->gauge("worker.active")
        .set(static_cast<std::int64_t>(alive_count()));
  }
}

}  // namespace dasc::ipc
