// Worker shutdown tests (ipc/worker_supervisor.hpp): shutdown reaps every
// worker without a polling step, and a worker that ignores kShutdown is
// SIGKILLed once the bounded grace window passes, with nothing left
// behind: no live worker in the gauge and no unreaped child.
#include "ipc/worker_supervisor.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <vector>

#include "common/metrics.hpp"
#include "ipc/message.hpp"
#include "ipc/transport.hpp"

namespace dasc::ipc {
namespace {

/// Serves until kShutdown or EOF, like a healthy worker's serve loop.
void obedient_worker(Transport& transport, std::size_t /*slot*/) {
  while (const auto message = transport.recv()) {
    if (message->type == MessageType::kShutdown) return;
  }
}

/// True once `pid` is neither running nor an unreaped child of ours.
bool gone(pid_t pid) {
  int status = 0;
  return ::waitpid(pid, &status, WNOHANG) < 0 && errno == ECHILD &&
         ::kill(pid, 0) < 0 && errno == ESRCH;
}

TEST(WorkerShutdown, ReapsObedientWorkers) {
  MetricsRegistry registry;
  WorkerLaunch launch;
  launch.num_workers = 3;
  launch.num_spares = 1;
  launch.worker_main = obedient_worker;
  launch.metrics = &registry;
  WorkerSupervisor supervisor(launch);
  std::vector<pid_t> pids;
  for (std::size_t slot = 0; slot < supervisor.provisioned(); ++slot) {
    pids.push_back(supervisor.pid(slot));
  }
  EXPECT_EQ(registry.gauge_value("worker.active"), 4);

  supervisor.shutdown();
  EXPECT_EQ(registry.gauge_value("worker.active"), 0);
  EXPECT_EQ(supervisor.alive_count(), 0u);
  for (const pid_t pid : pids) EXPECT_TRUE(gone(pid)) << "pid " << pid;
  supervisor.shutdown();  // idempotent
  EXPECT_EQ(registry.gauge_value("worker.active"), 0);
}

TEST(WorkerShutdown, KillsAWorkerThatIgnoresIt) {
  // Slot 1 never reads its transport, so kShutdown goes unanswered; its
  // siblings exit on it. Shutdown escalates to SIGKILL after the grace
  // window (one second) and still reaps everyone.
  MetricsRegistry registry;
  WorkerLaunch launch;
  launch.num_workers = 2;
  launch.num_spares = 1;
  launch.worker_main = [](Transport& transport, std::size_t slot) {
    if (slot != 1) return obedient_worker(transport, slot);
    while (true) ::pause();
  };
  launch.metrics = &registry;
  WorkerSupervisor supervisor(launch);
  std::vector<pid_t> pids;
  for (std::size_t slot = 0; slot < supervisor.provisioned(); ++slot) {
    pids.push_back(supervisor.pid(slot));
  }

  const auto start = std::chrono::steady_clock::now();
  supervisor.shutdown();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_GE(took.count(), 0.9);  // the wedged worker got its grace window
  EXPECT_LT(took.count(), 5.0);  // and not much more
  EXPECT_EQ(registry.gauge_value("worker.active"), 0);
  EXPECT_EQ(supervisor.alive_count(), 0u);
  for (const pid_t pid : pids) EXPECT_TRUE(gone(pid)) << "pid " << pid;
}

}  // namespace
}  // namespace dasc::ipc
