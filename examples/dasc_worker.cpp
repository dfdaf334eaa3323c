// dasc_worker: exec-mode worker binary for the multi-process MapReduce
// runtime (JobConf::worker_binary).
//
//   $ ./dasc_worker <socket-path>
//
// Connects to the supervisor's AF_UNIX listener, introduces itself
// (kHello), receives its job setup, reconstructs the *registered* job the
// supervisor named (arbitrary std::function factories cannot cross an
// exec boundary — only jobs in the remote_runner registry can run here;
// "wordcount" is built in), and serves task assignments until kShutdown
// or supervisor death. See DESIGN.md sections 13 (control protocol) and
// 14 (worker-to-worker shuffle data plane).
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include <unistd.h>

#include "common/fault_injection.hpp"
#include "ipc/message.hpp"
#include "ipc/transport.hpp"
#include "mapreduce/remote_runner.hpp"

int main(int argc, char** argv) {
  using namespace dasc;
  if (argc != 2) {
    std::fprintf(stderr, "usage: dasc_worker <socket-path>\n");
    return 2;
  }
  // A supervisor that died mid-conversation must surface as a send error,
  // not a fatal signal.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const std::unique_ptr<ipc::Transport> transport =
        ipc::Transport::connect(argv[1]);

    ipc::WireWriter hello;
    hello.u64(static_cast<std::uint64_t>(::getpid()));
    transport->send({ipc::MessageType::kHello, hello.take()});

    const auto setup = transport->recv();
    if (!setup.has_value() ||
        setup->type != ipc::MessageType::kJobSetup) {
      std::fprintf(stderr, "dasc_worker: expected kJobSetup\n");
      return 1;
    }
    ipc::WireReader reader(setup->payload);
    mapreduce::WorkerOptions options;
    options.ordinal = static_cast<std::size_t>(reader.u64());
    options.heartbeat_ms = static_cast<std::size_t>(reader.u64());
    const bool use_combiner = reader.u32() != 0;
    const std::string job_name(reader.bytes());
    // Every slot's data-plane address (this worker binds its own entry
    // and dials owners at theirs) and the fault plan it evaluates for
    // worker-side sites ("" = no faults). Exec'd workers own their
    // injector — fires are reported back in kReducePullDone, so no metrics
    // here.
    const std::uint64_t slots = reader.u64();
    for (std::uint64_t slot = 0; slot < slots; ++slot) {
      options.data_socket_paths.emplace_back(reader.bytes());
    }
    const std::string fault_plan_text(reader.bytes());
    std::optional<FaultInjector> faults;
    if (!fault_plan_text.empty()) {
      faults.emplace(FaultPlan::parse(fault_plan_text));
      options.faults = &*faults;
    }

    mapreduce::WorkerJob job =
        mapreduce::make_registered_worker_job(job_name);
    job.use_combiner = use_combiner;
    mapreduce::serve_worker_loop(*transport, job, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dasc_worker: %s\n", e.what());
    return 1;
  }
  return 0;
}
