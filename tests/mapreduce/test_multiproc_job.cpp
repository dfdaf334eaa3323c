// Multi-process execution tests: output and counter parity with the
// in-process executor across worker counts and spill budgets, worker-
// count-invariant shuffle and spill volumes, placement determinism across
// modes and seeds, worker.kill recovery mid-map and mid-reduce (including
// the reducers' dead-owner pull recovery), worker-side task failures
// surfacing as typed errors, heartbeats drained around a reply larger than
// the socket buffer, the kReducePullDone output run checked as untrusted
// framing, the exec-mode worker binary (DESIGN.md sections 13-14), and
// cross-process speculative execution with supervisor-arbitrated commit
// (section 15).
#include "mapreduce/remote_runner.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/metrics.hpp"
#include "common/spool.hpp"
#include "common/thread_pool.hpp"
#include "ipc/message.hpp"
#include "ipc/transport.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/remote_protocol.hpp"
#include "mapreduce/shuffle.hpp"
#include "mapreduce/task_exec.hpp"
#include "mapreduce/virtual_cluster.hpp"

namespace dasc::mapreduce {
namespace {

class WordCountMapper final : public Mapper {
 public:
  void map(const std::string& /*key*/, const std::string& value,
           Emitter& out) override {
    std::istringstream stream(value);
    std::string word;
    while (stream >> word) out.emit(word, "1");
  }
};

class SumReducer final : public Reducer {
 public:
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) override {
    long total = 0;
    for (const auto& v : values) total += std::stol(v);
    out.emit(key, std::to_string(total));
  }
};

class ThrowingReducer final : public Reducer {
 public:
  void reduce(const std::string&, const std::vector<std::string>&,
              Emitter&) override {
    throw std::runtime_error("reducer exploded");
  }
};

JobSpec word_count_spec() {
  JobSpec spec;
  spec.conf.num_reducers = 3;
  spec.conf.split_records = 2;
  spec.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  spec.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  return spec;
}

std::vector<Record> word_count_input() {
  std::vector<Record> input;
  for (int i = 0; i < 12; ++i) {
    input.push_back({std::to_string(i),
                     "alpha beta gamma delta word" + std::to_string(i % 5)});
  }
  return input;
}

JobSpec multiproc_spec(std::size_t workers, std::size_t spill_budget = 0) {
  JobSpec spec = word_count_spec();
  spec.conf.execution_mode = ExecutionMode::kMultiProcess;
  spec.conf.num_workers = workers;
  spec.conf.spill_budget_bytes = spill_budget;
  return spec;
}

TEST(MultiprocJob, OutputIsByteIdenticalToInProcess) {
  const JobResult baseline = run_job(word_count_spec(), word_count_input());
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const JobResult result =
        run_job(multiproc_spec(workers), word_count_input());
    EXPECT_EQ(result.output, baseline.output)
        << "workers=" << workers;
    EXPECT_EQ(result.counters.map_input_records,
              baseline.counters.map_input_records);
    EXPECT_EQ(result.counters.map_output_records,
              baseline.counters.map_output_records);
    EXPECT_EQ(result.counters.combine_output_records,
              baseline.counters.combine_output_records);
    EXPECT_EQ(result.counters.reduce_input_groups,
              baseline.counters.reduce_input_groups);
    EXPECT_EQ(result.counters.reduce_output_records,
              baseline.counters.reduce_output_records);
    EXPECT_EQ(result.counters.shuffle_bytes, baseline.counters.shuffle_bytes);
  }
}

TEST(MultiprocJob, MovedInputMatchesCopiedInput) {
  // run_job frames its input records into splits and frees them; a
  // caller's lvalue is copied first and left as it was.
  for (const JobSpec& spec : {word_count_spec(), multiproc_spec(2)}) {
    const std::vector<Record> input = word_count_input();
    const JobResult copied = run_job(spec, input);
    EXPECT_EQ(input, word_count_input());
    std::vector<Record> handed_over = word_count_input();
    const JobResult moved = run_job(spec, std::move(handed_over));
    EXPECT_EQ(moved.output, copied.output);
    const Counters& a = moved.counters;
    const Counters& b = copied.counters;
    EXPECT_EQ(a.map_input_records, b.map_input_records);
    EXPECT_EQ(a.map_output_records, b.map_output_records);
    EXPECT_EQ(a.combine_input_records, b.combine_input_records);
    EXPECT_EQ(a.combine_output_records, b.combine_output_records);
    EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
    EXPECT_EQ(a.reduce_input_groups, b.reduce_input_groups);
    EXPECT_EQ(a.reduce_input_records, b.reduce_input_records);
    EXPECT_EQ(a.reduce_output_records, b.reduce_output_records);
    EXPECT_EQ(a.failed_task_attempts, b.failed_task_attempts);
    EXPECT_EQ(a.map_input_records, input.size());
  }
}

TEST(MultiprocJob, NoCombinerParityHolds) {
  JobSpec in_proc = word_count_spec();
  in_proc.conf.enable_combiner = false;
  const JobResult baseline = run_job(in_proc, word_count_input());
  JobSpec multi = multiproc_spec(2);
  multi.conf.enable_combiner = false;
  const JobResult result = run_job(multi, word_count_input());
  EXPECT_EQ(result.output, baseline.output);
  EXPECT_EQ(result.counters.combine_input_records, 0u);
}

TEST(MultiprocJob, ShuffleAndSpillBytesAreWorkerCountInvariant) {
  // The shuffle volume is derived from the record stream (key + value + 2
  // per record) and every pulled record spools through the same budget, so
  // neither number may depend on how many workers the records crossed.
  std::vector<std::uint64_t> shuffle_bytes;
  std::vector<std::int64_t> spill_written;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    MetricsRegistry registry;
    JobSpec spec = multiproc_spec(workers, /*spill_budget=*/1);
    spec.metrics = &registry;
    const JobResult result = run_job(spec, word_count_input());
    shuffle_bytes.push_back(result.counters.shuffle_bytes);
    spill_written.push_back(registry.gauge_value("spill.bytes_written"));
  }
  EXPECT_GT(shuffle_bytes[0], 0u);
  EXPECT_EQ(shuffle_bytes[0], shuffle_bytes[1]);
  EXPECT_EQ(shuffle_bytes[0], shuffle_bytes[2]);
  EXPECT_GT(spill_written[0], 0);
  EXPECT_EQ(spill_written[0], spill_written[1]);
  EXPECT_EQ(spill_written[0], spill_written[2]);
}

TEST(MultiprocJob, PlacementIsDeterministicAcrossModesAndSeeds) {
  JobSpec in_proc = word_count_spec();
  in_proc.conf.placement_seed = 42;
  const JobResult a = run_job(in_proc, word_count_input());

  JobSpec multi = word_count_spec();
  multi.conf.placement_seed = 42;
  multi.conf.execution_mode = ExecutionMode::kMultiProcess;
  const JobResult b = run_job(multi, word_count_input());

  // Same seed => the same task -> worker plan, whichever mode executed it.
  ASSERT_FALSE(a.map_task_workers.empty());
  EXPECT_EQ(a.map_task_workers, b.map_task_workers);
  EXPECT_EQ(a.reduce_task_workers, b.reduce_task_workers);
  // And the plan is what assign_tasks says it should be.
  EXPECT_EQ(a.map_task_workers,
            assign_tasks(a.num_map_tasks, in_proc.conf.num_workers, 42));
  EXPECT_EQ(a.reduce_task_workers,
            assign_tasks(a.num_reduce_tasks, in_proc.conf.num_workers, 43));

  JobSpec reseeded = word_count_spec();
  reseeded.conf.placement_seed = 7;
  const JobResult c = run_job(reseeded, word_count_input());
  // A different seed permutes the workers differently (with 2 workers the
  // two permutations collide often, so compare against the oracle).
  EXPECT_EQ(c.map_task_workers,
            assign_tasks(c.num_map_tasks, reseeded.conf.num_workers, 7));
}

TEST(MultiprocJob, WorkerKillMidMapRecovers) {
  const JobResult baseline = run_job(word_count_spec(), word_count_input());

  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse("seed=3;worker.kill:nth=2:max=1"),
                         &registry);
  JobSpec spec = multiproc_spec(2);
  spec.conf.worker_spares = 1;
  spec.conf.max_task_attempts = 3;
  spec.metrics = &registry;
  spec.faults = &injector;

  const JobResult result = run_job(spec, word_count_input());
  EXPECT_EQ(result.output, baseline.output);
  EXPECT_EQ(injector.fired("worker.kill"), 1u);
  // Not asserting failed_task_attempts == 1: in principle a reply can
  // already be in the socket buffer when SIGKILL lands, in which case the
  // attempt succeeds and only a reducer's pull recovery re-executes the
  // task.
  EXPECT_GE(registry.gauge_value("worker.killed"), 1);
}

TEST(MultiprocJob, WorkerKillMidReduceRecovers) {
  const JobResult baseline = run_job(word_count_spec(), word_count_input());
  // 12 input records / split_records=2 => 6 map tasks; nth=8 fires on the
  // second worker.kill check of the reduce phase.
  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse("seed=3;worker.kill:nth=8:max=1"),
                         &registry);
  JobSpec spec = multiproc_spec(2);
  spec.conf.worker_spares = 1;
  spec.conf.max_task_attempts = 3;
  spec.metrics = &registry;
  spec.faults = &injector;

  const JobResult result = run_job(spec, word_count_input());
  EXPECT_EQ(result.output, baseline.output);
  EXPECT_EQ(injector.fired("worker.kill"), 1u);
  EXPECT_GE(registry.gauge_value("worker.killed"), 1);
}

TEST(MultiprocJob, WorkerTaskFailureSurfacesAsTypedError) {
  JobSpec spec = multiproc_spec(2);
  spec.reducer_factory = [] { return std::make_unique<ThrowingReducer>(); };
  // One attempt: the worker-side failure must come back as the job error
  // (and the worker must stay alive to report it, not crash).
  spec.conf.max_task_attempts = 1;
  EXPECT_THROW(run_job(spec, word_count_input()), IoError);
}

TEST(MultiprocJob, EmptyInputStillRuns) {
  const JobResult result = run_job(multiproc_spec(2), {});
  EXPECT_TRUE(result.output.empty());
  EXPECT_EQ(result.num_map_tasks, 1u);
}

/// Sleeps per group and pads each sum to 192 KiB, so one reduce task over
/// word_count_input's 9 groups runs for tens of milliseconds and replies
/// with about 1.7 MB, in one frame.
class SlowPaddedSumReducer final : public Reducer {
 public:
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    long total = 0;
    for (const auto& v : values) total += std::stol(v);
    std::string value = std::to_string(total);
    value.resize(192 * 1024, key.front());
    out.emit(key, value);
  }
};

TEST(MultiprocJob, HeartbeatsDrainAroundALargeReduceReply) {
  // Heartbeats every millisecond while the one reduce task sleeps: the
  // supervisor drains them before (and, in the next conversation, after)
  // the reducer's kReducePullDone, which arrives intact.
  JobSpec in_proc = word_count_spec();
  in_proc.conf.num_reducers = 1;
  in_proc.reducer_factory = [] {
    return std::make_unique<SlowPaddedSumReducer>();
  };
  const JobResult baseline = run_job(in_proc, word_count_input());
  ASSERT_GT(baseline.output.part(0).size(), std::size_t{1} << 20);

  MetricsRegistry registry;
  JobSpec multi = in_proc;
  multi.conf.execution_mode = ExecutionMode::kMultiProcess;
  multi.conf.num_workers = 2;
  multi.conf.heartbeat_interval_ms = 1;
  multi.metrics = &registry;
  const JobResult result = run_job(multi, word_count_input());
  EXPECT_TRUE(result.output == baseline.output);
  EXPECT_GE(registry.gauge_value("worker.heartbeats"), 1);
}

/// Emits, per key, whether a 4-thread parallel_for inside reduce ran every
/// iteration on the calling thread. Each iteration sleeps, so a fanned-out
/// loop's spawned threads always get some of them.
class InlineProbeReducer final : public Reducer {
 public:
  void reduce(const std::string& key, const std::vector<std::string>&,
              Emitter& out) override {
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> on_caller{true};
    parallel_for(0, 64, 4, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (std::this_thread::get_id() != caller) on_caller = false;
    });
    out.emit(key, on_caller ? "inline" : "fanned");
  }
};

TEST(MultiprocJob, ReduceTaskBodyIsAParallelRegion) {
  // A worker runs each task body on its serve-loop thread. Like a task on
  // the in-process executor's pool, the body is one level of parallelism
  // already, so a parallel_for inside it must not fan out threads.
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    JobSpec spec = multiproc_spec(workers);
    spec.reducer_factory = [] {
      return std::make_unique<InlineProbeReducer>();
    };
    const JobResult result = run_job(spec, word_count_input());
    ASSERT_FALSE(result.output.empty());
    for (const Record& record : result.output.records()) {
      EXPECT_EQ(record.value, "inline") << record.key;
    }
  }
}

TEST(MultiprocJob, ExecModeWorkerBinaryMatchesInProcess) {
#ifndef DASC_WORKER_BIN
  GTEST_SKIP() << "dasc_worker binary path not configured";
#else
  // The registered "wordcount" job must agree with an in-process run of
  // the same factories (both sides use the remote_runner registry).
  WorkerJob registered = make_registered_worker_job("wordcount");
  JobSpec in_proc;
  in_proc.conf.num_reducers = 3;
  in_proc.conf.split_records = 2;
  in_proc.conf.job_name = "wordcount";
  in_proc.mapper_factory = registered.mapper_factory;
  in_proc.reducer_factory = registered.reducer_factory;
  in_proc.combiner_factory = registered.combiner_factory;
  const JobResult baseline = run_job(in_proc, word_count_input());

  JobSpec exec_spec = in_proc;
  exec_spec.conf.execution_mode = ExecutionMode::kMultiProcess;
  exec_spec.conf.num_workers = 2;
  exec_spec.conf.worker_binary = DASC_WORKER_BIN;
  const JobResult result = run_job(exec_spec, word_count_input());
  EXPECT_EQ(result.output, baseline.output);
#endif
}

TEST(MultiprocJob, UnknownRegisteredJobIsInvalidArgument) {
  EXPECT_THROW(make_registered_worker_job("no-such-job"), InvalidArgument);
}

// --- Worker-to-worker pulls spooled under a spill budget (section 14) ---
//
// The MultiprocJob tests above run unbudgeted; these repeat the parity,
// recovery and failure contracts with reducers spooling pulled pages to
// disk, where a dead map-output owner forces inline map re-execution.

JobSpec w2w_spec(std::size_t workers, std::size_t spill_budget) {
  JobSpec spec = multiproc_spec(workers, spill_budget);
  spec.conf.shuffle_mode = ShuffleMode::kWorkerToWorker;
  return spec;
}

TEST(MultiprocW2W, OutputIsByteIdenticalAcrossWorkersAndBudgets) {
  // Unbudgeted, every page on disk, and resident below 4 KiB or 64 KiB.
  // JobOutput equality compares each reduce task's part byte for byte.
  const JobResult baseline = run_job(word_count_spec(), word_count_input());
  for (const std::size_t budget : {0u, 1u, 4096u, 64u * 1024}) {
    JobSpec in_proc = word_count_spec();
    in_proc.conf.spill_budget_bytes = budget;
    const JobResult in_proc_result = run_job(in_proc, word_count_input());
    EXPECT_EQ(in_proc_result.output, baseline.output) << "budget=" << budget;
    for (const std::size_t workers : {1u, 2u, 4u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " budget=" + std::to_string(budget));
      const JobResult result =
          run_job(w2w_spec(workers, budget), word_count_input());
      ASSERT_EQ(result.output.num_parts(), baseline.output.num_parts());
      for (std::size_t p = 0; p < result.output.num_parts(); ++p) {
        EXPECT_EQ(result.output.part(p), in_proc_result.output.part(p))
            << "part " << p;
      }
      EXPECT_EQ(result.output, baseline.output);
      EXPECT_EQ(result.counters.map_output_records,
                baseline.counters.map_output_records);
      EXPECT_EQ(result.counters.combine_output_records,
                baseline.counters.combine_output_records);
      EXPECT_EQ(result.counters.reduce_input_groups,
                baseline.counters.reduce_input_groups);
      EXPECT_EQ(result.counters.reduce_output_records,
                baseline.counters.reduce_output_records);
      EXPECT_EQ(result.counters.shuffle_bytes,
                baseline.counters.shuffle_bytes);
    }
  }
}

TEST(MultiprocW2W, WorkerKillMidMapRecovers) {
  const JobResult baseline = run_job(word_count_spec(), word_count_input());
  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse("seed=3;worker.kill:nth=2:max=1"),
                         &registry);
  JobSpec spec = w2w_spec(2, /*spill_budget=*/1);
  spec.conf.worker_spares = 1;
  spec.conf.max_task_attempts = 3;
  spec.metrics = &registry;
  spec.faults = &injector;
  const JobResult result = run_job(spec, word_count_input());
  EXPECT_EQ(result.output, baseline.output);
  EXPECT_EQ(injector.fired("worker.kill"), 1u);
  EXPECT_GE(registry.gauge_value("worker.killed"), 1);
  EXPECT_GE(registry.gauge_value("spill.bytes_written"), 1);
}

TEST(MultiprocW2W, WorkerKillMidReduceReexecutesLostMapOutputs) {
  const JobResult baseline = run_job(word_count_spec(), word_count_input());
  // 6 map dispatches, then reduce pulls: nth=8 SIGKILLs a reducer right
  // after its kReducePull ships. The retry lands on a live worker whose
  // partition map still names the dead slot as a map-output owner, so it
  // answers kPullFailed; the same attempt re-executes the dead slot's map
  // tasks on that worker and pulls again — and the labels must not show
  // any of it. At one worker the spare is both the reducer and the
  // re-execution host.
  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " threads=" + std::to_string(threads));
      MetricsRegistry registry;
      FaultInjector injector(
          FaultPlan::parse("seed=3;worker.kill:nth=8:max=1"), &registry);
      JobSpec spec = w2w_spec(workers, /*spill_budget=*/1);
      spec.conf.worker_spares = 1;
      spec.conf.max_task_attempts = 2;
      spec.conf.physical_threads = threads;
      spec.metrics = &registry;
      spec.faults = &injector;
      const JobResult result = run_job(spec, word_count_input());
      EXPECT_EQ(result.output, baseline.output);
      EXPECT_EQ(injector.fired("worker.kill"), 1u);
      EXPECT_GE(registry.gauge_value("worker.killed"), 1);
      EXPECT_GE(registry.gauge_value("worker.map_reexecutions"), 1);
      // A recovery costs no task attempt: the killed attempt is the only
      // one that fails. With four threads, other reduce attempts already
      // queued on the killed worker fail with it, so only one thread
      // pins the count.
      if (threads == 1) {
        EXPECT_LE(registry.counter_value("retry.reduce_attempts"), 1);
      }
    }
  }
}

TEST(MultiprocW2W, WorkerTaskFailureSurfacesAsTypedError) {
  JobSpec spec = w2w_spec(2, /*spill_budget=*/1);
  spec.reducer_factory = [] { return std::make_unique<ThrowingReducer>(); };
  spec.conf.max_task_attempts = 1;
  EXPECT_THROW(run_job(spec, word_count_input()), IoError);
}

TEST(MultiprocW2W, EmptyInputStillRuns) {
  const JobResult result = run_job(w2w_spec(2, /*spill_budget=*/1), {});
  EXPECT_TRUE(result.output.empty());
  EXPECT_EQ(result.num_map_tasks, 1u);
}

TEST(MultiprocW2W, ExecModeWorkerBinaryMatchesInProcess) {
#ifndef DASC_WORKER_BIN
  GTEST_SKIP() << "dasc_worker binary path not configured";
#else
  WorkerJob registered = make_registered_worker_job("wordcount");
  JobSpec in_proc;
  in_proc.conf.num_reducers = 3;
  in_proc.conf.split_records = 2;
  in_proc.conf.job_name = "wordcount";
  in_proc.mapper_factory = registered.mapper_factory;
  in_proc.reducer_factory = registered.reducer_factory;
  in_proc.combiner_factory = registered.combiner_factory;
  const JobResult baseline = run_job(in_proc, word_count_input());

  // Exec'd workers learn their data-plane address and fault plan from
  // kJobSetup, so pulls work across a real exec boundary too.
  JobSpec exec_spec = in_proc;
  exec_spec.conf.execution_mode = ExecutionMode::kMultiProcess;
  exec_spec.conf.shuffle_mode = ShuffleMode::kWorkerToWorker;
  exec_spec.conf.num_workers = 2;
  exec_spec.conf.spill_budget_bytes = 1;
  exec_spec.conf.worker_binary = DASC_WORKER_BIN;
  const JobResult result = run_job(exec_spec, word_count_input());
  EXPECT_EQ(result.output, baseline.output);
#endif
}

TEST(MultiprocW2W, SpoolPageIoGetsTheFetchAttemptCap) {
  // One helper caps the shuffle spool's page I/O attempts in both modes:
  // four straight page-write failures fit in six attempts, so the job
  // finishes on its only task attempt and every fire is retried.
  const JobResult baseline = run_job(word_count_spec(), word_count_input());
  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse("spill.page_io:nth=1:max=4"),
                         &registry);
  JobSpec spec = w2w_spec(2, /*spill_budget=*/1);
  spec.conf.max_fetch_attempts = 6;
  spec.conf.max_task_attempts = 1;
  spec.metrics = &registry;
  spec.faults = &injector;
  const JobResult result = run_job(spec, word_count_input());
  EXPECT_EQ(result.output, baseline.output);
  EXPECT_GT(injector.fired("spill.page_io"), 0u);
  EXPECT_EQ(static_cast<std::int64_t>(injector.fired("spill.page_io")),
            registry.counter_value("retry.spill_page_io"));
}

/// Record "0" carries a value larger than one 256 KiB spool page.
struct OversizedValueMapper final : Mapper {
  void map(const std::string& key, const std::string& value,
           Emitter& out) override {
    out.emit("k" + std::to_string(std::stoi(key) % 3),
             key == "0" ? std::string(300 * 1024, 'v') + value : value);
  }
};

struct IdentityReducer final : Reducer {
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) override {
    for (const auto& value : values) out.emit(key, value);
  }
};

TEST(MultiprocW2W, OversizedValueShufflesLikeInProcess) {
  for (const std::size_t budget : {0u, 1u}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    JobSpec in_proc = word_count_spec();
    in_proc.conf.spill_budget_bytes = budget;
    in_proc.mapper_factory = [] {
      return std::make_unique<OversizedValueMapper>();
    };
    in_proc.reducer_factory = [] {
      return std::make_unique<IdentityReducer>();
    };
    in_proc.combiner_factory = nullptr;
    const JobResult baseline = run_job(in_proc, word_count_input());
    ASSERT_EQ(baseline.output.size(), word_count_input().size());

    JobSpec multi = in_proc;
    multi.conf.execution_mode = ExecutionMode::kMultiProcess;
    multi.conf.num_workers = 2;
    const JobResult result = run_job(multi, word_count_input());
    EXPECT_EQ(result.output, baseline.output);
    EXPECT_EQ(result.counters.shuffle_bytes, baseline.counters.shuffle_bytes);
  }
}

TEST(MultiprocW2W, OneFetchRequestPerRemoteOwnerAndCorruptRestart) {
  // A reducer asks each remote owner once for every map output it holds.
  // A corrupt transfer consumed its reply, so the retry restarts that
  // owner's request: at most one extra request per fire, and every fire
  // is retried exactly once.
  constexpr std::size_t kWorkers = 4;
  const JobResult baseline = run_job(word_count_spec(), word_count_input());

  MetricsRegistry clean_registry;
  JobSpec clean = w2w_spec(kWorkers, /*spill_budget=*/0);
  clean.metrics = &clean_registry;
  const JobResult clean_result = run_job(clean, word_count_input());
  EXPECT_EQ(clean_result.output, baseline.output);
  const std::int64_t clean_requests =
      clean_registry.gauge_value("shuffle.fetch_requests");
  EXPECT_GE(clean_requests, 1);
  EXPECT_LE(clean_requests,
            static_cast<std::int64_t>(clean.conf.num_reducers *
                                      (kWorkers - 1)));
  EXPECT_EQ(clean_registry.gauge_value("shuffle.pulls"),
            static_cast<std::int64_t>(clean_result.num_map_tasks *
                                      clean.conf.num_reducers));

  MetricsRegistry registry;
  FaultInjector injector(
      FaultPlan::parse("seed=27;shuffle.fetch:nth=2:max=3:kind=corrupt"),
      &registry);
  JobSpec spec = w2w_spec(kWorkers, /*spill_budget=*/0);
  spec.metrics = &registry;
  spec.faults = &injector;
  const JobResult result = run_job(spec, word_count_input());
  EXPECT_EQ(result.output, baseline.output);
  const std::int64_t fired =
      static_cast<std::int64_t>(injector.fired("shuffle.fetch"));
  EXPECT_GE(fired, 1);
  EXPECT_EQ(registry.counter_value("fault.injected.shuffle.fetch"), fired);
  EXPECT_EQ(registry.counter_value("retry.shuffle_fetch"), fired);
  EXPECT_LE(registry.gauge_value("shuffle.fetch_requests"),
            clean_requests + fired);
}

// --- kReducePullDone: the reducer's output run crosses as is ---

/// A report whose output is `records` framed, as a reducer sends it.
remote::PullReport report_of(const std::vector<Record>& records) {
  remote::PullReport report;
  report.task = 2;
  report.reduced.num_groups = records.size();
  report.reduced.in_records = 9;
  for (const Record& record : records) {
    append_record_frame(report.reduced.output, record.key, record.value);
  }
  report.reduced.out_records = records.size();
  report.reduced.record_bytes = 123;
  report.spill_pages = 4;
  report.pulls = 6;
  report.fetch_requests = 5;
  return report;
}

TEST(PullReport, OutputRunRoundTripsByteForByte) {
  std::vector<std::vector<Record>> cases(2);
  cases[1] = {{"alpha", "3"}, {"", ""}, {"beta", "12"}};
  for (const std::vector<Record>& records : cases) {
    const remote::PullReport sent = report_of(records);
    const ipc::Message message = sent.encode();
    // The run is the payload's tail, unchanged.
    const std::string& payload = message.payload;
    const std::size_t run_bytes = sent.reduced.output.size();
    ASSERT_GE(payload.size(), run_bytes);
    EXPECT_EQ(payload.substr(payload.size() - run_bytes), sent.reduced.output);
    const remote::PullReport got = remote::PullReport::decode(message);
    EXPECT_EQ(got.task, sent.task);
    EXPECT_EQ(got.reduced.output, sent.reduced.output);
    EXPECT_EQ(got.reduced.out_records, records.size());
    EXPECT_EQ(got.reduced.num_groups, sent.reduced.num_groups);
    EXPECT_EQ(got.reduced.in_records, sent.reduced.in_records);
    EXPECT_EQ(got.reduced.record_bytes, sent.reduced.record_bytes);
    EXPECT_EQ(got.spill_pages, sent.spill_pages);
    EXPECT_EQ(got.pulls, sent.pulls);
    EXPECT_EQ(got.fetch_requests, sent.fetch_requests);
  }
}

TEST(PullReport, MalformedOutputRunIsAnIoError) {
  // The run arrives from another process: truncation, a length past the
  // payload, or a record count other than the declared one is a typed
  // IoError, never an InternalError or an out-of-bounds read.
  const remote::PullReport sent =
      report_of({{"alpha", "3"}, {"beta", "12"}, {"gamma", "7"}});
  const ipc::Message good = sent.encode();
  const std::size_t run_begin =
      good.payload.size() - sent.reduced.output.size();
  const auto decode_throws_io = [](ipc::Message message) {
    try {
      remote::PullReport::decode(std::move(message));
    } catch (const IoError&) {
      return true;
    } catch (...) {
      return false;
    }
    return false;
  };

  // Truncated anywhere: inside the fixed fields, right after them (no
  // frames at all), inside a frame header, inside a key or value.
  for (std::size_t keep = 0; keep < good.payload.size(); ++keep) {
    ipc::Message cut = good;
    cut.payload.resize(keep);
    EXPECT_TRUE(decode_throws_io(cut)) << "kept " << keep << " bytes";
  }

  // A key length, then a value length, that runs past the payload.
  for (const std::size_t field : {run_begin, run_begin + 4}) {
    ipc::Message overrun = good;
    const std::uint32_t huge = 0x7fffffff;
    std::memcpy(overrun.payload.data() + field, &huge, sizeof(huge));
    EXPECT_TRUE(decode_throws_io(overrun)) << "field at " << field;
  }

  // Well-formed frames, but not as many as declared.
  const std::uint64_t miscounts[] = {0, 2, 4, ~std::uint64_t{0}};
  for (const std::uint64_t declared : miscounts) {
    remote::PullReport miscounted = sent;
    miscounted.reduced.out_records = declared;
    EXPECT_TRUE(decode_throws_io(miscounted.encode()))
        << "declared " << declared;
  }
  EXPECT_FALSE(decode_throws_io(good));
}

// --- One worker driven directly over a socketpair ---

/// Runs serve_worker_loop on a thread over a socketpair, with its data
/// plane bound in a private temp dir. The test plays the supervisor on
/// the control plane and the pulling reducers on the data plane.
class DirectWorker {
 public:
  explicit DirectWorker(const std::string& tag)
      : dir_(std::filesystem::temp_directory_path() /
             ("dasc-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(dir_);
    const auto [sup_fd, worker_fd] = ipc::make_socketpair();
    supervisor_ = std::make_unique<ipc::Transport>(sup_fd);
    worker_end_ = std::make_unique<ipc::Transport>(worker_fd);
    job_.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
    job_.reducer_factory = [] { return std::make_unique<SumReducer>(); };
    // Slot 0 is this worker; the test may listen at, or leave dead, the
    // addresses of slots 1-3.
    for (std::size_t slot = 0; slot < 4; ++slot) {
      options_.data_socket_paths.push_back(
          (dir_ / ("slot" + std::to_string(slot) + ".sock")).string());
    }
    thread_ = std::thread(
        [this] { serve_worker_loop(*worker_end_, job_, options_); });
  }
  DirectWorker(const DirectWorker&) = delete;
  DirectWorker& operator=(const DirectWorker&) = delete;
  ~DirectWorker() {
    try {
      supervisor_->send({ipc::MessageType::kShutdown, {}});
    } catch (const IoError&) {
      // The serve loop already exited; joining is all that is left.
    }
    thread_.join();
    std::filesystem::remove_all(dir_);
  }

  /// The data-plane address the worker's table gives `slot`.
  const std::string& path(std::size_t slot) const {
    return options_.data_socket_paths.at(slot);
  }

  /// Sends `message` on the control plane and returns the worker's reply.
  std::optional<ipc::Message> ask(const ipc::Message& message) {
    supervisor_->send(message);
    return supervisor_->recv();
  }

  /// Runs map task `task` over one input line, partitioned for
  /// `num_partitions`; a committed map output stays resident for pulls.
  /// Returns the reply type.
  ipc::MessageType map(std::uint64_t task, const std::string& line,
                       std::uint64_t num_partitions = 1) {
    ipc::WireWriter writer;
    writer.u64(task);
    writer.u64(num_partitions);
    writer.record("r" + std::to_string(task), line);
    const auto reply = ask({ipc::MessageType::kMapAssign, writer.take()});
    return reply.has_value() ? reply->type : ipc::MessageType::kHello;
  }

  /// A fresh data-plane connection, as a pulling reducer dials one.
  std::unique_ptr<ipc::Transport> dial() const {
    return ipc::Transport::connect(path(0));
  }

 private:
  std::filesystem::path dir_;
  std::unique_ptr<ipc::Transport> supervisor_;
  std::unique_ptr<ipc::Transport> worker_end_;
  WorkerJob job_;
  WorkerOptions options_;  // no heartbeat
  std::thread thread_;
};

/// A kFetchPart for partition 0 of 1 of each of `map_tasks`, in the wire
/// layout {u64 partition, u64 num_partitions, u64 count, count x u64}.
ipc::Message fetch_part(const std::vector<std::uint64_t>& map_tasks) {
  ipc::WireWriter writer;
  writer.u64(0);
  writer.u64(1);
  writer.u64(map_tasks.size());
  for (const std::uint64_t task : map_tasks) writer.u64(task);
  return {ipc::MessageType::kFetchPart, writer.take()};
}

/// The map task a kFetchData or kTaskError reply names.
std::uint64_t reply_task(const ipc::Message& reply) {
  ipc::WireReader reader(reply.payload);
  return reader.u64();
}

TEST(MultiprocW2W, FetchPartAnswersEveryListedTaskInListOrder) {
  DirectWorker worker("fetch-list-test");
  ASSERT_EQ(worker.map(0, "alpha beta"), ipc::MessageType::kMapDone);
  ASSERT_EQ(worker.map(2, "gamma"), ipc::MessageType::kMapDone);

  // Task 1 is not resident: its reply is a typed error in its place, and
  // the owner goes on to task 2.
  const std::unique_ptr<ipc::Transport> puller = worker.dial();
  puller->send(fetch_part({0, 1, 2}));
  const ipc::MessageType expected[] = {ipc::MessageType::kFetchData,
                                       ipc::MessageType::kTaskError,
                                       ipc::MessageType::kFetchData};
  for (std::uint64_t task = 0; task < 3; ++task) {
    const auto reply = puller->recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, expected[task]);
    EXPECT_EQ(reply_task(*reply), task);
  }

  // The connection is back at a message boundary: a second request on it
  // is served.
  puller->send(fetch_part({2}));
  const auto again = puller->recv();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->type, ipc::MessageType::kFetchData);
  EXPECT_EQ(reply_task(*again), 2u);
}

TEST(MultiprocW2W, StalePullFailedRetiresNoHealthyWorker) {
  // Worker 1 died holding map 5. The first reducer to report it retires
  // worker 1; its recovery re-homes map 5 onto itself, worker 0.
  const remote::PullFailed report{/*reduce_task=*/1, /*map_task=*/5,
                                  /*owner=*/1};
  EXPECT_EQ(remote::owner_to_retire(report, /*current_owner=*/1,
                                    /*reducer_slot=*/0),
            1u);
  // A second reducer, on worker 2, pulled with the same stale partition
  // map; its report arrives after the re-home and must not kill worker 0.
  const remote::PullFailed stale{/*reduce_task=*/2, /*map_task=*/5,
                                 /*owner=*/1};
  EXPECT_EQ(remote::owner_to_retire(stale, /*current_owner=*/0,
                                    /*reducer_slot=*/2),
            remote::kNoOwner);
  // A reducer never retires itself, and an ownerless output retires no one.
  EXPECT_EQ(remote::owner_to_retire({2, 5, 2}, 2, 2), remote::kNoOwner);
  EXPECT_EQ(remote::owner_to_retire({2, 5, remote::kNoOwner},
                                    remote::kNoOwner, 2),
            remote::kNoOwner);
}

TEST(MultiprocW2W, ForgedReducePullCountFailsTheTaskNotTheWorker) {
  DirectWorker worker("forged-pull-test");
  // An owner count of 2^40 with nothing behind it: a typed kTaskError,
  // not an allocation failure that kills the worker.
  ipc::WireWriter forged;
  forged.u64(7);                     // task
  forged.u64(1);                     // num_partitions
  forged.u64(std::uint64_t{1} << 40);  // owners
  const auto reply = worker.ask({ipc::MessageType::kReducePull,
                                 forged.take()});
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, ipc::MessageType::kTaskError);
  EXPECT_EQ(reply_task(*reply), 7u);

  // The worker keeps serving.
  EXPECT_EQ(worker.map(0, "alpha"), ipc::MessageType::kMapDone);
}

TEST(MultiprocW2W, ReducePullCarriesOwnerSlotsNotPaths) {
  // A partition map is one u64 owner slot per map task; each worker knows
  // every slot's data-plane address from launch. So the request's size is
  // fixed by the map task count and the spill dir, whatever the socket
  // paths (they carry the supervisor's pid).
  remote::ReducePull pull;
  pull.task = 3;
  pull.num_partitions = 64;
  pull.spill_budget = 4096;
  pull.spill_dir = "spill";
  pull.max_fetch_attempts = 2;
  pull.owners = {0, 4, remote::kNoOwner, 2};
  const ipc::Message message = pull.encode();
  // task, num_partitions, count, spill_budget, max_fetch_attempts; the
  // length-prefixed spill dir; the slots.
  EXPECT_EQ(message.payload.size(),
            5 * 8 + (4 + pull.spill_dir.size()) + 8 * pull.owners.size());
  const remote::ReducePull decoded = remote::ReducePull::decode(message);
  EXPECT_EQ(decoded.task, pull.task);
  EXPECT_EQ(decoded.num_partitions, pull.num_partitions);
  EXPECT_EQ(decoded.spill_budget, pull.spill_budget);
  EXPECT_EQ(decoded.spill_dir, pull.spill_dir);
  EXPECT_EQ(decoded.max_fetch_attempts, pull.max_fetch_attempts);
  EXPECT_EQ(decoded.owners, pull.owners);
}

TEST(MultiprocW2W, ForgedFetchPartCountClosesOnlyItsConnection) {
  DirectWorker worker("forged-fetch-test");
  ASSERT_EQ(worker.map(0, "alpha"), ipc::MessageType::kMapDone);

  const std::unique_ptr<ipc::Transport> forger = worker.dial();
  ipc::WireWriter forged;
  forged.u64(0);                       // partition
  forged.u64(1);                       // num_partitions
  forged.u64(std::uint64_t{1} << 40);  // map tasks
  forger->send({ipc::MessageType::kFetchPart, forged.take()});
  EXPECT_FALSE(forger->recv().has_value());  // closed, no reply

  const std::unique_ptr<ipc::Transport> puller = worker.dial();
  puller->send(fetch_part({0}));
  const auto reply = puller->recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, ipc::MessageType::kFetchData);
}

/// `count` distinct words "<prefix>0 <prefix>1 ...": one wordcount map
/// output record per word.
std::string word_line(const std::string& prefix, std::size_t count) {
  std::string line;
  for (std::size_t i = 0; i < count; ++i) {
    line += prefix + std::to_string(i) + " ";
  }
  return line;
}

/// The in-process map output of `line` over `num_partitions`: the runs an
/// owner must serve.
MapOutput expected_output(const std::string& line,
                          std::uint64_t num_partitions) {
  std::string split;
  append_record_frame(split, "r", line);
  return detail::execute_map_task(
             [] { return std::make_unique<WordCountMapper>(); }, nullptr,
             false, split, num_partitions)
      .output;
}

/// The owner's reply to a kFetchPart for `partition` of `num_partitions`
/// of `map_task` on `puller`.
std::optional<ipc::Message> fetch_run(ipc::Transport& puller,
                                      std::uint64_t map_task,
                                      std::uint64_t partition,
                                      std::uint64_t num_partitions) {
  puller.send(remote::FetchPart{partition, num_partitions, {map_task}}
                  .encode());
  return puller.recv();
}

ipc::MessageType fetch_run_type(ipc::Transport& puller,
                                std::uint64_t map_task,
                                std::uint64_t partition,
                                std::uint64_t num_partitions) {
  const auto reply = fetch_run(puller, map_task, partition, num_partitions);
  return reply.has_value() ? reply->type : ipc::MessageType::kHello;
}

/// Whether every run of `num_partitions` that `puller` fetches of
/// `map_task` is, byte for byte, the run the in-process execute_map_task
/// builds from `line`.
bool serves_runs_of(ipc::Transport& puller, std::uint64_t map_task,
                    const std::string& line, std::uint64_t num_partitions) {
  const MapOutput expected = expected_output(line, num_partitions);
  for (std::uint64_t p = 0; p < num_partitions; ++p) {
    const auto reply = fetch_run(puller, map_task, p, num_partitions);
    if (!reply.has_value() || reply->type != ipc::MessageType::kFetchData) {
      return false;
    }
    // The run follows the u64 task alone; the frame CRC checked it.
    const std::string_view run = std::string_view(reply->payload).substr(8);
    if (reply_task(*reply) != map_task || run != expected.run(p)) {
      return false;
    }
  }
  return true;
}

TEST(MultiprocW2W, MapAssignCutMidFrameFailsTheTaskNotTheWorker) {
  // kMapAssign's tail is the split's run, mapped in place. A run that ends
  // inside a frame header, key or value is a typed kTaskError naming the
  // task; the records mapped before the cut are dropped with the attempt,
  // so no output of the task is resident, and the worker keeps serving.
  DirectWorker worker("cut-split-test");
  std::string run;
  append_record_frame(run, "r0", "alpha beta");
  append_record_frame(run, "r1", "gamma");
  const std::size_t second = 8 + 2 + 10;  // the second frame's offset
  for (const std::size_t keep :
       {second + 4, second + 8 + 1, run.size() - 1}) {
    ipc::WireWriter writer;
    writer.u64(5);  // task
    writer.u64(1);  // num_partitions
    const auto reply = worker.ask(
        {ipc::MessageType::kMapAssign, writer.take() + run.substr(0, keep)});
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, ipc::MessageType::kTaskError) << "kept " << keep;
    EXPECT_EQ(reply_task(*reply), 5u);
    const std::unique_ptr<ipc::Transport> puller = worker.dial();
    EXPECT_EQ(fetch_run_type(*puller, 5, 0, 1), ipc::MessageType::kTaskError)
        << "kept " << keep;
  }

  // The whole run maps, and its output is served.
  ipc::WireWriter writer;
  writer.u64(5);
  writer.u64(1);
  const auto reply =
      worker.ask({ipc::MessageType::kMapAssign, writer.take() + run});
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, ipc::MessageType::kMapDone);
  const std::unique_ptr<ipc::Transport> puller = worker.dial();
  EXPECT_EQ(fetch_run_type(*puller, 5, 0, 1), ipc::MessageType::kFetchData);
}

TEST(MultiprocW2W, OwnerServesEachPartitionOfItsOutputInOutputOrder) {
  // A map task partitions its output once, for the partition count its
  // kMapAssign names. Every run served, from any number of data-plane
  // threads at once and after any re-store, must be the run the in-process
  // execute_map_task builds; another count, or a partition past it, is a
  // typed error on a connection that keeps serving.
  DirectWorker worker("run-test");
  const std::string first = word_line("w", 40);
  const std::string second = word_line("x", 25);
  const MapOutput first_output = expected_output(first, 7);
  std::size_t spanned = 0;
  for (std::size_t p = 0; p < 7; ++p) {
    spanned += first_output.run(p).empty() ? 0 : 1;
  }
  ASSERT_GE(spanned, 4u);
  ASSERT_EQ(worker.map(0, first, 7), ipc::MessageType::kMapDone);
  ASSERT_EQ(worker.map(1, second, 7), ipc::MessageType::kMapDone);

  // Several data-plane threads serve both outputs at once.
  std::atomic<int> failures{0};
  std::vector<std::thread> pullers;
  for (int i = 0; i < 4; ++i) {
    pullers.emplace_back([&] {
      const std::unique_ptr<ipc::Transport> puller = worker.dial();
      if (!serves_runs_of(*puller, 0, first, 7) ||
          !serves_runs_of(*puller, 1, second, 7)) {
        ++failures;
      }
    });
  }
  for (std::thread& thread : pullers) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // Nothing regroups: another partition count, or a partition at or past
  // the count, gets kTaskError, and the connection keeps serving.
  const std::unique_ptr<ipc::Transport> puller = worker.dial();
  EXPECT_EQ(fetch_run_type(*puller, 0, 0, 3), ipc::MessageType::kTaskError);
  EXPECT_EQ(fetch_run_type(*puller, 0, 7, 7), ipc::MessageType::kTaskError);
  EXPECT_EQ(fetch_run_type(*puller, 1, 1, 1), ipc::MessageType::kTaskError);
  EXPECT_TRUE(serves_runs_of(*puller, 0, first, 7));

  // A re-map over a resident output replaces its runs, for its new count
  // too.
  const std::string remapped = word_line("y", 40);
  ASSERT_EQ(worker.map(0, remapped, 7), ipc::MessageType::kMapDone);
  EXPECT_TRUE(serves_runs_of(*puller, 0, remapped, 7));
  ASSERT_EQ(worker.map(1, second, 3), ipc::MessageType::kMapDone);
  EXPECT_TRUE(serves_runs_of(*puller, 1, second, 3));
  EXPECT_EQ(fetch_run_type(*puller, 1, 0, 7), ipc::MessageType::kTaskError);
}

TEST(MultiprocW2W, DamagedFetchDataFrameRestartsTheOwnerStream) {
  // The frame CRC is the shuffle's only transfer check. A fake owner
  // answers the reducer's first kFetchPart with a kFetchData frame whose
  // payload has one byte flipped, and the re-dialled request correctly.
  // The damage is a broken stream, not a failed fetch: the reducer
  // restarts that owner's request once, retries no fetch and reports no
  // dead owner.
  DirectWorker worker("frame-crc-test");
  const MapOutput output = expected_output(word_line("w", 30), 1);
  ipc::WireWriter task;
  task.u64(0);
  const ipc::Message data{ipc::MessageType::kFetchData,
                          task.take() + std::string(output.run(0))};

  ipc::Listener listener(worker.path(1));
  std::atomic<int> requests{0};
  std::atomic<bool> owner_failed{false};
  std::thread owner([&] {
    try {
      for (const bool damage : {true, false}) {
        const std::unique_ptr<ipc::Transport> peer = listener.accept();
        const auto request = peer->recv();
        if (!request.has_value() ||
            request->type != ipc::MessageType::kFetchPart) {
          owner_failed = true;
          return;
        }
        ++requests;
        if (!damage) {
          peer->send(data);
          continue;
        }
        std::string frame = ipc::encode_frame(data);
        frame.back() = static_cast<char>(frame.back() ^ 0x1);
        for (std::size_t written = 0; written < frame.size();) {
          const ssize_t n = ::write(peer->fd(), frame.data() + written,
                                    frame.size() - written);
          if (n <= 0) throw IoError("fake owner: write failed");
          written += static_cast<std::size_t>(n);
        }
      }
    } catch (const std::exception&) {
      owner_failed = true;
    }
  });

  remote::ReducePull pull;
  pull.task = 0;
  pull.owners = {1};
  const auto reply = worker.ask(pull.encode());
  owner.join();
  ASSERT_FALSE(owner_failed.load());
  EXPECT_EQ(requests.load(), 2);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, ipc::MessageType::kReducePullDone);
  const remote::PullReport report = remote::PullReport::decode(*reply);

  const detail::ReduceTaskResult clean = detail::execute_reduce_task(
      [] { return std::make_unique<SumReducer>(); }, 1,
      [&](std::size_t) { return output.run(0); },
      shuffle_spool_config(0, "", 1));
  ASSERT_FALSE(clean.output.empty());
  EXPECT_EQ(report.reduced.output, clean.output);
  EXPECT_EQ(report.reduced.out_records, clean.out_records);
  EXPECT_EQ(report.pulls, 1u);
  EXPECT_EQ(report.fetch_requests, 2u);
  EXPECT_EQ(report.fetch_retries, 0u);
}

TEST(MultiprocW2W, PullFailedNamesTheUnreachableOwner) {
  DirectWorker worker("pull-failed-test");
  // Map 0's output is said to live on slot 3, whose data plane is gone.
  remote::ReducePull pull;
  pull.task = 0;
  pull.owners = {3};
  const auto frame = worker.ask(pull.encode());
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, ipc::MessageType::kPullFailed);
  const remote::PullFailed failed = remote::PullFailed::decode(*frame);
  EXPECT_EQ(failed.reduce_task, 0u);
  EXPECT_EQ(failed.map_task, 0u);
  EXPECT_EQ(failed.owner, 3u);

  // kPullFailed was the pull's only reply, and the worker is back in its
  // serve loop. The supervisor's recovery is two plain conversations:
  // re-execute map 0 here, then pull again naming this worker (slot 0) as
  // map 0's owner.
  const std::string line = "alpha beta alpha";
  ASSERT_EQ(worker.map(0, line), ipc::MessageType::kMapDone);
  pull.owners = {0};
  const auto done = worker.ask(pull.encode());
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->type, ipc::MessageType::kReducePullDone);
  const remote::PullReport report = remote::PullReport::decode(*done);

  // The re-pull reduced the re-executed output as in process.
  const MapOutput output = expected_output(line, 1);
  const detail::ReduceTaskResult clean = detail::execute_reduce_task(
      [] { return std::make_unique<SumReducer>(); }, 1,
      [&](std::size_t) { return output.run(0); },
      shuffle_spool_config(0, "", 1));
  ASSERT_FALSE(clean.output.empty());
  EXPECT_EQ(report.task, 0u);
  EXPECT_EQ(report.reduced.output, clean.output);
  EXPECT_EQ(report.reduced.out_records, clean.out_records);
  EXPECT_EQ(report.pulls, 1u);
  EXPECT_EQ(report.fetch_requests, 0u);  // a local pull dials no one
}

// --- Cross-process speculative execution (DESIGN.md section 15) ---

TEST(MultiprocSpeculation, EveryCellKeepsParityAndCommitsEachTaskOnce) {
  const JobResult baseline = run_job(word_count_spec(), word_count_input());

  // One seeded plan for every cell: a worker dies mid-map (the retry path
  // and speculation must coexist), and the first reduce attempt stalls for
  // 300ms — far past speculative_slowdown x the median — so the spec-on
  // cells must launch a backup on a different worker and let commit-once
  // arbitration pick a winner. The property under test: whatever raced,
  // labels and counters are exactly the fault-free in-process run's (a
  // double commit would inflate reduce_output_records; a lost commit would
  // fail the job or drop records).
  const char* kPlan =
      "seed=5;worker.kill:nth=2:max=1;"
      "reduce.task:nth=1:max=1:kind=stall:stall_ms=300";
  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (const bool speculate : {false, true}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   (speculate ? " spec=on" : " spec=off"));
      MetricsRegistry registry;
      FaultInjector injector(FaultPlan::parse(kPlan), &registry);
      // Pulls spool through disk.
      JobSpec spec = multiproc_spec(workers, /*spill_budget=*/1);
      spec.conf.worker_spares = 1;
      spec.conf.max_task_attempts = 3;
      // The straggler monitor needs the non-stalled tasks to commit while
      // the stalled one sleeps, so the phase pool must not serialize
      // behind it (single-CPU hosts default to one thread).
      spec.conf.physical_threads = 4;
      if (speculate) {
        spec.conf.enable_speculation = true;
        spec.conf.speculative_slowdown = 1.5;
        spec.conf.speculative_min_ms = 1.0;
      }
      spec.metrics = &registry;
      spec.faults = &injector;

      const JobResult result = run_job(spec, word_count_input());
      EXPECT_EQ(result.output, baseline.output);
      EXPECT_EQ(result.counters.map_input_records,
                baseline.counters.map_input_records);
      EXPECT_EQ(result.counters.map_output_records,
                baseline.counters.map_output_records);
      EXPECT_EQ(result.counters.reduce_input_groups,
                baseline.counters.reduce_input_groups);
      EXPECT_EQ(result.counters.reduce_output_records,
                baseline.counters.reduce_output_records);
      EXPECT_EQ(result.counters.shuffle_bytes,
                baseline.counters.shuffle_bytes);

      // Every fire the plan promises happened, exactly once, and the
      // injector's own view agrees with the metrics view (remote fires are
      // absorbed into both). Retry counts for worker.kill are deliberately
      // not asserted: a reply can already be in the socket buffer when
      // SIGKILL lands, in which case no attempt fails.
      EXPECT_EQ(injector.fired("worker.kill"), 1u);
      EXPECT_EQ(registry.counter_value("fault.injected.worker.kill"), 1);
      EXPECT_EQ(injector.fired("reduce.task"), 1u);
      EXPECT_EQ(registry.counter_value("fault.injected.reduce.task"), 1);
      if (speculate) {
        EXPECT_GE(registry.gauge_value("retry.speculative_launches"), 1);
      }
    }
  }
}

}  // namespace
}  // namespace dasc::mapreduce
