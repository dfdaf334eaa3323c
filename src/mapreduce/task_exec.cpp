#include "mapreduce/task_exec.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

#include "common/fault_injection.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/spool.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "mapreduce/shuffle.hpp"
#include "mapreduce/virtual_cluster.hpp"

namespace dasc::mapreduce::detail {

namespace {

/// Frames each emitted record straight into one run.
class FrameEmitter final : public Emitter {
 public:
  void emit(std::string key, std::string value) override {
    append_record_frame(run_, key, value);
    ++records_;
  }

  std::uint64_t records() const { return records_; }
  std::string take() { return std::move(run_); }

 private:
  std::string run_;
  std::uint64_t records_ = 0;
};

/// Frames each emitted record straight into its partition's run.
class RunEmitter final : public Emitter {
 public:
  explicit RunEmitter(std::size_t num_partitions) : runs_(num_partitions) {}

  void emit(std::string key, std::string value) override {
    append_record_frame(runs_[partition_for_key(key, runs_.size())], key,
                        value);
    ++records_;
  }

  std::uint64_t records() const { return records_; }

  /// The runs, concatenated in partition order.
  MapOutput take() {
    MapOutput output;
    std::size_t total = 0;
    for (const std::string& run : runs_) total += run.size();
    output.bytes.reserve(total);  // kept until the job ends: no slack
    for (const std::string& run : runs_) {
      output.bytes += run;
      output.run_end.push_back(output.bytes.size());
    }
    return output;
  }

 private:
  std::vector<std::string> runs_;
  std::uint64_t records_ = 0;
};

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void run_task_phase(const JobSpec& spec, std::size_t num_tasks,
                    std::string_view fault_site, const char* retry_counter,
                    std::atomic<std::uint64_t>& failed_attempts,
                    std::atomic<std::uint64_t>& speculative_launches,
                    std::vector<double>& task_seconds, const TaskBody& body) {
  const JobConf& conf = spec.conf;
  if (num_tasks == 0) return;

  const auto committed = std::make_unique<std::atomic<bool>[]>(num_tasks);
  const auto speculated = std::make_unique<std::atomic<bool>[]>(num_tasks);
  const auto start_ns =
      std::make_unique<std::atomic<std::int64_t>[]>(num_tasks);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    committed[t].store(false, std::memory_order_relaxed);
    speculated[t].store(false, std::memory_order_relaxed);
    start_ns[t].store(0, std::memory_order_relaxed);
  }

  std::atomic<std::size_t> settled{0};
  std::mutex commit_mutex;
  std::vector<double> committed_durations;
  std::exception_ptr first_error;

  // Run one attempt; returns true when this attempt committed the task.
  auto attempt_once = [&](std::size_t task, const Stopwatch& clock,
                          bool backup) {
    if (spec.faults != nullptr) spec.faults->maybe_throw(fault_site);
    const TaskAttempt attempt = body(task, backup);
    // Another attempt already won this task: the loser is dropped.
    if (committed[task].exchange(true, std::memory_order_acq_rel)) {
      return false;
    }
    attempt.commit();
    if (backup && spec.metrics != nullptr) {
      // Scheduling-dependent like the launch gauge: how often a backup
      // outruns its straggling primary is a property of the run, not of
      // the code, so it is a gauge rather than a determinism-gated
      // counter.
      spec.metrics->gauge("worker.spec_commits_won").add(1);
    }
    const double seconds = clock.seconds();
    task_seconds[task] = seconds;
    std::lock_guard lock(commit_mutex);
    committed_durations.push_back(seconds);
    return true;
  };

  auto run_primary = [&](std::size_t task) {
    Stopwatch clock;
    start_ns[task].store(steady_now_ns(), std::memory_order_release);
    for (std::size_t attempt = 1;; ++attempt) {
      try {
        attempt_once(task, clock, /*backup=*/false);
        break;
      } catch (...) {
        if (committed[task].load(std::memory_order_acquire)) break;
        if (attempt >= conf.max_task_attempts) {
          std::lock_guard lock(commit_mutex);
          if (!first_error) first_error = std::current_exception();
          break;
        }
        failed_attempts.fetch_add(1, std::memory_order_relaxed);
        if (spec.metrics != nullptr) {
          spec.metrics->counter(retry_counter).add();
        }
        DASC_LOG(kWarn) << conf.job_name << ": task attempt " << attempt
                        << " failed; retrying";
      }
    }
    settled.fetch_add(1, std::memory_order_release);
  };

  // Backup attempts are best-effort: a failure here is ignored because the
  // primary is still retrying on its own schedule.
  auto run_backup = [&](std::size_t task) {
    Stopwatch clock;
    try {
      attempt_once(task, clock, /*backup=*/true);
    } catch (...) {
    }
  };

  std::size_t threads =
      conf.physical_threads == 0 ? default_threads() : conf.physical_threads;
  threads = std::max<std::size_t>(1, std::min(threads, num_tasks));
  const bool speculate = conf.enable_speculation && num_tasks > 1;

  if (threads <= 1 && !speculate) {
    for (std::size_t t = 0; t < num_tasks; ++t) run_primary(t);
  } else {
    ThreadPool pool(threads);
    for (std::size_t t = 0; t < num_tasks; ++t) {
      pool.submit([&run_primary, t] { run_primary(t); });
    }
    while (speculate &&
           settled.load(std::memory_order_acquire) < num_tasks) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::vector<double> durations;
      {
        std::lock_guard lock(commit_mutex);
        if (committed_durations.size() * 2 < num_tasks) continue;
        durations = committed_durations;
      }
      auto mid = durations.begin() +
                 static_cast<std::ptrdiff_t>(durations.size() / 2);
      std::nth_element(durations.begin(), mid, durations.end());
      const double threshold = std::max(conf.speculative_slowdown * *mid,
                                        conf.speculative_min_ms / 1000.0);
      const std::int64_t now = steady_now_ns();
      for (std::size_t t = 0; t < num_tasks; ++t) {
        const std::int64_t started =
            start_ns[t].load(std::memory_order_acquire);
        if (started == 0 || committed[t].load(std::memory_order_acquire)) {
          continue;
        }
        if (static_cast<double>(now - started) * 1e-9 <= threshold) continue;
        if (speculated[t].exchange(true, std::memory_order_acq_rel)) continue;
        speculative_launches.fetch_add(1, std::memory_order_relaxed);
        DASC_LOG(kInfo) << conf.job_name
                        << ": launching speculative attempt for task " << t;
        pool.submit([&run_backup, t] { run_backup(t); });
      }
    }
    pool.wait_idle();
  }

  if (first_error) std::rethrow_exception(first_error);
}

MapTaskResult execute_map_task(
    const std::function<std::unique_ptr<Mapper>()>& mapper_factory,
    const std::function<std::unique_ptr<Reducer>()>& combiner_factory,
    bool use_combiner, std::string_view input, std::size_t num_partitions) {
  const std::unique_ptr<Mapper> mapper = mapper_factory();
  RunEmitter runs(num_partitions);
  MapTaskResult result;
  // Mapper::map takes std::string, so each record is copied into two
  // reused buffers: no allocation per record once they have grown.
  std::string key;
  std::string value;
  const auto map_input = [&](Emitter& out) {
    for_each_record_frame(input, [&](std::string_view k, std::string_view v) {
      key.assign(k);
      value.assign(v);
      mapper->map(key, value, out);
    });
  };
  if (use_combiner) {
    // Combine within the task: sort/group local output and fold it before
    // it hits the shuffle.
    VectorEmitter emitter;
    map_input(emitter);
    result.emitted = emitter.records().size();
    const std::unique_ptr<Reducer> combiner = combiner_factory();
    for (auto& group : sort_and_group(std::move(emitter.records()))) {
      combiner->reduce(group.key, group.values, runs);
    }
    result.combined = runs.records();
  } else {
    map_input(runs);
    result.emitted = runs.records();
  }
  result.output = runs.take();
  return result;
}

ReduceTaskResult execute_reduce_task(
    const std::function<std::unique_ptr<Reducer>()>& reducer_factory,
    std::size_t num_map_tasks, const RunFetcher& fetch_run,
    const SpoolConfig& spool) {
  SpoolBuffer partition(spool);
  {
    ScopedTimer shuffle_timer(spool.metrics, "mapreduce.shuffle");
    for (std::size_t m = 0; m < num_map_tasks; ++m) {
      partition.append_run(fetch_run(m));
    }
    partition.finish();
  }

  const std::unique_ptr<Reducer> reducer = reducer_factory();
  FrameEmitter emitter;
  ReduceTaskResult result;
  result.record_bytes = partition.record_bytes();
  // The merged stream is the partition stable-sorted by key (the spool's
  // contract), so grouping is one streaming pass: flush whenever the key
  // changes — the exact group sequence sort_and_group builds from the same
  // records.
  KeyGroup group;
  bool open = false;
  const auto flush = [&] {
    ++result.num_groups;
    result.in_records += group.values.size();
    reducer->reduce(group.key, group.values, emitter);
  };
  partition.for_each_sorted(
      [&](std::string_view key, std::string_view value) {
        if (!open || group.key != key) {
          if (open) flush();
          group.key.assign(key);
          group.values.clear();
          open = true;
        }
        group.values.emplace_back(value);
      });
  if (open) flush();
  result.out_records = emitter.records();
  result.output = emitter.take();
  return result;
}

void finalize_job_result(const JobSpec& spec,
                         std::uint64_t speculative_launches,
                         JobResult& result) {
  result.map_makespan_seconds =
      makespan_lpt(result.map_task_seconds, spec.conf.num_nodes,
                   spec.conf.map_slots_per_node);
  result.reduce_makespan_seconds =
      makespan_lpt(result.reduce_task_seconds, spec.conf.num_nodes,
                   spec.conf.reduce_slots_per_node);
  result.simulated_seconds =
      result.map_makespan_seconds + result.reduce_makespan_seconds;

  if (spec.metrics != nullptr) {
    MetricsRegistry& registry = *spec.metrics;
    // One timer sample per task, so count tracks task counts and total the
    // summed per-task work (not the parallel wall time).
    MetricsRegistry::Timer& map_timer = registry.timer("mapreduce.map");
    for (double seconds : result.map_task_seconds) {
      map_timer.record_seconds(seconds);
    }
    MetricsRegistry::Timer& reduce_timer = registry.timer("mapreduce.reduce");
    for (double seconds : result.reduce_task_seconds) {
      reduce_timer.record_seconds(seconds);
    }
    registry.counter("mapreduce.jobs").add(1);
    const Counters& counters = result.counters;
    registry.counter("mapreduce.map_input_records")
        .add(static_cast<std::int64_t>(counters.map_input_records));
    registry.counter("mapreduce.map_output_records")
        .add(static_cast<std::int64_t>(counters.map_output_records));
    registry.counter("mapreduce.reduce_input_groups")
        .add(static_cast<std::int64_t>(counters.reduce_input_groups));
    registry.counter("mapreduce.reduce_input_records")
        .add(static_cast<std::int64_t>(counters.reduce_input_records));
    registry.counter("mapreduce.reduce_output_records")
        .add(static_cast<std::int64_t>(counters.reduce_output_records));
    registry.counter("mapreduce.shuffle_bytes")
        .add(static_cast<std::int64_t>(counters.shuffle_bytes));
    registry.counter("mapreduce.failed_task_attempts")
        .add(static_cast<std::int64_t>(counters.failed_task_attempts));
    // Backup launches depend on scheduling (which tasks look slow when),
    // so this is a gauge, not a regression-gated counter.
    registry.gauge("retry.speculative_launches")
        .set_max(static_cast<std::int64_t>(speculative_launches));
  }

  DASC_LOG(kInfo) << spec.conf.job_name << ": done; simulated "
                  << result.simulated_seconds << "s (map "
                  << result.map_makespan_seconds << "s + reduce "
                  << result.reduce_makespan_seconds << "s), real "
                  << result.real_seconds << "s";
}

}  // namespace dasc::mapreduce::detail
