// Multi-process worker benchmark: one CPU-heavy deterministic MapReduce
// job run in-process and then on real worker processes with 1, 2, and 4
// workers, gated on two facts:
//
//   1. every leg's output is byte-identical to the in-process run — the
//      cross-mode parity invariant of DESIGN.md section 13; this binary
//      exits 1 if any leg ever differs, and
//   2. the multi-process legs report real wall-clock — CI checks gauges
//      multiproc.walltime_w{1,2,4}_us >= 1 and multiproc.speedup_ppm via
//      scripts/check_bench_json.py, so the runtime can never silently
//      degrade into the in-process path.
//
// Emits BENCH_multiproc.json with per-worker-count wall times, the
// w=4-over-w=1 speedup in ppm, and the w=4 leg's data-plane dials and
// kFetchPart requests per pull (shuffle.conns_opened_per_pull_ppm,
// shuffle.fetch_requests_per_pull_ppm).
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "common/metrics.hpp"
#include "mapreduce/job.hpp"

namespace {

using namespace dasc;
using namespace dasc::mapreduce;

constexpr std::uint64_t kHashRounds = 500000;  // per-record CPU weight

/// Iterated FNV-1a: enough deterministic arithmetic per record that task
/// execution, not IPC, dominates — the regime where extra workers help.
std::uint64_t heavy_hash(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  for (std::uint64_t round = 0; round < kHashRounds; ++round) {
    hash = (hash ^ round) * 1099511628211ull;
    hash ^= hash >> 29;
  }
  return hash;
}

class HeavyHashMapper final : public Mapper {
 public:
  void map(const std::string& key, const std::string& value,
           Emitter& out) override {
    const std::uint64_t hash = heavy_hash(key + ":" + value);
    out.emit("bin" + std::to_string(hash % 16), std::to_string(hash % 1000));
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

JobSpec bench_spec() {
  JobSpec spec;
  spec.conf.job_name = "bench_multiproc";
  spec.conf.num_reducers = 4;
  spec.conf.split_records = 8;
  spec.conf.physical_threads = 8;  // dispatch must not serialize workers
  spec.mapper_factory = [] { return std::make_unique<HeavyHashMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  spec.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  return spec;
}

std::vector<Record> bench_input() {
  std::vector<Record> input;
  for (int i = 0; i < 256; ++i) {
    input.push_back({std::to_string(i), "payload-" + std::to_string(i * 7)});
  }
  return input;
}

std::string flatten(const JobOutput& output) {
  std::string text;
  output.for_each([&text](std::string_view key, std::string_view value) {
    text.append(key).append("\t").append(value).append("\n");
  });
  return text;
}

}  // namespace

int main() {
  bench::banner("Multi-process workers: parity + real wall-clock speedup");

  const JobResult in_proc = run_job(bench_spec(), bench_input());
  const std::string expected = flatten(in_proc.output);
  std::printf("in-process: %zu map tasks, %s\n", in_proc.num_map_tasks,
              bench::format_seconds(in_proc.real_seconds).c_str());

  MetricsRegistry registry;
  const std::size_t worker_counts[] = {1, 2, 4};
  double walltime[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t workers = worker_counts[i];
    MetricsRegistry leg_registry;
    JobSpec spec = bench_spec();
    spec.conf.execution_mode = ExecutionMode::kMultiProcess;
    spec.conf.num_workers = workers;
    spec.metrics = &leg_registry;
    const JobResult result = run_job(spec, bench_input());
    walltime[i] = result.real_seconds;
    std::printf("workers=%zu: %s\n", workers,
                bench::format_seconds(result.real_seconds).c_str());
    if (flatten(result.output) != expected) {
      std::fprintf(stderr,
                   "FAIL: workers=%zu output differs from the in-process "
                   "run (the cross-mode parity invariant is broken)\n",
                   workers);
      return 1;
    }
    registry.gauge("multiproc.walltime_w" + std::to_string(workers) + "_us")
        .set(static_cast<std::int64_t>(result.real_seconds * 1e6));
    // Connection reuse: each reducer dials every mapper owner once and
    // reuses the pooled socket for all subsequent pulls, so
    // conns-opened-per-pull stays around or below 1.0 (= 1'000'000 ppm).
    // CI gates this at <= 1.1 to catch a regression that re-dials per
    // pull (which would sit near the pull count, several times over the
    // gate).
    const double pulls =
        static_cast<double>(leg_registry.gauge_value("shuffle.pulls"));
    // Requests: a reducer asks each remote owner once for every map output
    // it holds, so the w=4 leg sends at most 4 reducers x 3 remote owners
    // = 12 requests for its 128 pulls (93'750 ppm). CI gates this at
    // <= 100'000 ppm; a regression to one request per remote slice would
    // sit near 750'000.
    if (workers == 4 && pulls > 0.0) {
      const double conns = static_cast<double>(
          leg_registry.gauge_value("shuffle.conns_opened"));
      bench::set_ppm(registry, "shuffle.conns_opened_per_pull_ppm",
                     conns / pulls);
      const double requests = static_cast<double>(
          leg_registry.gauge_value("shuffle.fetch_requests"));
      bench::set_ppm(registry, "shuffle.fetch_requests_per_pull_ppm",
                     requests / pulls);
    }
  }
  std::printf("all multi-process legs byte-identical to in-process\n");

  registry.gauge("multiproc.workers_max").set(4);
  registry.gauge("multiproc.inproc_walltime_us")
      .set(static_cast<std::int64_t>(in_proc.real_seconds * 1e6));
  if (walltime[2] > 0.0) {
    bench::set_ppm(registry, "multiproc.speedup_ppm",
                   walltime[0] / walltime[2]);  // w=1 over w=4
  }
  bench::write_metrics_json(registry, "multiproc");
  return 0;
}
