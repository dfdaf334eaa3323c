// End-to-end DASC benchmark: runs one workload of the synthetic-Wikipedia
// DASC job in this process and prints its raw samples as one JSON object on
// stdout. run.py (next to this file) reduces the samples to metrics and
// applies the correctness gates; README.md says why each workload exists.
//
//   bench_e2e --workload NAME --seed S --seconds T --trace 0|1
//             --tmp-dir DIR [--trace-out FILE]
//
// The load is a closed loop: one client runs one job at a time. --seed seeds
// the corpus generator only; every job runs with the same parameters and
// RNG seed. Each run is: kSetups set-ups (corpus generation plus one untimed
// warm-up job), the LSH probe, timed jobs until --seconds have passed, then
// -- for workloads whose labels must match the in-process, RAM-only path --
// one verify job on that path. With --trace 1 every other timed job carries
// a MetricsRegistry and the codec and null-job probes run as well; the
// untraced jobs of that run give the overhead base.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "clustering/metrics.hpp"
#include "common/checksum.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/cost_model.hpp"
#include "core/dasc_clusterer.hpp"
#include "core/dasc_mapreduce.hpp"
#include "core/kernel_approximator.hpp"
#include "data/wiki_corpus.hpp"
#include "lsh/bucket_table.hpp"
#include "lsh/random_projection.hpp"
#include "mapreduce/job.hpp"

namespace {

using namespace dasc;

struct Workload {
  const char* name;
  std::size_t log2_n;
  std::size_t subtopics;
  std::size_t m;             ///< signature bits; 0 = the paper's auto rule
  std::size_t cap;           ///< max_bucket_points; 0 = uncapped
  std::size_t k;             ///< global K; 0 = the paper's 17 (log2 N - 9)
  bool mapreduce;            ///< dasc_cluster_mapreduce, else dasc_cluster
  bool multi_process;        ///< forked workers, worker-to-worker shuffle
  std::size_t spill_budget;  ///< spill_budget_bytes; 0 = RAM only
};

// Why each exists: README.md. Changing a row changes every baseline.
constexpr Workload kWorkloads[] = {
    {"wiki-balanced", 18, 8, 12, 256, 0, true, false, 0},
    {"wiki-balanced-mp", 18, 8, 12, 256, 0, true, true, 0},
    {"wiki-coarse", 17, 1, 0, 1024, 2048, false, false, 0},
    {"wiki-spill", 18, 8, 12, 256, 0, true, false, 256 * 1024},
};

constexpr std::size_t kThreads = 4;  // pipeline, task pool and workers
constexpr std::size_t kSetups = 3;
constexpr std::size_t kMinTracedJobs = 2;  // enough tasks for a p99
constexpr std::uint64_t kJobSeed = 1;
constexpr double kMiB = 1024.0 * 1024.0;

core::DascParams dasc_params(const Workload& w, MetricsRegistry* metrics,
                             const std::string& tmp_dir) {
  core::DascParams params;
  params.m = w.m;
  params.max_bucket_points = w.cap;
  params.k = w.k;
  params.spill_budget_bytes = w.spill_budget;
  params.spill_dir = tmp_dir;
  params.threads = kThreads;
  params.metrics = metrics;
  return params;
}

mapreduce::JobConf job_conf(const Workload& w, const std::string& tmp_dir) {
  mapreduce::JobConf conf;
  conf.num_reducers = 64;
  conf.split_records = 1024;
  conf.physical_threads = kThreads;
  conf.spill_dir = tmp_dir;
  if (w.multi_process) {
    conf.execution_mode = mapreduce::ExecutionMode::kMultiProcess;
    conf.shuffle_mode = mapreduce::ShuffleMode::kWorkerToWorker;
    conf.num_workers = kThreads;
  }
  return conf;
}

data::PointSet make_corpus(const Workload& w, std::uint64_t seed) {
  data::WikiCorpusParams corpus;
  corpus.n = std::size_t{1} << w.log2_n;
  corpus.subtopics = w.subtopics;
  corpus.noise = 0.05;
  corpus.subtopic_spread = 0.05;
  Rng rng(seed);
  return data::make_wiki_vectors(corpus, rng);
}

/// user+sys CPU seconds of this process plus its reaped children (the
/// forked workers of every finished job).
double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    ::getrusage(who, &usage);
    total +=
        static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
        static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
            1e-6;
  }
  return total;
}

/// Seconds of vCPU time the hypervisor gave to other guests, summed over
/// this machine's CPUs (the steal column of /proc/stat; 0 on bare metal).
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& field : fields) in >> field;
  return fields[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Largest resident set of this process or of any reaped child, in MiB.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::string quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ",";
    out += quote(name) + ":" + number(value);
  }
  return out + "}";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (const double value : values) {
    if (out.size() > 1) out += ",";
    out += number(value);
  }
  return out + "]";
}

/// The bench's own spans, kept in memory and written at exit as Chrome
/// trace-event JSON (load it in chrome://tracing or Perfetto).
class Tracer {
 public:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  /// Close a span that began at `start_us`.
  void span(std::string name, double start_us, std::string args = "{}") {
    spans_.push_back({std::move(name), std::move(args), start_us,
                      now_us() - start_us});
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "{\"name\":" << quote(s.name)
          << ",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << number(s.start_us) << ",\"dur\":" << number(s.dur_us)
          << ",\"args\":" << s.args << "}";
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }

 private:
  struct Span {
    std::string name;
    std::string args;
    double start_us;
    double dur_us;
  };
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

/// Routes fd 2 -- this process's and that of every worker forked meanwhile
/// -- into a file for one job. finish() restores it, copies the text to the
/// real stderr, and counts the worker serve loop's dropped-frame warnings.
class StderrCapture {
 public:
  explicit StderrCapture(std::string path) : path_(std::move(path)) {
    std::fflush(stderr);
    const int fd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw std::runtime_error("cannot open " + path_);
    saved_ = ::dup(2);
    const bool redirected = saved_ >= 0 && ::dup2(fd, 2) >= 0;
    ::close(fd);
    if (!redirected) {
      restore();
      throw std::runtime_error("cannot redirect stderr");
    }
  }
  ~StderrCapture() { restore(); }
  StderrCapture(const StderrCapture&) = delete;
  StderrCapture& operator=(const StderrCapture&) = delete;

  std::size_t finish() {
    restore();
    std::ifstream in(path_);
    std::size_t stray = 0;
    for (std::string line; std::getline(in, line);) {
      if (line.find("ignoring unexpected message type") != std::string::npos) {
        ++stray;
      }
      std::fprintf(stderr, "%s\n", line.c_str());
    }
    return stray;
  }

 private:
  void restore() {
    if (saved_ < 0) return;
    std::fflush(stderr);
    ::dup2(saved_, 2);
    ::close(saved_);
    saved_ = -1;
  }

  std::string path_;
  int saved_ = -1;
};

/// What one DASC job produced, whichever driver ran it.
struct DascRun {
  std::vector<int> labels;
  core::ApproximatorStats stats;
  double stages_s = 0.0;  ///< inside the MapReduce stages / fused pipeline
  double stage1_s = 0.0;
  double stage2_s = 0.0;
  std::uint64_t map_input_records = 0;
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t failed_task_attempts = 0;
  std::vector<double> map_task_s;             ///< both stages
  std::vector<double> cluster_reduce_task_s;  ///< stage 2
};

DascRun run_dasc(const Workload& w, const data::PointSet& points,
                 MetricsRegistry* metrics, const std::string& tmp_dir) {
  Rng rng(kJobSeed);
  DascRun run;
  if (!w.mapreduce) {
    core::DascResult result =
        core::dasc_cluster(points, dasc_params(w, metrics, tmp_dir), rng);
    run.labels = std::move(result.labels);
    run.stats = result.stats;
    run.stages_s = result.cluster_seconds;
    return run;
  }
  core::MapReduceDascParams params;
  params.dasc = dasc_params(w, metrics, tmp_dir);
  params.conf = job_conf(w, tmp_dir);
  core::MapReduceDascResult result =
      core::dasc_cluster_mapreduce(points, params, rng);
  run.labels = std::move(result.labels);
  run.stats = result.stats;
  for (const mapreduce::JobResult* job :
       {&result.lsh_job, &result.cluster_job}) {
    run.map_input_records += job->counters.map_input_records;
    run.shuffle_bytes += job->counters.shuffle_bytes;
    run.failed_task_attempts += job->counters.failed_task_attempts;
    run.map_task_s.insert(run.map_task_s.end(), job->map_task_seconds.begin(),
                          job->map_task_seconds.end());
  }
  run.stage1_s = result.lsh_job.real_seconds;
  run.stage2_s = result.cluster_job.real_seconds;
  run.stages_s = run.stage1_s + run.stage2_s;
  run.cluster_reduce_task_s = result.cluster_job.reduce_task_seconds;
  return run;
}

/// Per-layer numbers of one traced job. A layer that does not run on the
/// workload, or runs only inside the workers (whose instruments do not reach
/// the supervisor), is left out rather than reported as zero.
std::map<std::string, double> layer_metrics(const Workload& w,
                                            const MetricsRegistry& r,
                                            const DascRun& run, double wall_s,
                                            std::size_t n) {
  std::map<std::string, double> m;
  m["core.driver_s"] = wall_s - run.stages_s;
  m["core.gram_mb"] = static_cast<double>(run.stats.gram_bytes) / kMiB;
  m["core.gram_vs_eq12_ratio"] =
      static_cast<double>(run.stats.gram_bytes) /
      core::dasc_memory_bytes(static_cast<double>(n),
                              static_cast<double>(run.stats.merged_buckets));
  if (!w.multi_process) {
    const double build = r.timer_total_ms("pipeline.gram_build");
    const double consume = r.timer_total_ms("pipeline.consume");
    // MapReduce reducers run one single-threaded pipeline per bucket; the
    // fused driver runs one pipeline over every bucket on kThreads threads.
    const double threads =
        w.mapreduce ? 1.0
                    : static_cast<double>(
                          std::min(kThreads, run.stats.merged_buckets));
    const double capacity = r.timer_total_ms("pipeline.wall") * threads;
    m["core.gram_build_ms"] = build;
    m["core.consume_ms"] = consume;
    m["core.pipeline_busy_ratio"] =
        capacity > 0.0 ? (build + consume) / capacity : 0.0;
    m["core.peak_inflight_mb"] =
        static_cast<double>(r.gauge_value("pipeline.peak_inflight_bytes")) /
        kMiB;
    m["core.blocks_spilled"] =
        static_cast<double>(r.counter_value("pipeline.blocks_spilled"));
    m["clustering.eigensolve_ms"] = r.timer_total_ms("spectral.eigensolve");
    m["clustering.kmeans_ms"] = r.timer_total_ms("kmeans.lloyd");
    m["clustering.kmeans_iterations"] =
        static_cast<double>(r.counter_value("kmeans.iterations"));
    m["clustering.lanczos_solves"] =
        static_cast<double>(r.counter_value("eigensolve.lanczos"));
  }
  if (w.mapreduce) {
    m["mapreduce.stage1_s"] = run.stage1_s;
    m["mapreduce.stage2_s"] = run.stage2_s;
    m["mapreduce.map_ms"] = r.timer_total_ms("mapreduce.map");
    m["mapreduce.reduce_ms"] = r.timer_total_ms("mapreduce.reduce");
    if (!w.multi_process) {  // worker-to-worker pulls run in the reducers
      m["mapreduce.shuffle_ms"] = r.timer_total_ms("mapreduce.shuffle");
    }
    m["mapreduce.shuffle_mb"] = static_cast<double>(run.shuffle_bytes) / kMiB;
    m["mapreduce.failed_task_attempts"] =
        static_cast<double>(run.failed_task_attempts);
  }
  if (w.multi_process) {
    m["ipc.bytes_sent_mb"] =
        static_cast<double>(r.gauge_value("ipc.bytes_sent")) / kMiB;
    m["ipc.bytes_received_mb"] =
        static_cast<double>(r.gauge_value("ipc.bytes_received")) / kMiB;
    m["ipc.messages_sent"] =
        static_cast<double>(r.counter_value("ipc.messages_sent"));
    m["ipc.recv_wait_ms"] = r.timer_total_ms("ipc.recv_wait");
    m["ipc.pulls"] = static_cast<double>(r.gauge_value("shuffle.pulls"));
    m["ipc.conns_opened"] =
        static_cast<double>(r.gauge_value("shuffle.conns_opened"));
    m["ipc.workers_forked"] =
        static_cast<double>(r.gauge_value("worker.forked"));
  }
  if (w.spill_budget > 0) {
    m["common.spill_io_ms"] = r.timer_total_ms("spill.page_io");
    m["common.spill_written_mb"] =
        static_cast<double>(r.gauge_value("spill.bytes_written")) / kMiB;
    m["common.spill_read_mb"] =
        static_cast<double>(r.gauge_value("spill.bytes_read")) / kMiB;
    m["common.spill_pages"] = static_cast<double>(r.gauge_value("spill.pages"));
  }
  return m;
}

struct Job {
  std::string phase;  ///< warmup | timed | traced | verify
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Share of the machine's vCPU time stolen while the job ran.
  double steal_share = 0.0;
  std::vector<int> labels;
  std::uint64_t map_input_records = 0;
  std::uint64_t shuffle_bytes = 0;
  std::size_t merged_buckets = 0;
  std::map<std::string, double> layers;  ///< traced jobs only
  std::vector<double> map_task_ms;
  std::vector<double> cluster_reduce_task_ms;
};

struct Bench {
  const data::PointSet& points;
  std::string tmp_dir;
  Tracer& tracer;

  Job run(const std::string& phase, const Workload& w, bool traced) {
    Job job;
    job.phase = phase;
    MetricsRegistry registry;
    const double start_us = tracer.now_us();
    StderrCapture capture(tmp_dir + "/stderr.log");
    const double cpu0 = cpu_seconds();
    const double steal0 = steal_seconds();
    Stopwatch clock;
    DascRun result;
    try {
      result = run_dasc(w, points, traced ? &registry : nullptr, tmp_dir);
      job.ok = true;
    } catch (const std::exception& e) {
      job.error = e.what();
    }
    job.wall_s = clock.seconds();
    job.cpu_s = cpu_seconds() - cpu0;
    job.steal_share = (steal_seconds() - steal0) /
                      (job.wall_s * static_cast<double>(
                                        ::sysconf(_SC_NPROCESSORS_ONLN)));
    const std::size_t stray_frames = capture.finish();
    tracer.span("job", start_us,
                "{\"phase\":" + quote(phase) + ",\"ok\":" +
                    (job.ok ? "true" : "false") + "}");
    if (!job.ok) return job;
    job.map_input_records = result.map_input_records;
    job.shuffle_bytes = result.shuffle_bytes;
    job.merged_buckets = result.stats.merged_buckets;
    if (traced) {
      job.layers =
          layer_metrics(w, registry, result, job.wall_s, points.size());
      if (w.multi_process) {
        job.layers["ipc.stray_frames"] = static_cast<double>(stray_frames);
      }
      for (const double s : result.map_task_s) {
        job.map_task_ms.push_back(s * 1e3);
      }
      for (const double s : result.cluster_reduce_task_s) {
        job.cluster_reduce_task_ms.push_back(s * 1e3);
      }
    }
    job.labels = std::move(result.labels);
    return job;
  }
};

struct LshProbe {
  double fit_ms = 0.0;
  double hash_ms = 0.0;
  double bucket_ms = 0.0;
  std::size_t m = 0;
  std::vector<lsh::Bucket> buckets;
};

/// The job's LSH steps, timed one by one: the same hasher fit (same RNG
/// seed), hashing, bucket table, P-bit merge and balancing cap.
LshProbe probe_lsh(const Workload& w, const data::PointSet& points) {
  const core::DascParams params = dasc_params(w, nullptr, "");
  LshProbe probe;
  probe.m = core::resolve_signature_bits(params, points.size());
  const std::size_t p = core::resolve_merge_bits(params, probe.m);
  Rng rng(kJobSeed);
  Stopwatch clock;
  const lsh::RandomProjectionHasher hasher = lsh::RandomProjectionHasher::fit(
      points, probe.m, params.selection, rng);
  probe.fit_ms = clock.millis();
  clock.reset();
  std::vector<lsh::Signature> signatures(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    signatures[i] = hasher.hash(points.point(i));
  }
  probe.hash_ms = clock.millis();
  clock.reset();
  const lsh::BucketTable table =
      lsh::BucketTable::from_signatures(signatures, probe.m);
  probe.buckets = table.merged_buckets(
      p, p == probe.m ? lsh::MergeStrategy::kNone : params.merge);
  if (w.cap > 0) {
    probe.buckets = core::balance_buckets(points, std::move(probe.buckets),
                                          std::max<std::size_t>(w.cap, 2));
  }
  probe.bucket_ms = clock.millis();
  return probe;
}

/// encode_member / decode_member round trip over every point, twice (the
/// stage-1 and stage-2 hops each record makes).
double probe_codec_ms(const data::PointSet& points) {
  Stopwatch clock;
  for (int hop = 0; hop < 2; ++hop) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto original = points.point(i);
      const auto [index, decoded] =
          core::decode_member(core::encode_member(i, original));
      if (index != i ||
          !std::equal(decoded.begin(), decoded.end(), original.begin(),
                      original.end())) {
        throw std::runtime_error("codec round trip changed point " +
                                 std::to_string(i));
      }
    }
  }
  return clock.millis();
}

class IdentityMapper final : public mapreduce::Mapper {
 public:
  void map(const std::string& key, const std::string& value,
           mapreduce::Emitter& out) override {
    out.emit(key, value);
  }
};

class IdentityReducer final : public mapreduce::Reducer {
 public:
  void reduce(const std::string& key, const std::vector<std::string>& values,
              mapreduce::Emitter& out) override {
    for (const auto& value : values) out.emit(key, value);
  }
};

/// An identity run_job over the stage-2 records (one key per bucket, value
/// index|vector) in the workload's execution mode and spill setting: the
/// runtime's cost with no user work.
double probe_null_job_s(const Workload& w, const data::PointSet& points,
                        const LshProbe& probe, const std::string& tmp_dir) {
  std::vector<mapreduce::Record> records;
  records.reserve(points.size());
  for (std::size_t b = 0; b < probe.buckets.size(); ++b) {
    const std::string key = lsh::to_string(probe.buckets[b].signature,
                                           probe.m) +
                            "#" + std::to_string(b);
    for (const std::size_t i : probe.buckets[b].indices) {
      records.push_back({key, core::encode_member(i, points.point(i))});
    }
  }
  mapreduce::JobSpec spec;
  spec.conf = job_conf(w, tmp_dir);
  spec.conf.spill_budget_bytes = w.spill_budget;
  spec.conf.job_name = "null";
  spec.mapper_factory = [] { return std::make_unique<IdentityMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<IdentityReducer>(); };
  const mapreduce::JobResult result = mapreduce::run_job(spec, records);
  if (result.output.size() != records.size()) {
    throw std::runtime_error("null job lost records");
  }
  return result.real_seconds;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string tmp_dir;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--tmp-dir") {
      args.tmp_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || !have_seed || !have_seconds ||
      args.tmp_dir.empty()) {
    throw std::invalid_argument(
        "usage: bench_e2e --workload NAME --seed S --seconds T --trace 0|1 "
        "--tmp-dir DIR [--trace-out FILE]");
  }
  return args;
}

std::string job_json(const Job& job) {
  char crc[9];
  std::snprintf(crc, sizeof(crc), "%08x",
                static_cast<unsigned>(crc32(std::string_view(
                    reinterpret_cast<const char*>(job.labels.data()),
                    job.labels.size() * sizeof(int)))));
  std::ostringstream out;
  out << "{\"phase\":" << quote(job.phase)
      << ",\"ok\":" << (job.ok ? "true" : "false")
      << ",\"error\":" << quote(job.error)
      << ",\"wall_s\":" << number(job.wall_s)
      << ",\"cpu_s\":" << number(job.cpu_s)
      << ",\"steal_share\":" << number(job.steal_share)
      << ",\"labels\":" << quote(job.ok ? crc : "")
      << ",\"map_input_records\":" << job.map_input_records
      << ",\"shuffle_bytes\":" << job.shuffle_bytes
      << ",\"merged_buckets\":" << job.merged_buckets
      << ",\"layers\":" << json_object(job.layers)
      << ",\"map_task_ms\":" << json_array(job.map_task_ms)
      << ",\"cluster_reduce_task_ms\":"
      << json_array(job.cluster_reduce_task_ms) << "}";
  return out.str();
}

/// Runs `body` in a forked child and returns the text it produced. Called
/// only before this process has run a job, so no other thread exists.
std::string in_child(const std::function<std::string()>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    std::string text;
    try {
      text = body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: set-up child: %s\n", e.what());
      code = 1;
    }
    for (std::size_t done = 0; done < text.size();) {
      const ssize_t n =
          ::write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) {
        code = 1;
        break;
      }
      done += static_cast<std::size_t>(n);
    }
    std::fflush(stderr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buffer[4096];
  for (ssize_t n; (n = ::read(fds[0], buffer, sizeof(buffer))) != 0;) {
    if (n > 0) {
      text.append(buffer, static_cast<std::size_t>(n));
    } else if (errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up child failed");
  }
  return text;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  const Workload& w = *found;
  Tracer tracer;
  const double setup_us = tracer.now_us();

  // Set-up (corpus generation plus the warm-up job) is timed kSetups times,
  // all but the last in a forked child, so each sample starts from the same
  // cold process: no heap to reuse, nothing a job left behind. run.py
  // reports the median as setup_s; a traced run reports none.
  std::vector<double> corpus_s;
  std::vector<std::string> job_lines;
  for (std::size_t i = 1; i < (args.trace ? 1 : kSetups); ++i) {
    std::istringstream reply(in_child([&] {
      Stopwatch clock;
      const data::PointSet cold = make_corpus(w, args.seed);
      const double made_s = clock.seconds();
      Bench bench{cold, args.tmp_dir, tracer};
      return number(made_s) + "\n" + job_json(bench.run("warmup", w, false));
    }));
    double made_s = 0.0;
    std::string line;
    reply >> made_s >> std::ws;
    std::getline(reply, line);
    corpus_s.push_back(made_s);
    job_lines.push_back(line);
  }
  double start_us = tracer.now_us();
  Stopwatch corpus_clock;
  const data::PointSet points = make_corpus(w, args.seed);
  corpus_s.push_back(corpus_clock.seconds());
  tracer.span("corpus", start_us);

  std::map<std::string, double> probes;
  start_us = tracer.now_us();
  const LshProbe lsh = probe_lsh(w, points);
  tracer.span("probe.lsh", start_us);
  probes["lsh.fit_ms"] = lsh.fit_ms;
  probes["lsh.hash_ms"] = lsh.hash_ms;
  probes["lsh.bucket_ms"] = lsh.bucket_ms;
  if (args.trace && w.mapreduce) {
    start_us = tracer.now_us();
    probes["core.codec_ms"] = probe_codec_ms(points);
    tracer.span("probe.codec", start_us);
    start_us = tracer.now_us();
    probes["mapreduce.null_job_s"] =
        probe_null_job_s(w, points, lsh, args.tmp_dir);
    tracer.span("probe.null_job", start_us);
  }

  Bench bench{points, args.tmp_dir, tracer};
  std::vector<Job> jobs;
  jobs.push_back(bench.run("warmup", w, false));
  tracer.span("setup", setup_us);

  // Closed loop over the measurement window. A traced run alternates
  // untraced and traced jobs so both see the same machine state.
  Stopwatch window;
  std::size_t timed = 0;
  std::size_t traced = 0;
  while (timed == 0 || window.seconds() < args.seconds ||
         (args.trace && traced < kMinTracedJobs)) {
    const bool trace_this = args.trace && timed > traced;
    jobs.push_back(bench.run(trace_this ? "traced" : "timed", w, trace_this));
    ++(trace_this ? traced : timed);
  }
  const double rss_mb = peak_rss_mb();

  if (w.multi_process || w.spill_budget > 0) {
    Workload reference = w;
    reference.multi_process = false;
    reference.spill_budget = 0;
    start_us = tracer.now_us();
    jobs.push_back(bench.run("verify", reference, false));
    tracer.span("verify", start_us);
  }

  double purity = 0.0;
  for (const Job& job : jobs) {
    if (job.ok) {
      purity = clustering::clustering_purity(job.labels, points.labels());
      break;
    }
  }
  if (!args.trace_out.empty()) tracer.write(args.trace_out);

  std::ostringstream out;
  out << "{\"workload\":" << quote(w.name) << ",\"seed\":" << args.seed
      << ",\"n\":" << points.size()
      << ",\"corpus_s\":" << json_array(corpus_s)
      << ",\"probe_merged_buckets\":" << lsh.buckets.size()
      << ",\"probes\":" << json_object(probes)
      << ",\"peak_rss_mb\":" << number(rss_mb)
      << ",\"purity\":" << number(purity) << ",\"jobs\":[";
  for (const Job& job : jobs) job_lines.push_back(job_json(job));
  for (std::size_t i = 0; i < job_lines.size(); ++i) {
    out << (i == 0 ? "" : ",") << job_lines[i];
  }
  out << "]}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
