// dasc_tool: command-line front end for the DASC pipeline.
//
//   $ ./dasc_tool [input.csv] [output.csv]
//
// Reads an unlabelled CSV of points (one row per point), clusters with
// DASC, and writes the input back out with the cluster id appended as the
// last column. Without arguments it generates a demo dataset, clusters it,
// and prints a summary — so the binary is also runnable unattended.
//
// Flags (accepted as key=value, --key=value, or --key value):
//   k=<int>                    clusters (default: auto, Eq. 15 fit)
//   m=<int>                    signature bits (default: auto rule)
//   cap=<int>                  max bucket size, 0 = off (default 0)
//   sigma=<float>              kernel bandwidth (default: median heuristic)
//   seed=<int>                 RNG seed (default 42)
//   threads=<int>              worker threads, 0 = hardware (default 0).
//                              For the mapreduce engine this also sizes
//                              the per-phase task pool (physical_threads),
//                              which the speculation monitor needs: a
//                              single-threaded pool serializes behind the
//                              straggler it is meant to outrun.
//   max-inflight-blocks=<int>  Gram blocks resident at once, 0 = off
//   max-inflight-bytes=<int>   byte budget for resident blocks, 0 = off
//   spill-budget=<int>         out-of-core spill budget in bytes, 0 = off
//                              (default). Dense Gram blocks over the
//                              budget are evicted to CRC-guarded disk
//                              pages and faulted back; labels are
//                              bit-identical either way (DESIGN.md
//                              section 12). spill-budget=1 forces every
//                              block through disk.
//   spill-dir=<path>           directory for spill files (default: the
//                              system temp directory)
//   metrics-out=<path>         write per-stage metrics JSON (see DESIGN.md
//                              section 7 for the schema and stage names)
//   model-out=<path>           also persist the fitted serving artifact
//                              (DESIGN.md section 8) for serve_tool
//   model-in=<path>            skip fitting: load a persisted artifact and
//                              label the input via out-of-sample assignment
//   fault-plan=<plan>          deterministic fault injection, e.g.
//                              "seed=7;alloc.gram_block:nth=3:max=2" (see
//                              common/fault_injection.hpp for the grammar
//                              and DESIGN.md section 9 for semantics)
//   bucket-attempts=<int>      attempts per pipeline bucket (default 1;
//                              raise alongside fault-plan so injected
//                              failures are retried)
//   simd=<level>               linalg dispatch level: auto (default),
//                              scalar, sse2, or avx2. Labels are
//                              bit-identical at every level (DESIGN.md
//                              section 10); the DASC_SIMD env variable is
//                              the equivalent process-wide override.
//   backend=<name>             per-bucket Gram backend policy: auto
//                              (default; dense below backend-threshold,
//                              nystrom above), dense, nystrom, or
//                              rbf_binning (DESIGN.md section 11). The
//                              per-bucket selections show up in
//                              metrics-out as backend.selected_* counters.
//   backend-threshold=<int>    bucket size at which auto switches from
//                              dense to nystrom (default 4096)
//   engine=<name>              clustering driver: dasc (default; the fused
//                              in-process pipeline) or mapreduce (the
//                              two-stage Section 3.3 job pipeline on the
//                              virtual cluster)
//   execution-mode=<mode>      mapreduce engine only: in_process (default)
//                              runs tasks on a thread pool; multi_process
//                              runs them in forked worker processes over
//                              the ipc transport (DESIGN.md section 13),
//                              with reducers pulling their partitions
//                              straight from the mapper workers and
//                              spooling under spill-budget (section 14).
//                              Labels are byte-identical either way.
//   workers=<int>              mapreduce engine only: worker processes in
//                              multi_process mode (default 2)
//   task-attempts=<int>        mapreduce engine only: attempts per map /
//                              reduce task (default 1; raise alongside
//                              fault-plan so killed workers and failed
//                              tasks are retried to completion)
//   speculation=<on|off>       mapreduce engine only: launch one backup
//                              attempt for straggling tasks; the first
//                              attempt to finish commits (off by default;
//                              works in both execution modes — DESIGN.md
//                              section 15)
//   spec-slowdown=<float>      speculation threshold: a task slower than
//                              this multiple of the median committed
//                              duration gets a backup (default 4.0)
//   spec-min-ms=<float>        speculation floor: never speculate on tasks
//                              faster than this many ms (default 5.0)
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "clustering/metrics.hpp"
#include "common/fault_injection.hpp"
#include "common/memory_tracker.hpp"
#include "common/metrics.hpp"
#include "core/dasc_clusterer.hpp"
#include "core/dasc_mapreduce.hpp"
#include "data/dataset_io.hpp"
#include "data/synthetic.hpp"
#include "serving/assigner.hpp"
#include "serving/model_artifact.hpp"

namespace {

struct Options {
  std::string input;
  std::string output;
  std::string metrics_out;
  std::string model_out;
  std::string model_in;
  std::string fault_plan;
  bool use_mapreduce = false;
  dasc::mapreduce::ExecutionMode execution_mode =
      dasc::mapreduce::ExecutionMode::kInProcess;
  std::size_t workers = 0;        ///< 0 = JobConf default
  std::size_t task_attempts = 0;  ///< 0 = JobConf default
  bool speculation = false;
  double spec_slowdown = 0.0;  ///< 0 = JobConf default
  double spec_min_ms = -1.0;   ///< < 0 = JobConf default
  dasc::core::DascParams params;
};

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const bool dashed = arg.rfind("--", 0) == 0;
    if (dashed) arg = arg.substr(2);

    std::size_t eq = arg.find('=');
    std::string key;
    std::string value;
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (dashed && i + 1 < argc) {
      // --key value form.
      key = arg;
      value = argv[++i];
    } else if (!dashed) {
      if (options.input.empty()) {
        options.input = arg;
      } else {
        options.output = arg;
      }
      continue;
    } else {
      std::fprintf(stderr, "option missing value: --%s\n", arg.c_str());
      std::exit(2);
    }

    if (key == "k") {
      options.params.k = std::stoul(value);
    } else if (key == "m") {
      options.params.m = std::stoul(value);
    } else if (key == "cap") {
      options.params.max_bucket_points = std::stoul(value);
    } else if (key == "sigma") {
      options.params.sigma = std::stod(value);
    } else if (key == "seed") {
      options.params.seed = std::stoull(value);
    } else if (key == "threads") {
      options.params.threads = std::stoul(value);
    } else if (key == "max-inflight-blocks") {
      options.params.max_inflight_blocks = std::stoul(value);
    } else if (key == "max-inflight-bytes") {
      options.params.max_inflight_bytes = std::stoul(value);
    } else if (key == "spill-budget") {
      options.params.spill_budget_bytes = std::stoul(value);
    } else if (key == "spill-dir") {
      options.params.spill_dir = value;
    } else if (key == "metrics-out") {
      options.metrics_out = value;
    } else if (key == "model-out") {
      options.model_out = value;
    } else if (key == "model-in") {
      options.model_in = value;
    } else if (key == "fault-plan") {
      options.fault_plan = value;
    } else if (key == "bucket-attempts") {
      options.params.max_bucket_attempts = std::stoul(value);
    } else if (key == "backend") {
      const auto backend = dasc::core::parse_gram_backend(value);
      if (!backend) {
        std::fprintf(stderr,
                     "backend=%s: expected auto, dense, nystrom, or "
                     "rbf_binning\n",
                     value.c_str());
        std::exit(2);
      }
      options.params.gram_backend = *backend;
    } else if (key == "backend-threshold") {
      options.params.backend_threshold = std::stoul(value);
    } else if (key == "engine") {
      if (value == "mapreduce") {
        options.use_mapreduce = true;
      } else if (value != "dasc") {
        std::fprintf(stderr, "engine=%s: expected dasc or mapreduce\n",
                     value.c_str());
        std::exit(2);
      }
    } else if (key == "execution-mode") {
      try {
        options.execution_mode = dasc::mapreduce::parse_execution_mode(value);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
      }
    } else if (key == "workers") {
      options.workers = std::stoul(value);
    } else if (key == "task-attempts") {
      options.task_attempts = std::stoul(value);
    } else if (key == "speculation") {
      if (value != "on" && value != "off") {
        std::fprintf(stderr, "speculation=%s: expected on or off\n",
                     value.c_str());
        std::exit(2);
      }
      options.speculation = value == "on";
    } else if (key == "spec-slowdown") {
      options.spec_slowdown = std::stod(value);
    } else if (key == "spec-min-ms") {
      options.spec_min_ms = std::stod(value);
    } else if (key == "simd") {
      const auto level = dasc::linalg::simd::parse_level(value);
      if (!level) {
        std::fprintf(stderr, "simd=%s: expected auto, scalar, sse2, or avx2\n",
                     value.c_str());
        std::exit(2);
      }
      options.params.simd_level = *level;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dasc;
  const Options options = parse(argc, argv);

  data::PointSet points;
  if (options.input.empty()) {
    std::printf("no input file; generating a 1500-point demo mixture\n");
    Rng data_rng(11);
    data::MixtureParams mix;
    mix.n = 1500;
    mix.dim = 16;
    mix.k = 4;
    mix.cluster_stddev = 0.04;
    points = data::make_gaussian_mixture(mix, data_rng);
  } else {
    try {
      points = data::load_csv(options.input, /*labelled=*/false);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to load %s: %s\n",
                   options.input.c_str(), e.what());
      return 1;
    }
    std::printf("loaded %zu points of dimension %zu from %s\n",
                points.size(), points.dim(), options.input.c_str());
  }

  core::DascParams params = options.params;
  MetricsRegistry registry;
  if (!options.metrics_out.empty()) {
    params.metrics = &registry;
    MemoryTracker::reset_peak();
  }
  std::optional<FaultInjector> injector;
  if (!options.fault_plan.empty()) {
    try {
      injector.emplace(FaultPlan::parse(options.fault_plan), &registry);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad fault plan: %s\n", e.what());
      return 2;
    }
    params.faults = &*injector;
    std::printf("fault plan: %s\n", injector->plan().to_string().c_str());
  }
  // Serve mode never reaches the fitting entry points, so install the
  // dispatch level here for both paths.
  core::apply_simd_level(params);
  Rng rng(params.seed);
  core::DascResult result;
  try {
    if (!options.model_in.empty()) {
      // Serve mode: no fitting — label the input against a saved model.
      const serving::Assigner assigner(
          serving::load_model(options.model_in));
      result.labels = assigner.assign_batch(points, params.threads);
      result.num_clusters = assigner.num_clusters();
      result.requested_k =
          static_cast<std::size_t>(assigner.model().requested_k);
      std::printf("assigned %zu points against model %s\n", points.size(),
                  options.model_in.c_str());
    } else if (!options.model_out.empty()) {
      serving::FitResult fit = serving::fit_model(points, params, rng);
      serving::save_model(fit.model, options.model_out);
      std::printf("wrote model artifact to %s\n", options.model_out.c_str());
      result = std::move(fit.offline);
    } else if (options.use_mapreduce) {
      core::MapReduceDascParams mr;
      mr.dasc = params;
      mr.conf.execution_mode = options.execution_mode;
      if (options.workers > 0) mr.conf.num_workers = options.workers;
      if (options.task_attempts > 0) {
        mr.conf.max_task_attempts = options.task_attempts;
      }
      mr.conf.enable_speculation = options.speculation;
      if (options.spec_slowdown > 0.0) {
        mr.conf.speculative_slowdown = options.spec_slowdown;
      }
      if (options.spec_min_ms >= 0.0) {
        mr.conf.speculative_min_ms = options.spec_min_ms;
      }
      if (params.threads > 0) mr.conf.physical_threads = params.threads;
      std::printf("mapreduce engine: %s",
                  mapreduce::to_string(mr.conf.execution_mode));
      if (mr.conf.execution_mode ==
          mapreduce::ExecutionMode::kMultiProcess) {
        std::printf(", %zu workers", mr.conf.num_workers);
      }
      std::printf("\n");
      core::MapReduceDascResult mr_result =
          core::dasc_cluster_mapreduce(points, mr, rng);
      result.labels = std::move(mr_result.labels);
      result.num_clusters = mr_result.num_clusters;
      result.requested_k = mr_result.requested_k;
      result.stats = mr_result.stats;
      result.total_seconds = mr_result.real_seconds;
    } else {
      result = core::dasc_cluster(points, params, rng);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clustering failed: %s\n", e.what());
    return 1;
  }

  std::printf("clustered into %zu clusters (requested K = %zu)\n",
              result.num_clusters, result.requested_k);
  if (options.model_in.empty()) {
    std::printf("buckets: %zu raw -> %zu merged; largest %zu points\n",
                result.stats.raw_buckets, result.stats.merged_buckets,
                result.stats.largest_bucket);
    std::printf("gram bytes: %zu of %zu full (%.2f%%)\n",
                result.stats.gram_bytes, result.stats.full_gram_bytes,
                100.0 * result.stats.fill_ratio);
    std::printf("time: %.3fs\n", result.total_seconds);
  }

  if (injector.has_value()) {
    std::printf("faults injected: %llu (survived; labels are fault-free)\n",
                static_cast<unsigned long long>(injector->total_fired()));
  }

  if (points.has_labels()) {
    std::printf("purity vs provided labels: %.1f%%\n",
                clustering::clustering_purity(result.labels,
                                              points.labels()) *
                    100.0);
  }

  if (!options.output.empty()) {
    points.set_labels(result.labels);
    try {
      data::save_csv(points, options.output);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to write %s: %s\n",
                   options.output.c_str(), e.what());
      return 1;
    }
    std::printf("wrote labelled CSV to %s\n", options.output.c_str());
  }

  if (!options.metrics_out.empty()) {
    registry.gauge("memory.tracked_peak_bytes")
        .set_max(static_cast<std::int64_t>(MemoryTracker::peak()));
    try {
      metrics::write_json(registry, options.metrics_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to write %s: %s\n",
                   options.metrics_out.c_str(), e.what());
      return 1;
    }
    std::printf("wrote metrics JSON to %s\n", options.metrics_out.c_str());
  }
  return 0;
}
