// Tuning knobs of the DASC pipeline, defaulted to the paper's settings
// (Section 5.4): M = ceil(log2 N / 2) - 1, P = M - 1, random-projection
// hashing over the largest-span dimensions, Gaussian kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "linalg/simd_ops.hpp"
#include "lsh/bucket_table.hpp"
#include "lsh/random_projection.hpp"

namespace dasc {
class FaultInjector;
class MetricsRegistry;
}

namespace dasc::core {

/// Which LSH family produces the signatures (Section 3.2 surveys all
/// three; the paper's experiments use random projection).
enum class HashFamily {
  kRandomProjection,
  kMinHash,
  kSimHash,
  /// Data-dependent spectral hashing — the paper's suggested family for
  /// skewed data ("will yield balanced partitioning", Section 5.1).
  kSpectralHash,
};

/// Per-bucket Gram/embedding backend (see core/bucket_embedder.hpp).
/// Values are persisted in model artifacts — never renumber.
enum class GramBackend : std::uint8_t {
  kDense = 0,       ///< exact dense block + Jacobi/Lanczos eigensolve
  kNystrom = 1,     ///< landmark factorization F = C P, r x r solve
  kRbfBinning = 2,  ///< random binning feature map, feature-space solve
};

/// How the per-bucket backend is chosen. kAuto follows the size
/// threshold: dense below it (bit-identical to the historical path),
/// Nystrom at or above it — so defaults only change behaviour for buckets
/// the dense path could barely hold anyway.
enum class GramBackendPolicy : std::uint8_t {
  kAuto = 0,
  kDense = 1,
  kNystrom = 2,
  kRbfBinning = 3,
};

struct DascParams {
  /// Signature bits M; 0 = auto (ceil(log2 N / 2) - 1).
  std::size_t m = 0;
  /// Minimum shared bits P for bucket merging; 0 = auto (M - 1). Setting
  /// p == m disables merging.
  std::size_t p = 0;
  /// Gaussian kernel bandwidth sigma; 0 = median-distance heuristic.
  double sigma = 0.0;
  /// Global cluster count K; 0 = the paper's Wikipedia fit
  /// K = 17 (log2 N - 9), clamped to [2, N].
  std::size_t k = 0;

  HashFamily family = HashFamily::kRandomProjection;
  lsh::DimensionSelection selection = lsh::DimensionSelection::kTopSpan;
  lsh::MergeStrategy merge = lsh::MergeStrategy::kPairwise;

  /// Cap on points per bucket; 0 disables. Buckets exceeding the cap are
  /// recursively median-split along their widest dimension — the paper's
  /// "data-dependent hashing functions ... will yield balanced
  /// partitioning" remark (Section 5.1) realized with the k-d-tree
  /// principle its hash design already follows.
  std::size_t max_bucket_points = 0;

  /// Bucket-pipeline admission budget: maximum Gram blocks resident at
  /// once (0 = unlimited). With the budget set, peak Gram memory is
  /// O(budget * max Ni^2) instead of O(sum Ni^2); 1 reproduces the
  /// streaming driver's one-block bound. Labels are identical for every
  /// setting (the pipeline fixes seeds and label offsets up front).
  std::size_t max_inflight_blocks = 0;
  /// Companion byte budget on resident Gram blocks (0 = unlimited). A
  /// single block larger than the budget is still admitted when it is
  /// alone, so the pipeline cannot deadlock.
  std::size_t max_inflight_bytes = 0;

  /// Out-of-core spill budget (0 = stay RAM-resident, the historical
  /// behaviour). When > 0, built dense Gram blocks larger than the budget
  /// are evicted to CRC-guarded spool pages on disk and faulted back for
  /// consumption (DESIGN.md section 12), and the MapReduce driver routes
  /// its shuffle through spooled external merge sort under the same
  /// budget. Page I/O retries through fault site `spill.page_io`; labels
  /// are bit-identical with spilling on or off.
  std::size_t spill_budget_bytes = 0;
  /// Directory for spill files ("" = the system temp directory).
  std::string spill_dir;

  /// SIMD dispatch level for the linalg kernels (kAuto = best supported,
  /// or the DASC_SIMD env override). Every level produces bit-identical
  /// results — the kernels share one canonical reduction order — so this
  /// knob exists for differential testing and triage, not tuning. Applied
  /// process-wide at pipeline entry; unsupported levels clamp down.
  linalg::SimdLevel simd_level = linalg::SimdLevel::kAuto;

  /// Per-bucket Gram/embedding backend policy (core/bucket_embedder.hpp).
  /// kAuto keeps every bucket below backend_threshold on the dense-exact
  /// path — byte-identical labels, metrics counters, and artifacts versus
  /// the pre-backend code — and switches buckets at/above the threshold to
  /// the Nystrom landmark factorization (O(Ni * m) instead of O(Ni^2)).
  GramBackendPolicy gram_backend = GramBackendPolicy::kAuto;
  /// Bucket-size threshold for the kAuto policy (points).
  std::size_t backend_threshold = 4096;
  /// Landmarks m for the Nystrom backend; 0 = auto
  /// (clamp(4 * ceil(sqrt(Ni)), 16, Ni)).
  std::size_t nystrom_landmarks = 0;
  /// Hashed feature count D for the random-binning backend; 0 = auto
  /// (same rule as the Nystrom landmark count).
  std::size_t binning_features = 0;
  /// Independent binning grids R averaged by the random-binning feature
  /// map (kernel variance shrinks as 1/R).
  std::size_t binning_repetitions = 8;

  /// Dense eigensolver below this bucket size, Lanczos above.
  std::size_t dense_cutoff = 128;
  /// Worker threads for per-bucket processing (0 = host concurrency).
  std::size_t threads = 0;
  std::uint64_t seed = 42;

  /// Optional per-stage metrics sink (see common/metrics.hpp). Every DASC
  /// consumer reports signatures/bucketing/gram/eigensolve/kmeans timers,
  /// deterministic work counters, and AdmissionGate gauges into it; null
  /// disables all instrumentation.
  MetricsRegistry* metrics = nullptr;

  /// Optional fault source (see common/fault_injection.hpp), threaded —
  /// like the metrics sink — into every consumer's bucket pipeline (site
  /// `alloc.gram_block`) and, for the MapReduce driver, its job specs
  /// (`map.task`, `reduce.task`, `shuffle.fetch`). For a fixed seed,
  /// labels are bit-identical with and without faults as long as every
  /// bucket/task eventually succeeds. Null = off.
  FaultInjector* faults = nullptr;
  /// Attempts per bucket in the pipeline before its error propagates
  /// (1 = fail fast; see BucketPipelineOptions::max_bucket_attempts).
  std::size_t max_bucket_attempts = 1;
};

/// Resolve m for a dataset of size n (params.m or the paper's auto rule).
std::size_t resolve_signature_bits(const DascParams& params, std::size_t n);

/// Resolve p given resolved m.
std::size_t resolve_merge_bits(const DascParams& params, std::size_t m);

/// Resolve the global cluster count for a dataset of size n.
std::size_t resolve_cluster_count(const DascParams& params, std::size_t n);

/// Resolve the Gaussian bandwidth: params.sigma, or the median-distance
/// heuristic over `points` when it is 0.
double resolve_bandwidth(const DascParams& params,
                         const data::PointSet& points);

/// Parse a backend-policy name ("auto", "dense", "nystrom", "rbf_binning")
/// as accepted by the dasc_tool / serve_tool backend= flag; nullopt on an
/// unknown name.
std::optional<GramBackendPolicy> parse_gram_backend(std::string_view name);

/// Stable lowercase name of a backend ("dense", "nystrom", "rbf_binning"),
/// used in metrics keys and tool output.
const char* gram_backend_name(GramBackend backend);

/// Install params.simd_level as the process-wide dispatch table and record
/// the resolved level in the `linalg.simd_level` gauge (scalar=0, sse2=1,
/// avx2=2). Called by every pipeline entry point; safe to call repeatedly.
void apply_simd_level(const DascParams& params);

}  // namespace dasc::core
