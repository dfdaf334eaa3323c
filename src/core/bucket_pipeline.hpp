// Fused, bounded-memory executor for per-bucket kernel work — the single
// orchestration path every DASC consumer rides on (spectral clustering
// through core::cluster_buckets — the in-process driver, the serving fit
// and the MapReduce reducer — approximate kernel PCA, approximate SVM
// training, and approximate_kernel's block materialization).
//
// The paper's cost claim (Eqs. 11-12) is that LSH bucketing cuts kernel
// cost from O(N^2) to O(sum Ni^2) in time AND memory — but a driver that
// materializes every Gram block before consuming any still pays the full
// sum in peak memory. This executor fuses `build Gram block -> consume ->
// discard` per bucket and gates block construction behind an in-flight
// admission budget, so peak Gram memory is O(inflight * max Ni^2):
// unlimited in-flight materializes as a batch would, a one-block budget
// processes the buckets one at a time (the paper's "incrementally
// processed, split by split", Section 5.1) — with the same labels.
//
// Determinism contract: per-bucket seeds, cluster-count shares, and
// disjoint global label ranges are fixed by plan_bucket_jobs BEFORE any
// task runs, and every consumer writes only into its own bucket's output
// slots. Results are therefore bit-identical across thread counts and
// in-flight budgets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/kernel_approximator.hpp"
#include "data/point_set.hpp"
#include "linalg/dense_matrix.hpp"
#include "lsh/bucket_table.hpp"

namespace dasc {
class FaultInjector;
class MetricsRegistry;
}

namespace dasc::core {

class BucketEmbedder;

/// Per-bucket cluster-count allocation rule: K_i = max(1, ceil(K * Ni / N))
/// so the per-bucket totals track the requested global K.
std::size_t bucket_cluster_count(std::size_t global_k, std::size_t bucket_size,
                                 std::size_t total_points);

/// Pre-planned work for one bucket: everything order-sensitive (seed,
/// cluster share, label range) is fixed here, before any task executes.
struct BucketJob {
  std::size_t index = 0;         ///< bucket ordinal in the input vector
  std::uint64_t seed = 0;        ///< deterministic per-bucket RNG seed
  std::size_t k_bucket = 1;      ///< bucket_cluster_count allocation
  std::size_t label_offset = 0;  ///< first global label id for this bucket
};

/// Plan jobs for `buckets`: draws one seed per bucket from `rng` in bucket
/// order (the only RNG consumption), allocates k_bucket via
/// bucket_cluster_count against `global_k`, and assigns disjoint label
/// offsets by prefix sum. global_k == 0 yields one label per bucket.
std::vector<BucketJob> plan_bucket_jobs(const std::vector<lsh::Bucket>& buckets,
                                        std::size_t global_k,
                                        std::size_t total_points, Rng& rng);

/// Seedless variant for consumers that never draw randomness per bucket
/// (e.g. materializing blocks): all seeds are zero, offsets as above.
std::vector<BucketJob> plan_bucket_jobs(const std::vector<lsh::Bucket>& buckets,
                                        std::size_t global_k,
                                        std::size_t total_points);

/// Total global labels allocated by a job plan (sum of k_bucket).
std::size_t total_label_count(const std::vector<BucketJob>& jobs);

struct BucketPipelineOptions {
  /// Gaussian kernel bandwidth for block construction; must be positive
  /// when build_blocks is set.
  double sigma = 0.0;
  /// Worker threads (0 = host concurrency). 1 runs inline, pool-free.
  /// With more than one, each bucket runs on one pool worker, and a
  /// parallel_for inside its consumer (the K-means assignment step) runs
  /// inline on that worker: one bucket per thread, no nested fan-out.
  std::size_t threads = 0;
  /// Max Gram blocks resident at once (0 = unlimited).
  std::size_t max_inflight_blocks = 0;
  /// Max resident Gram bytes (0 = unlimited; an oversized single block is
  /// admitted alone rather than deadlocking).
  std::size_t max_inflight_bytes = 0;
  /// Out-of-core Gram spill (0 = off). When > 0, a pre-built dense block
  /// whose bytes exceed this budget is serialized to CRC-guarded spool
  /// pages (fault site `spill.page_io`, retried up to
  /// max(4, max_bucket_attempts) per page), freed — releasing its
  /// admission ticket so other buckets can run — then faulted back in and
  /// consumed. Raw double pages round-trip bit-exactly and the spill
  /// decision is a pure function of the bucket's block size, so labels
  /// are bit-identical with spilling on or off at any thread count.
  /// Factored (Nystrom / binning) and trivial buckets never pre-build a
  /// dense block and therefore never spill.
  std::size_t spill_budget_bytes = 0;
  /// Directory for spill files ("" = the system temp directory).
  std::string spill_dir;
  /// When false the consumer receives an empty matrix and no kernel is
  /// evaluated — for consumers that compute their own kernels per bucket
  /// (approximate SVM) but still want the planned seeds/offsets and the
  /// gated, pooled execution.
  bool build_blocks = true;
  /// Optional per-bucket embedder plan, parallel to the bucket vector
  /// (EmbedderSet::plan). When set, admission meters each bucket by its
  /// embedder's gram_bytes — factored backends are charged their actual
  /// O(Ni * m) footprint instead of Ni^2 — and the dense Gram block is
  /// pre-built only for buckets on the dense backend; factored buckets
  /// receive an empty matrix and build their representation inside the
  /// consumer (still under the admission ticket and the alloc.gram_block
  /// fault site). A plan also marks the trivial buckets (trivial_bucket:
  /// all-zero labels, no representation read): they take no block, no
  /// admission ticket, no fault site and no spill, and their consumer runs
  /// with an empty matrix. Empty = the historical all-dense behaviour,
  /// every block built.
  std::vector<const BucketEmbedder*> embedders;
  /// Optional metrics sink: the run reports `pipeline.gram_build` /
  /// `pipeline.consume` / `pipeline.wall` timers, bucket and AdmissionGate
  /// admission counters, and peak-byte gauges (null = off).
  MetricsRegistry* metrics = nullptr;
  /// Optional fault source (site `alloc.gram_block`, checked before each
  /// bucket attempt). Null = off.
  FaultInjector* faults = nullptr;
  /// Attempts per bucket before its error fails the run (1 = fail fast).
  /// Each re-attempt rebuilds the Gram block and re-runs the consumer; the
  /// consumer's commit must therefore be idempotent per bucket, which the
  /// disjoint-label-slot contract already guarantees. Counts
  /// `retry.bucket_attempts` per re-attempt.
  std::size_t max_bucket_attempts = 1;
};

/// Byte/timing observations from one pipeline run.
struct BucketPipelineStats {
  std::size_t buckets = 0;              ///< tasks executed
  std::size_t skipped_blocks = 0;       ///< trivial buckets given no block
  std::size_t peak_block_bytes = 0;     ///< largest single block built
  std::size_t peak_inflight_bytes = 0;  ///< high-water of resident blocks
  std::size_t total_block_bytes = 0;    ///< sum over all blocks built
  std::size_t spilled_blocks = 0;       ///< blocks evicted to disk pages
  std::size_t spilled_bytes = 0;        ///< payload bytes evicted to disk
  double build_seconds = 0.0;           ///< summed per-bucket Gram time
  double consume_seconds = 0.0;         ///< summed per-bucket consumer time
  double wall_seconds = 0.0;            ///< end-to-end run time
};

/// The one DascParams -> BucketPipelineOptions mapping: Gram bandwidth
/// `sigma`, threads, in-flight and spill budgets, metrics and fault sinks,
/// and bucket attempts. Callers add what is theirs alone (the embedder
/// plan, build_blocks).
BucketPipelineOptions pipeline_options(const DascParams& params,
                                       double sigma);

/// Per-bucket consumer. The block is handed over by value (rvalue): the
/// consumer may inspect it and let it die (streaming working set) or move
/// it out (batch materialization). It is destroyed — and its budget
/// released — when the consumer returns, unless moved out.
using BucketConsumer =
    std::function<void(linalg::DenseMatrix&& block, const lsh::Bucket& bucket,
                       const BucketJob& job)>;

/// Run `consume` once per bucket, each task doing `build Gram block (over
/// bucket.indices at options.sigma) -> consume -> discard`, on a worker
/// pool gated by the in-flight budget. Tasks may complete in any order;
/// the determinism contract above makes results order-independent.
/// A bucket that exhausts its attempts fails the run: its error is
/// rethrown (first one wins) after all tasks settle.
BucketPipelineStats run_bucket_pipeline(const data::PointSet& points,
                                        const std::vector<lsh::Bucket>& buckets,
                                        const std::vector<BucketJob>& jobs,
                                        const BucketPipelineOptions& options,
                                        const BucketConsumer& consume);

/// Fold a pipeline run's observations into the shared stats block
/// (peak bytes maximized, timings accumulated).
void fold_pipeline_stats(const BucketPipelineStats& pipeline,
                         ApproximatorStats& stats);

}  // namespace dasc::core
