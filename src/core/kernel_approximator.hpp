// The paper's primary contribution: LSH-based approximation of the kernel
// (Gram) matrix (Section 3, steps 1-3).
//
// Points are hashed to M-bit signatures, grouped into buckets (merging
// near-duplicate signatures), and the Gaussian kernel is evaluated only
// within buckets. The result is a block-diagonal approximation of the full
// N x N Gram matrix costing O(sum Ni^2) instead of O(N^2) in both time and
// space. The approximation is independent of the downstream kernel method;
// DascClusterer is one consumer, and any kernel algorithm that accepts a
// Gram matrix can process the blocks independently.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/dasc_params.hpp"
#include "data/point_set.hpp"
#include "linalg/dense_matrix.hpp"
#include "lsh/bucket_table.hpp"

namespace dasc::core {

/// Block-diagonal approximated Gram matrix: one dense block per bucket.
class BlockGram {
 public:
  BlockGram(std::vector<lsh::Bucket> buckets,
            std::vector<linalg::DenseMatrix> blocks, std::size_t n);

  std::size_t num_blocks() const { return buckets_.size(); }
  /// Total number of points N.
  std::size_t num_points() const { return n_; }

  const lsh::Bucket& bucket(std::size_t b) const;
  const linalg::DenseMatrix& block(std::size_t b) const;

  /// Stored kernel entries (sum Ni^2).
  std::size_t stored_entries() const;

  /// The paper's memory metric (Eq. 12) at the precision blocks are
  /// actually stored in. Routed through BucketEmbedder::dense_bytes — the
  /// one accounting rule shared with LowRankGram and pipeline admission.
  std::size_t gram_bytes() const;

  /// Frobenius norm over stored blocks; equals the Frobenius norm of the
  /// implied N x N block-diagonal matrix (absent entries are zero).
  double frobenius_norm() const;

  /// Materialize the implied N x N matrix (tests / Fnorm comparisons only).
  linalg::DenseMatrix to_dense() const;

 private:
  std::vector<lsh::Bucket> buckets_;
  std::vector<linalg::DenseMatrix> blocks_;
  std::size_t n_ = 0;
};

/// Bucketing/approximation statistics surfaced to benchmarks.
struct ApproximatorStats {
  std::size_t signature_bits = 0;   ///< resolved M
  std::size_t merge_bits = 0;       ///< resolved P
  std::size_t raw_buckets = 0;      ///< unique signatures T
  std::size_t merged_buckets = 0;   ///< buckets after P-bit merging
  std::size_t largest_bucket = 0;
  /// Approximated Gram storage (Eq. 12 metric at actual element bytes).
  std::size_t gram_bytes = 0;
  /// N^2 entries at the same element size, for comparison.
  std::size_t full_gram_bytes = 0;
  double fill_ratio = 0.0;  ///< stored entries / N^2
  double hash_seconds = 0.0;
  double gram_seconds = 0.0;  ///< summed per-bucket Gram-block build time

  // Bucket-pipeline observations (zero when no pipeline ran).
  std::size_t peak_block_bytes = 0;     ///< largest single Gram block built
  std::size_t peak_inflight_bytes = 0;  ///< high-water of resident blocks
  double consume_seconds = 0.0;         ///< summed per-bucket consumer time
};

/// Steps 1-3 of DASC: hash, bucket/merge, per-bucket Gram matrices.
/// The kernel is Gaussian with params.sigma (auto when 0).
BlockGram approximate_kernel(const data::PointSet& points,
                             const DascParams& params, Rng& rng,
                             ApproximatorStats* stats = nullptr);

/// Steps 1-2 only: the bucketing, without materializing kernel blocks.
/// Useful for consumers that stream blocks (and for Fig. 5's bucket sweep).
/// Applies the params.max_bucket_points balancing cap when set. With
/// `hasher_out`, the fitted LSH hasher is handed to the caller (the serving
/// subsystem persists its parameters and the approximate SVM routes with
/// it, both to re-hash unseen query points); the RNG stream is identical
/// either way.
std::vector<lsh::Bucket> bucket_points(
    const data::PointSet& points, const DascParams& params, Rng& rng,
    ApproximatorStats* stats = nullptr,
    std::unique_ptr<lsh::LshHasher>* hasher_out = nullptr);

/// Step 2 over an already-hashed table: merge buckets sharing >= P bits
/// (P resolved against the table's M), apply the params.max_bucket_points
/// balancing cap, and record the bucketing stats (dense Eq. 12 bytes;
/// hash_seconds is left to the caller). The one definition behind
/// bucket_points and the MapReduce driver's between-stage merge.
std::vector<lsh::Bucket> merge_buckets(const data::PointSet& points,
                                       const lsh::BucketTable& table,
                                       const DascParams& params,
                                       ApproximatorStats* stats = nullptr);

/// Data-dependent rebalancing (paper Section 5.1): recursively split every
/// bucket larger than `max_points` at the median of its widest dimension
/// (members tied at a minimum median go left), keeping a bucket whole only
/// when its members coincide on every dimension. Children inherit the
/// parent's signature. Preserves the partition. Buckets split in parallel
/// on `threads` (0 = host concurrency); the output, largest first with
/// ties in a fixed order, is the same for every thread count.
std::vector<lsh::Bucket> balance_buckets(const data::PointSet& points,
                                         std::vector<lsh::Bucket> buckets,
                                         std::size_t max_points,
                                         std::size_t threads = 0);

}  // namespace dasc::core
