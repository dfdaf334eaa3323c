// Pluggable per-bucket Gram/embedding backends behind one interface.
//
// The per-bucket stage "Gram -> degrees -> eigenvectors -> spectral
// embedding -> K-means" is the memory ceiling of the whole pipeline: the
// dense-exact path stores O(Ni^2) kernel entries per bucket (paper Eq. 12)
// even after panelization. A BucketEmbedder abstracts that stage so the
// representation can be swapped per bucket:
//
//   dense        exact dense Gram block + the Jacobi/Lanczos eigensolve —
//                byte-for-byte the historical code path;
//   nystrom      landmark factorization K ~= F F^T with F = C P,
//                P = U_kept Lambda_kept^{-1/2} of the landmark block W
//                (Williams & Seeger; clustering::nystrom_factor, the one
//                factorization the low-rank comparator and the NYST
//                baseline also use);
//   rbf_binning  random binning feature map (Rahimi & Recht; Wu et al.,
//                "Scalable Spectral Clustering Using Random Binning
//                Features"): K ~= Z Z^T for a sparse one-hot-per-grid
//                feature matrix Z hashed into D columns.
//
// Both factored backends share one spectral path with the NYST baseline,
// clustering::factored_spectral: with representation F (n x r), degrees
// d = F (F^T 1), G = D^{-1/2} F, the top-k eigenvectors of the normalized
// affinity G G^T are recovered from the r x r eigenproblem
// G^T G = V L V^T as U = G V L^{-1/2} — O(n r) space instead of O(n^2).
// (Factored backends keep the Gram diagonal in the degrees; the dense path
// zeroes it per NJW. The deviation vanishes as buckets grow and is covered
// by the accuracy harness.)
//
// Backend selection is a per-bucket policy (DascParams::gram_backend +
// backend_threshold, resolved by EmbedderSet); every backend reports the
// Eq. 12 byte gauges through the same accounting helpers and rides the
// bucket pipeline's admission gate and alloc.gram_block fault site.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "clustering/spectral.hpp"
#include "common/rng.hpp"
#include "core/dasc_params.hpp"
#include "data/point_set.hpp"
#include "linalg/dense_matrix.hpp"
#include "lsh/bucket_table.hpp"

namespace dasc::core {

/// Serving-side state of a Nystrom-fitted bucket: a query's embedding is
///   c = kernel(q, anchors),  d_q = c . dvec,  u = (c . map) / sqrt(d_q),
/// then row-normalize and take the nearest centroid.
struct NystromFactor {
  linalg::DenseMatrix anchors;  ///< m x dim landmark points
  linalg::DenseMatrix map;      ///< m x k_eff kernel-row -> embedding map
  std::vector<double> dvec;     ///< m degree weights (d_q = c . dvec)
};

/// Serving-side state of a random-binning-fitted bucket. The query's
/// sparse feature vector z (R entries of 1/sqrt(R) at hashed grid cells)
/// plays the role of the kernel row: d_q = z . dvec, u = (z . map) /
/// sqrt(d_q).
struct BinningFactor {
  linalg::DenseMatrix widths;   ///< R x dim grid pitches
  linalg::DenseMatrix shifts;   ///< R x dim grid offsets in [0, width)
  std::uint64_t hash_seed = 0;  ///< seed of the cell -> column hash
  std::uint64_t features = 0;   ///< hashed feature count D
  linalg::DenseMatrix map;      ///< D x k_eff feature -> embedding map
  std::vector<double> dvec;     ///< D degree weights
};

/// Everything one bucket's embedding stage produces: the fitted spectral
/// state (identical layout to the dense path), the backend that produced
/// it, the actual representation footprint, and — when requested — the
/// serving factor a model artifact persists.
struct BucketEmbedding {
  GramBackend backend = GramBackend::kDense;
  /// Eq. 12 bytes the backend's representation occupied for this bucket.
  std::size_t gram_bytes = 0;
  /// Labels, effective k, raw eigenpairs/degrees, and K-means centroids.
  clustering::SpectralGramDetail fit;
  /// Factored serving state; empty for dense or trivial buckets and
  /// unless want_factor was set.
  NystromFactor nystrom;
  BinningFactor binning;
};

/// Tuning shared by every backend, resolved once per run.
struct EmbedderOptions {
  double sigma = 1.0;              ///< Gaussian kernel bandwidth (> 0)
  std::size_t dense_cutoff = 128;  ///< dense vs Lanczos eigensolver switch
  std::size_t nystrom_landmarks = 0;   ///< 0 = auto rule
  std::size_t binning_features = 0;    ///< 0 = auto rule
  std::size_t binning_repetitions = 8;
  MetricsRegistry* metrics = nullptr;
};

/// One per-bucket Gram/embedding backend. Implementations are immutable
/// after construction and safe to share across pipeline worker threads.
class BucketEmbedder {
 public:
  virtual ~BucketEmbedder() = default;

  virtual GramBackend backend() const = 0;

  /// Eq. 12 byte accounting for a bucket of `n` points: the bytes this
  /// backend's Gram representation materializes while fitting. The bucket
  /// pipeline's admission budget meters tasks by this value, so factored
  /// backends are charged their actual footprint, not n^2.
  virtual std::size_t gram_bytes(std::size_t n, std::size_t dim) const = 0;

  /// Fit one bucket end-to-end: build the representation, derive degrees
  /// and the top-k_bucket eigenvectors, row-normalize, K-means. All
  /// randomness (landmark sampling, binning grids, K-means seeding) comes
  /// from `rng`, so a re-run with the same seed is bit-identical — the
  /// contract the pipeline's retry path and the chaos gates rely on.
  /// `want_factor` additionally captures the serving factor (fit_model).
  virtual BucketEmbedding fit(const data::PointSet& points,
                              std::span<const std::size_t> indices,
                              std::size_t k_bucket, Rng& rng,
                              bool want_factor = false) const = 0;

  /// fit() variant for pipeline consumers: when the pipeline pre-built the
  /// bucket's dense Gram block, the dense backend consumes it (preserving
  /// the historical build/consume split byte-for-byte); factored backends
  /// ignore `block` — it arrives empty for them, as it does for a
  /// trivial_bucket on any backend.
  virtual BucketEmbedding fit_with_block(const data::PointSet& points,
                                         std::span<const std::size_t> indices,
                                         std::size_t k_bucket, Rng& rng,
                                         bool want_factor,
                                         linalg::DenseMatrix&& block) const;

  /// The single Eq. 12 accounting rule every Gram representation routes
  /// through (BlockGram, LowRankGram, pipeline admission, stats): a dense
  /// n x n block stores n^2 entries; a factored representation stores its
  /// n x rank factor. The factored backends' gram_bytes charge
  /// factor_bytes(n, rank) + dense_bytes(rank) — the factor plus the
  /// rank x rank core block they materialize while fitting.
  static constexpr std::size_t dense_bytes(std::size_t n) {
    return linalg::gram_entry_bytes(n * n);
  }
  static constexpr std::size_t factor_bytes(std::size_t n, std::size_t rank) {
    return linalg::gram_entry_bytes(n * rank);
  }
};

/// True for the buckets every backend labels trivially: all-zero labels,
/// no spectral state, no Gram representation read. The one rule behind
/// the bucket pipeline's block skip and all three backends, so neither
/// backend choice nor the skip changes which buckets produce spectral
/// state.
inline bool trivial_bucket(std::size_t n, std::size_t k_bucket) {
  return n == 0 || k_bucket <= 1 || n <= 2;
}

/// Construct a backend. kDense reproduces the historical per-bucket path
/// exactly; see the class comment for the factored backends.
std::unique_ptr<BucketEmbedder> make_bucket_embedder(
    GramBackend backend, const EmbedderOptions& options);

/// Resolve the policy for one bucket: fixed policies map directly; kAuto
/// is dense below `threshold` points and Nystrom at or above it.
GramBackend select_backend(GramBackendPolicy policy, std::size_t bucket_size,
                           std::size_t threshold);

/// The auto rank rule shared by the Nystrom landmark count and the
/// binning feature count: clamp(4 * ceil(sqrt(n)), 16, n).
std::size_t auto_backend_rank(std::size_t n);

/// Random-binning feature columns of one point: R hashed grid-cell
/// indices in [0, features), one per repetition (each carrying weight
/// 1/sqrt(R)). Shared by the embedder (training rows) and the serving
/// Assigner (query embedding) so both sides bin identically.
void binning_feature_indices(std::span<const double> x,
                             const linalg::DenseMatrix& widths,
                             const linalg::DenseMatrix& shifts,
                             std::uint64_t hash_seed, std::size_t features,
                             std::vector<std::size_t>& out);

/// A run's resolved backend policy: one embedder per backend, selected per
/// bucket by size. Selection is deterministic and counted into the
/// `backend.selected_{dense,nystrom,rbf_binning}` metrics counters.
class EmbedderSet {
 public:
  EmbedderSet(const DascParams& params, double sigma);

  const BucketEmbedder& embedder_for(std::size_t bucket_size) const;

  /// Per-bucket embedder pointers parallel to `buckets` (the pipeline's
  /// BucketPipelineOptions::embedders), counting each selection.
  std::vector<const BucketEmbedder*> plan(
      const std::vector<lsh::Bucket>& buckets) const;

  /// Summed gram_bytes over `buckets` under this policy — the Eq. 12
  /// stats/gauge value (equals the historical sum Ni^2 accounting when
  /// every bucket selects dense).
  std::size_t total_gram_bytes(const std::vector<lsh::Bucket>& buckets,
                               std::size_t dim) const;

 private:
  GramBackendPolicy policy_;
  std::size_t threshold_;
  MetricsRegistry* metrics_;
  std::unique_ptr<BucketEmbedder> dense_;
  std::unique_ptr<BucketEmbedder> nystrom_;
  std::unique_ptr<BucketEmbedder> binning_;
};

}  // namespace dasc::core
