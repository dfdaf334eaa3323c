// Persistent DASC model artifact: fit once, save, and serve out-of-sample
// assignment queries without recomputing from raw points.
//
// The artifact captures everything a query needs to travel the paper's
// pipeline in reverse: the fitted LSH signature spec (selected dimensions +
// histogram thresholds, Section 3.3 / Eq. 5), the merged bucket routing
// table (Eqs. 4-6), and per-bucket serving state — landmark points, the
// kernel bandwidth, the bucket's spectral eigenpairs and degrees (for a
// Nystrom-style out-of-sample embedding), and the K-means centroids in
// embedding space.
//
// Binary format (version 2, little-endian, CRC-guarded):
//   magic "DASCMDL1" | u32 version | u32 section_count
//   then per section: u32 id | u64 payload_bytes | payload | u32 crc32
// Sections (required, in order): 1 = hasher, 2 = meta, 3 = routes,
// 4 = buckets, and — since version 2 — 5 = factors (per-bucket Gram
// backend tag plus the factored serving state of the nystrom /
// rbf_binning backends). Version-1 files carry four sections and load
// with every bucket implied dense. Loads of truncated, corrupted, or
// newer-versioned files fail with dasc::IoError; save -> load -> save is
// byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/bucket_embedder.hpp"
#include "core/dasc_clusterer.hpp"
#include "core/dasc_params.hpp"
#include "data/point_set.hpp"
#include "linalg/dense_matrix.hpp"
#include "lsh/signature.hpp"

namespace dasc::serving {

/// Current artifact format version; loaders reject anything newer and
/// accept anything older (version 1 = pre-backend, all-dense).
inline constexpr std::uint32_t kFormatVersion = 2;

/// Serving state of one merged bucket.
struct BucketModel {
  /// Representative signature (largest constituent raw bucket).
  lsh::Signature signature;
  /// First global label id owned by this bucket.
  std::uint64_t label_offset = 0;
  /// Training points the bucket held at fit time (landmarks may subsample).
  std::uint64_t member_count = 0;

  /// Landmark points, one row per retained member (L x dim).
  linalg::DenseMatrix landmarks;
  /// Offline global label of each landmark.
  std::vector<std::int32_t> landmark_labels;
  /// Bucket-Gram affinity degree d_j of each landmark.
  std::vector<double> degrees;

  /// Effective cluster count (centroid rows); 0 marks the trivial path
  /// (bucket resolved to a single label, no spectral state stored).
  std::uint64_t k_eff = 0;
  /// Top-k_eff eigenvalues of the bucket's normalized Laplacian.
  std::vector<double> eigenvalues;
  /// Raw (pre-normalization) eigenvector rows at the landmarks (L x k_eff).
  linalg::DenseMatrix eigenvectors;
  /// K-means centroids in row-normalized embedding space (k_eff x k_eff).
  linalg::DenseMatrix centroids;

  /// Gram/embedding backend that fitted this bucket (version-2 artifacts;
  /// version-1 files imply kDense). Out-of-sample queries are embedded
  /// through the matching backend's factor below; the exact-landmark fast
  /// path is backend-independent.
  core::GramBackend backend = core::GramBackend::kDense;
  /// Factored serving state; populated only when `backend` is the matching
  /// approximate backend and the bucket is non-trivial (k_eff > 0).
  core::NystromFactor nystrom;
  core::BinningFactor binning;
};

/// Raw-signature routing entry: a signature observed at fit time and the
/// bucket its points went to. Sorted by (signature, bucket); a signature
/// maps to several buckets only when the balancing cap split a bucket.
struct RouteEntry {
  std::uint64_t signature = 0;
  std::uint32_t bucket = 0;

  friend bool operator==(const RouteEntry&, const RouteEntry&) = default;
};

/// A fitted, persistable DASC model.
struct ModelArtifact {
  std::uint64_t dim = 0;           ///< input dimensionality
  std::uint64_t train_points = 0;  ///< N at fit time
  std::uint64_t num_clusters = 0;  ///< total global labels
  std::uint64_t requested_k = 0;   ///< resolved global K
  std::uint64_t signature_bits = 0;  ///< M
  std::uint64_t merge_bits = 0;      ///< P
  double sigma = 0.0;                ///< Gaussian kernel bandwidth

  /// Fitted random-projection spec (Eq. 5): bit i compares input dimension
  /// hash_dims[i] against hash_thresholds[i].
  std::vector<std::uint64_t> hash_dims;
  std::vector<double> hash_thresholds;

  std::vector<RouteEntry> routes;
  std::vector<BucketModel> buckets;
};

/// Write the artifact to `path`. Throws dasc::IoError on I/O failure.
/// Output bytes are a pure function of the artifact contents.
/// `format_version` selects the on-disk layout: version 2 (the default)
/// persists the per-bucket backend tags and factors; version 1 emits the
/// legacy four-section layout and throws dasc::IoError unless every
/// bucket is dense (the factored state has no version-1 encoding).
void save_model(const ModelArtifact& model, const std::string& path,
                std::uint32_t format_version = kFormatVersion);

/// Read an artifact written by save_model. Throws dasc::IoError on missing
/// or truncated files, section CRC mismatches, bad magic, or a format
/// version newer than kFormatVersion.
ModelArtifact load_model(const std::string& path);

struct FitOptions {
  /// Landmarks retained per bucket; 0 keeps every member. Full landmarks
  /// guarantee exact training-point parity (every training query hits the
  /// identical-point fast path); subsampling trades parity for artifact
  /// size — out-of-sample queries then ride the Nystrom extension.
  std::size_t max_landmarks = 0;
};

struct FitResult {
  ModelArtifact model;
  /// The offline clustering this model was fitted from. Labels are
  /// bit-identical to dasc_cluster(points, params, rng) with the same
  /// inputs at any thread count, in-flight budget or spill budget:
  /// fit_model runs the same core::cluster_buckets step, with a hook that
  /// keeps each bucket's serving state.
  core::DascResult offline;
};

/// Fit a DASC model and capture the serving artifact in one pass.
/// Requires params.family == HashFamily::kRandomProjection (the only
/// family with a serializable signature spec).
FitResult fit_model(const data::PointSet& points,
                    const core::DascParams& params, Rng& rng,
                    const FitOptions& options = {});

}  // namespace dasc::serving
