// Out-of-sample assignment against a persisted DASC model.
//
// A query travels the fitted pipeline forward: hash to an M-bit signature
// (Eq. 5), route to a merged bucket (exact raw-signature hit, then the
// Eq. 6 one-bit Hamming fallback, then a full scan by signature distance),
// embed against the bucket's landmarks with a Nystrom-style out-of-sample
// extension, and take the nearest K-means centroid in embedding space.
//
// Training points short-circuit: a query identical to a stored landmark
// returns that landmark's offline label directly, which (with full
// landmarks, FitOptions::max_landmarks == 0) makes served labels
// bit-identical to the offline pipeline for every training point —
// independent of the bucket's Gram backend.
//
// Buckets fitted by an approximate backend (core/bucket_embedder.hpp)
// carry that backend's factor in the artifact, and out-of-sample queries
// are embedded through it (AssignPath::kFactor): the same landmark-kernel
// or random-binning feature map the training embedding used, so serving
// and training share one geometry per backend.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/point_set.hpp"
#include "linalg/distance_panel.hpp"
#include "lsh/random_projection.hpp"
#include "serving/model_artifact.hpp"

namespace dasc::serving {

/// How a query found its bucket.
enum class RoutePath : std::uint8_t {
  kExact = 0,    ///< raw signature seen at fit time
  kHamming = 1,  ///< matched after flipping one signature bit (Eq. 6)
  kScan = 2,     ///< full scan by Hamming distance to bucket signatures
};

/// How the label was produced inside the bucket.
enum class AssignPath : std::uint8_t {
  kExactLandmark = 0,    ///< query coincides with a stored landmark
  kNystrom = 1,          ///< Nystrom embedding + nearest centroid
  kNearestLandmark = 2,  ///< degenerate bucket (trivial k or zero degree)
  kFactor = 3,           ///< bucket's persisted backend factor (nystrom /
                         ///< rbf_binning) + nearest centroid
};

/// Full provenance of one assignment.
struct AssignOutcome {
  int label = 0;
  std::uint32_t bucket = 0;
  RoutePath route = RoutePath::kExact;
  AssignPath path = AssignPath::kNystrom;
};

/// Deterministic query-to-cluster assigner over a loaded model. All methods
/// are const and safe to call from many threads concurrently.
class Assigner {
 public:
  explicit Assigner(ModelArtifact model);
  // centroid_panels_ borrows the centroid rows of model_.
  Assigner(const Assigner&) = delete;
  Assigner& operator=(const Assigner&) = delete;

  const ModelArtifact& model() const { return model_; }
  std::size_t dim() const { return model_.dim; }
  std::size_t num_clusters() const { return model_.num_clusters; }

  /// Assign one query point to a cluster label.
  int assign(std::span<const double> query) const;

  /// Assignment with routing/embedding provenance (tests, diagnostics).
  AssignOutcome assign_detailed(std::span<const double> query) const;

  /// Assign every point of `queries`; `threads` parallelizes the loop
  /// (0 = hardware default). Labels are independent of the thread count.
  std::vector<int> assign_batch(const data::PointSet& queries,
                                std::size_t threads = 1) const;

 private:
  std::vector<std::uint32_t> candidate_buckets(std::uint64_t signature,
                                               RoutePath* route) const;

  /// Nearest centroid of bucket `b` to an embedding-space point.
  std::size_t nearest_centroid(std::uint32_t b,
                               std::span<const double> embedding) const;

  ModelArtifact model_;
  lsh::RandomProjectionHasher hasher_;
  // Sorted routes are searched by (signature) range; kept from the model.
  /// Per bucket, its centroids held dimension-major for the panel kernel.
  std::vector<linalg::DistancePanel> centroid_panels_;
};

}  // namespace dasc::serving
