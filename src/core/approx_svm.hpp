// Approximate kernel SVM on top of the LSH kernel approximation — the
// third downstream consumer of the paper's kernel-independent
// approximation, and the one its introduction motivates (SVM training is
// the O(N^2)-kernel bottleneck of Section 1's pedestrian example).
//
// Training: points are LSH-bucketed exactly as in DASC; each bucket trains
// a one-vs-rest RBF SVM on its own O(Ni^2) Gram block (single-class
// buckets degenerate to constant predictors). Prediction: the query is
// hashed, routed to the bucket with the nearest representative signature,
// and classified by that bucket's local model. Kernel cost drops from
// O(N^2) to O(sum Ni^2) in training and from O(N) to O(Ni) per prediction.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/dasc_params.hpp"
#include "core/kernel_approximator.hpp"
#include "data/point_set.hpp"
#include "svm/rbf_classifier.hpp"

namespace dasc::core {

struct ApproxSvmParams {
  DascParams dasc;
  svm::RbfClassifierParams classifier;
};

class ApproxSvm {
 public:
  /// Train on labelled points. Only the random-projection family routes
  /// queries (the fitted hasher must be storable), matching the MapReduce
  /// pipeline's constraint.
  static ApproxSvm train(const data::PointSet& points,
                         const ApproxSvmParams& params, Rng& rng);

  /// Predict a label for a query point (training dimensionality).
  int predict(std::span<const double> point) const;

  /// Fraction of labelled `points` predicted correctly.
  double accuracy(const data::PointSet& points) const;

  std::size_t num_buckets() const { return buckets_.size(); }
  const ApproximatorStats& stats() const { return stats_; }

  /// Kernel bytes across all local models (vs one N^2 model).
  std::size_t gram_bytes() const { return stats_.gram_bytes; }

 private:
  struct LocalModel {
    lsh::Signature signature;
    std::size_t size = 0;
    /// Bucket centroid: tie-breaker when balanced-split children share
    /// the parent signature.
    std::vector<double> centroid;
    /// Single-class buckets carry the class here instead of a model.
    std::optional<int> constant_label;
    std::optional<svm::RbfClassifier> classifier;
  };

  std::size_t route(lsh::Signature sig,
                    std::span<const double> point) const;

  std::unique_ptr<lsh::LshHasher> hasher_;
  std::vector<LocalModel> buckets_;
  ApproximatorStats stats_;
};

}  // namespace dasc::core
