#include "core/approx_svm.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "core/bucket_pipeline.hpp"

namespace dasc::core {

ApproxSvm ApproxSvm::train(const data::PointSet& points,
                           const ApproxSvmParams& params, Rng& rng) {
  DASC_EXPECT(!points.empty(), "ApproxSvm: empty dataset");
  DASC_EXPECT(points.has_labels(), "ApproxSvm: points must be labelled");
  DASC_EXPECT(params.dasc.family == HashFamily::kRandomProjection,
              "ApproxSvm: only random projection supports query routing");

  ApproxSvm model;
  // Keep the fitted hasher so query routing uses the exact signatures the
  // buckets were formed from.
  const std::vector<lsh::Bucket> buckets = bucket_points(
      points, params.dasc, rng, &model.stats_, &model.hasher_);

  // Per-bucket training rides the shared bucket pipeline: seeds are drawn
  // up front (so training is deterministic at any thread count), each
  // bucket's local model trains as an independent gated task, and the RBF
  // classifier evaluates its own Gram internally (build_blocks off).
  const std::vector<BucketJob> jobs =
      plan_bucket_jobs(buckets, 0, points.size(), rng);
  model.buckets_.resize(buckets.size());

  // No blocks are built, so no bandwidth is needed.
  BucketPipelineOptions options = pipeline_options(params.dasc, 0.0);
  options.build_blocks = false;
  const BucketPipelineStats pipeline = run_bucket_pipeline(
      points, buckets, jobs, options,
      [&](linalg::DenseMatrix&& /*block*/, const lsh::Bucket& bucket,
          const BucketJob& job) {
        LocalModel local;
        local.signature = bucket.signature;
        local.size = bucket.indices.size();

        const data::PointSet subset = points.subset(bucket.indices);
        local.centroid.assign(points.dim(), 0.0);
        for (std::size_t i = 0; i < subset.size(); ++i) {
          const auto p = subset.point(i);
          for (std::size_t d = 0; d < points.dim(); ++d) {
            local.centroid[d] += p[d];
          }
        }
        for (double& v : local.centroid) {
          v /= static_cast<double>(subset.size());
        }
        bool single_class = true;
        for (std::size_t i = 1; i < subset.size(); ++i) {
          if (subset.label(i) != subset.label(0)) {
            single_class = false;
            break;
          }
        }
        if (single_class || subset.size() < 4) {
          // Too small / degenerate for SVM training: majority vote.
          std::vector<std::pair<int, int>> counts;
          for (std::size_t i = 0; i < subset.size(); ++i) {
            auto it = std::find_if(counts.begin(), counts.end(),
                                   [&](const auto& entry) {
                                     return entry.first == subset.label(i);
                                   });
            if (it == counts.end()) {
              counts.emplace_back(subset.label(i), 1);
            } else {
              ++it->second;
            }
          }
          local.constant_label =
              std::max_element(counts.begin(), counts.end(),
                               [](const auto& a, const auto& b) {
                                 return a.second < b.second;
                               })
                  ->first;
        } else {
          Rng bucket_rng(job.seed);
          local.classifier = svm::RbfClassifier::train(
              subset, params.classifier, bucket_rng);
        }
        model.buckets_[job.index] = std::move(local);
      });
  fold_pipeline_stats(pipeline, model.stats_);

  std::size_t entries = 0;
  for (const auto& local : model.buckets_) {
    if (local.classifier.has_value()) entries += local.size * local.size;
  }
  model.stats_.gram_bytes = linalg::gram_entry_bytes(entries);
  model.stats_.fill_ratio =
      static_cast<double>(entries) /
      (static_cast<double>(points.size()) *
       static_cast<double>(points.size()));
  return model;
}

std::size_t ApproxSvm::route(lsh::Signature sig,
                             std::span<const double> point) const {
  DASC_ENSURE(!buckets_.empty(), "ApproxSvm: no buckets");
  std::size_t best = 0;
  std::size_t best_distance = lsh::kMaxSignatureBits + 1;
  double best_centroid_d2 = std::numeric_limits<double>::infinity();
  // Minimum Hamming distance first; ties (notably balanced-split children
  // sharing the parent signature) break by nearest bucket centroid.
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::size_t distance =
        lsh::hamming_distance(sig, buckets_[b].signature);
    if (distance > best_distance) continue;
    double d2 = 0.0;
    for (std::size_t d = 0; d < point.size(); ++d) {
      const double delta = point[d] - buckets_[b].centroid[d];
      d2 += delta * delta;
    }
    if (distance < best_distance || d2 < best_centroid_d2) {
      best_distance = distance;
      best_centroid_d2 = d2;
      best = b;
    }
  }
  return best;
}

int ApproxSvm::predict(std::span<const double> point) const {
  const std::size_t b = route(hasher_->hash(point), point);
  const LocalModel& local = buckets_[b];
  if (local.constant_label.has_value()) return *local.constant_label;
  return local.classifier->predict(point);
}

double ApproxSvm::accuracy(const data::PointSet& points) const {
  DASC_EXPECT(points.has_labels(), "accuracy: points must be labelled");
  DASC_EXPECT(!points.empty(), "accuracy: empty dataset");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (predict(points.point(i)) == points.label(i)) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(points.size());
}

}  // namespace dasc::core
