#include "serving/assigner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "clustering/kernel.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/bucket_embedder.hpp"
#include "linalg/vector_ops.hpp"

namespace dasc::serving {

namespace {

// Eigenvalues below this are treated as a null direction of the Nystrom
// extension rather than divided through.
constexpr double kEigenvalueFloor = 1e-12;

/// Out-of-sample embedding through a bucket's persisted backend factor:
/// build the query's representation row f (kernel row against the anchors,
/// or the binning feature vector), then u = (f . map) / sqrt(f . dvec) —
/// the identical formula the training-side factored solve applied to its
/// own rows. Returns false when the factor gives the query zero degree
/// (caller falls back to the nearest landmark).
bool factor_embedding(const BucketModel& bucket, std::span<const double> query,
                      double sigma, std::vector<double>& embedding) {
  const std::size_t k = bucket.k_eff;
  double query_degree = 0.0;
  embedding.assign(k, 0.0);
  if (bucket.backend == core::GramBackend::kNystrom) {
    const core::NystromFactor& f = bucket.nystrom;
    const std::size_t anchors = f.anchors.rows();
    for (std::size_t j = 0; j < anchors; ++j) {
      const double affinity =
          clustering::gaussian_kernel(query, f.anchors.row(j), sigma);
      query_degree += affinity * f.dvec[j];
      for (std::size_t col = 0; col < k; ++col) {
        embedding[col] += affinity * f.map(j, col);
      }
    }
  } else {
    const core::BinningFactor& f = bucket.binning;
    std::vector<std::size_t> cols;
    core::binning_feature_indices(query, f.widths, f.shifts, f.hash_seed,
                                  f.features, cols);
    const double weight =
        1.0 / std::sqrt(static_cast<double>(f.widths.rows()));
    for (const std::size_t feature : cols) {
      query_degree += weight * f.dvec[feature];
      for (std::size_t col = 0; col < k; ++col) {
        embedding[col] += weight * f.map(feature, col);
      }
    }
  }
  if (!(query_degree > 0.0)) return false;
  const double inv_sqrt_degree = 1.0 / std::sqrt(query_degree);
  for (double& v : embedding) v *= inv_sqrt_degree;
  const double norm = linalg::norm2(embedding);
  if (norm > 0.0) {
    for (double& v : embedding) v /= norm;
  }
  return true;
}

}  // namespace

Assigner::Assigner(ModelArtifact model)
    : model_(std::move(model)),
      hasher_(std::vector<std::size_t>(model_.hash_dims.begin(),
                                       model_.hash_dims.end()),
              model_.hash_thresholds, model_.dim) {
  DASC_EXPECT(!model_.buckets.empty(), "Assigner: model has no buckets");
  DASC_EXPECT(model_.sigma > 0.0, "Assigner: model sigma must be positive");
  // save_model emits routes sorted, but hand-built artifacts may not be.
  std::sort(model_.routes.begin(), model_.routes.end(),
            [](const RouteEntry& a, const RouteEntry& b) {
              return a.signature != b.signature ? a.signature < b.signature
                                                : a.bucket < b.bucket;
            });
  for (const RouteEntry& route : model_.routes) {
    DASC_EXPECT(route.bucket < model_.buckets.size(),
                "Assigner: route entry points past the bucket table");
  }
  centroid_panels_.reserve(model_.buckets.size());
  for (const BucketModel& bucket : model_.buckets) {
    centroid_panels_.emplace_back(bucket.centroids.data(),
                                  bucket.centroids.rows(),
                                  bucket.centroids.cols());
  }
}

std::size_t Assigner::nearest_centroid(
    std::uint32_t b, std::span<const double> embedding) const {
  // Centroids are scanned in ascending order with a strict improvement
  // test, so ties resolve to the lowest centroid deterministically.
  const linalg::DistancePanel& panel = centroid_panels_[b];
  DASC_EXPECT(panel.size() == 0 || embedding.size() == panel.dim(),
              "Assigner: embedding and centroid dimensionality differ");
  return panel.nearest(embedding.data());
}

std::vector<std::uint32_t> Assigner::candidate_buckets(std::uint64_t signature,
                                                       RoutePath* route) const {
  const auto& routes = model_.routes;
  auto gather = [&routes](std::uint64_t sig, std::vector<std::uint32_t>* out) {
    auto it = std::lower_bound(routes.begin(), routes.end(), sig,
                               [](const RouteEntry& e, std::uint64_t value) {
                                 return e.signature < value;
                               });
    for (; it != routes.end() && it->signature == sig; ++it) {
      out->push_back(it->bucket);
    }
  };

  std::vector<std::uint32_t> candidates;
  gather(signature, &candidates);
  if (!candidates.empty()) {
    *route = RoutePath::kExact;
    return candidates;
  }

  // Eq. 6 fallback: accept buckets whose fitted signatures differ from the
  // query's in exactly one bit.
  for (std::size_t bit = 0; bit < model_.signature_bits; ++bit) {
    gather(signature ^ (std::uint64_t{1} << bit), &candidates);
  }
  if (!candidates.empty()) {
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    *route = RoutePath::kHamming;
    return candidates;
  }

  // Last resort: every bucket at minimum Hamming distance from the query's
  // signature to its representative signature.
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (std::size_t b = 0; b < model_.buckets.size(); ++b) {
    const std::size_t dist = lsh::hamming_distance(
        lsh::Signature{signature}, model_.buckets[b].signature);
    if (dist < best) {
      best = dist;
      candidates.clear();
    }
    if (dist == best) candidates.push_back(static_cast<std::uint32_t>(b));
  }
  *route = RoutePath::kScan;
  return candidates;
}

AssignOutcome Assigner::assign_detailed(std::span<const double> query) const {
  DASC_EXPECT(query.size() == model_.dim,
              "Assigner: query dimensionality mismatch");
  AssignOutcome out;
  const std::uint64_t signature = hasher_.hash(query).bits;
  const std::vector<std::uint32_t> candidates =
      candidate_buckets(signature, &out.route);
  DASC_ENSURE(!candidates.empty(), "Assigner: routing found no bucket");

  // Nearest stored landmark across the candidates. Candidates and landmarks
  // are visited in ascending order with a strict improvement test, so ties
  // resolve to the lowest (bucket, landmark) pair deterministically.
  double best_dist = std::numeric_limits<double>::infinity();
  std::uint32_t best_bucket = candidates.front();
  std::size_t best_landmark = 0;
  for (std::uint32_t b : candidates) {
    const BucketModel& bucket = model_.buckets[b];
    for (std::size_t j = 0; j < bucket.landmarks.rows(); ++j) {
      const double dist =
          linalg::squared_distance(query, bucket.landmarks.row(j));
      if (dist < best_dist) {
        best_dist = dist;
        best_bucket = b;
        best_landmark = j;
      }
    }
  }
  out.bucket = best_bucket;
  const BucketModel& bucket = model_.buckets[best_bucket];

  if (best_dist == 0.0) {
    // The query is a stored training point: reuse its offline label. This
    // is what makes served training labels bit-identical to the offline
    // pipeline (nearest-centroid alone cannot guarantee that, since Lloyd
    // labels predate the final centroid update).
    out.path = AssignPath::kExactLandmark;
    out.label = bucket.landmark_labels[best_landmark];
    return out;
  }

  if (bucket.k_eff == 0) {
    // Trivial bucket: every member got the same label.
    out.path = AssignPath::kNearestLandmark;
    out.label = bucket.landmark_labels[best_landmark];
    return out;
  }

  if (bucket.backend != core::GramBackend::kDense &&
      (bucket.nystrom.map.rows() > 0 || bucket.binning.map.rows() > 0)) {
    // The bucket was fitted by an approximate backend: embed the query
    // through the persisted factor — the same map its training rows used.
    std::vector<double> embedding;
    if (!factor_embedding(bucket, query, model_.sigma, embedding)) {
      out.path = AssignPath::kNearestLandmark;
      out.label = bucket.landmark_labels[best_landmark];
      return out;
    }
    out.path = AssignPath::kFactor;
    out.label = static_cast<int>(bucket.label_offset +
                                 nearest_centroid(best_bucket, embedding));
    return out;
  }

  // Nystrom out-of-sample extension (NJW normalization):
  //   v_k(q) = (1/lambda_k) sum_j k(q, x_j) / sqrt(d_q d_j) V_jk,
  // with d_q the query's affinity degree against the landmarks, rescaled
  // when landmarks subsample the bucket.
  const std::size_t num_landmarks = bucket.landmarks.rows();
  std::vector<double> affinity(num_landmarks);
  double query_degree = 0.0;
  for (std::size_t j = 0; j < num_landmarks; ++j) {
    affinity[j] = clustering::gaussian_kernel(query, bucket.landmarks.row(j),
                                              model_.sigma);
    query_degree += affinity[j];
  }
  if (num_landmarks < bucket.member_count) {
    query_degree *= static_cast<double>(bucket.member_count) /
                    static_cast<double>(num_landmarks);
  }
  if (!(query_degree > 0.0)) {
    out.path = AssignPath::kNearestLandmark;
    out.label = bucket.landmark_labels[best_landmark];
    return out;
  }

  const std::size_t k = bucket.k_eff;
  std::vector<double> embedding(k, 0.0);
  for (std::size_t col = 0; col < k; ++col) {
    const double lambda = bucket.eigenvalues[col];
    if (std::abs(lambda) < kEigenvalueFloor) continue;
    double acc = 0.0;
    for (std::size_t j = 0; j < num_landmarks; ++j) {
      const double degree = bucket.degrees[j];
      if (!(degree > 0.0)) continue;
      acc += affinity[j] / std::sqrt(query_degree * degree) *
             bucket.eigenvectors(j, col);
    }
    embedding[col] = acc / lambda;
  }
  const double norm = linalg::norm2(embedding);
  if (norm > 0.0) {
    for (double& v : embedding) v /= norm;
  }

  out.path = AssignPath::kNystrom;
  out.label = static_cast<int>(bucket.label_offset +
                               nearest_centroid(best_bucket, embedding));
  return out;
}

int Assigner::assign(std::span<const double> query) const {
  return assign_detailed(query).label;
}

std::vector<int> Assigner::assign_batch(const data::PointSet& queries,
                                        std::size_t threads) const {
  std::vector<int> labels(queries.size(), 0);
  parallel_for(0, queries.size(), threads,
               [&](std::size_t i) { labels[i] = assign(queries.point(i)); });
  return labels;
}

}  // namespace dasc::serving
