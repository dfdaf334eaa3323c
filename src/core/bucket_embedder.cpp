#include "core/bucket_embedder.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "clustering/kernel.hpp"
#include "clustering/spectral.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "core/dasc_clusterer.hpp"

namespace dasc::core {
namespace {

/// FNV-1a 64-bit absorb, the binning grid's cell -> column hash. Chosen
/// for the same reason the artifact layer fixes CRC32: stable bytes on
/// every platform, so a saved model bins queries exactly like training.
std::uint64_t fnv1a64(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

BucketEmbedding trivial_embedding(GramBackend backend, std::size_t n) {
  BucketEmbedding out;
  out.backend = backend;
  out.fit.labels.assign(n, 0);
  return out;
}

// ---------------------------------------------------------------------------
// dense — the historical BlockGram + Jacobi/Lanczos path, byte-for-byte.

class DenseEmbedder final : public BucketEmbedder {
 public:
  explicit DenseEmbedder(const EmbedderOptions& options)
      : options_(options) {}

  GramBackend backend() const override { return GramBackend::kDense; }

  std::size_t gram_bytes(std::size_t n, std::size_t /*dim*/) const override {
    return dense_bytes(n);
  }

  BucketEmbedding fit(const data::PointSet& points,
                      std::span<const std::size_t> indices,
                      std::size_t k_bucket, Rng& rng,
                      bool want_factor) const override {
    linalg::DenseMatrix block = clustering::gaussian_gram_subset(
        points, indices, options_.sigma, options_.metrics);
    return fit_with_block(points, indices, k_bucket, rng, want_factor,
                          std::move(block));
  }

  BucketEmbedding fit_with_block(const data::PointSet& /*points*/,
                                 std::span<const std::size_t> indices,
                                 std::size_t k_bucket, Rng& rng,
                                 bool /*want_factor*/,
                                 linalg::DenseMatrix&& block) const override {
    // Triviality follows the bucket, not the block: the pipeline hands a
    // trivial bucket an empty block.
    const std::size_t n = indices.size();
    BucketEmbedding out = trivial_embedding(GramBackend::kDense, n);
    out.gram_bytes = dense_bytes(n);
    if (!trivial_bucket(n, k_bucket)) {
      out.fit = fit_bucket(std::move(block), k_bucket, options_.dense_cutoff,
                           rng, options_.metrics);
    }
    return out;
  }

 private:
  EmbedderOptions options_;
};

// ---------------------------------------------------------------------------
// nystrom — landmark factorization F = C P (clustering::nystrom_factor)
// inside the bucket.

class NystromEmbedder final : public BucketEmbedder {
 public:
  explicit NystromEmbedder(const EmbedderOptions& options)
      : options_(options) {}

  GramBackend backend() const override { return GramBackend::kNystrom; }

  std::size_t landmarks_for(std::size_t n) const {
    const std::size_t m = options_.nystrom_landmarks > 0
                              ? options_.nystrom_landmarks
                              : auto_backend_rank(n);
    return std::min(std::max<std::size_t>(m, 1), std::max<std::size_t>(n, 1));
  }

  std::size_t gram_bytes(std::size_t n, std::size_t /*dim*/) const override {
    // C (n x m) plus the landmark block W (m x m). The post-floor rank can
    // only shrink, so this is the peak the admission budget must cover.
    const std::size_t m = landmarks_for(n);
    return factor_bytes(n, m) + dense_bytes(m);
  }

  BucketEmbedding fit(const data::PointSet& points,
                      std::span<const std::size_t> indices,
                      std::size_t k_bucket, Rng& rng,
                      bool want_factor) const override {
    const std::size_t n = indices.size();
    if (trivial_bucket(n, k_bucket)) {
      return trivial_embedding(GramBackend::kNystrom, n);
    }
    const std::size_t m = landmarks_for(n);

    BucketEmbedding out;
    out.backend = GramBackend::kNystrom;
    out.gram_bytes = factor_bytes(n, m);

    clustering::NystromFactorization factor;
    {
      ScopedTimer gram_timer(options_.metrics, "pipeline.gram_build");
      factor = clustering::nystrom_factor(points, indices, m, options_.sigma,
                                          rng);
      if (want_factor) {
        out.nystrom.anchors = linalg::DenseMatrix(m, points.dim(), 0.0);
        for (std::size_t j = 0; j < m; ++j) {
          const auto x = points.point(factor.landmarks[j]);
          std::copy(x.begin(), x.end(), out.nystrom.anchors.row(j).begin());
        }
      }
    }

    const linalg::DenseMatrix& p = factor.p;
    clustering::FactoredSolve solve = clustering::factored_spectral(
        factor.c.multiply(p), k_bucket, rng, options_.metrics, want_factor);
    out.fit = std::move(solve.fit);
    if (want_factor && out.fit.k > 0) {
      // Serving map over kernel rows: u_q = (c_q . P embed_map) / sqrt(d_q)
      // with d_q = c_q . (P s).
      out.nystrom.map = p.multiply(solve.embed_map);
      out.nystrom.dvec.assign(p.rows(), 0.0);
      p.matvec(solve.s, out.nystrom.dvec);
    } else {
      out.nystrom = NystromFactor{};
    }
    return out;
  }

 private:
  EmbedderOptions options_;
};

// ---------------------------------------------------------------------------
// rbf_binning — random binning feature map (Rahimi & Recht; Wu et al.).

class BinningEmbedder final : public BucketEmbedder {
 public:
  explicit BinningEmbedder(const EmbedderOptions& options)
      : options_(options) {}

  GramBackend backend() const override { return GramBackend::kRbfBinning; }

  std::size_t features_for(std::size_t n) const {
    const std::size_t d = options_.binning_features > 0
                              ? options_.binning_features
                              : auto_backend_rank(n);
    return std::max<std::size_t>(d, 1);
  }
  std::size_t repetitions() const {
    return std::max<std::size_t>(options_.binning_repetitions, 1);
  }

  std::size_t gram_bytes(std::size_t n, std::size_t /*dim*/) const override {
    // Z (n x D, stored dense) plus the D x D core of the factored solve.
    const std::size_t features = features_for(n);
    return factor_bytes(n, features) + dense_bytes(features);
  }

  BucketEmbedding fit(const data::PointSet& points,
                      std::span<const std::size_t> indices,
                      std::size_t k_bucket, Rng& rng,
                      bool want_factor) const override {
    const std::size_t n = indices.size();
    if (trivial_bucket(n, k_bucket)) {
      return trivial_embedding(GramBackend::kRbfBinning, n);
    }
    const std::size_t features = features_for(n);
    const std::size_t reps = repetitions();
    const std::size_t dim = points.dim();

    BucketEmbedding out;
    out.backend = GramBackend::kRbfBinning;
    out.gram_bytes = factor_bytes(n, features);

    linalg::DenseMatrix z(n, features, 0.0);
    {
      ScopedTimer gram_timer(options_.metrics, "pipeline.gram_build");

      // RNG draw order (the determinism contract): hash seed, then per
      // repetition per dimension two Gamma(2) uniforms for the pitch and
      // one uniform for the shift.
      out.binning.hash_seed = rng();
      out.binning.features = features;
      out.binning.widths = linalg::DenseMatrix(reps, dim, 0.0);
      out.binning.shifts = linalg::DenseMatrix(reps, dim, 0.0);
      for (std::size_t r = 0; r < reps; ++r) {
        for (std::size_t d = 0; d < dim; ++d) {
          // Pitch delta ~ sigma * Gamma(2, 1) via -ln(u1 u2); drawing on
          // (0, 1] keeps the logs finite.
          const double u1 = 1.0 - rng.uniform();
          const double u2 = 1.0 - rng.uniform();
          double delta = options_.sigma * -std::log(u1 * u2);
          if (!(delta > 0.0)) delta = options_.sigma;
          out.binning.widths(r, d) = delta;
          out.binning.shifts(r, d) = rng.uniform(0.0, delta);
        }
      }

      std::vector<std::size_t> cols;
      const double weight = 1.0 / std::sqrt(static_cast<double>(reps));
      for (std::size_t i = 0; i < n; ++i) {
        binning_feature_indices(points.point(indices[i]), out.binning.widths,
                                out.binning.shifts, out.binning.hash_seed,
                                features, cols);
        for (const std::size_t col : cols) z(i, col) += weight;
      }
    }

    clustering::FactoredSolve solve = clustering::factored_spectral(
        z, k_bucket, rng, options_.metrics, want_factor);
    out.fit = std::move(solve.fit);
    if (want_factor && out.fit.k > 0) {
      out.binning.map = std::move(solve.embed_map);
      out.binning.dvec = std::move(solve.s);
    } else {
      out.binning = BinningFactor{};
    }
    return out;
  }

 private:
  EmbedderOptions options_;
};

}  // namespace

BucketEmbedding BucketEmbedder::fit_with_block(
    const data::PointSet& points, std::span<const std::size_t> indices,
    std::size_t k_bucket, Rng& rng, bool want_factor,
    linalg::DenseMatrix&& /*block*/) const {
  return fit(points, indices, k_bucket, rng, want_factor);
}

std::unique_ptr<BucketEmbedder> make_bucket_embedder(
    GramBackend backend, const EmbedderOptions& options) {
  DASC_EXPECT(options.sigma > 0.0,
              "make_bucket_embedder: sigma must be resolved and positive");
  switch (backend) {
    case GramBackend::kDense:
      return std::make_unique<DenseEmbedder>(options);
    case GramBackend::kNystrom:
      return std::make_unique<NystromEmbedder>(options);
    case GramBackend::kRbfBinning:
      return std::make_unique<BinningEmbedder>(options);
  }
  DASC_ENSURE(false, "make_bucket_embedder: unknown backend");
  return nullptr;
}

GramBackend select_backend(GramBackendPolicy policy, std::size_t bucket_size,
                           std::size_t threshold) {
  switch (policy) {
    case GramBackendPolicy::kDense:
      return GramBackend::kDense;
    case GramBackendPolicy::kNystrom:
      return GramBackend::kNystrom;
    case GramBackendPolicy::kRbfBinning:
      return GramBackend::kRbfBinning;
    case GramBackendPolicy::kAuto:
      break;
  }
  return bucket_size < threshold ? GramBackend::kDense : GramBackend::kNystrom;
}

std::size_t auto_backend_rank(std::size_t n) {
  if (n == 0) return 1;
  const auto root = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  return std::min(n, std::max<std::size_t>(16, 4 * root));
}

void binning_feature_indices(std::span<const double> x,
                             const linalg::DenseMatrix& widths,
                             const linalg::DenseMatrix& shifts,
                             std::uint64_t hash_seed, std::size_t features,
                             std::vector<std::size_t>& out) {
  DASC_EXPECT(features > 0, "binning_feature_indices: features must be > 0");
  DASC_EXPECT(widths.rows() == shifts.rows() && widths.cols() == shifts.cols(),
              "binning_feature_indices: widths/shifts shape mismatch");
  out.clear();
  const std::size_t reps = widths.rows();
  const std::size_t dim = std::min(x.size(), widths.cols());
  for (std::size_t r = 0; r < reps; ++r) {
    std::uint64_t h = fnv1a64(kFnvOffset, hash_seed);
    h = fnv1a64(h, static_cast<std::uint64_t>(r));
    for (std::size_t d = 0; d < dim; ++d) {
      const auto bin = static_cast<std::int64_t>(
          std::floor((x[d] - shifts(r, d)) / widths(r, d)));
      h = fnv1a64(h, static_cast<std::uint64_t>(bin));
    }
    out.push_back(static_cast<std::size_t>(h % features));
  }
}

std::optional<GramBackendPolicy> parse_gram_backend(std::string_view name) {
  if (name == "auto") return GramBackendPolicy::kAuto;
  if (name == "dense") return GramBackendPolicy::kDense;
  if (name == "nystrom") return GramBackendPolicy::kNystrom;
  if (name == "rbf_binning") return GramBackendPolicy::kRbfBinning;
  return std::nullopt;
}

const char* gram_backend_name(GramBackend backend) {
  switch (backend) {
    case GramBackend::kDense:
      return "dense";
    case GramBackend::kNystrom:
      return "nystrom";
    case GramBackend::kRbfBinning:
      return "rbf_binning";
  }
  return "unknown";
}

EmbedderSet::EmbedderSet(const DascParams& params, double sigma)
    : policy_(params.gram_backend),
      threshold_(params.backend_threshold),
      metrics_(params.metrics) {
  EmbedderOptions options;
  options.sigma = sigma;
  options.dense_cutoff = params.dense_cutoff;
  options.nystrom_landmarks = params.nystrom_landmarks;
  options.binning_features = params.binning_features;
  options.binning_repetitions = params.binning_repetitions;
  options.metrics = params.metrics;
  dense_ = make_bucket_embedder(GramBackend::kDense, options);
  nystrom_ = make_bucket_embedder(GramBackend::kNystrom, options);
  binning_ = make_bucket_embedder(GramBackend::kRbfBinning, options);
}

const BucketEmbedder& EmbedderSet::embedder_for(
    std::size_t bucket_size) const {
  switch (select_backend(policy_, bucket_size, threshold_)) {
    case GramBackend::kNystrom:
      return *nystrom_;
    case GramBackend::kRbfBinning:
      return *binning_;
    case GramBackend::kDense:
      break;
  }
  return *dense_;
}

std::vector<const BucketEmbedder*> EmbedderSet::plan(
    const std::vector<lsh::Bucket>& buckets) const {
  std::vector<const BucketEmbedder*> embedders;
  embedders.reserve(buckets.size());
  for (const lsh::Bucket& bucket : buckets) {
    const BucketEmbedder& embedder = embedder_for(bucket.indices.size());
    embedders.push_back(&embedder);
    if (metrics_ != nullptr) {
      metrics_
          ->counter(std::string("backend.selected_") +
                    gram_backend_name(embedder.backend()))
          .add(1);
    }
  }
  return embedders;
}

std::size_t EmbedderSet::total_gram_bytes(
    const std::vector<lsh::Bucket>& buckets, std::size_t dim) const {
  std::size_t total = 0;
  for (const lsh::Bucket& bucket : buckets) {
    total +=
        embedder_for(bucket.indices.size()).gram_bytes(bucket.indices.size(),
                                                       dim);
  }
  return total;
}

}  // namespace dasc::core
