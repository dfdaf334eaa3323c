#include "clustering/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "clustering/kernel.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/simd_ops.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "linalg/vector_ops.hpp"

namespace dasc::clustering {

SpectralEmbeddingDetail spectral_embedding_detail(linalg::DenseMatrix gram,
                                                  std::size_t k,
                                                  std::size_t dense_cutoff) {
  DASC_EXPECT(gram.rows() == gram.cols(),
              "spectral_embedding: gram must be square");
  const std::size_t n = gram.rows();
  DASC_EXPECT(k >= 1 && k <= n, "spectral_embedding: k must be in [1, N]");

  SpectralEmbeddingDetail detail;

  // A = gram with zero diagonal (NJW); degrees and normalized Laplacian,
  // built in the Gram's own storage.
  linalg::DenseMatrix& laplacian = gram;
  for (std::size_t i = 0; i < n; ++i) laplacian(i, i) = 0.0;

  detail.degrees.assign(n, 0.0);
  std::vector<double> inv_sqrt_degree(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double degree = linalg::simd::reduce_add(laplacian.row(i));
    detail.degrees[i] = degree;
    inv_sqrt_degree[i] = degree > 0.0 ? 1.0 / std::sqrt(degree) : 0.0;
  }
  // Row i of D^{-1/2} S D^{-1/2}: scale by inv_sqrt_degree[i] *
  // inv_sqrt_degree[j] elementwise through the dispatched kernel.
  for (std::size_t i = 0; i < n; ++i) {
    linalg::simd::diag_scale(laplacian.row(i), inv_sqrt_degree[i],
                             inv_sqrt_degree);
  }

  // Top-k eigenvectors of L (largest eigenvalues).
  linalg::DenseMatrix embedding(n, k, 0.0);
  detail.eigenvalues.assign(k, 0.0);
  if (n <= dense_cutoff) {
    const linalg::SymmetricEigenResult eigen =
        linalg::symmetric_eigen(laplacian);
    for (std::size_t col = 0; col < k; ++col) {
      const std::size_t src = n - 1 - col;  // eigenvalues ascend
      detail.eigenvalues[col] = eigen.eigenvalues[src];
      for (std::size_t row = 0; row < n; ++row) {
        embedding(row, col) = eigen.eigenvectors(row, src);
      }
    }
  } else {
    const linalg::LanczosResult eigen =
        linalg::lanczos_largest(linalg::as_operator(laplacian), k);
    DASC_ENSURE(eigen.eigenvectors.cols() == k,
                "spectral_embedding: Lanczos returned too few vectors");
    for (std::size_t col = 0; col < k; ++col) {
      detail.eigenvalues[col] = eigen.eigenvalues[col];
      for (std::size_t row = 0; row < n; ++row) {
        embedding(row, col) = eigen.eigenvectors(row, col);
      }
    }
  }
  detail.eigenvectors = embedding;

  // Row-normalize to the unit sphere (Y_ij = X_ij / ||X_i||).
  for (std::size_t row = 0; row < n; ++row) {
    linalg::normalize(embedding.row(row));
  }
  detail.embedding = std::move(embedding);
  return detail;
}

linalg::DenseMatrix spectral_embedding(const linalg::DenseMatrix& gram,
                                       std::size_t k,
                                       std::size_t dense_cutoff) {
  return spectral_embedding_detail(gram, k, dense_cutoff).embedding;
}

SpectralGramDetail spectral_cluster_gram_detail(
    linalg::DenseMatrix gram, std::size_t k, Rng& rng,
    const SpectralParams& params) {
  SpectralGramDetail detail;
  const std::size_t n = gram.rows();
  if (n == 0) return detail;
  const std::size_t effective_k = std::min(k, n);
  if (effective_k <= 1) {
    detail.labels.assign(n, 0);
    return detail;
  }

  {
    ScopedTimer eigen_timer(params.metrics, "spectral.eigensolve");
    detail.spectral = spectral_embedding_detail(std::move(gram), effective_k,
                                                params.dense_cutoff);
  }
  if (params.metrics != nullptr) {
    params.metrics
        ->counter(n <= params.dense_cutoff ? "eigensolve.dense"
                                           : "eigensolve.lanczos")
        .add(1);
  }

  const linalg::DenseMatrix& embedding = detail.spectral.embedding;
  data::PointSet rows(n, effective_k);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = embedding.row(i);
    std::copy(src.begin(), src.end(), rows.point(i).begin());
  }

  KMeansParams km = params.kmeans;
  km.k = effective_k;
  km.metrics = params.metrics;
  KMeansResult clusters = kmeans(rows, km, rng);
  detail.labels = std::move(clusters.labels);
  detail.centroids = std::move(clusters.centroids);
  detail.k = effective_k;
  return detail;
}

std::vector<int> spectral_cluster_gram(const linalg::DenseMatrix& gram,
                                       std::size_t k, Rng& rng,
                                       const SpectralParams& params) {
  return spectral_cluster_gram_detail(gram, k, rng, params).labels;
}

SpectralResult spectral_cluster(const data::PointSet& points,
                                const SpectralParams& params, Rng& rng) {
  DASC_EXPECT(!points.empty(), "spectral_cluster: empty dataset");
  DASC_EXPECT(params.k >= 1, "spectral_cluster: k must be positive");

  const double sigma =
      params.sigma > 0.0 ? params.sigma : suggest_bandwidth(points);
  linalg::DenseMatrix gram = gaussian_gram(points, sigma);

  SpectralResult result;
  result.k = std::min(params.k, points.size());
  // Eq. 12 accounting at the bytes the Gram actually occupies (doubles).
  result.gram_bytes =
      linalg::gram_entry_bytes(points.size() * points.size());
  result.labels =
      spectral_cluster_gram_detail(std::move(gram), result.k, rng, params)
          .labels;
  return result;
}

FactoredSolve factored_spectral(const linalg::DenseMatrix& f, std::size_t k,
                                Rng& rng, MetricsRegistry* metrics,
                                bool want_factor) {
  const std::size_t n = f.rows();
  const std::size_t r = f.cols();
  FactoredSolve out;

  linalg::DenseMatrix u;  // raw eigenvectors U = G V Lambda^{-1/2}
  std::size_t k_eff = 0;
  {
    ScopedTimer eigen_timer(metrics, "spectral.eigensolve");

    // Degrees via the factorization: d = F (F^T 1). Unlike the dense NJW
    // path the Gram diagonal stays in the sum — removing it would break
    // K ~= F F^T (see the header's documented deviation).
    out.s.assign(r, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = f.row(i);
      for (std::size_t c = 0; c < r; ++c) out.s[c] += row[c];
    }
    std::vector<double> inv_sqrt_degree(n, 0.0);
    linalg::DenseMatrix g = f;  // G = D^{-1/2} F
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = f.row(i);
      double degree = 0.0;
      for (std::size_t c = 0; c < r; ++c) degree += row[c] * out.s[c];
      out.fit.spectral.degrees.push_back(degree);
      inv_sqrt_degree[i] = degree > 0.0 ? 1.0 / std::sqrt(degree) : 0.0;
      auto grow = g.row(i);
      for (std::size_t c = 0; c < r; ++c) grow[c] *= inv_sqrt_degree[i];
    }

    // The r x r core B = G^T G shares its nonzero spectrum with the
    // normalized affinity G G^T.
    linalg::DenseMatrix b(r, r, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = g.row(i);
      for (std::size_t a = 0; a < r; ++a) {
        for (std::size_t c = a; c < r; ++c) b(a, c) += row[a] * row[c];
      }
    }
    for (std::size_t a = 0; a < r; ++a) {
      for (std::size_t c = 0; c < a; ++c) b(a, c) = b(c, a);
    }

    const linalg::SymmetricEigenResult eigen = linalg::jacobi_eigen(b);
    const double floor =
        kFactorEigenFloor * std::max(eigen.eigenvalues.back(), 1e-300);
    std::vector<std::size_t> kept;  // descending eigenvalue order
    for (std::size_t e = r; e-- > 0;) {
      if (eigen.eigenvalues[e] > floor) kept.push_back(e);
    }
    k_eff = std::min(std::min(k, n), kept.size());
    if (k_eff <= 1) {
      // Numerically collapsed representation: same contract as the
      // trivial path (k == 0, all labels zero, no spectral state).
      out.fit.labels.assign(n, 0);
      out.fit.spectral = SpectralEmbeddingDetail{};
      return out;
    }

    out.embed_map = linalg::DenseMatrix(r, k_eff, 0.0);
    out.fit.spectral.eigenvalues.assign(k_eff, 0.0);
    for (std::size_t col = 0; col < k_eff; ++col) {
      const std::size_t e = kept[col];
      const double lambda = eigen.eigenvalues[e];
      out.fit.spectral.eigenvalues[col] = lambda;
      const double inv_sqrt_lambda = 1.0 / std::sqrt(lambda);
      for (std::size_t a = 0; a < r; ++a) {
        out.embed_map(a, col) = eigen.eigenvectors(a, e) * inv_sqrt_lambda;
      }
    }
    u = g.multiply(out.embed_map);
  }
  if (metrics != nullptr) metrics->counter("eigensolve.factored").add(1);

  out.fit.spectral.eigenvectors = u;
  for (std::size_t row = 0; row < n; ++row) linalg::normalize(u.row(row));
  out.fit.spectral.embedding = u;

  data::PointSet rows(n, k_eff);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = u.row(i);
    std::copy(src.begin(), src.end(), rows.point(i).begin());
  }
  KMeansParams km;
  km.k = k_eff;
  km.metrics = metrics;
  KMeansResult clusters = kmeans(rows, km, rng);
  out.fit.labels = std::move(clusters.labels);
  out.fit.centroids = std::move(clusters.centroids);
  out.fit.k = k_eff;
  if (!want_factor) out.embed_map = linalg::DenseMatrix();
  return out;
}

}  // namespace dasc::clustering
