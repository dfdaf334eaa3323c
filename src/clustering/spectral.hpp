// Spectral clustering (Ng-Jordan-Weiss), the paper's downstream consumer:
//   A   = Gram matrix with zeroed diagonal,
//   L   = D^{-1/2} A D^{-1/2}                       (Eq. 2),
//   X   = top-K eigenvectors of L, row-normalized,
//   out = K-means over the rows of X.
// The eigenvectors come from the dense tridiagonal-QL path for small inputs
// and from Lanczos for large ones — the same "tridiagonalize then QR"
// scheme the paper describes in Section 3.2.
#pragma once

#include <cstddef>
#include <vector>

#include "clustering/kmeans.hpp"
#include "common/rng.hpp"
#include "data/point_set.hpp"
#include "linalg/dense_matrix.hpp"

namespace dasc::clustering {

struct SpectralParams {
  std::size_t k = 2;
  /// Gaussian bandwidth; 0 picks suggest_bandwidth(points).
  double sigma = 0.0;
  /// Below this size the dense eigensolver is used; above it, Lanczos.
  std::size_t dense_cutoff = 128;
  KMeansParams kmeans;  ///< k field is overwritten with `k`
  /// Optional sink for the `spectral.eigensolve` timer and solver-path
  /// counters; also forwarded to the K-means step (null = off).
  MetricsRegistry* metrics = nullptr;
};

struct SpectralResult {
  std::vector<int> labels;
  std::size_t k = 0;
  /// Bytes of the Gram matrix this run materialized (the paper's Eq. 12
  /// memory metric, at the actual stored element size).
  std::size_t gram_bytes = 0;
};

/// Everything the eigensolve produces, exposed so a fitted model can be
/// persisted and extended to out-of-sample points (Nystrom-style): the
/// row-normalized embedding the clustering consumes, plus the raw
/// eigenpairs and affinity degrees the extension formula needs.
struct SpectralEmbeddingDetail {
  /// Row-normalized top-k eigenvectors (what spectral_embedding returns).
  linalg::DenseMatrix embedding;
  /// Raw (pre-normalization) eigenvectors, n x k.
  linalg::DenseMatrix eigenvectors;
  /// Matching eigenvalues of the normalized Laplacian, descending.
  std::vector<double> eigenvalues;
  /// Affinity row sums of the zero-diagonal Gram (degrees d_i).
  std::vector<double> degrees;
};

/// Full fitted state of one spectral clustering run over a Gram matrix.
/// `k == 0` marks the trivial path (empty input or effective k <= 1):
/// labels are all zero and no spectral state was computed.
struct SpectralGramDetail {
  std::vector<int> labels;
  std::size_t k = 0;  ///< effective cluster count; 0 = trivial path
  SpectralEmbeddingDetail spectral;
  /// K-means centroids in embedding space (k rows of dimension k).
  std::vector<std::vector<double>> centroids;
};

/// Full spectral clustering over an explicit Gram/affinity matrix.
/// The matrix diagonal is ignored (treated as zero, per NJW).
std::vector<int> spectral_cluster_gram(const linalg::DenseMatrix& gram,
                                       std::size_t k, Rng& rng,
                                       const SpectralParams& params = {});

/// spectral_cluster_gram, additionally returning the fitted state (raw
/// eigenpairs, degrees, K-means centroids). The labels are bit-identical
/// to spectral_cluster_gram for the same inputs: the plain entry point is
/// a wrapper over this one. Takes the Gram by value and builds the
/// normalized Laplacian in its storage: a caller done with its block
/// passes it with std::move, so no second n x n matrix is allocated.
SpectralGramDetail spectral_cluster_gram_detail(
    linalg::DenseMatrix gram, std::size_t k, Rng& rng,
    const SpectralParams& params = {});

/// Build the full Gaussian Gram matrix and cluster (the paper's SC
/// baseline; O(N^2) time and space).
SpectralResult spectral_cluster(const data::PointSet& points,
                                const SpectralParams& params, Rng& rng);

/// The spectral embedding alone (top-k row-normalized eigenvectors of the
/// normalized Laplacian); exposed for tests and for the DASC pipeline.
linalg::DenseMatrix spectral_embedding(const linalg::DenseMatrix& gram,
                                       std::size_t k,
                                       std::size_t dense_cutoff);

/// spectral_embedding plus the raw eigenpairs and degrees. The embedding
/// member is bit-identical to spectral_embedding's return value (the plain
/// entry point is a wrapper over this one). The Gram is taken by value and
/// becomes the Laplacian in place (see spectral_cluster_gram_detail).
SpectralEmbeddingDetail spectral_embedding_detail(linalg::DenseMatrix gram,
                                                  std::size_t k,
                                                  std::size_t dense_cutoff);

/// What factored_spectral hands back beyond the fitted state: the
/// ingredients of a serving factor. With representation F (n x r),
/// s = F^T 1, and embed_map = V_topk Lambda^{-1/2} of the r x r problem,
/// a new row f maps to embedding u = (f . embed_map) / sqrt(f . s).
struct FactoredSolve {
  SpectralGramDetail fit;
  std::vector<double> s;          ///< column sums F^T 1 (degree weights)
  linalg::DenseMatrix embed_map;  ///< r x k_eff; empty unless want_factor
};

/// Spectral clustering on a factored Gram K ~= F F^T, shared by the
/// Nystrom and random-binning bucket backends and the NYST baseline:
/// degrees d = F (F^T 1), normalized rows G = D^{-1/2} F, top-k eigenpairs
/// of G G^T recovered from the r x r problem G^T G (eigenpairs at or below
/// kFactorEigenFloor * lambda_max are dropped), row-normalize, K-means.
/// O(n r^2) time, O(n r) space — never materializes an n x n matrix.
/// Unlike the NJW dense path the Gram diagonal stays in the degrees.
/// Effective k is min(k, n, kept eigenpairs); at <= 1 the result is the
/// trivial fit (k == 0, all labels zero). `metrics` receives the
/// `spectral.eigensolve` timer and `eigensolve.factored` counter.
FactoredSolve factored_spectral(const linalg::DenseMatrix& f, std::size_t k,
                                Rng& rng, MetricsRegistry* metrics = nullptr,
                                bool want_factor = false);

}  // namespace dasc::clustering
