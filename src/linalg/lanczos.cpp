#include "linalg/lanczos.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/simd_ops.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "linalg/vector_ops.hpp"

namespace dasc::linalg {

LinearOperator as_operator(const DenseMatrix& a) {
  DASC_EXPECT(a.rows() == a.cols(), "as_operator: matrix must be square");
  LinearOperator op;
  op.dim = a.rows();
  op.apply = [&a](std::span<const double> x, std::span<double> y,
                  std::size_t count) {
    const std::size_t n = a.rows();
    DASC_EXPECT(x.size() == count * n, "as_operator: x length mismatch");
    DASC_EXPECT(y.size() == count * n, "as_operator: y length mismatch");
    const SimdKernels& kernels = simd::active();
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = a.row(i).data();
      for (std::size_t c = 0; c < count; ++c) {
        y[c * n + i] = kernels.dot(row, x.data() + c * n, n);
      }
    }
  };
  return op;
}

namespace {

/// One fixed-size Krylov pass; the public entry point grows the subspace
/// until the Ritz pairs pass a residual check.
LanczosResult lanczos_pass(const LinearOperator& op, std::size_t k,
                           std::size_t m, const LanczosOptions& options) {
  const std::size_t n = op.dim;

  // Krylov basis, one row per Lanczos vector (row-major keeps reorth cheap).
  DenseMatrix basis(m, n);
  std::vector<double> alpha;  // T diagonal
  std::vector<double> beta;   // T sub-diagonal

  Rng rng(options.seed);
  {
    auto v0 = basis.row(0);
    for (double& x : v0) x = rng.normal();
    normalize(v0);
  }

  std::vector<double> w(n, 0.0);
  std::size_t steps = 0;
  for (std::size_t j = 0; j < m; ++j) {
    auto vj = basis.row(j);
    op.apply(vj, w, 1);
    const double a_j = dot(std::span<const double>(w), vj);
    alpha.push_back(a_j);
    steps = j + 1;

    if (j + 1 == m) break;

    // w <- w - alpha_j v_j - beta_{j-1} v_{j-1}
    axpy(-a_j, vj, w);
    if (j > 0) axpy(-beta[j - 1], basis.row(j - 1), w);

    // Full reorthogonalization (twice for stability) against all basis
    // vectors; this is what keeps Ritz values honest for clustered spectra.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i <= j; ++i) {
        const double proj = dot(std::span<const double>(w), basis.row(i));
        axpy(-proj, basis.row(i), w);
      }
    }

    const double b_j = norm2(w);
    if (b_j <= options.tolerance * std::max(1.0, std::abs(a_j))) {
      // Invariant subspace found; restart with a fresh random direction
      // orthogonal to the current basis, or stop if the basis is complete.
      if (j + 1 >= n) break;
      auto vnext = basis.row(j + 1);
      for (double& x : vnext) x = rng.normal();
      for (std::size_t i = 0; i <= j; ++i) {
        const double proj =
            dot(std::span<const double>(vnext), basis.row(i));
        axpy(-proj, basis.row(i), vnext);
      }
      if (normalize(vnext) == 0.0) break;
      beta.push_back(0.0);
      continue;
    }

    beta.push_back(b_j);
    auto vnext = basis.row(j + 1);
    for (std::size_t i = 0; i < n; ++i) vnext[i] = w[i] / b_j;
  }

  alpha.resize(steps);
  if (beta.size() >= steps) beta.resize(steps == 0 ? 0 : steps - 1);

  // Solve the projected tridiagonal problem.
  SymmetricEigenResult tri = tridiagonal_eigen(alpha, beta);

  const std::size_t found = std::min(k, steps);
  LanczosResult result;
  result.iterations = steps;
  result.eigenvalues.resize(found);
  result.eigenvectors = DenseMatrix(n, found);

  // tri eigenvalues ascend; take the last `found` in descending order and
  // lift Ritz vectors back: x = V_basis^T * s, accumulated as a sum of
  // scaled basis rows so the inner loop is a contiguous axpy instead of a
  // stride-n scan.
  std::vector<double> col(n);
  for (std::size_t out = 0; out < found; ++out) {
    const std::size_t idx = steps - 1 - out;
    result.eigenvalues[out] = tri.eigenvalues[idx];
    std::fill(col.begin(), col.end(), 0.0);
    for (std::size_t j = 0; j < steps; ++j) {
      axpy(tri.eigenvectors(j, idx), basis.row(j), col);
    }
    // Ritz vectors from an orthonormal basis are unit-norm up to round-off;
    // renormalize so downstream row-normalization is well-conditioned.
    const double nrm = norm2(col);
    for (std::size_t row = 0; row < n; ++row) {
      result.eigenvectors(row, out) = nrm > 0 ? col[row] / nrm : col[row];
    }
  }
  return result;
}

/// True when every Ritz pair has ||A v - lambda v|| <= 100 * tolerance *
/// max|lambda|. The Ritz vectors go back to back through one apply: one
/// pass over the operator instead of one per vector.
bool ritz_pairs_converged(const LinearOperator& op,
                          const LanczosResult& result, double tolerance) {
  const std::size_t n = op.dim;
  const std::size_t found = result.eigenvalues.size();
  double scale = 0.0;
  for (double v : result.eigenvalues) scale = std::max(scale, std::abs(v));
  if (scale == 0.0) scale = 1.0;

  std::vector<double> ritz(found * n);
  for (std::size_t col = 0; col < found; ++col) {
    for (std::size_t row = 0; row < n; ++row) {
      ritz[col * n + row] = result.eigenvectors(row, col);
    }
  }
  std::vector<double> residual(found * n);
  op.apply(ritz, residual, found);
  for (std::size_t col = 0; col < found; ++col) {
    const std::span<double> r(residual.data() + col * n, n);
    axpy(-result.eigenvalues[col],
         std::span<const double>(ritz.data() + col * n, n), r);
    if (norm2(r) > 100.0 * tolerance * scale) return false;
  }
  return true;
}

}  // namespace

LanczosResult lanczos_largest(const LinearOperator& op, std::size_t k,
                              const LanczosOptions& options) {
  const std::size_t n = op.dim;
  DASC_EXPECT(op.apply != nullptr, "lanczos: operator has no apply");
  DASC_EXPECT(k >= 1 && k <= n, "lanczos: k must be in [1, dim]");

  std::size_t m = options.max_subspace;
  if (m == 0) m = std::max<std::size_t>(2 * k + 16, 32);
  m = std::min(std::max(m, k), n);

  // Grow the subspace until every requested Ritz pair has a small residual
  // relative to the spectral scale, or m reaches n (where the pass is an
  // exact dense solve of the projected problem).
  for (;;) {
    LanczosResult result = lanczos_pass(op, k, m, options);
    if (m >= n || result.eigenvalues.empty()) return result;
    if (result.eigenvalues.size() >= k &&
        ritz_pairs_converged(op, result, options.tolerance)) {
      return result;
    }
    m = std::min(n, 2 * m);
  }
}

}  // namespace dasc::linalg
