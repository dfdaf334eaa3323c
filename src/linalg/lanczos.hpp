// Lanczos iteration for extremal eigenpairs of a symmetric linear operator.
//
// The PSC baseline (PARPACK in the paper) and the spectral-clustering step
// only need the top-K eigenvectors of an N x N symmetric operator whose
// matvec is cheap (sparse affinity, or a dense Gram matrix). Lanczos with
// full reorthogonalization gives those in O(iters * matvec) without ever
// forming a dense factorization.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "linalg/dense_matrix.hpp"

namespace dasc::linalg {

/// A symmetric linear operator y = A*x of dimension `dim`.
struct LinearOperator {
  std::size_t dim = 0;
  /// Applies A to `count` vectors stored back to back: x and y are
  /// row-major count x dim (vector c occupies [c*dim, (c+1)*dim)), and
  /// y_c = A*x_c. x and y never alias. The Krylov loop applies one vector
  /// at a time; the residual check applies every Ritz vector in one call,
  /// so a dense operator reads its matrix once for all of them.
  std::function<void(std::span<const double> x, std::span<double> y,
                     std::size_t count)>
      apply;
};

/// Wrap a dense symmetric matrix as a LinearOperator (no copy; the matrix
/// must outlive the operator). Rows are the outer loop, so one apply reads
/// the matrix once however many vectors it carries; each y_c[i] is the
/// same dispatched dot(row_i, x_c) that DenseMatrix::matvec computes, so
/// the result is bit-identical to count separate matvecs.
LinearOperator as_operator(const DenseMatrix& a);

struct LanczosOptions {
  /// Maximum Krylov subspace size; 0 picks min(dim, max(2k+16, 32)).
  std::size_t max_subspace = 0;
  /// Residual tolerance on ||A v - lambda v|| relative to |lambda_max|.
  double tolerance = 1e-8;
  /// Seed for the random start vector.
  std::uint64_t seed = 12345;
};

struct LanczosResult {
  /// k converged (or best-effort) eigenvalues, descending by value.
  std::vector<double> eigenvalues;
  /// Column j is the Ritz vector for eigenvalues[j]; dim x k.
  DenseMatrix eigenvectors;
  /// Lanczos steps actually taken.
  std::size_t iterations = 0;
};

/// Compute the k algebraically largest eigenpairs of `op`.
/// Requires 1 <= k <= op.dim.
LanczosResult lanczos_largest(const LinearOperator& op, std::size_t k,
                              const LanczosOptions& options = {});

}  // namespace dasc::linalg
