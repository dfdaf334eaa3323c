#include "linalg/lanczos.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/sparse_csr.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "linalg/vector_ops.hpp"

namespace dasc::linalg {
namespace {

DenseMatrix random_symmetric(std::size_t n, Rng& rng) {
  DenseMatrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

TEST(Lanczos, TopEigenvaluesMatchDenseSolver) {
  Rng rng(61);
  const DenseMatrix a = random_symmetric(60, rng);
  const auto dense = symmetric_eigen(a);
  const auto lan = lanczos_largest(as_operator(a), 5);
  ASSERT_EQ(lan.eigenvalues.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(lan.eigenvalues[i], dense.eigenvalues[60 - 1 - i], 1e-6);
  }
}

TEST(Lanczos, RitzVectorsSatisfyDefinition) {
  Rng rng(63);
  const DenseMatrix a = random_symmetric(40, rng);
  const auto lan = lanczos_largest(as_operator(a), 3);
  std::vector<double> v(40);
  std::vector<double> av(40);
  for (std::size_t col = 0; col < 3; ++col) {
    for (std::size_t i = 0; i < 40; ++i) v[i] = lan.eigenvectors(i, col);
    a.matvec(v, av);
    for (std::size_t i = 0; i < 40; ++i) {
      EXPECT_NEAR(av[i], lan.eigenvalues[col] * v[i], 1e-5);
    }
  }
}

TEST(Lanczos, EigenvaluesDescend) {
  Rng rng(65);
  const DenseMatrix a = random_symmetric(30, rng);
  const auto lan = lanczos_largest(as_operator(a), 6);
  for (std::size_t i = 1; i < lan.eigenvalues.size(); ++i) {
    EXPECT_GE(lan.eigenvalues[i - 1], lan.eigenvalues[i] - 1e-10);
  }
}

TEST(Lanczos, WorksOnSparseOperator) {
  // Path-graph Laplacian-ish matrix: known extremal structure.
  const std::size_t n = 50;
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    triplets.push_back({i, i + 1, 1.0});
    triplets.push_back({i + 1, i, 1.0});
  }
  const SparseCsr adj(n, n, std::move(triplets));
  LinearOperator op;
  op.dim = n;
  op.apply = [&adj, n](std::span<const double> x, std::span<double> y,
                       std::size_t count) {
    for (std::size_t c = 0; c < count; ++c) {
      adj.matvec(x.subspan(c * n, n), y.subspan(c * n, n));
    }
  };
  const auto lan = lanczos_largest(op, 1);
  // Largest eigenvalue of a path graph adjacency: 2 cos(pi / (n+1)).
  EXPECT_NEAR(lan.eigenvalues[0], 2.0 * std::cos(M_PI / (n + 1)), 1e-6);
}

TEST(Lanczos, KEqualsDimensionRecoversFullSpectrum) {
  Rng rng(67);
  const DenseMatrix a = random_symmetric(8, rng);
  const auto dense = symmetric_eigen(a);
  const auto lan = lanczos_largest(as_operator(a), 8);
  ASSERT_EQ(lan.eigenvalues.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(lan.eigenvalues[i], dense.eigenvalues[7 - i], 1e-7);
  }
}

TEST(Lanczos, HandlesLowRankOperatorViaRestart) {
  // Rank-1 matrix: one nonzero eigenvalue, invariant subspace hit early.
  const std::size_t n = 20;
  DenseMatrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = 1.0;  // = ones*ones^T
  }
  const auto lan = lanczos_largest(as_operator(a), 3);
  ASSERT_GE(lan.eigenvalues.size(), 1u);
  EXPECT_NEAR(lan.eigenvalues[0], static_cast<double>(n), 1e-6);
  for (std::size_t i = 1; i < lan.eigenvalues.size(); ++i) {
    EXPECT_NEAR(lan.eigenvalues[i], 0.0, 1e-6);
  }
}

TEST(Lanczos, RejectsBadArguments) {
  Rng rng(69);
  const DenseMatrix a = random_symmetric(5, rng);
  EXPECT_THROW(lanczos_largest(as_operator(a), 0), dasc::InvalidArgument);
  EXPECT_THROW(lanczos_largest(as_operator(a), 6), dasc::InvalidArgument);
  LinearOperator null_op;
  null_op.dim = 5;
  EXPECT_THROW(lanczos_largest(null_op, 1), dasc::InvalidArgument);
}

TEST(Lanczos, DeterministicForFixedSeed) {
  Rng rng(71);
  const DenseMatrix a = random_symmetric(25, rng);
  LanczosOptions options;
  options.seed = 7;
  const auto r1 = lanczos_largest(as_operator(a), 4, options);
  const auto r2 = lanczos_largest(as_operator(a), 4, options);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(r1.eigenvalues[i], r2.eigenvalues[i]);
  }
}

bool same_bytes(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Lanczos, BlockedResidualMatchesSingleVectorApply) {
  Rng rng(73);
  const std::size_t n = 90;
  const DenseMatrix a = random_symmetric(n, rng);
  // The operator as it was before the blocked apply: one DenseMatrix::
  // matvec per vector.
  LinearOperator single;
  single.dim = n;
  single.apply = [&a, n](std::span<const double> x, std::span<double> y,
                         std::size_t count) {
    for (std::size_t c = 0; c < count; ++c) {
      a.matvec(x.subspan(c * n, n), y.subspan(c * n, n));
    }
  };
  const LinearOperator blocked = as_operator(a);

  // One apply over five vectors equals five single applies, bit for bit.
  const std::size_t count = 5;
  std::vector<double> x(count * n);
  for (double& v : x) v = rng.normal();
  std::vector<double> y_blocked(count * n);
  std::vector<double> y_single(count * n);
  blocked.apply(x, y_blocked, count);
  single.apply(x, y_single, count);
  EXPECT_TRUE(same_bytes(y_blocked, y_single));

  // A subspace too small for the first pass makes the residual check fail
  // and the solver regrow, so both the failing and the passing check run.
  LanczosOptions options;
  options.max_subspace = 8;
  const std::size_t k = 6;
  const auto from_blocked = lanczos_largest(blocked, k, options);
  const auto from_single = lanczos_largest(single, k, options);
  EXPECT_GT(from_blocked.iterations, options.max_subspace);
  EXPECT_EQ(from_blocked.iterations, from_single.iterations);
  EXPECT_TRUE(same_bytes(from_blocked.eigenvalues, from_single.eigenvalues));
  const DenseMatrix& va = from_blocked.eigenvectors;
  const DenseMatrix& vb = from_single.eigenvectors;
  EXPECT_TRUE(same_bytes({va.data(), va.size()}, {vb.data(), vb.size()}));
}

}  // namespace
}  // namespace dasc::linalg
