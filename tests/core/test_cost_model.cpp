#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace dasc::core {
namespace {

TEST(CostModel, ClusterCountFit) {
  EXPECT_DOUBLE_EQ(model_cluster_count(1024.0), 17.0);
  EXPECT_DOUBLE_EQ(model_cluster_count(std::pow(2.0, 20)), 17.0 * 11.0);
  EXPECT_DOUBLE_EQ(model_cluster_count(2.0), 1.0);  // floored
}

TEST(CostModel, BucketCountFollowsAutoRule) {
  // M = ceil(log2 N / 2) - 1; B = 2^M.
  EXPECT_DOUBLE_EQ(model_bucket_count(1024.0), 16.0);         // M = 4
  EXPECT_DOUBLE_EQ(model_bucket_count(std::pow(2.0, 20)), 512.0);  // M = 9
}

TEST(CostModel, DascBeatsScForLargeN) {
  for (double exp = 20.0; exp <= 30.0; exp += 2.0) {
    const double n = std::pow(2.0, exp);
    const double b = model_bucket_count(n);
    EXPECT_LT(dasc_time_seconds(n, b), sc_time_seconds(n)) << "N = 2^" << exp;
    EXPECT_LT(dasc_memory_bytes(n, b), sc_memory_bytes(n)) << "N = 2^" << exp;
  }
}

TEST(CostModel, ReductionRatioApproachesOneOverB) {
  // Eq. (8): with the dominant quadratic term, alpha -> 1/B.
  const double n = std::pow(2.0, 26);
  const double b = 256.0;
  const double alpha = time_reduction_ratio(n, b);
  EXPECT_NEAR(alpha, 1.0 / b, 0.5 / b);
}

TEST(CostModel, MemoryIsEq12) {
  EXPECT_DOUBLE_EQ(dasc_memory_bytes(1000.0, 10.0),
                   4.0 * 1000.0 * 1000.0 / 10.0);
  EXPECT_DOUBLE_EQ(sc_memory_bytes(1000.0), 4.0 * 1000.0 * 1000.0);
}

TEST(CostModel, TimeScalesSubQuadraticallyWithAutoBuckets) {
  // Fig. 1's claim: doubling N raises DASC time by less than 4x when B
  // grows with N (B ~ sqrt(N) gives ~N^1.5 growth).
  const double t1 = dasc_time_seconds(std::pow(2.0, 24),
                                      model_bucket_count(std::pow(2.0, 24)));
  const double t2 = dasc_time_seconds(std::pow(2.0, 25),
                                      model_bucket_count(std::pow(2.0, 25)));
  EXPECT_LT(t2 / t1, 3.5);
  EXPECT_GT(t2 / t1, 1.5);
}

TEST(CostModel, MoreMachinesReduceTimeLinearly) {
  CostModelParams small;
  small.machines = 16;
  CostModelParams big;
  big.machines = 64;
  const double n = std::pow(2.0, 22);
  const double b = model_bucket_count(n);
  EXPECT_NEAR(dasc_time_seconds(n, b, small) / dasc_time_seconds(n, b, big),
              4.0, 1e-9);
}

TEST(CollisionProbability, WithinUnitInterval) {
  for (double exp = 20.0; exp <= 30.0; exp += 1.0) {
    for (double m = 5.0; m <= 35.0; m += 5.0) {
      const double p = collision_probability(std::pow(2.0, exp), m);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(CollisionProbability, DecreasesWithMoreHashBits) {
  // Fig. 2: more hash functions -> lower collision probability.
  const double n = std::pow(2.0, 20);
  double prev = 1.1;
  for (double m = 5.0; m <= 35.0; m += 5.0) {
    const double p = collision_probability(n, m);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(CollisionProbability, MildlyIncreasesWithDatasetSizeAtFixedM) {
  // Eq. (19) as printed gives ln P ~ -M/K(N): since K grows with N, the
  // probability *rises* slightly with dataset size. (The paper's prose
  // claims the opposite direction; its own formula does not — see
  // EXPERIMENTS.md. Either way the effect is small and every value stays
  // inside Fig. 2's 0.7-1.0 band.)
  double prev = 0.0;
  for (double exp = 20.0; exp <= 30.0; exp += 2.0) {
    const double p = collision_probability(std::pow(2.0, exp), 20.0);
    EXPECT_GT(p, prev);
    EXPECT_GT(p, 0.7);
    EXPECT_LT(p, 1.0);
    prev = p;
  }
}

TEST(CollisionProbability, StaysHighInPaperRange) {
  // Fig. 2 plots values between ~0.7 and 1.0 for M in [5, 35].
  const double p = collision_probability(std::pow(2.0, 20), 35.0);
  EXPECT_GT(p, 0.5);
}

TEST(CostModel, RejectsBadInputs) {
  EXPECT_THROW(model_cluster_count(0.5), dasc::InvalidArgument);
  EXPECT_THROW(dasc_time_seconds(0.0, 1.0), dasc::InvalidArgument);
  EXPECT_THROW(dasc_memory_bytes(10.0, 0.0), dasc::InvalidArgument);
  EXPECT_THROW(collision_probability(1.0, 5.0), dasc::InvalidArgument);
  EXPECT_THROW(collision_probability(1024.0, 0.0), dasc::InvalidArgument);
  CostModelParams bad;
  bad.beta_seconds = 0.0;
  EXPECT_THROW(dasc_time_seconds(10.0, 2.0, bad), dasc::InvalidArgument);
}

}  // namespace
}  // namespace dasc::core
