#include "baselines/nystrom.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "clustering/kernel.hpp"
#include "clustering/spectral.hpp"
#include "common/error.hpp"

namespace dasc::baselines {

std::size_t nystrom_auto_landmarks(std::size_t n) {
  DASC_EXPECT(n >= 1, "nystrom_auto_landmarks: n must be positive");
  const auto rule =
      static_cast<std::size_t>(4.0 * std::sqrt(static_cast<double>(n)));
  return std::min(n, std::max<std::size_t>(16, rule));
}

NystromResult nystrom_cluster(const data::PointSet& points,
                              const NystromParams& params, Rng& rng) {
  const std::size_t n = points.size();
  DASC_EXPECT(n >= 2, "nystrom_cluster: need >= 2 points");
  DASC_EXPECT(params.k >= 1, "nystrom_cluster: k must be >= 1");

  NystromResult result;
  result.k = std::min(params.k, n);
  result.landmarks = params.landmarks > 0
                         ? std::min(params.landmarks, n)
                         : nystrom_auto_landmarks(n);
  const std::size_t m = std::max(result.landmarks, result.k);
  result.landmarks = m;
  const double sigma = params.sigma > 0.0
                           ? params.sigma
                           : clustering::suggest_bandwidth(points);

  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  const clustering::NystromFactorization factor =
      clustering::nystrom_factor(points, all, m, sigma, rng);
  result.kernel_bytes = linalg::gram_entry_bytes(n * m + m * m);

  result.labels =
      clustering::factored_spectral(factor.c.multiply(factor.p), result.k,
                                    rng)
          .fit.labels;
  return result;
}

}  // namespace dasc::baselines
