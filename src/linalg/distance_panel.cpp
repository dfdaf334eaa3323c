#include "linalg/distance_panel.hpp"

#include <algorithm>
#include <limits>

#include "linalg/simd_ops.hpp"

namespace dasc::linalg {

DistancePanel::DistancePanel(const double* rows, std::size_t count,
                             std::size_t dim)
    : rows_(rows), count_(count), dim_(dim), stride_((count + 3) / 4 * 4) {
  if (dim_ > kPanelMaxDim || count_ == 0) return;
  panel_.assign(dim_ * stride_, 0.0);
  for (std::size_t j = 0; j < count_; ++j) {
    const double* src = row(j);
    for (std::size_t e = 0; e < dim_; ++e) panel_[e * stride_ + j] = src[e];
  }
}

void DistancePanel::distances(const double* x, std::size_t begin,
                              std::size_t end, double* out) const {
  const SimdKernels& kernels = simd::active();
  if (!panel_.empty()) {
    kernels.squared_distance_panel(x, panel_.data() + begin, stride_, dim_,
                                   end - begin, out);
    return;
  }
  for (std::size_t j = begin; j < end; ++j) {
    out[j - begin] = kernels.squared_distance(x, row(j), dim_);
  }
}

std::size_t DistancePanel::nearest(const double* x) const {
  // A multiple of 4 so every chunk but the last is whole AVX2 registers;
  // the last runs on into the zero padding (stride_), never past it.
  constexpr std::size_t kChunk = 64;
  double dist[kChunk];
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t begin = 0; begin < count_; begin += kChunk) {
    const std::size_t end = std::min(begin + kChunk, count_);
    const std::size_t padded_end =
        panel_.empty() ? end : std::min(begin + kChunk, stride_);
    distances(x, begin, padded_end, dist);
    for (std::size_t j = begin; j < end; ++j) {
      if (dist[j - begin] < best_dist) {
        best_dist = dist[j - begin];
        best = j;
      }
    }
  }
  return best;
}

}  // namespace dasc::linalg
