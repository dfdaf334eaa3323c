// One-to-many squared distances against a fixed set of rows: the Gram
// build's column tiles, a Lloyd iteration's centroids, a served bucket's
// centroids.
//
// The rows are transposed once into a dimension-major panel, so the
// dispatched squared_distance_panel kernel evaluates several columns per
// register instead of paying one call, one lane store and one fold per
// pair. Above kPanelMaxDim dimensions the transposed panel loses to the
// contiguous per-pair sweep, and distances() calls the per-pair kernel on
// the row-major rows instead. Either way every distance is bit-identical
// to linalg::squared_distance at the active dispatch level (DESIGN.md
// section 10).
#pragma once

#include <cstddef>

#include "common/aligned_allocator.hpp"

namespace dasc::linalg {

/// Largest dimension that gets a dimension-major panel. Fixed, not tuned
/// per host: on `bench_micro_linalg`'s BM_PanelDistance rows the panel
/// kernel is several times faster than the per-pair kernel at 8-16
/// dimensions, about even at 64 and slower from there on.
inline constexpr std::size_t kPanelMaxDim = 64;

class DistancePanel {
 public:
  DistancePanel() = default;

  /// Panel over `count` rows of `dim` doubles, row-major at `rows`
  /// (row j at rows + j * dim). The rows are borrowed, not copied: they
  /// must stay alive and unchanged while the panel is used.
  DistancePanel(const double* rows, std::size_t count, std::size_t dim);

  std::size_t size() const { return count_; }
  std::size_t dim() const { return dim_; }

  /// Row j of the borrowed row-major block.
  const double* row(std::size_t j) const { return rows_ + j * dim_; }

  /// out[j - begin] = ||x - row j||^2 for j in [begin, end); x has dim()
  /// entries.
  void distances(const double* x, std::size_t begin, std::size_t end,
                 double* out) const;

  /// Index of the nearest row to x: the first j whose distance is
  /// strictly below every earlier one (0 when size() == 0 or every
  /// distance is NaN).
  std::size_t nearest(const double* x) const;

 private:
  const double* rows_ = nullptr;
  std::size_t count_ = 0;
  std::size_t dim_ = 0;
  /// Columns of panel_, count_ rounded up to a multiple of 4; the padding
  /// columns are zero and only ever read by nearest()'s whole-register
  /// tail.
  std::size_t stride_ = 0;
  /// dim_ x stride_, dimension-major; empty above kPanelMaxDim.
  AlignedVector panel_;
};

}  // namespace dasc::linalg
