// Image segmentation by spectral clustering (Weiss '99, one of the paper's
// cited applications).
//
//   $ ./image_segmentation
//
// Builds a synthetic image with three intensity regions plus noise, turns
// every pixel into a (x, y, intensity) feature point, segments it with
// DASC, and renders the result as ASCII art so the segmentation quality is
// visible at a glance.
#include <cstdio>
#include <vector>

#include "clustering/metrics.hpp"
#include "core/dasc_clusterer.hpp"
#include "data/point_set.hpp"

namespace {

constexpr std::size_t kWidth = 48;
constexpr std::size_t kHeight = 24;

/// Ground-truth region of a pixel: a disk, a bar, and background.
int true_region(std::size_t x, std::size_t y) {
  const double cx = 14.0;
  const double cy = 12.0;
  const double dx = static_cast<double>(x) - cx;
  const double dy = static_cast<double>(y) - cy;
  if (dx * dx + dy * dy < 64.0) return 1;            // disk
  if (x > 30 && x < 42 && y > 4 && y < 20) return 2;  // bar
  return 0;                                           // background
}

}  // namespace

int main() {
  using namespace dasc;

  // 1. Render the synthetic image: intensity per region plus noise.
  Rng noise_rng(99);
  data::PointSet pixels(kWidth * kHeight, 3);
  std::vector<int> truth(kWidth * kHeight);
  for (std::size_t y = 0; y < kHeight; ++y) {
    for (std::size_t x = 0; x < kWidth; ++x) {
      const std::size_t i = y * kWidth + x;
      const int region = true_region(x, y);
      truth[i] = region;
      const double intensity =
          (region == 0 ? 0.15 : region == 1 ? 0.55 : 0.9) +
          noise_rng.normal(0.0, 0.02);
      // Spatial coordinates weighted lightly so segments stay contiguous
      // but intensity dominates.
      pixels.at(i, 0) = 0.12 * static_cast<double>(x) / kWidth;
      pixels.at(i, 1) = 0.12 * static_cast<double>(y) / kHeight;
      pixels.at(i, 2) = intensity;
    }
  }

  // 2. Segment with DASC: LSH buckets play the role of image tiles and the
  //    per-bucket spectral step separates intensity clusters inside each.
  core::DascParams params;
  // Over-provision: per-bucket shares round down to ~2 for the object tile.
  params.k = 6;
  params.m = 2;
  params.p = 2;  // no bucket merging: keep the intensity tiles separate
  params.sigma = 0.08;
  Rng rng(7);
  const core::DascResult result = core::dasc_cluster(pixels, params, rng);

  // 3. Report quality and draw both images. Purity is the right score:
  // LSH tiles may split one region into several segments, which is not a
  // labelling error (each segment still lies inside one true region).
  const double purity = clustering::clustering_purity(result.labels, truth);
  std::printf("segmented %zu pixels into %zu segments; region purity"
              " %.1f%%\n",
              pixels.size(), result.num_clusters, purity * 100.0);
  std::printf("gram bytes: %zu (full: %zu)\n\n", result.stats.gram_bytes,
              result.stats.full_gram_bytes);

  std::printf("ground truth:%*s segmentation:\n",
              static_cast<int>(kWidth) - 12, "");
  const char glyphs[] = ".oO#%&*+=@";
  for (std::size_t y = 0; y < kHeight; ++y) {
    for (std::size_t x = 0; x < kWidth; ++x) {
      std::putchar(glyphs[truth[y * kWidth + x] % 10]);
    }
    std::printf("  ");
    for (std::size_t x = 0; x < kWidth; ++x) {
      std::putchar(glyphs[result.labels[y * kWidth + x] % 10]);
    }
    std::putchar('\n');
  }
  return 0;
}
