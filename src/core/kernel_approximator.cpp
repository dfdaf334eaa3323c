#include "core/kernel_approximator.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "clustering/kernel.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/bucket_embedder.hpp"
#include "core/bucket_pipeline.hpp"
#include "data/wiki_corpus.hpp"
#include "linalg/simd_ops.hpp"
#include "lsh/minhash.hpp"
#include "lsh/simhash.hpp"
#include "lsh/spectral_hash.hpp"

namespace dasc::core {

std::size_t resolve_signature_bits(const DascParams& params, std::size_t n) {
  DASC_EXPECT(n > 0, "resolve_signature_bits: n must be positive");
  if (params.m != 0) {
    DASC_EXPECT(params.m <= lsh::kMaxSignatureBits,
                "resolve_signature_bits: m too large");
    return params.m;
  }
  return lsh::auto_signature_bits(n);
}

std::size_t resolve_merge_bits(const DascParams& params, std::size_t m) {
  if (params.p != 0) {
    DASC_EXPECT(params.p <= m, "resolve_merge_bits: p must be <= m");
    return params.p;
  }
  return m > 1 ? m - 1 : 1;
}

std::size_t resolve_cluster_count(const DascParams& params, std::size_t n) {
  DASC_EXPECT(n > 0, "resolve_cluster_count: n must be positive");
  if (params.k != 0) return std::min(params.k, n);
  const std::size_t k = data::wiki_category_count(n);
  return std::min(std::max<std::size_t>(k, 2), n);
}

double resolve_bandwidth(const DascParams& params,
                         const data::PointSet& points) {
  return params.sigma > 0.0 ? params.sigma
                            : clustering::suggest_bandwidth(points);
}

void apply_simd_level(const DascParams& params) {
  linalg::simd::set_level(params.simd_level);
  if (params.metrics != nullptr) {
    params.metrics->gauge("linalg.simd_level")
        .set(linalg::simd::level_gauge_value(linalg::simd::active_level()));
  }
}

BlockGram::BlockGram(std::vector<lsh::Bucket> buckets,
                     std::vector<linalg::DenseMatrix> blocks, std::size_t n)
    : buckets_(std::move(buckets)), blocks_(std::move(blocks)), n_(n) {
  DASC_EXPECT(buckets_.size() == blocks_.size(),
              "BlockGram: bucket/block count mismatch");
  std::size_t covered = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    DASC_EXPECT(blocks_[b].rows() == buckets_[b].indices.size() &&
                    blocks_[b].cols() == buckets_[b].indices.size(),
                "BlockGram: block shape must match bucket size");
    covered += buckets_[b].indices.size();
  }
  DASC_EXPECT(covered == n_, "BlockGram: buckets must partition the points");
}

const lsh::Bucket& BlockGram::bucket(std::size_t b) const {
  DASC_EXPECT(b < buckets_.size(), "BlockGram: bucket out of range");
  return buckets_[b];
}

const linalg::DenseMatrix& BlockGram::block(std::size_t b) const {
  DASC_EXPECT(b < blocks_.size(), "BlockGram: block out of range");
  return blocks_[b];
}

std::size_t BlockGram::stored_entries() const {
  std::size_t entries = 0;
  for (const auto& bucket : buckets_) {
    entries += bucket.indices.size() * bucket.indices.size();
  }
  return entries;
}

std::size_t BlockGram::gram_bytes() const {
  std::size_t bytes = 0;
  for (const auto& bucket : buckets_) {
    bytes += BucketEmbedder::dense_bytes(bucket.indices.size());
  }
  return bytes;
}

double BlockGram::frobenius_norm() const {
  double acc = 0.0;
  for (const auto& block : blocks_) {
    const double f = block.frobenius_norm();
    acc += f * f;
  }
  return std::sqrt(acc);
}

linalg::DenseMatrix BlockGram::to_dense() const {
  linalg::DenseMatrix dense(n_, n_, 0.0);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const auto& indices = buckets_[b].indices;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      for (std::size_t j = 0; j < indices.size(); ++j) {
        dense(indices[i], indices[j]) = blocks_[b](i, j);
      }
    }
  }
  return dense;
}

namespace {

std::unique_ptr<lsh::LshHasher> make_hasher(const data::PointSet& points,
                                            const DascParams& params,
                                            std::size_t m, Rng& rng) {
  switch (params.family) {
    case HashFamily::kRandomProjection:
      return std::make_unique<lsh::RandomProjectionHasher>(
          lsh::RandomProjectionHasher::fit(points, m, params.selection, rng));
    case HashFamily::kMinHash:
      return std::make_unique<lsh::MinHashHasher>(
          lsh::MinHashHasher::fit(points, m, rng));
    case HashFamily::kSimHash:
      return std::make_unique<lsh::SimHashHasher>(
          lsh::SimHashHasher::fit(points, m, rng));
    case HashFamily::kSpectralHash:
      return std::make_unique<lsh::SpectralHashHasher>(
          lsh::SpectralHashHasher::fit(points, m));
  }
  DASC_ENSURE(false, "make_hasher: unknown hash family");
}

/// The leaves of one bucket's median-split tree: a bucket within the cap is
/// its own leaf, an over-cap one splits at the median of its widest
/// dimension until every part fits. Leaves come out in the order a
/// depth-first walk that visits the right child first reaches them.
std::vector<lsh::Bucket> split_bucket(const data::PointSet& points,
                                      lsh::Bucket root,
                                      std::size_t max_points) {
  const std::size_t d = points.dim();
  std::vector<lsh::Bucket> leaves;
  std::vector<lsh::Bucket> work;
  work.push_back(std::move(root));
  std::vector<double> lo(d);
  std::vector<double> hi(d);
  std::vector<double> column;
  std::vector<double> selection;
  while (!work.empty()) {
    lsh::Bucket bucket = std::move(work.back());
    work.pop_back();
    const std::vector<std::size_t>& indices = bucket.indices;
    if (indices.size() <= max_points) {
      leaves.push_back(std::move(bucket));
      continue;
    }

    // Every dimension's span in one pass over the members' rows.
    const auto first = points.point(indices[0]);
    std::copy(first.begin(), first.end(), lo.begin());
    std::copy(first.begin(), first.end(), hi.begin());
    for (std::size_t idx : indices) {
      const auto row = points.point(idx);
      for (std::size_t dim = 0; dim < d; ++dim) {
        lo[dim] = std::min(lo[dim], row[dim]);
        hi[dim] = std::max(hi[dim], row[dim]);
      }
    }
    std::size_t best_dim = 0;
    double best_span = -1.0;
    for (std::size_t dim = 0; dim < d; ++dim) {
      if (hi[dim] - lo[dim] > best_span) {
        best_span = hi[dim] - lo[dim];
        best_dim = dim;
      }
    }

    // Split the widest dimension at its median.
    column.resize(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      column[i] = points.point(indices[i])[best_dim];
    }
    selection.assign(column.begin(), column.end());
    auto mid =
        selection.begin() + static_cast<std::ptrdiff_t>(selection.size() / 2);
    std::nth_element(selection.begin(), mid, selection.end());
    const double median = *mid;
    // When at least half the members tie at the minimum, nothing lies
    // below the median; the tied members then form the left side.
    const bool inclusive = median == lo[best_dim];

    lsh::Bucket left;
    lsh::Bucket right;
    left.signature = bucket.signature;
    right.signature = bucket.signature;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const bool goes_left =
          inclusive ? column[i] <= median : column[i] < median;
      (goes_left ? left : right).indices.push_back(indices[i]);
    }
    if (left.indices.empty() || right.indices.empty()) {
      // Every dimension has zero span: no split separates the members, so
      // a cap cannot apply.
      leaves.push_back(std::move(bucket));
      continue;
    }
    work.push_back(std::move(left));
    work.push_back(std::move(right));
  }
  return leaves;
}

}  // namespace

std::vector<lsh::Bucket> balance_buckets(const data::PointSet& points,
                                         std::vector<lsh::Bucket> buckets,
                                         std::size_t max_points,
                                         std::size_t threads) {
  DASC_EXPECT(max_points >= 2, "balance_buckets: cap must be >= 2");

  // Each bucket splits on its own. Concatenating the leaves last bucket
  // first gives the order of one LIFO walk over the whole list, so the
  // output does not depend on the thread count.
  std::vector<std::vector<lsh::Bucket>> leaves(buckets.size());
  parallel_for(0, buckets.size(), threads, [&](std::size_t b) {
    leaves[b] = split_bucket(points, std::move(buckets[b]), max_points);
  });
  std::vector<lsh::Bucket> out;
  for (auto it = leaves.rbegin(); it != leaves.rend(); ++it) {
    out.insert(out.end(), std::make_move_iterator(it->begin()),
               std::make_move_iterator(it->end()));
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const lsh::Bucket& x, const lsh::Bucket& y) {
                     return x.indices.size() > y.indices.size();
                   });
  return out;
}

std::vector<lsh::Bucket> merge_buckets(const data::PointSet& points,
                                       const lsh::BucketTable& table,
                                       const DascParams& params,
                                       ApproximatorStats* stats) {
  const std::size_t m = table.signature_bits();
  const std::size_t p = resolve_merge_bits(params, m);
  const lsh::MergeStrategy strategy =
      p == m ? lsh::MergeStrategy::kNone : params.merge;
  std::vector<lsh::Bucket> buckets =
      table.merged_buckets(p, strategy, params.metrics);
  if (params.max_bucket_points > 0) {
    ScopedTimer balance_timer(params.metrics, "lsh.bucketing");
    buckets = balance_buckets(
        points, std::move(buckets),
        std::max<std::size_t>(params.max_bucket_points, 2), params.threads);
  }

  if (stats != nullptr) {
    stats->signature_bits = m;
    stats->merge_bits = p;
    stats->raw_buckets = table.raw_bucket_count();
    stats->merged_buckets = buckets.size();
    stats->largest_bucket =
        buckets.empty() ? 0 : buckets.front().indices.size();
    // Dense-backend Gram storage is fully determined by the bucket sizes,
    // so report it here too (consumers that stream blocks never materialize
    // them; backend-aware callers overwrite this with the EmbedderSet
    // total).
    std::size_t entries = 0;
    std::size_t bytes = 0;
    for (const auto& bucket : buckets) {
      entries += bucket.indices.size() * bucket.indices.size();
      bytes += BucketEmbedder::dense_bytes(bucket.indices.size());
    }
    stats->gram_bytes = bytes;
    stats->full_gram_bytes =
        linalg::gram_entry_bytes(points.size() * points.size());
    stats->fill_ratio = static_cast<double>(entries) /
                        (static_cast<double>(points.size()) *
                         static_cast<double>(points.size()));
  }
  return buckets;
}

std::vector<lsh::Bucket> bucket_points(
    const data::PointSet& points, const DascParams& params, Rng& rng,
    ApproximatorStats* stats, std::unique_ptr<lsh::LshHasher>* hasher_out) {
  DASC_EXPECT(!points.empty(), "bucket_points: empty dataset");
  // Every DASC consumer funnels through here before touching the linalg
  // hot paths, so this is where the SIMD knob takes effect.
  apply_simd_level(params);
  Stopwatch clock;

  const std::size_t m = resolve_signature_bits(params, points.size());
  std::unique_ptr<lsh::LshHasher> hasher =
      make_hasher(points, params, m, rng);
  const lsh::BucketTable table =
      lsh::BucketTable::build(points, *hasher, params.metrics);
  std::vector<lsh::Bucket> buckets =
      merge_buckets(points, table, params, stats);
  if (stats != nullptr) stats->hash_seconds = clock.seconds();
  if (hasher_out != nullptr) *hasher_out = std::move(hasher);
  return buckets;
}

BlockGram approximate_kernel(const data::PointSet& points,
                             const DascParams& params, Rng& rng,
                             ApproximatorStats* stats) {
  std::vector<lsh::Bucket> buckets = bucket_points(points, params, rng, stats);

  Stopwatch clock;
  // Materializing every block is the point of this API (Fnorm analysis,
  // BlockGram consumers), so the in-flight budget is left unlimited; the
  // bucket pipeline still supplies the build loop.
  std::vector<linalg::DenseMatrix> blocks(buckets.size());
  BucketPipelineOptions options;
  options.sigma = resolve_bandwidth(params, points);
  options.threads = params.threads;
  options.metrics = params.metrics;
  const std::vector<BucketJob> jobs =
      plan_bucket_jobs(buckets, 0, points.size());
  run_bucket_pipeline(points, buckets, jobs, options,
                      [&blocks](linalg::DenseMatrix&& block,
                                const lsh::Bucket& /*bucket*/,
                                const BucketJob& job) {
                        blocks[job.index] = std::move(block);
                      });

  BlockGram gram(std::move(buckets), std::move(blocks), points.size());
  if (stats != nullptr) {
    stats->gram_seconds = clock.seconds();
    stats->gram_bytes = gram.gram_bytes();
    stats->full_gram_bytes =
        linalg::gram_entry_bytes(points.size() * points.size());
    stats->fill_ratio =
        static_cast<double>(gram.stored_entries()) /
        (static_cast<double>(points.size()) *
         static_cast<double>(points.size()));
  }
  return gram;
}

}  // namespace dasc::core
