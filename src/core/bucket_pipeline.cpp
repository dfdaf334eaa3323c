#include "core/bucket_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>

#include "clustering/kernel.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/spool.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/bucket_embedder.hpp"

namespace dasc::core {

std::size_t bucket_cluster_count(std::size_t global_k, std::size_t bucket_size,
                                 std::size_t total_points) {
  DASC_EXPECT(total_points > 0, "bucket_cluster_count: no points");
  DASC_EXPECT(bucket_size <= total_points,
              "bucket_cluster_count: bucket larger than dataset");
  const double share = static_cast<double>(global_k) *
                       static_cast<double>(bucket_size) /
                       static_cast<double>(total_points);
  // Ceil rather than round: a bucket that straddles categories is better
  // split one cluster too fine (a purity no-op) than one too coarse (two
  // categories irrecoverably merged).
  const auto k = static_cast<std::size_t>(std::max(1.0, std::ceil(share)));
  return std::min(k, bucket_size);
}

namespace {

/// A dense Gram block evicted to CRC-guarded spool pages: raw row-major
/// double bytes chunked at page granularity, which round-trip bit-exactly.
struct SpilledBlock {
  std::unique_ptr<SpoolPager> pager;
  std::size_t rows = 0;
  std::size_t cols = 0;
};

SpilledBlock spill_dense_block(const linalg::DenseMatrix& block,
                               const SpoolConfig& config) {
  SpilledBlock spilled;
  spilled.rows = block.rows();
  spilled.cols = block.cols();
  spilled.pager = std::make_unique<SpoolPager>(config);
  const char* bytes = reinterpret_cast<const char*>(block.data());
  const std::size_t total = block.bytes();
  for (std::size_t offset = 0; offset < total;
       offset += config.page_bytes) {
    const std::size_t chunk = std::min(config.page_bytes, total - offset);
    spilled.pager->write_page(std::string_view(bytes + offset, chunk));
  }
  return spilled;
}

linalg::DenseMatrix unspill_dense_block(const SpilledBlock& spilled) {
  linalg::DenseMatrix block(spilled.rows, spilled.cols);
  char* bytes = reinterpret_cast<char*>(block.data());
  const std::size_t total = block.bytes();
  std::size_t offset = 0;
  for (std::size_t page = 0; page < spilled.pager->pages(); ++page) {
    const std::string payload = spilled.pager->read_page(page);
    DASC_ENSURE(offset + payload.size() <= total,
                "unspill_dense_block: pages overflow the block");
    std::memcpy(bytes + offset, payload.data(), payload.size());
    offset += payload.size();
  }
  DASC_ENSURE(offset == total,
              "unspill_dense_block: pages do not cover the block");
  return block;
}

std::vector<BucketJob> plan_jobs_impl(const std::vector<lsh::Bucket>& buckets,
                                      std::size_t global_k,
                                      std::size_t total_points, Rng* rng) {
  std::vector<BucketJob> jobs(buckets.size());
  // Seeds first, in bucket order: the only RNG consumption, matching the
  // draw order every pre-pipeline driver used, so labels stay bit-identical
  // with historical results for the same input seed.
  if (rng != nullptr) {
    for (auto& job : jobs) job.seed = (*rng)();
  }
  std::size_t next_offset = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    jobs[b].index = b;
    jobs[b].k_bucket = bucket_cluster_count(
        global_k, buckets[b].indices.size(), total_points);
    jobs[b].label_offset = next_offset;
    next_offset += jobs[b].k_bucket;
  }
  return jobs;
}

}  // namespace

std::vector<BucketJob> plan_bucket_jobs(const std::vector<lsh::Bucket>& buckets,
                                        std::size_t global_k,
                                        std::size_t total_points, Rng& rng) {
  return plan_jobs_impl(buckets, global_k, total_points, &rng);
}

std::vector<BucketJob> plan_bucket_jobs(const std::vector<lsh::Bucket>& buckets,
                                        std::size_t global_k,
                                        std::size_t total_points) {
  return plan_jobs_impl(buckets, global_k, total_points, nullptr);
}

std::size_t total_label_count(const std::vector<BucketJob>& jobs) {
  std::size_t total = 0;
  for (const auto& job : jobs) total += job.k_bucket;
  return total;
}

BucketPipelineOptions pipeline_options(const DascParams& params,
                                       double sigma) {
  BucketPipelineOptions options;
  options.sigma = sigma;
  options.threads = params.threads;
  options.max_inflight_blocks = params.max_inflight_blocks;
  options.max_inflight_bytes = params.max_inflight_bytes;
  options.spill_budget_bytes = params.spill_budget_bytes;
  options.spill_dir = params.spill_dir;
  options.metrics = params.metrics;
  options.faults = params.faults;
  options.max_bucket_attempts = params.max_bucket_attempts;
  return options;
}

BucketPipelineStats run_bucket_pipeline(const data::PointSet& points,
                                        const std::vector<lsh::Bucket>& buckets,
                                        const std::vector<BucketJob>& jobs,
                                        const BucketPipelineOptions& options,
                                        const BucketConsumer& consume) {
  DASC_EXPECT(jobs.size() == buckets.size(),
              "run_bucket_pipeline: one job per bucket required");
  DASC_EXPECT(!options.build_blocks || options.sigma > 0.0,
              "run_bucket_pipeline: sigma required to build blocks");
  DASC_EXPECT(consume != nullptr, "run_bucket_pipeline: null consumer");
  DASC_EXPECT(options.max_bucket_attempts >= 1,
              "run_bucket_pipeline: max_bucket_attempts must be >= 1");
  DASC_EXPECT(options.embedders.empty() ||
                  options.embedders.size() == buckets.size(),
              "run_bucket_pipeline: embedder plan must parallel the buckets");

  Stopwatch wall_clock;
  ScopedTimer wall_timer(options.metrics, "pipeline.wall");
  BucketPipelineStats stats;
  stats.buckets = buckets.size();
  if (buckets.empty()) return stats;

  // A consumer with an embedder plan reads no representation of a
  // trivial_bucket (its labels are all zero), so such a bucket takes no
  // block, no admission ticket, no fault site and no spill. Without a plan
  // (KPCA, SVM, approximate_kernel) every bucket is read.
  auto skipped = [&](std::size_t b) {
    return !options.embedders.empty() &&
           trivial_bucket(buckets[b].indices.size(), jobs[b].k_bucket);
  };
  // Whether bucket b's dense Gram block is pre-built here (the historical
  // path) or the bucket's embedder builds its own factored representation
  // inside the consumer. Either way the admission charge covers the bytes
  // the bucket will actually hold resident.
  auto prebuild_dense = [&](std::size_t b) {
    return options.build_blocks &&
           (options.embedders.empty() ||
            options.embedders[b]->backend() == GramBackend::kDense);
  };
  std::vector<std::size_t> block_bytes(buckets.size(), 0);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    DASC_EXPECT(jobs[b].index == b,
                "run_bucket_pipeline: jobs must parallel the bucket vector");
    if (skipped(b)) {
      stats.skipped_blocks += 1;
      continue;
    }
    if (options.build_blocks) {
      const std::size_t n = buckets[b].indices.size();
      block_bytes[b] = options.embedders.empty()
                           ? linalg::gram_entry_bytes(n * n)
                           : options.embedders[b]->gram_bytes(n, points.dim());
    }
    stats.peak_block_bytes = std::max(stats.peak_block_bytes, block_bytes[b]);
    stats.total_block_bytes += block_bytes[b];
  }

  AdmissionGate gate(options.max_inflight_blocks, options.max_inflight_bytes);
  std::mutex timing_mutex;

  // Gram spill: a pre-built dense block over the spill budget is evicted
  // to disk pages, its admission ticket released while it is out of core,
  // then faulted back in for consumption. The decision is a pure function
  // of the bucket's block size, so it is identical across thread counts.
  SpoolConfig spill_config;
  spill_config.dir = options.spill_dir;
  spill_config.max_attempts =
      std::max<std::size_t>(spill_config.max_attempts,
                            options.max_bucket_attempts);
  spill_config.faults = options.faults;
  spill_config.metrics = options.metrics;
  auto spills = [&](std::size_t b) {
    return options.spill_budget_bytes > 0 && prebuild_dense(b) &&
           block_bytes[b] > options.spill_budget_bytes;
  };

  // One timed consumer call; returns its seconds.
  auto consume_timed = [&](linalg::DenseMatrix&& block, std::size_t b) {
    Stopwatch consume_clock;
    {
      ScopedTimer consume_timer(options.metrics, "pipeline.consume");
      consume(std::move(block), buckets[b], jobs[b]);
    }
    // Force the block free (if the consumer didn't move it out) before the
    // admission ticket is returned, so the budget matches live memory.
    block = linalg::DenseMatrix();
    return consume_clock.seconds();
  };

  auto run_one = [&](std::size_t b) {
    // A skipped bucket's consumer still runs, with an empty block, so its
    // labels and keep hook are those of the block-reading path.
    if (skipped(b)) {
      const double consume_s = consume_timed(linalg::DenseMatrix(), b);
      std::lock_guard lock(timing_mutex);
      stats.consume_seconds += consume_s;
      return;
    }
    gate.acquire(block_bytes[b]);
    // The ticket is released manually around the spill window (the bytes
    // really are off the heap while the block sits on disk); the guard
    // only covers exits while the ticket is held.
    bool held = true;
    struct Ticket {
      AdmissionGate& gate;
      std::size_t bytes;
      bool* held;
      ~Ticket() {
        if (*held) gate.release(bytes);
      }
    } ticket{gate, block_bytes[b], &held};

    // Per-bucket retry: re-attempts rebuild the block and re-run the
    // consumer; the disjoint-label-slot contract makes that idempotent.
    for (std::size_t attempt = 1;; ++attempt) {
      try {
        if (!held) {
          gate.acquire(block_bytes[b]);
          held = true;
        }
        if (options.faults != nullptr) {
          options.faults->maybe_throw("alloc.gram_block");
        }
        Stopwatch build_clock;
        linalg::DenseMatrix block;
        if (prebuild_dense(b)) {
          ScopedTimer build_timer(options.metrics, "pipeline.gram_build");
          block = clustering::gaussian_gram_subset(points, buckets[b].indices,
                                                   options.sigma,
                                                   options.metrics);
        }
        const double build_s = build_clock.seconds();

        bool block_was_spilled = false;
        std::size_t spill_payload_bytes = 0;
        if (spills(b) && !block.empty()) {
          spill_payload_bytes = block.bytes();
          const SpilledBlock spilled = spill_dense_block(block, spill_config);
          block = linalg::DenseMatrix();  // evicted: free the heap copy
          gate.release(block_bytes[b]);
          held = false;
          // Fault the block back in under a fresh ticket; other buckets
          // may have used the released budget in between.
          gate.acquire(block_bytes[b]);
          held = true;
          block = unspill_dense_block(spilled);
          block_was_spilled = true;
        }

        const double consume_s = consume_timed(std::move(block), b);

        if (block_was_spilled && options.metrics != nullptr) {
          options.metrics->counter("pipeline.blocks_spilled").add();
        }
        std::lock_guard lock(timing_mutex);
        stats.build_seconds += build_s;
        stats.consume_seconds += consume_s;
        if (block_was_spilled) {
          stats.spilled_blocks += 1;
          stats.spilled_bytes += spill_payload_bytes;
        }
        return;
      } catch (...) {
        if (attempt >= options.max_bucket_attempts) throw;
        if (options.metrics != nullptr) {
          options.metrics->counter("retry.bucket_attempts").add();
        }
        DASC_LOG(kWarn) << "bucket pipeline: bucket " << b << " attempt "
                        << attempt << " failed; retrying";
      }
    }
  };

  std::size_t threads =
      options.threads == 0 ? default_threads() : options.threads;
  threads = std::min(threads, buckets.size());

  if (threads <= 1) {
    for (std::size_t b = 0; b < buckets.size(); ++b) run_one(b);
  } else {
    ThreadPool pool(threads);
    std::vector<std::future<void>> pending;
    pending.reserve(buckets.size());
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      pending.push_back(pool.submit([&run_one, b] { run_one(b); }));
    }
    std::exception_ptr error;
    for (auto& fut : pending) {
      try {
        fut.get();
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
  }

  stats.peak_inflight_bytes = gate.peak_bytes();
  stats.wall_seconds = wall_clock.seconds();

  if (options.metrics != nullptr) {
    MetricsRegistry& registry = *options.metrics;
    registry.counter("pipeline.buckets")
        .add(static_cast<std::int64_t>(stats.buckets));
    registry.counter("pipeline.blocks_admitted")
        .add(static_cast<std::int64_t>(gate.admitted()));
    registry.counter("pipeline.gram_bytes_built")
        .add(static_cast<std::int64_t>(stats.total_block_bytes));
    registry.counter("pipeline.gram_blocks_skipped")
        .add(static_cast<std::int64_t>(stats.skipped_blocks));
    // How often the admission budget actually blocked a task. This varies
    // with scheduling, so it is a gauge, not a regression-gated counter.
    registry.gauge("pipeline.blocks_queued")
        .set_max(static_cast<std::int64_t>(gate.queued()));
    registry.gauge("pipeline.peak_inflight_bytes")
        .set_max(static_cast<std::int64_t>(stats.peak_inflight_bytes));
    registry.gauge("pipeline.peak_inflight_blocks")
        .set_max(static_cast<std::int64_t>(gate.peak_tasks()));
    registry.gauge("pipeline.peak_block_bytes")
        .set_max(static_cast<std::int64_t>(stats.peak_block_bytes));
  }
  return stats;
}

void fold_pipeline_stats(const BucketPipelineStats& pipeline,
                         ApproximatorStats& stats) {
  stats.peak_block_bytes =
      std::max(stats.peak_block_bytes, pipeline.peak_block_bytes);
  stats.peak_inflight_bytes =
      std::max(stats.peak_inflight_bytes, pipeline.peak_inflight_bytes);
  stats.gram_seconds += pipeline.build_seconds;
  stats.consume_seconds += pipeline.consume_seconds;
}

}  // namespace dasc::core
