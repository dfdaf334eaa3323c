#include "serving/server.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/thread_pool.hpp"

namespace dasc::serving {

Server::Server(const Assigner& assigner, const ServerOptions& options)
    : assigner_(assigner), options_(options) {
  DASC_EXPECT(options_.max_batch_size > 0,
              "Server: max_batch_size must be positive");
  const std::size_t threads =
      options_.threads == 0 ? default_threads() : options_.threads;
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(); }

std::future<int> Server::submit(std::vector<double> query) {
  DASC_EXPECT(query.size() == assigner_.dim(),
              "Server: query dimensionality mismatch");
  Request request;
  request.point = std::move(query);
  request.enqueued = std::chrono::steady_clock::now();
  std::future<int> result = request.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DASC_EXPECT(!stopping_, "Server: submit after shutdown");
    queue_.push_back(std::move(request));
    peak_queue_depth_ = std::max(peak_queue_depth_, queue_.size());
  }
  cv_.notify_one();
  return result;
}

std::vector<int> Server::assign_all(const data::PointSet& queries) {
  std::vector<std::future<int>> futures;
  futures.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto point = queries.point(i);
    futures.push_back(submit(std::vector<double>(point.begin(), point.end())));
  }
  std::vector<int> labels(queries.size(), 0);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    labels[i] = futures[i].get();
  }
  return labels;
}

void Server::worker_loop() {
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Stopping: leave when drained, or immediately when rejecting (the
      // shutdown caller settles whatever is still queued).
      if (queue_.empty() || rejecting_) return;
      if (options_.max_linger.count() > 0 && !stopping_ &&
          queue_.size() < options_.max_batch_size) {
        cv_.wait_for(lock, options_.max_linger, [this] {
          return stopping_ || queue_.size() >= options_.max_batch_size;
        });
      }
      // Another worker may have drained the queue during the linger wait.
      const std::size_t take =
          std::min(options_.max_batch_size, queue_.size());
      if (take == 0) continue;
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      peak_batch_size_ = std::max(peak_batch_size_, batch.size());
      ++batches_served_;
    }
    serve_batch(batch);
  }
}

void Server::serve_batch(std::vector<Request>& batch) {
  MetricsRegistry* metrics = options_.metrics;
  {
    ScopedTimer batch_timer(metrics, "serving.assign_batch");
    for (Request& request : batch) {
      try {
        if (options_.faults != nullptr) {
          options_.faults->maybe_throw("serving.assign");
        }
        const AssignOutcome outcome =
            assigner_.assign_detailed(request.point);
        if (metrics != nullptr) {
          metrics->counter("serving.requests").add();
          switch (outcome.route) {
            case RoutePath::kExact:
              break;
            case RoutePath::kHamming:
              metrics->counter("serving.hamming_fallbacks").add();
              break;
            case RoutePath::kScan:
              metrics->counter("serving.scan_fallbacks").add();
              break;
          }
          switch (outcome.path) {
            case AssignPath::kExactLandmark:
              metrics->counter("serving.exact_hits").add();
              break;
            case AssignPath::kNystrom:
            case AssignPath::kNearestLandmark:
            case AssignPath::kFactor:
              metrics->counter("serving.nystrom_assigns").add();
              break;
          }
        }
        request.promise.set_value(outcome.label);
      } catch (...) {
        request.promise.set_exception(std::current_exception());
      }
    }
  }
  if (metrics != nullptr) {
    auto& latency = metrics->timer("serving.request_latency");
    const auto now = std::chrono::steady_clock::now();
    for (const Request& request : batch) {
      latency.record_nanos(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - request.enqueued)
              .count());
    }
  }
}

void Server::shutdown(DrainMode mode) {
  // Serialize shutdown callers: without this, two concurrent calls would
  // race on workers_ (one joining while the other clears).
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    if (mode == DrainMode::kReject) rejecting_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // Under kReject, settle every queued request with a typed error so no
  // future is ever stranded (in-flight batches were finished by the
  // workers before they joined).
  std::deque<Request> rejected;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (rejecting_) rejected.swap(queue_);
    rejected_requests_ += rejected.size();
  }
  for (Request& request : rejected) {
    request.promise.set_exception(std::make_exception_ptr(
        ServerStoppedError("Server: shut down before request was served")));
  }

  if (options_.metrics != nullptr) {
    options_.metrics->gauge("serving.peak_queue_depth")
        .set_max(static_cast<std::int64_t>(peak_queue_depth_));
    options_.metrics->gauge("serving.peak_batch_size")
        .set_max(static_cast<std::int64_t>(peak_batch_size_));
    options_.metrics->gauge("serving.batches")
        .set_max(static_cast<std::int64_t>(batches_served_));
    // Timing-shaped (how much was still queued), hence a gauge.
    options_.metrics->gauge("serving.rejected_on_shutdown")
        .set_max(static_cast<std::int64_t>(rejected_requests_));
  }
}

}  // namespace dasc::serving
