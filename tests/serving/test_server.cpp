#include "serving/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/dasc_params.hpp"
#include "data/synthetic.hpp"
#include "serving/model_artifact.hpp"

namespace dasc::serving {
namespace {

data::PointSet demo_points() {
  data::MixtureParams mix;
  mix.n = 300;
  mix.dim = 8;
  mix.k = 4;
  mix.cluster_stddev = 0.03;
  Rng rng(11);
  return data::make_gaussian_mixture(mix, rng);
}

FitResult demo_fit(const data::PointSet& points) {
  core::DascParams params;
  params.k = 4;
  params.threads = 1;
  Rng rng(7);
  return fit_model(points, params, rng);
}

TEST(ServerTest, LabelsBitIdenticalAcrossThreadsAndBatchSizes) {
  const data::PointSet points = demo_points();
  const FitResult fit = demo_fit(points);
  const Assigner assigner(fit.model);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
      ServerOptions options;
      options.threads = threads;
      options.max_batch_size = batch;
      Server server(assigner, options);
      const std::vector<int> served = server.assign_all(points);
      EXPECT_EQ(served, fit.offline.labels)
          << "threads=" << threads << " batch=" << batch;
    }
  }
}

TEST(ServerTest, LingerStillServesEveryRequest) {
  const data::PointSet points = demo_points();
  const FitResult fit = demo_fit(points);
  const Assigner assigner(fit.model);

  ServerOptions options;
  options.threads = 2;
  options.max_batch_size = 8;
  options.max_linger = std::chrono::microseconds(500);
  Server server(assigner, options);
  const std::vector<int> served = server.assign_all(points);
  EXPECT_EQ(served, fit.offline.labels);
}

TEST(ServerTest, CountersAreDeterministicAcrossConfigurations) {
  const data::PointSet points = demo_points();
  const FitResult fit = demo_fit(points);
  const Assigner assigner(fit.model);

  auto run = [&](std::size_t threads, std::size_t batch) {
    MetricsRegistry registry;
    ServerOptions options;
    options.threads = threads;
    options.max_batch_size = batch;
    options.metrics = &registry;
    {
      Server server(assigner, options);
      server.assign_all(points);
      server.shutdown();
    }
    return registry.counters_snapshot();
  };

  const std::map<std::string, std::int64_t> base = run(1, 1);
  EXPECT_EQ(base.at("serving.requests"),
            static_cast<std::int64_t>(points.size()));
  // Training points all hit the exact-landmark fast path.
  EXPECT_EQ(base.at("serving.exact_hits"),
            static_cast<std::int64_t>(points.size()));
  EXPECT_EQ(run(4, 16), base);
  EXPECT_EQ(run(2, 7), base);
}

TEST(ServerTest, EveryRequestIsCountedOnOnePathForEveryBackend) {
  // Perturbed training points miss the exact-landmark path, so the
  // approximate backends embed them through their persisted factor.
  const data::PointSet points = demo_points();
  data::PointSet queries(points.size(), points.dim());
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t d = 0; d < points.dim(); ++d) {
      queries.point(i)[d] = points.point(i)[d] + 1e-7;
    }
  }
  for (const core::GramBackendPolicy backend :
       {core::GramBackendPolicy::kDense, core::GramBackendPolicy::kNystrom,
        core::GramBackendPolicy::kRbfBinning}) {
    SCOPED_TRACE(static_cast<int>(backend));
    core::DascParams params;
    params.k = 4;
    params.threads = 1;
    params.gram_backend = backend;
    Rng rng(7);
    const Assigner assigner(fit_model(points, params, rng).model);
    MetricsRegistry registry;
    ServerOptions options;
    options.metrics = &registry;
    {
      Server server(assigner, options);
      server.assign_all(points);
      server.assign_all(queries);
      server.shutdown();
    }
    const std::int64_t requests = registry.counter_value("serving.requests");
    EXPECT_EQ(requests, static_cast<std::int64_t>(2 * points.size()));
    EXPECT_EQ(registry.counter_value("serving.exact_hits") +
                  registry.counter_value("serving.nystrom_assigns"),
              requests);
    EXPECT_GT(registry.counter_value("serving.nystrom_assigns"), 0);
  }
}

TEST(ServerTest, MetricsGaugesAndTimersPopulated) {
  const data::PointSet points = demo_points();
  const FitResult fit = demo_fit(points);
  const Assigner assigner(fit.model);

  MetricsRegistry registry;
  ServerOptions options;
  options.threads = 2;
  options.max_batch_size = 16;
  options.metrics = &registry;
  {
    Server server(assigner, options);
    server.assign_all(points);
    server.shutdown();
  }
  EXPECT_GT(registry.timer_count("serving.assign_batch"), 0);
  EXPECT_EQ(registry.timer_count("serving.request_latency"),
            static_cast<std::int64_t>(points.size()));
  EXPECT_GE(registry.gauge_value("serving.peak_batch_size"), 1);
  EXPECT_LE(registry.gauge_value("serving.peak_batch_size"), 16);
  EXPECT_GE(registry.gauge_value("serving.peak_queue_depth"), 1);
  EXPECT_GE(registry.gauge_value("serving.batches"), 1);
}

TEST(ServerTest, ShutdownDrainsPendingRequests) {
  const data::PointSet points = demo_points();
  const FitResult fit = demo_fit(points);
  const Assigner assigner(fit.model);

  ServerOptions options;
  options.threads = 1;
  options.max_batch_size = 4;
  Server server(assigner, options);
  std::vector<std::future<int>> futures;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto point = points.point(i);
    futures.push_back(
        server.submit(std::vector<double>(point.begin(), point.end())));
  }
  server.shutdown();  // must serve everything already queued
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), fit.offline.labels[i]);
  }
}

TEST(ServerTest, SubmitAfterShutdownThrows) {
  const data::PointSet points = demo_points();
  const FitResult fit = demo_fit(points);
  const Assigner assigner(fit.model);
  Server server(assigner);
  server.shutdown();
  EXPECT_THROW(server.submit(std::vector<double>(8, 0.5)), InvalidArgument);
}

TEST(ServerTest, RejectsWrongDimensionality) {
  const data::PointSet points = demo_points();
  const FitResult fit = demo_fit(points);
  const Assigner assigner(fit.model);
  Server server(assigner);
  EXPECT_THROW(server.submit(std::vector<double>(3, 0.5)), InvalidArgument);
}

}  // namespace
}  // namespace dasc::serving
