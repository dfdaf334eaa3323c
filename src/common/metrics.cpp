#include "common/metrics.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace dasc {

namespace {

template <typename Map>
auto& find_or_create(Map& map, std::string_view name, std::mutex& mutex) {
  std::lock_guard lock(mutex);
  auto it = map.find(name);
  if (it == map.end()) {
    using Instrument = typename Map::mapped_type::element_type;
    it = map.emplace(std::string(name), std::make_unique<Instrument>()).first;
  }
  return *it->second;
}

/// Escape a metric name for use as a JSON string literal. Names are plain
/// identifiers in practice; quotes/backslashes/control bytes are escaped so
/// the writer is safe for any input.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_ms(double ms) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
  return buffer;
}

}  // namespace

MetricsRegistry::Counter& MetricsRegistry::counter(std::string_view name) {
  return find_or_create(counters_, name, mutex_);
}

MetricsRegistry::Timer& MetricsRegistry::timer(std::string_view name) {
  return find_or_create(timers_, name, mutex_);
}

MetricsRegistry::Gauge& MetricsRegistry::gauge(std::string_view name) {
  return find_or_create(gauges_, name, mutex_);
}

std::int64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

double MetricsRegistry::timer_total_ms(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? 0.0 : it->second->total_ms();
}

std::int64_t MetricsRegistry::timer_count(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? 0 : it->second->count();
}

std::int64_t MetricsRegistry::gauge_value(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

std::map<std::string, std::int64_t> MetricsRegistry::counters_snapshot()
    const {
  std::lock_guard lock(mutex_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

std::map<std::string, MetricsRegistry::TimerSnapshot>
MetricsRegistry::timers_snapshot() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, TimerSnapshot> out;
  for (const auto& [name, timer] : timers_) {
    out[name] = TimerSnapshot{timer->count(), timer->total_ms()};
  }
  return out;
}

std::map<std::string, std::int64_t> MetricsRegistry::gauges_snapshot() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, gauge] : gauges_) out[name] = gauge->value();
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, timer] : timers_) {
    timer->nanos_.store(0, std::memory_order_relaxed);
    timer->count_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->value_.store(0, std::memory_order_relaxed);
  }
}

ScopedTimer::ScopedTimer(MetricsRegistry::Timer* timer) : timer_(timer) {
  if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
}

ScopedTimer::ScopedTimer(MetricsRegistry* registry, std::string_view name) {
  if (registry != nullptr) {
    timer_ = &registry->timer(name);
    start_ = std::chrono::steady_clock::now();
  }
}

void ScopedTimer::stop() {
  if (timer_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  timer_->record_nanos(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  timer_ = nullptr;
}

namespace metrics {

std::string to_json(const MetricsRegistry& registry) {
  std::string out = "{\n";

  out += "  \"counters\": {";
  const auto counters = registry.counters_snapshot();
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(value);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";

  out += "  \"timers_ms\": {";
  const auto timers = registry.timers_snapshot();
  first = true;
  for (const auto& [name, snap] : timers) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) +
           "\": {\"count\": " + std::to_string(snap.count) +
           ", \"total_ms\": " + format_ms(snap.total_ms) + "}";
  }
  out += timers.empty() ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  const auto gauges = registry.gauges_snapshot();
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(value);
  }
  out += gauges.empty() ? "}\n" : "\n  }\n";

  out += "}\n";
  return out;
}

void write_json(const MetricsRegistry& registry, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("metrics::write_json: cannot open " + path);
  }
  file << to_json(registry);
  if (!file) {
    throw std::runtime_error("metrics::write_json: write failed for " + path);
  }
}

}  // namespace metrics

}  // namespace dasc
