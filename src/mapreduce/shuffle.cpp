#include "mapreduce/shuffle.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"

namespace dasc::mapreduce {

namespace {

/// Injected-corruption realization: flip one byte of the transfer so the
/// CRC check catches it. Returns false when every record is empty (nothing
/// to flip — the caller fails the attempt instead).
bool flip_one_byte(std::vector<Record>& records) {
  for (auto& record : records) {
    if (!record.value.empty()) {
      record.value.front() = static_cast<char>(record.value.front() ^ 0x1);
      return true;
    }
    if (!record.key.empty()) {
      record.key.front() = static_cast<char>(record.key.front() ^ 0x1);
      return true;
    }
  }
  return false;
}

/// fetch_verified over an in-memory map output: each attempt copies it.
std::vector<Record> fetch_local(const std::vector<Record>& output,
                                std::size_t task, FaultInjector* faults,
                                std::size_t max_attempts,
                                MetricsRegistry* metrics) {
  const std::uint32_t expected = records_crc(output);
  return fetch_verified(
      task, faults, max_attempts,
      [&] { return FetchedSlice{output, expected}; },
      [metrics] {
        if (metrics != nullptr) metrics->counter("retry.shuffle_fetch").add();
      });
}

}  // namespace

std::uint32_t records_crc(const std::vector<Record>& records) {
  Crc32 crc;
  for (const auto& record : records) {
    crc.update(record.key).update("\t").update(record.value).update("\n");
  }
  return crc.value();
}

std::vector<Record> fetch_verified(
    std::size_t map_task, FaultInjector* faults, std::size_t max_attempts,
    const std::function<FetchedSlice()>& transfer,
    const std::function<void()>& on_retry) {
  for (std::size_t attempt = 1;; ++attempt) {
    const FaultInjector::Outcome fault =
        faults != nullptr ? faults->check("shuffle.fetch")
                          : FaultInjector::Outcome::kNone;
    bool ok = fault != FaultInjector::Outcome::kError;
    FetchedSlice slice;
    if (ok) {
      slice = transfer();
      if (fault == FaultInjector::Outcome::kCorruption) {
        ok = flip_one_byte(slice.records) &&
             records_crc(slice.records) == slice.crc;
      } else {
        ok = records_crc(slice.records) == slice.crc;
      }
    }
    if (ok) return std::move(slice.records);
    if (attempt >= max_attempts) {
      throw IoError("shuffle: fetch of map output " +
                    std::to_string(map_task) + " failed after " +
                    std::to_string(max_attempts) + " attempts");
    }
    on_retry();
    DASC_LOG(kWarn) << "shuffle: re-fetching map output " << map_task
                    << " (attempt " << attempt << " failed verification)";
  }
}

std::size_t partition_for_key(const std::string& key,
                              std::size_t num_partitions) {
  DASC_EXPECT(num_partitions >= 1, "partition_for_key: need >= 1 partition");
  return std::hash<std::string>{}(key) % num_partitions;
}

std::vector<KeyGroup> sort_and_group(std::vector<Record> partition) {
  std::stable_sort(partition.begin(), partition.end(),
                   [](const Record& a, const Record& b) {
                     return a.key < b.key;
                   });
  std::vector<KeyGroup> groups;
  for (auto& record : partition) {
    if (groups.empty() || groups.back().key != record.key) {
      groups.push_back({record.key, {}});
    }
    groups.back().values.push_back(std::move(record.value));
  }
  return groups;
}

SpoolConfig shuffle_spool_config(std::size_t spill_budget_bytes,
                                 const std::string& spill_dir,
                                 std::size_t max_fetch_attempts) {
  SpoolConfig config;
  config.dir = spill_dir;
  config.budget_bytes = spill_budget_bytes == 0
                            ? std::numeric_limits<std::size_t>::max()
                            : spill_budget_bytes;
  config.max_attempts = std::max(config.max_attempts, max_fetch_attempts);
  config.sort_on_seal = true;
  return config;
}

std::vector<std::unique_ptr<SpoolBuffer>> fetch_and_partition(
    const std::vector<std::vector<Record>>& outputs,
    std::size_t num_partitions, FaultInjector* faults,
    std::size_t max_attempts, MetricsRegistry* metrics,
    const SpoolConfig& spool) {
  DASC_EXPECT(num_partitions >= 1, "fetch_and_partition: need >= 1 partition");
  DASC_EXPECT(max_attempts >= 1, "fetch_and_partition: need >= 1 attempt");

  SpoolConfig config = spool;
  config.sort_on_seal = true;
  config.faults = faults;
  config.metrics = metrics;

  std::vector<std::unique_ptr<SpoolBuffer>> partitions;
  partitions.reserve(num_partitions);
  for (std::size_t p = 0; p < num_partitions; ++p) {
    partitions.push_back(std::make_unique<SpoolBuffer>(config));
  }
  for (std::size_t task = 0; task < outputs.size(); ++task) {
    // With no injector nothing can fire: no copy, no CRC.
    const std::vector<Record> fetched =
        faults == nullptr
            ? std::vector<Record>()
            : fetch_local(outputs[task], task, faults, max_attempts, metrics);
    for (const auto& record : faults == nullptr ? outputs[task] : fetched) {
      partitions[partition_for_key(record.key, num_partitions)]->append(
          record.key, record.value);
    }
  }
  for (auto& partition : partitions) partition->finish();
  return partitions;
}

}  // namespace dasc::mapreduce
