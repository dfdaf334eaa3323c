#include "mapreduce/shuffle.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/log.hpp"

namespace dasc::mapreduce {

std::string_view MapOutput::run(std::size_t partition) const {
  DASC_EXPECT(partition < run_end.size(), "MapOutput: no such partition");
  const std::size_t begin = partition == 0 ? 0 : run_end[partition - 1];
  return std::string_view(bytes).substr(begin, run_end[partition] - begin);
}

void fetch_verified(std::size_t map_task, FaultInjector* faults,
                    std::size_t max_attempts,
                    const std::function<void()>& transfer,
                    const std::function<void()>& on_retry) {
  for (std::size_t attempt = 1;; ++attempt) {
    const FaultInjector::Outcome fault =
        faults != nullptr ? faults->check("shuffle.fetch")
                          : FaultInjector::Outcome::kNone;
    if (fault != FaultInjector::Outcome::kError) transfer();
    if (fault == FaultInjector::Outcome::kNone) return;
    if (attempt >= max_attempts) {
      throw IoError("shuffle: fetch of map output " +
                    std::to_string(map_task) + " failed after " +
                    std::to_string(max_attempts) + " attempts");
    }
    on_retry();
    DASC_LOG(kWarn) << "shuffle: re-fetching map output " << map_task
                    << " (attempt " << attempt << " failed)";
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
  return config;
}

}  // namespace dasc::mapreduce
