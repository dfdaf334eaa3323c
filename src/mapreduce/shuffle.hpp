// Shuffle phase: hash partitioning of map outputs, per-partition sort, and
// grouping by key — the bridge between map and reduce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/spool.hpp"
#include "mapreduce/types.hpp"

namespace dasc {
class FaultInjector;
class MetricsRegistry;
}  // namespace dasc

namespace dasc::mapreduce {

/// Default Hadoop-style partitioner: hash(key) mod num_partitions.
std::size_t partition_for_key(const std::string& key,
                              std::size_t num_partitions);

/// One reduce group: a key and all values emitted for it, in map order
/// within each map task and sorted by (key, task) across tasks.
struct KeyGroup {
  std::string key;
  std::vector<std::string> values;
};

/// Partition map outputs. outputs[task] is one map task's emitted records;
/// the result has one record vector per partition.
std::vector<std::vector<Record>> partition_outputs(
    const std::vector<std::vector<Record>>& outputs,
    std::size_t num_partitions);

/// CRC-32 over records in the "key\tvalue\n" convention: the transfer
/// checksum every shuffle path serves and verifies.
std::uint32_t records_crc(const std::vector<Record>& records);

/// One transfer attempt's result: the records as received plus the
/// checksum their source computed before sending them.
struct FetchedSlice {
  std::vector<Record> records;
  std::uint32_t crc = 0;
};

/// The CRC-plus-retry fetch loop every shuffle path shares — the in-
/// process RAM and spooled shuffles and the multi-process pull client — so
/// a fault plan exercises them identically whichever process fetches.
/// Each attempt makes one `shuffle.fetch` check (`faults` may be null): an
/// error fails the attempt without transferring; otherwise `transfer`
/// runs, a corruption flips one byte of what it returned, and the records
/// must match the source's CRC. A failed attempt calls `on_retry` and goes
/// again; after `max_attempts` the loop throws IoError. Exceptions from
/// `transfer` propagate untouched. Returns the verified records.
std::vector<Record> fetch_verified(
    std::size_t map_task, FaultInjector* faults, std::size_t max_attempts,
    const std::function<FetchedSlice()>& transfer,
    const std::function<void()>& on_retry);

/// Checksummed shuffle transfer: each map output is copied through
/// fetch_verified (counting `retry.shuffle_fetch` per re-fetch) and
/// partitioned. With no injector this is exactly partition_outputs (no
/// copy, no CRC cost); the result layout is the same for any run that
/// completes.
std::vector<std::vector<Record>> fetch_and_partition(
    const std::vector<std::vector<Record>>& outputs,
    std::size_t num_partitions, FaultInjector* faults,
    std::size_t max_attempts, MetricsRegistry* metrics);

/// Sort one partition's records by key and group equal keys.
std::vector<KeyGroup> sort_and_group(std::vector<Record> partition);

/// Out-of-core shuffle state: one sort-on-seal spool buffer per reduce
/// partition. Sealed (finished) shuffles are const-readable, so reduce
/// re-attempts and speculative backups can stream the same partition
/// concurrently.
struct SpilledShuffle {
  std::vector<std::unique_ptr<SpoolBuffer>> partitions;

  /// Stream partition `partition`'s records grouped by key, in exactly
  /// the order sort_and_group produces: keys ascending, values in map
  /// order within each map task and by task across tasks. The KeyGroup
  /// reference is valid only inside the callback.
  void for_each_group(std::size_t partition,
                      const std::function<void(const KeyGroup&)>& fn) const;

  /// Accounting bytes across all partitions (the shuffle_bytes counter).
  std::size_t total_record_bytes() const;
};

/// External-merge variant of fetch_and_partition: identical transfer
/// semantics, but verified records are appended to per-partition spool
/// buffers in task order instead of a RAM partition map.
/// `spool` supplies dir/budget/page knobs; sort_on_seal is forced on and
/// faults/metrics are overridden with the arguments so page I/O shares
/// the job's injector and registry. Each partition's grouped stream is
/// bit-identical to sort_and_group over the RAM path for any budget.
SpilledShuffle fetch_and_partition_to_spool(
    const std::vector<std::vector<Record>>& outputs,
    std::size_t num_partitions, FaultInjector* faults,
    std::size_t max_attempts, MetricsRegistry* metrics,
    const SpoolConfig& spool);

/// Total serialized bytes of the records (the shuffle-traffic counter).
std::size_t shuffle_bytes(const std::vector<std::vector<Record>>& partitions);

}  // namespace dasc::mapreduce
